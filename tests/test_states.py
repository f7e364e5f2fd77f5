"""State assembly, the permutation-sum oracle, normalization, invariances."""

import cmath
import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lqngraph.designers import design_dicke2, preset_beamsplitter, preset_tritter
from lqngraph.errors import InvalidArgument, NonFiniteValue, TooLarge, ZeroState
from lqngraph.graphs import TABLE_PARTICLES, diagram_of_network
from lqngraph.io import serialize_state
from lqngraph.model import (
    Color,
    NetworkSpec,
    NormalizationMode,
    Statistics,
    Transition,
    validate_network,
)
from lqngraph.states import (
    NoBunchState,
    _ket_sums,
    assemble_network_state,
    ket_glyphs,
    max_amplitude_difference,
    normalize,
    oracle_state,
)

from conftest import (
    brute_force_assignments,
    matchings,
    n5_network,
    networks,
    random_network,
)


def rounding_bound(spec):
    """1e-12 times a bound on the sum of |terms| in any amplitude (perm(|T|) <= prod of row sums)."""
    rows = [0.0] * spec.n
    for t in spec.transitions:
        rows[t.source - 1] += abs(t.amplitude)
    return 1e-12 * max(1.0, math.prod(rows))


def ket_reprs(state):
    """Kets in insertion order with their amplitudes' reprs.

    ``normalize`` sums the norm in insertion order, and repr tells -0.0
    from 0.0, so this pins what a dict ``==`` lets through.
    """
    return [(k, repr(v)) for k, v in state.amplitudes.items()]


def assert_engine_is_bit_exact(spec):
    # Both sum the matchings in lexicographic order, multiplying edge
    # weights particle by particle, so not even the last bit may differ.
    assert ket_reprs(assemble_network_state(spec)) == ket_reprs(oracle_state(spec))
    assert [assignment for assignment, _ in matchings(spec)] == sorted(
        brute_force_assignments(spec)
    )


class TestAssemble:
    def test_two_mode_crossing_boson(self):
        a1, b1 = 0.6, 0.8j
        a2, b2 = 1 / math.sqrt(2), -1 / math.sqrt(2)
        spec = preset_beamsplitter(a1, b1, a2, b2)
        state = assemble_network_state(spec)
        assert state.amplitude("uu") == pytest.approx(a1 * b2)
        assert state.amplitude("dd") == pytest.approx(b1 * a2)
        assert set(state.amplitudes) == {"uu", "dd"}

    def test_two_mode_crossing_fermion(self):
        a1, b1 = 0.6, 0.8j
        a2, b2 = 1 / math.sqrt(2), -1 / math.sqrt(2)
        spec = preset_beamsplitter(a1, b1, a2, b2, Statistics.FERMION)
        state = assemble_network_state(spec)
        assert state.amplitude("uu") == pytest.approx(a1 * b2)
        assert state.amplitude("dd") == pytest.approx(-b1 * a2)

    def test_n5_combines_matchings_per_string(self):
        spec = n5_network()
        T = {(t.source, t.detector): t.amplitude for t in spec.transitions}
        state = assemble_network_state(spec)
        assert len(state.amplitudes) == 4
        assert state.amplitude("dduuu") == pytest.approx(
            T[(1, 1)] * T[(2, 2)] * T[(3, 3)] * T[(4, 4)] * T[(5, 5)]
        )
        assert state.amplitude("duuud") == pytest.approx(
            T[(1, 1)] * T[(5, 2)] * T[(3, 3)] * T[(4, 4)] * T[(2, 5)]
        )
        assert state.amplitude("ududu") == pytest.approx(
            (T[(4, 1)] * T[(2, 2)] * T[(3, 3)] + T[(3, 1)] * T[(2, 2)] * T[(4, 3)])
            * T[(1, 4)] * T[(5, 5)]
        )
        assert state.amplitude("uuudd") == pytest.approx(
            (T[(4, 1)] * T[(5, 2)] * T[(3, 3)] + T[(3, 1)] * T[(5, 2)] * T[(4, 3)])
            * T[(1, 4)] * T[(2, 5)]
        )


class TestOracle:
    def test_assembly_matches_oracle_on_random_networks(self):
        rng = np.random.default_rng(41)
        for n in range(2, 7):
            for _ in range(10):
                spec = random_network(rng, n)
                diff = max_amplitude_difference(
                    assemble_network_state(spec), oracle_state(spec)
                )
                assert diff <= 1e-12

    def test_tritter_amplitudes(self):
        w = cmath.exp(2j * math.pi / 3)
        expected = (1 + w**2) / (3 * math.sqrt(3))
        state = oracle_state(preset_tritter())
        assert set(state.amplitudes) == {"uud", "udu", "duu"}
        for ket in state.amplitudes:
            assert state.amplitude(ket) == pytest.approx(expected)

    def test_dicke4_preset_amplitudes(self):
        state = oracle_state(design_dicke2(4, preset="paper-n4"))
        assert len(state.amplitudes) == 6
        for ket, amp in state.sorted_terms():
            assert ket.count("d") == 2
            assert amp == pytest.approx(1 / 9)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks())
    def test_engine_is_bit_exact_with_oracle(self, spec):
        assert_engine_is_bit_exact(spec)

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    @pytest.mark.parametrize("density", [1.0, 0.5])
    @pytest.mark.parametrize("n", range(1, TABLE_PARTICLES + 2))
    def test_table_covers_most_particles(self, n, density, statistics):
        # the last TABLE_PARTICLES particles come from the completion
        # table, so here it places all of them (led by weight-1 rows below
        # TABLE_PARTICLES) or all but one
        rng = np.random.default_rng(100 * n + int(10 * density))
        planted = {(a, int(j)) for a, j in enumerate(rng.permutation(n) + 1, start=1)}
        edges = [
            (a, j, complex(*rng.uniform(-1.5, 1.5, 2)), "ud"[rng.integers(0, 2)])
            for a in range(1, n + 1)
            for j in range(1, n + 1)
            if (a, j) in planted or rng.random() < density
        ]
        spec = validate_network(n, statistics, edges, "design")
        assert_engine_is_bit_exact(spec)

    def test_complete_fermion_n8_is_bit_exact_with_oracle(self):
        rng = np.random.default_rng(53)
        spec = random_network(rng, 8, Statistics.FERMION, edge_prob=1.0)
        assert len(spec.transitions) == 64
        engine = assemble_network_state(spec)
        assert len(engine.amplitudes) > 1
        assert ket_reprs(engine) == ket_reprs(oracle_state(spec))

    def test_complete_boson_n8_is_bit_exact_with_oracle(self):
        rng = np.random.default_rng(61)
        spec = random_network(rng, 8, Statistics.BOSON, edge_prob=1.0)
        assert len(spec.transitions) == 64
        engine = assemble_network_state(spec)
        assert len(engine.amplitudes) > 1
        assert ket_reprs(engine) == ket_reprs(oracle_state(spec))

    def test_complete_boson_n7_is_bit_exact_with_oracle(self):
        rng = np.random.default_rng(59)
        spec = random_network(rng, 7, Statistics.BOSON, edge_prob=1.0)
        assert len(spec.transitions) == 49
        engine = assemble_network_state(spec)
        assert len(engine.amplitudes) > 1
        assert ket_reprs(engine) == ket_reprs(oracle_state(spec))

    def test_size_guard(self):
        spec = validate_network(
            11, "boson", [(a, a, 1.0, "up") for a in range(1, 12)], "strict"
        )
        with pytest.raises(TooLarge):
            oracle_state(spec)


class TestIntegerWeights:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(), st.data())
    def test_exact_sums_equal_a_permutation_sum(self, spec, data):
        # the numeric route's walk: every product and sum an exact integer;
        # small weights make fermion sums cancel, large ones pass 2**53
        weights = data.draw(
            st.lists(
                st.integers(1, 2) | st.integers(1, 2**61 - 1),
                min_size=len(spec.transitions),
                max_size=len(spec.transitions),
            )
        )
        spec = spec._replace(
            transitions=tuple(t._replace(amplitude=w) for t, w in zip(spec.transitions, weights))
        )
        edge = spec.transition_map()
        want = {}
        for perm in itertools.permutations(range(1, spec.n + 1)):
            ts = [edge.get(pair) for pair in enumerate(perm, start=1)]
            if None in ts:
                continue
            weight = math.prod(t.amplitude for t in ts)
            if spec.statistics is Statistics.FERMION and sum(
                x > y for x, y in itertools.combinations(perm, 2)
            ) % 2:
                weight = -weight
            code = sum(1 << t.detector for t in ts if t.color is Color.DOWN)
            want[code] = want.get(code, 0) + weight
        sums = _ket_sums(spec, exact=True)
        assert sums == {code: v for code, v in want.items() if v}
        assert all(type(v) is int for v in sums.values())

    def test_int_amplitude_spec_still_assembles_a_complex_state(self):
        # only the numeric route walks in integers; a spec built directly
        # with int amplitudes is multiplied from complex(1.0), as the oracle is
        edges = [(a, j, 3 * a + j, "ud"[(a + j) % 2]) for a in (1, 2, 3) for j in (1, 2, 3)]
        spec = NetworkSpec(
            3,
            Statistics.FERMION,
            tuple(Transition(a, j, w, Color(c)) for a, j, w, c in edges),
            NormalizationMode.DESIGN,
        )
        state = assemble_network_state(spec)
        assert ket_reprs(state) == ket_reprs(oracle_state(spec))
        assert state.amplitudes and all(type(v) is complex for v in state.amplitudes.values())
        # three factors of 1e200 leave the float range, as they do in the oracle
        huge = spec._replace(transitions=tuple(t._replace(amplitude=10**200) for t in spec.transitions))
        for assemble in (assemble_network_state, oracle_state):
            with pytest.raises(NonFiniteValue):
                assemble(huge)


class TestNormalize:
    def test_tritter_probability_and_uniformity(self):
        state = normalize(assemble_network_state(preset_tritter()))
        assert state.postselect_probability == pytest.approx(1 / 9, abs=1e-12)
        for _, amp in state.sorted_terms():
            assert abs(amp) == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_already_normalized_bell_state(self):
        h = 1 / math.sqrt(2)
        bell = NoBunchState(2, {"uu": h, "dd": h})
        again = normalize(bell)
        assert again.postselect_probability == pytest.approx(1.0)
        assert again.amplitude("uu") == pytest.approx(h)

    def test_exact_fermionic_cancellation(self):
        h = 1 / math.sqrt(2)
        spec = validate_network(
            2,
            "fermion",
            [(1, 1, h, "u"), (1, 2, h, "u"), (2, 1, h, "u"), (2, 2, h, "u")],
            "strict",
        )
        state = assemble_network_state(spec)
        assert state.amplitudes == {}
        with pytest.raises(ZeroState):
            normalize(state)


    def test_weight_beyond_float_range(self):
        # |T|^2 = 1e600 overflows a float, so the squared norm to be
        # recorded would be infinite
        big = validate_network(1, "boson", [(1, 1, 1e300, "u")], "design")
        with pytest.raises(NonFiniteValue):
            normalize(assemble_network_state(big))
        # 1e200 * 1e200 overflows the matching weight itself
        edges = [(1, 1, 1e200, "u"), (2, 2, 1e200, "u")]
        overflowed = validate_network(2, "boson", edges, "design")
        with pytest.raises(NonFiniteValue):
            normalize(assemble_network_state(overflowed))


@pytest.mark.parametrize(
    "amp", [math.nan, math.inf, complex(-math.inf, 0.0), complex(0.0, math.nan)]
)
def test_non_finite_amplitude_is_rejected(amp):
    # every state is checked on construction, so the numeric route never
    # sees a NaN (numpy's SVD would raise LinAlgError on one)
    with pytest.raises(NonFiniteValue):
        NoBunchState(2, {"ud": amp})


@pytest.mark.parametrize(
    "args, error",
    [
        ((2, [("uu", 1.0)]), InvalidArgument),
        ((2, None), InvalidArgument),
        ((2, {"uu": 1.0}, "yes"), InvalidArgument),
        ((2, {"uu": 1.0}, 1), InvalidArgument),
        ((2, {"uu": 1.0}, True, "0.5"), InvalidArgument),
        ((2, {"uu": 1.0}, True, True), InvalidArgument),
        ((2, {"uu": 1.0}, True, 0.5j), InvalidArgument),
        ((2, {"uu": 1.0}, True, -0.5), InvalidArgument),
        ((2, {"uu": 1.0}, True, math.nan), NonFiniteValue),
        ((2, {"uu": 1.0}, True, math.inf), NonFiniteValue),
        ((2, {"ud": 10**400}), NonFiniteValue),
    ],
    ids=[
        "amplitudes-list",
        "amplitudes-none",
        "normalized-string",
        "normalized-int",
        "probability-string",
        "probability-bool",
        "probability-complex",
        "probability-negative",
        "probability-nan",
        "probability-inf",
        "amplitude-int-beyond-float",
    ],
)
def test_bad_state_argument_is_refused(args, error):
    with pytest.raises(error):
        NoBunchState(*args)


@pytest.mark.parametrize("ket", ["ux", "u", "uuu", "u d", "UD", ""])
def test_ket_of_other_length_or_characters_is_refused(ket):
    with pytest.raises(InvalidArgument, match=f"bad ket {ket!r} for n=2"):
        NoBunchState(2, {ket: 1.0})


def test_squared_norm_adds_left_to_right():
    # compensated summation (sum() of floats from Python 3.12 on) would
    # give 1.0000000000000002e+16; the printed amplitudes rest on this sum
    state = NoBunchState(3, {"uuu": 1e8, "uud": 1.0, "udu": 1.0})
    assert state.norm_squared() == 1e16


@pytest.mark.parametrize("p", [None, 0.0, 1e-320, 0.25, 1, 10**400])
def test_state_accepts_any_finite_probability_at_least_zero(p):
    # 0.0 is an underflowed probability (a large network's 2**(1-n))
    assert NoBunchState(1, {"u": 1.0}, True, p).postselect_probability == p


def test_state_keeps_a_read_only_copy_of_its_amplitudes():
    # the checks hold for the state's life: a later change to the caller's
    # dict does not reach it, and the state's own mapping refuses writes
    given_amplitudes = {"ud": 1.0}
    state = NoBunchState(2, given_amplitudes)
    text = serialize_state(state)
    given_amplitudes["zzz"] = math.nan
    given_amplitudes["ud"] = 2.0
    assert state.amplitudes == {"ud": 1.0}
    assert serialize_state(state) == text
    with pytest.raises(TypeError):
        state.amplitudes["du"] = 1.0
    with pytest.raises(TypeError):
        del state.amplitudes["ud"]
    assert state == NoBunchState(2, {"ud": 1.0}) == NoBunchState(2, state.amplitudes)
    assert state._replace(normalized=True).amplitudes == {"ud": 1.0}


def test_state_pickles_and_copies():
    state = NoBunchState(2, {"ud": 0.6, "du": 0.8j}, True, 0.5)
    for twin in (pickle.loads(pickle.dumps(state)), copy.copy(state), copy.deepcopy(state)):
        assert twin == state and type(twin) is NoBunchState
        with pytest.raises(TypeError):
            twin.amplitudes["uu"] = 1.0


class TestInvariances:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(min_n=2, max_n=6), st.data())
    def test_fermionic_row_swap_antisymmetry(self, spec, data):
        # exchanging two particles' rows flips the sign of every fermionic
        # amplitude and leaves the bosonic ones alone
        n = spec.n
        a = data.draw(st.integers(1, n), label="a")
        b = data.draw(st.integers(1, n).filter(lambda b: b != a), label="b")
        swapped = validate_network(
            n,
            spec.statistics,
            [
                ({a: b, b: a}.get(t.source, t.source), t.detector, t.amplitude, t.color)
                for t in spec.transitions
            ],
            "design",
        )
        sign = -1 if spec.statistics is Statistics.FERMION else 1
        s1 = assemble_network_state(spec)
        s2 = assemble_network_state(swapped)
        tol = rounding_bound(spec)
        for k in set(s1.amplitudes) | set(s2.amplitudes):
            assert s2.amplitude(k) == pytest.approx(sign * s1.amplitude(k), abs=tol)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(min_n=2, max_n=6), st.permutations(range(1, 7)))
    def test_detector_permutation_covariance(self, spec, shuffled):
        # relabeling detectors by pi permutes string positions; for fermions
        # every matching parity also picks up sign(pi), a global sign
        n = spec.n
        perm = [j for j in shuffled if j <= n]  # detector j -> perm[j-1]
        inversions = sum(
            perm[i] > perm[k]
            for i in range(n)
            for k in range(i + 1, n)
        )
        sign = 1
        if spec.statistics is Statistics.FERMION and inversions % 2:
            sign = -1
        moved = validate_network(
            n,
            spec.statistics,
            [
                (t.source, perm[t.detector - 1], t.amplitude, t.color)
                for t in spec.transitions
            ],
            "design",
        )
        before = assemble_network_state(spec)
        after = assemble_network_state(moved)
        tol = rounding_bound(spec)
        for ket, amp in before.amplitudes.items():
            target = [""] * n
            for j, ch in enumerate(ket, start=1):
                target[perm[j - 1] - 1] = ch
            assert after.amplitude("".join(target)) == pytest.approx(
                sign * amp, abs=tol
            )

    def test_deleting_unmatched_edges_preserves_state(self):
        spec = n5_network()
        dead = set(diagram_of_network(spec).removed_bipartite_pairs())
        assert dead  # the example exists to have dead edges
        pruned = validate_network(
            spec.n,
            spec.statistics,
            [
                (t.source, t.detector, t.amplitude, t.color)
                for t in spec.transitions
                if (t.source, t.detector) not in dead
            ],
            "design",
        )
        diff = max_amplitude_difference(
            assemble_network_state(spec), assemble_network_state(pruned)
        )
        assert diff <= 1e-15


@given(st.text("ud", max_size=64))
def test_ket_glyphs_reads_each_character_as_its_color(ket):
    assert ket_glyphs(ket) == "".join(Color(ch).glyph for ch in ket)


@pytest.mark.parametrize("ket", ["x", "uxd", "u\u2191", "ud ", "U"])
def test_ket_glyphs_refuses_other_characters(ket):
    with pytest.raises(InvalidArgument, match="characters must be u or d"):
        ket_glyphs(ket)
