"""State assembly, the permutation-sum oracle, normalization, equivalence."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lqngraph.designers import design_dicke2, preset_beamsplitter, preset_tritter
from lqngraph.errors import (
    DimensionMismatch,
    InvalidMatching,
    NonFiniteValue,
    TooLarge,
    ZeroState,
)
from lqngraph.graphs import PerfectMatching, diagram_of_network, enumerate_pms
from lqngraph.model import Statistics, to_adjacency, to_bipartite, validate_network
from lqngraph.states import (
    NoBunchState,
    assemble_network_state,
    assemble_state,
    max_amplitude_difference,
    normalize,
    oracle_state,
    state_equiv,
)

from conftest import brute_force_assignments, n5_network, random_network


def pms_of(spec):
    return enumerate_pms(to_bipartite(to_adjacency(spec)))


class TestAssemble:
    def test_two_mode_crossing_boson(self):
        a1, b1 = 0.6, 0.8j
        a2, b2 = 1 / math.sqrt(2), -1 / math.sqrt(2)
        spec = preset_beamsplitter(a1, b1, a2, b2)
        state = assemble_state(pms_of(spec), spec)
        assert state.amplitude("uu") == pytest.approx(a1 * b2)
        assert state.amplitude("dd") == pytest.approx(b1 * a2)
        assert set(state.amplitudes) == {"uu", "dd"}

    def test_two_mode_crossing_fermion(self):
        a1, b1 = 0.6, 0.8j
        a2, b2 = 1 / math.sqrt(2), -1 / math.sqrt(2)
        spec = preset_beamsplitter(a1, b1, a2, b2, Statistics.FERMION)
        state = assemble_state(pms_of(spec), spec)
        assert state.amplitude("uu") == pytest.approx(a1 * b2)
        assert state.amplitude("dd") == pytest.approx(-b1 * a2)

    def test_n5_combines_matchings_per_string(self):
        spec = n5_network()
        T = {(t.source, t.detector): t.amplitude for t in spec.transitions}
        state = assemble_state(pms_of(spec), spec)
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

    def test_rejects_foreign_matching(self):
        spec = preset_tritter()
        fake = PerfectMatching((1, 2, 3), (1.0, 1.0, 1.0), pms_of(spec)[0].colors)
        other = validate_network(
            3, "boson", [(a, a, 1.0, "up") for a in (1, 2, 3)], "strict"
        )
        # (1, 2) is no edge of the identity network
        bad = PerfectMatching((2, 1, 3), fake.weights, fake.colors)
        with pytest.raises(InvalidMatching):
            assemble_state([bad], other)


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
    @given(st.data())
    def test_engine_is_bit_exact_with_oracle(self, data):
        # Both sum the matchings in lexicographic order, multiplying edge
        # weights particle by particle, so not even the last bit may differ.
        n = data.draw(st.integers(1, 7), label="n")
        statistics = data.draw(st.sampled_from(["boson", "fermion"]))
        density = data.draw(st.sampled_from([0.2, 0.45, 0.7, 0.9, 1.0]))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        edges = [
            (a, j, complex(*rng.uniform(-1.5, 1.5, 2)), "ud"[rng.integers(0, 2)])
            for a in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < density
        ]
        spec = validate_network(n, statistics, edges, "design")
        engine = assemble_network_state(spec)
        oracle = oracle_state(spec)
        assert list(engine.amplitudes) == list(oracle.amplitudes)
        assert engine.amplitudes == oracle.amplitudes
        assert [pm.assignment for pm in pms_of(spec)] == sorted(
            brute_force_assignments(spec)
        )

    def test_complete_fermion_n8_is_bit_exact_with_oracle(self):
        rng = np.random.default_rng(53)
        spec = random_network(rng, 8, Statistics.FERMION, edge_prob=1.0)
        assert len(spec.transitions) == 64
        engine = assemble_network_state(spec)
        assert len(engine.amplitudes) > 1
        assert engine.amplitudes == oracle_state(spec).amplitudes

    def test_size_guard(self):
        spec = validate_network(
            11, "boson", [(a, a, 1.0, "up") for a in range(1, 12)], "strict"
        )
        with pytest.raises(TooLarge):
            oracle_state(spec)


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


class TestStateEquiv:
    def test_global_phase_ignored(self):
        state = normalize(assemble_network_state(preset_tritter()))
        phase = cmath.exp(1j * math.pi / 7)
        rotated = NoBunchState(
            3, {k: phase * v for k, v in state.amplitudes.items()}, normalized=True
        )
        assert state_equiv(state, rotated)

    def test_distinct_states_differ(self):
        s1 = NoBunchState(2, {"uu": 1.0}, normalized=True)
        s2 = NoBunchState(2, {"dd": 1.0}, normalized=True)
        assert not state_equiv(s1, s2)

    def test_tritter_equals_uniform_w(self):
        state = normalize(assemble_network_state(preset_tritter()))
        t = 1 / math.sqrt(3)
        uniform = NoBunchState(
            3, {"uud": t, "udu": t, "duu": t}, normalized=True
        )
        assert state_equiv(state, uniform)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            state_equiv(
                NoBunchState(2, {"uu": 1.0}, normalized=True),
                NoBunchState(3, {"uuu": 1.0}, normalized=True),
            )


class TestInvariances:
    def test_fermionic_row_swap_antisymmetry(self):
        rng = np.random.default_rng(43)
        for statistics, expected_sign in (
            (Statistics.FERMION, -1),
            (Statistics.BOSON, 1),
        ):
            for _ in range(10):
                n = int(rng.integers(2, 6))
                spec = random_network(rng, n, statistics)
                a, b = rng.choice(range(1, n + 1), size=2, replace=False)
                swapped_edges = []
                for t in spec.transitions:
                    source = {a: int(b), b: int(a)}.get(t.source, t.source)
                    swapped_edges.append((source, t.detector, t.amplitude, t.color))
                swapped = validate_network(n, statistics, swapped_edges, "strict")
                s1 = assemble_network_state(spec)
                s2 = assemble_network_state(swapped)
                keys = set(s1.amplitudes) | set(s2.amplitudes)
                for k in keys:
                    assert s2.amplitude(k) == pytest.approx(
                        expected_sign * s1.amplitude(k), abs=1e-12
                    )

    def test_detector_permutation_covariance(self):
        # relabeling detectors by pi permutes string positions; for fermions
        # every matching parity also picks up sign(pi), a global sign
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            spec = random_network(rng, n)
            perm = rng.permutation(n) + 1  # detector j -> perm[j-1]
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
                    (t.source, int(perm[t.detector - 1]), t.amplitude, t.color)
                    for t in spec.transitions
                ],
                "strict",
            )
            before = assemble_network_state(spec)
            after = assemble_network_state(moved)
            for ket, amp in before.amplitudes.items():
                target = [""] * n
                for j, ch in enumerate(ket, start=1):
                    target[perm[j - 1] - 1] = ch
                assert after.amplitude("".join(target)) == pytest.approx(
                    sign * amp, abs=1e-12
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
