"""Structural criteria, Schmidt ranks, finest partitions."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from lqngraph import graphs
from lqngraph.designers import design_ghz, design_w
from lqngraph.entanglement import (
    Bipartition,
    Verdict,
    build_report,
    finest_partition,
    generic_amplitudes,
    lemma1_separable_vertices,
    lemma2_partition,
    schmidt_rank,
    theorem1_check,
    theorem2_w_optimal_check,
)
from lqngraph.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    NoPerfectMatching,
    TooLarge,
    ZeroState,
)
from lqngraph.graphs import diagram_of_network
from lqngraph.model import Color, NormalizationMode, validate_network
from lqngraph.states import NoBunchState, assemble_network_state, normalize

from conftest import (
    matchings,
    n5_network,
    networks,
    planted_product_states,
    random_network_with_pm,
    reference_finest_partition,
    reference_schmidt_rank,
    superposed_subsystem_network,
)


def cut(n, *detectors):
    return Bipartition(frozenset(detectors), n)


def loops_only(n):
    return validate_network(
        n, "boson", [(a, a, 1.0, "up") for a in range(1, n + 1)], "strict"
    )


BELL = NoBunchState(
    2, {"uu": 1 / math.sqrt(2), "dd": 1 / math.sqrt(2)}, normalized=True
)
PRODUCT_UD = NoBunchState(2, {"ud": 1.0}, normalized=True)


class TestLemma1:
    def test_n5_pins_detector_three_up(self):
        diag = diagram_of_network(n5_network())
        assert lemma1_separable_vertices(diag) == [(3, Color.UP)]

    def test_all_loops_pins_everything(self):
        diag = diagram_of_network(loops_only(4))
        assert lemma1_separable_vertices(diag) == [
            (v, Color.UP) for v in range(1, 5)
        ]

    def test_ghz_diagram_pins_nothing(self):
        diag = diagram_of_network(design_ghz(4))
        assert lemma1_separable_vertices(diag) == []

    def test_soundness_every_matching_agrees(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            spec = random_network_with_pm(rng, int(rng.integers(2, 7)))
            diag = diagram_of_network(spec)
            pms = matchings(spec)
            for vertex, color in lemma1_separable_vertices(diag):
                detector = diag.detector_of_vertex(vertex)
                for assignment, colors in pms:
                    a = assignment.index(detector) + 1
                    assert colors[a - 1] is color


class TestLemma2:
    def test_n5_partition(self):
        diag = diagram_of_network(n5_network())
        assert lemma2_partition(diag) == ((1, 3, 4), (2, 5))

    def test_loops_only_fully_separable(self):
        diag = diagram_of_network(loops_only(3))
        assert lemma2_partition(diag) == ((1,), (2,), (3,))

    def test_w_star_single_block(self):
        diag = diagram_of_network(design_w(4, form="star"))
        assert lemma2_partition(diag) == ((1, 2, 3, 4),)

    def test_soundness_rank_one_across_component_cuts(self):
        # any amplitude assignment factorizes across whole-component splits
        rng = random.Random(61)
        base = n5_network()
        for _ in range(50):
            spec = generic_amplitudes(base, rng)
            diag = diagram_of_network(spec)
            partition = lemma2_partition(diag)
            assert partition == ((1, 3, 4), (2, 5))
            state = normalize(assemble_network_state(spec))
            assert schmidt_rank(state, cut(5, 1, 3, 4)) == 1


class TestTheorem1:
    def test_n5_cannot_be_genuine(self):
        report = theorem1_check(diagram_of_network(n5_network()))
        assert report.verdict is Verdict.CANNOT_BE_GENUINE
        assert not report.strongly_connected
        assert report.color_condition_ok[2] is False  # vertex w3

    def test_ghz_may_be_genuine(self):
        report = theorem1_check(diagram_of_network(design_ghz(5)))
        assert report.verdict is Verdict.MAY_BE_GENUINE
        assert report.strongly_connected
        assert all(report.color_condition_ok)

    def test_conditions_are_not_sufficient(self):
        # structurally healthy diagram whose amplitudes factor X1 out anyway
        spec = superposed_subsystem_network()
        report = theorem1_check(diagram_of_network(spec))
        assert report.verdict is Verdict.MAY_BE_GENUINE
        state = normalize(assemble_network_state(spec))
        assert finest_partition(state) == ((1,), (2, 3))

    def test_contrapositive_on_random_networks(self):
        rng = np.random.default_rng(67)
        draw = random.Random(67)
        checked = 0
        while checked < 25:
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            report = theorem1_check(diagram_of_network(spec))
            if report.verdict is not Verdict.CANNOT_BE_GENUINE:
                continue
            checked += 1
            state = normalize(
                assemble_network_state(generic_amplitudes(spec, draw))
            )
            assert len(finest_partition(state)) > 1


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(networks(min_n=2, modes=("strict", "design")), st.integers(0, 2**32 - 1))
def test_structural_criteria_are_sound(spec, numeric_seed):
    pms = matchings(spec)
    assume(pms)
    diag = diagram_of_network(spec)
    # lemma 1: a pinned detector takes its color in every matching
    for vertex, color in lemma1_separable_vertices(diag):
        detector = diag.detector_of_vertex(vertex)
        for assignment, colors in pms:
            assert colors[assignment.index(detector)] is color
    # lemma 2: the generic state factors at least across the diagram blocks
    generic = generic_amplitudes(spec, random.Random(numeric_seed))
    numeric = finest_partition(normalize(assemble_network_state(generic)))
    blocks = [set(block) for block in lemma2_partition(diag)]
    assert all(any(set(b) <= block for block in blocks) for b in numeric)
    # theorem 1: a diagram failing its conditions gives no genuine entanglement
    if theorem1_check(diag).verdict is Verdict.CANNOT_BE_GENUINE:
        assert len(numeric) > 1


def test_report_finds_the_diagram_components_once(monkeypatch):
    calls = []

    def counting(n, succ):
        calls.append(n)
        return tarjan(n, succ)

    tarjan = graphs._tarjan_sccs
    monkeypatch.setattr(graphs, "_tarjan_sccs", counting)
    build_report(loops_only(3), numeric_seed=0)
    assert calls == [3]


class TestTheorem2:
    def test_w_star_layout_passes(self):
        report = theorem2_w_optimal_check(diagram_of_network(design_w(5, "star")))
        assert report.ok
        assert report.red_edge_count == 5
        assert report.source_vertices == (1,)

    def test_w_ring_layout_passes(self):
        report = theorem2_w_optimal_check(diagram_of_network(design_w(5, "ring")))
        assert report.ok

    def test_ghz_layout_fails_with_diagnostics(self):
        report = theorem2_w_optimal_check(diagram_of_network(design_ghz(4)))
        assert not report.ok
        assert len(report.source_vertices) > 1
        assert report.diagnostics


class TestSchmidtRank:
    def test_bell_state(self):
        assert schmidt_rank(BELL, cut(2, 1)) == 2

    def test_product_state(self):
        assert schmidt_rank(PRODUCT_UD, cut(2, 1)) == 1
        assert schmidt_rank(PRODUCT_UD, cut(2, 2)) == 1

    def test_n5_generic_rank_one_across_guaranteed_cut(self):
        spec = generic_amplitudes(n5_network(), random.Random(71))
        state = normalize(assemble_network_state(spec))
        assert schmidt_rank(state, cut(5, 1, 3, 4)) == 1
        # and entangled within the blocks
        assert schmidt_rank(state, cut(5, 1)) == 2

    def test_swap_symmetry_random(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            spec = random_network_with_pm(rng, n)
            state = normalize(assemble_network_state(spec))
            size = int(rng.integers(1, n))
            subset = frozenset(rng.choice(range(1, n + 1), size, replace=False).tolist())
            c = Bipartition(subset, n)
            cbar = Bipartition(c.complement, n)
            assert schmidt_rank(state, c) == schmidt_rank(state, cbar)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            schmidt_rank(BELL, cut(3, 1))

    def test_size_guard_before_the_amplitude_vector(self):
        # the 2**40 amplitudes of this two-ket state are never allocated
        n = 40
        ghz = normalize(NoBunchState(n, {"u" * n: 1.0, "d" * n: 1.0}))
        with pytest.raises(TooLarge) as info:
            schmidt_rank(ghz, cut(n, 1))
        assert str(info.value) == "n=40 exceeds the partition-search limit 10"

    @pytest.mark.parametrize("amplitudes", [{}, {"uud": 0j}])
    def test_zero_state_has_no_rank(self, amplitudes):
        # rank 0 would read as "not a product" to a caller testing rank == 1
        with pytest.raises(ZeroState):
            schmidt_rank(NoBunchState(3, amplitudes), cut(3, 1))


class TestFinestPartition:
    def test_n5_generic_three_blocks(self):
        spec = generic_amplitudes(n5_network(), random.Random(79))
        state = normalize(assemble_network_state(spec))
        assert finest_partition(state) == ((1, 4), (2, 5), (3,))

    def test_ghz_single_block(self):
        state = normalize(assemble_network_state(design_ghz(4)))
        assert finest_partition(state) == ((1, 2, 3, 4),)

    def test_product_string_fully_separates(self):
        state = NoBunchState(4, {"uuuu": 1.0}, normalized=True)
        assert finest_partition(state) == ((1,), (2,), (3,), (4,))

    def test_refines_structural_partition(self):
        rng = np.random.default_rng(83)
        draw = random.Random(83)
        for _ in range(20):
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            structural = lemma2_partition(diagram_of_network(spec))
            state = normalize(
                assemble_network_state(generic_amplitudes(spec, draw))
            )
            numeric = finest_partition(state)
            blocks = {d: block for block in structural for d in block}
            for block in numeric:
                assert {blocks[d] for d in block} == {blocks[block[0]]}

    def test_answers_past_ten_detectors(self):
        # no 2**n vector and no cut search, so no size limit
        product = NoBunchState(11, {"u" * 11: 1.0}, normalized=True)
        assert finest_partition(product) == tuple((d,) for d in range(1, 12))
        ghz = normalize(NoBunchState(40, {"u" * 40: 1.0, "d" * 40: 1.0}))
        assert finest_partition(ghz) == (tuple(range(1, 41)),)
        ring = generic_amplitudes(design_w(12, "ring"), random.Random(5))
        state = normalize(assemble_network_state(ring))
        assert finest_partition(state) == reference_finest_partition(state)
        assert finest_partition(state) == (tuple(range(1, 13)),)

    def test_constant_detectors_are_singletons_in_place(self):
        # a GHZ-3 block on detectors 5, 700 and 1999; every other detector
        # has one bit in both kets, so it needs no pair test
        n = 2000
        ghz = (5, 700, 1999)
        base = ["d" if d % 3 == 0 else "u" for d in range(1, n + 1)]
        kets = []
        for color in "ud":
            for d in ghz:
                base[d - 1] = color
            kets.append("".join(base))
        state = NoBunchState(n, {kets[0]: 1.0, kets[1]: -1j})
        planted = tuple(ghz if d == 5 else (d,) for d in range(1, n + 1) if d not in ghz[1:])
        assert finest_partition(state) == planted

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    @pytest.mark.parametrize(
        "amplitudes",
        [
            {"uu": 1.0, "dd": 1.0},
            {"uu": 0.6, "ud": 0.8j, "du": -0.3, "dd": -0.4j},
            {"uuu": 0.5, "uud": 0.5j, "ddu": -0.5, "ddd": 0.5j},
        ],
        ids=["bell", "product", "bell-times-qubit"],
    )
    def test_partition_does_not_depend_on_scale(self, scale, amplitudes):
        state = NoBunchState(len(next(iter(amplitudes))), amplitudes)
        scaled = NoBunchState(state.n, {k: v * scale for k, v in amplitudes.items()})
        assert finest_partition(scaled) == finest_partition(state)
        assert finest_partition(state) == reference_finest_partition(state)

    @pytest.mark.parametrize(
        "amplitudes, partition",
        [
            ({"uu": 1e-320, "dd": 1e-320}, ((1, 2),)),
            ({"uu": 1e-320, "ud": 1e-320, "du": 1e-320, "dd": 1e-320}, ((1,), (2,))),
            ({"ud": 5e-324j}, ((1,), (2,))),
            ({"uu": 1e308, "dd": -1e308j}, ((1, 2),)),
        ],
    )
    def test_subnormal_and_huge_amplitudes(self, amplitudes, partition):
        assert finest_partition(NoBunchState(2, amplitudes)) == partition

    @pytest.mark.parametrize("amplitudes", [{}, {"uud": 0j}])
    def test_zero_state_has_no_partition(self, amplitudes):
        with pytest.raises(ZeroState):
            finest_partition(NoBunchState(3, amplitudes))

    @settings(max_examples=150, deadline=None)
    @given(planted_product_states())
    def test_pairwise_test_equals_sequential_reference(self, planted):
        state, partition = planted
        assert finest_partition(state) == reference_finest_partition(state) == partition
        detectors = range(1, state.n + 1)
        for size in range(1, state.n):
            for subset in itertools.combinations(detectors, size):
                assert schmidt_rank(state, cut(state.n, *subset)) == reference_schmidt_rank(
                    state, subset
                )

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(max_n=8, modes=("strict", "design")), st.none() | st.integers(0, 2**32 - 1))
    def test_equals_sequential_reference_on_assembled_states(self, spec, seed):
        # raw amplitudes (seed None) carry whatever coincidences the
        # network has; generic ones are redrawn from the seed
        if seed is not None:
            spec = generic_amplitudes(spec, random.Random(seed))
        state = assemble_network_state(spec)
        assume(state.amplitudes)
        assert finest_partition(state) == reference_finest_partition(state)


class TestReport:
    def test_n5_report_structural_and_numeric(self):
        report = build_report(n5_network(), numeric_seed=0)
        assert report.lemma1_vertices == ((3, Color.UP),)
        assert report.lemma2_partition == ((1, 3, 4), (2, 5))
        assert report.theorem1.verdict is Verdict.CANNOT_BE_GENUINE
        assert report.numeric_finest_partition == ((1, 4), (2, 5), (3,))

    def test_numeric_part_is_optional(self):
        report = build_report(n5_network())
        assert report.numeric_finest_partition is None

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgument):
            build_report(n5_network(), numeric_seed=-1)

    @pytest.mark.parametrize("seed", [2.5, "3", True], ids=["float", "str", "bool"])
    def test_non_integer_seed_rejected(self, seed):
        # read as model._index reads n: no silent bool, no bare TypeError
        with pytest.raises(IndexOutOfRange):
            build_report(n5_network(), numeric_seed=seed)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        networks(modes=("strict",)),
        st.sampled_from(["strict", "design"]),
        st.integers(0, 2**32 - 1),
    )
    def test_generic_amplitudes_follow_the_seed(self, spec, mode, seed):
        # recomputed from the same seed: per transition in spec order a
        # magnitude, then a phase; then each row scaled to unit norm. A
        # strict network has a transition in every row.
        spec = spec._replace(normalization_mode=NormalizationMode(mode))
        rng = random.Random(seed)
        drawn = []
        for _ in spec.transitions:
            magnitude = 0.3 + 0.7 * rng.random()
            phase = 2.0 * math.pi * rng.random()
            drawn.append(cmath.rect(magnitude, phase))
        row_sq = [0.0] * spec.n
        for t, amp in zip(spec.transitions, drawn):
            row_sq[t.source - 1] += abs(amp) ** 2
        want = [amp / row_sq[t.source - 1] ** 0.5 for t, amp in zip(spec.transitions, drawn)]

        generic = generic_amplitudes(spec, random.Random(seed))
        got = [t.amplitude for t in generic.transitions]
        assert got == want
        assert [repr(z) for z in got] == [repr(z) for z in want]
        assert [(t.source, t.detector, t.color) for t in generic.transitions] == [
            (t.source, t.detector, t.color) for t in spec.transitions
        ]
        assert (generic.n, generic.statistics) == (spec.n, spec.statistics)
        assert generic.normalization_mode is spec.normalization_mode

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_numeric_partition_equals_full_state_route(self, data):
        # the report splits each PM-diagram component on its own; the
        # finest partition of the whole assembled state is the reference
        n = data.draw(st.integers(1, 8), label="n")
        statistics = data.draw(st.sampled_from(["boson", "fermion"]))
        mode = data.draw(st.sampled_from(["strict", "design"]))
        density = data.draw(st.floats(0.15, 0.6), label="density")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        # a planted permutation guarantees a perfect matching
        planted = {(a, int(j)) for a, j in enumerate(rng.permutation(n) + 1, start=1)}
        amps = {
            (a, j): complex(*rng.uniform(-1.0, 1.0, 2))
            for a in range(1, n + 1)
            for j in range(1, n + 1)
            if (a, j) in planted or rng.random() < density
        }
        if mode == "strict":
            rows = [0.0] * (n + 1)
            for (a, _), amp in amps.items():
                rows[a] += abs(amp) ** 2
            amps = {(a, j): amp / rows[a] ** 0.5 for (a, j), amp in amps.items()}
        edges = [(a, j, amp, "ud"[rng.integers(0, 2)]) for (a, j), amp in amps.items()]
        spec = validate_network(n, statistics, edges, mode)
        numeric_seed = data.draw(st.integers(0, 2**32 - 1), label="numeric_seed")
        report = build_report(spec, numeric_seed=numeric_seed)
        # the report draws over the diagram's kept transitions, in slots
        diag = report.diagram
        generic = generic_amplitudes(diag.network, random.Random(numeric_seed))
        slots = finest_partition(assemble_network_state(generic))
        full = tuple(
            sorted(tuple(sorted(diag.detector_of_vertex(v) for v in b)) for b in slots)
        )
        assert report.numeric_finest_partition == full

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        networks(max_n=8, modes=("strict", "design")),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_numeric_partition_does_not_depend_on_the_seed(self, spec, seed, other):
        # the partition of generic amplitudes is the topology's, so the
        # generator behind the seed cannot change what the CLI reports
        try:
            report = build_report(spec, numeric_seed=seed)
        except NoPerfectMatching:
            reject()
        again = build_report(spec, numeric_seed=other)
        assert again.numeric_finest_partition == report.numeric_finest_partition

    def test_pinned_vertices_are_numeric_singletons(self):
        rng = np.random.default_rng(89)
        seen = 0
        while seen < 15:
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            diag = diagram_of_network(spec)
            pinned = lemma1_separable_vertices(diag)
            if not pinned:
                continue
            seen += 1
            report = build_report(spec, numeric_seed=int(rng.integers(1 << 16)))
            for vertex, _ in pinned:
                detector = diag.detector_of_vertex(vertex)
                assert (detector,) in report.numeric_finest_partition


class TestBipartition:
    def test_rejects_empty_and_full_subsets(self):
        with pytest.raises(DimensionMismatch):
            Bipartition(frozenset(), 3)
        with pytest.raises(DimensionMismatch):
            Bipartition(frozenset({1, 2, 3}), 3)
        with pytest.raises(DimensionMismatch):
            Bipartition(frozenset({0}), 3)

    @pytest.mark.parametrize(
        "subset, n, error",
        [
            (frozenset({1}), 2.0, IndexOutOfRange),
            (frozenset({1}), "2", IndexOutOfRange),
            (frozenset({1}), True, IndexOutOfRange),
            (frozenset({1.0}), 2, IndexOutOfRange),
            (frozenset({True}), 2, IndexOutOfRange),
            (frozenset({"1"}), 2, IndexOutOfRange),
            ([1], 2, InvalidArgument),
            ((1,), 2, InvalidArgument),
            ("1", 2, InvalidArgument),
            (1, 2, InvalidArgument),
        ],
        ids=[
            "float-n", "str-n", "bool-n", "float-detector", "bool-detector",
            "str-detector", "list", "tuple", "str", "int",
        ],
    )
    def test_rejects_what_is_not_a_set_of_detector_indices(self, subset, n, error):
        # each was a bare TypeError, or (1.0, True) taken as detector 1
        with pytest.raises(error):
            Bipartition(subset, n)

    def test_reads_integer_likes_and_plain_sets(self):
        c = Bipartition({np.int64(1), 3}, np.int64(4))
        assert c == cut(4, 1, 3) and hash(c) == hash(cut(4, 1, 3))
        assert type(c.n) is int and all(type(d) is int for d in c.subset)

    def test_complement(self):
        assert cut(5, 1, 3).complement == frozenset({2, 4, 5})
