"""Structural criteria, Schmidt ranks, finest partitions."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from lqngraph.errors import DimensionMismatch, InvalidArgument, TooLarge
from lqngraph.graphs import diagram_of_network
from lqngraph.model import Color, validate_network
from lqngraph.states import NoBunchState, assemble_network_state, normalize

from conftest import (
    matchings,
    n5_network,
    random_network_with_pm,
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
        rng = np.random.default_rng(61)
        base = n5_network()
        for _ in range(50):
            spec = generic_amplitudes(base, rng)
            diag = diagram_of_network(spec)
            partition = lemma2_partition(diag)
            assert partition == ((1, 3, 4), (2, 5))
            state = normalize(assemble_network_state(spec))
            assert schmidt_rank(state, cut(5, 1, 3, 4), tol=1e-8) == 1


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
        checked = 0
        while checked < 25:
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            report = theorem1_check(diagram_of_network(spec))
            if report.verdict is not Verdict.CANNOT_BE_GENUINE:
                continue
            checked += 1
            state = normalize(
                assemble_network_state(generic_amplitudes(spec, rng))
            )
            assert len(finest_partition(state)) > 1


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
        rng = np.random.default_rng(71)
        spec = generic_amplitudes(n5_network(), rng)
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


class TestFinestPartition:
    def test_n5_generic_three_blocks(self):
        rng = np.random.default_rng(79)
        spec = generic_amplitudes(n5_network(), rng)
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
        for _ in range(20):
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            structural = lemma2_partition(diagram_of_network(spec))
            state = normalize(
                assemble_network_state(generic_amplitudes(spec, rng))
            )
            numeric = finest_partition(state)
            blocks = {d: block for block in structural for d in block}
            for block in numeric:
                assert {blocks[d] for d in block} == {blocks[block[0]]}

    def test_size_guard(self):
        state = NoBunchState(11, {"u" * 11: 1.0}, normalized=True)
        with pytest.raises(TooLarge):
            finest_partition(state)


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
        generic = generic_amplitudes(spec, np.random.default_rng(numeric_seed))
        full = finest_partition(normalize(assemble_network_state(generic)))
        report = build_report(spec, numeric_seed=numeric_seed)
        assert report.numeric_finest_partition == full

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

    def test_complement(self):
        assert cut(5, 1, 3).complement == frozenset({2, 4, 5})
