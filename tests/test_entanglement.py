"""Structural criteria, Schmidt ranks, finest partitions."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from lqngraph import graphs
from lqngraph.cli import cli_main
from lqngraph.designers import design_ghz, design_w
from lqngraph.entanglement import (
    Verdict,
    build_report,
    finest_partition,
    schmidt_rank,
    theorem2_w_optimal_check,
)
from lqngraph.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    NonFiniteValue,
    NoPerfectMatching,
    ZeroState,
)
from lqngraph.graphs import diagram_of_network
from lqngraph.io import serialize_network
from lqngraph.model import Color, Statistics, validate_network
from lqngraph.states import NoBunchState, assemble_network_state, normalize

from conftest import (
    generic_amplitudes,
    matchings,
    n5_network,
    networks,
    planted_product_states,
    random_network_with_pm,
    reference_finest_partition,
    reference_generic_partition,
    reference_schmidt_rank,
    superposed_subsystem_network,
)


def _complete(n, statistics):
    """Every edge, colored so each detector receives both colors."""
    edges = [(a, j, 1.0, "ud"[(a + j) % 2]) for a in range(1, n + 1) for j in range(1, n + 1)]
    return validate_network(n, statistics, edges, "design")


@st.composite
def _matchable_networks(draw, max_n=8):
    """Design networks of up to three planted blocks, each with a perfect matching.

    Each block's vertices are shuffled among the labels, and each block
    holds a random perfect matching of its own plus random edges inside
    it. An edge between blocks goes only from an earlier block to a later
    one, so it lies on no cycle and the PM diagram removes it. Colors are
    skewed toward one color in some draws, so some vertices are pinned.
    """
    sizes = draw(
        st.lists(st.sampled_from([3, 4, 2, 1]), min_size=1, max_size=3).filter(
            lambda s: sum(s) <= max_n
        ),
        label="block sizes",
    )
    n = sum(sizes)
    statistics = draw(st.sampled_from(["boson", "fermion"]))
    density = draw(st.sampled_from([1.0, 0.7, 0.4]), label="density")
    down = draw(st.sampled_from([0.5, 0.3, 0.7]), label="down share")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    order = [int(v) for v in rng.permutation(n) + 1]
    block = [0] * (n + 1)
    planted = set()
    for k, size in enumerate(sizes):
        members, order = order[:size], order[size:]
        for v in members:
            block[v] = k
        planted.update(zip(members, (int(j) for j in rng.permutation(members))))
    edges = [
        (a, j, 1.0, "d" if rng.random() < down else "u")
        for a in range(1, n + 1)
        for j in range(1, n + 1)
        if (a, j) in planted or (block[a] <= block[j] and rng.random() < density)
    ]
    return validate_network(n, statistics, edges, "design")


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
        assert build_report(n5_network()).lemma1_vertices == ((3, Color.UP),)

    def test_all_loops_pins_everything(self):
        assert build_report(loops_only(4)).lemma1_vertices == tuple(
            (v, Color.UP) for v in range(1, 5)
        )

    def test_ghz_diagram_pins_nothing(self):
        assert build_report(design_ghz(4)).lemma1_vertices == ()

    def test_soundness_every_matching_agrees(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            spec = random_network_with_pm(rng, int(rng.integers(2, 7)))
            report = build_report(spec)
            pms = matchings(spec)
            for vertex, color in report.lemma1_vertices:
                detector = report.diagram.detector_of_vertex(vertex)
                for assignment, colors in pms:
                    a = assignment.index(detector) + 1
                    assert colors[a - 1] is color


class TestLemma2:
    def test_n5_partition(self):
        assert build_report(n5_network()).lemma2_partition == ((1, 3, 4), (2, 5))

    def test_loops_only_fully_separable(self):
        assert build_report(loops_only(3)).lemma2_partition == ((1,), (2,), (3,))

    def test_w_star_single_block(self):
        assert build_report(design_w(4, form="star")).lemma2_partition == ((1, 2, 3, 4),)

    def test_soundness_rank_one_across_component_cuts(self):
        # any amplitude assignment factorizes across whole-component splits
        rng = random.Random(61)
        base = n5_network()
        for _ in range(50):
            spec = generic_amplitudes(base, rng)
            assert build_report(spec).lemma2_partition == ((1, 3, 4), (2, 5))
            state = normalize(assemble_network_state(spec))
            assert schmidt_rank(state, {1, 3, 4}) == 1


class TestTheorem1:
    def test_n5_cannot_be_genuine(self):
        report = build_report(n5_network()).theorem1
        assert report.verdict is Verdict.CANNOT_BE_GENUINE
        assert not report.strongly_connected
        assert report.color_condition_ok[2] is False  # vertex w3

    def test_ghz_may_be_genuine(self):
        report = build_report(design_ghz(5)).theorem1
        assert report.verdict is Verdict.MAY_BE_GENUINE
        assert report.strongly_connected
        assert all(report.color_condition_ok)

    def test_conditions_are_not_sufficient(self):
        # structurally healthy diagram whose amplitudes factor X1 out anyway
        spec = superposed_subsystem_network()
        assert build_report(spec).theorem1.verdict is Verdict.MAY_BE_GENUINE
        state = normalize(assemble_network_state(spec))
        assert finest_partition(state) == ((1,), (2, 3))

    def test_contrapositive_on_random_networks(self):
        rng = np.random.default_rng(67)
        draw = random.Random(67)
        checked = 0
        while checked < 25:
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            if build_report(spec).theorem1.verdict is not Verdict.CANNOT_BE_GENUINE:
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
    report = build_report(spec)
    # lemma 1: a pinned detector takes its color in every matching
    for vertex, color in report.lemma1_vertices:
        detector = report.diagram.detector_of_vertex(vertex)
        for assignment, colors in pms:
            assert colors[assignment.index(detector)] is color
    # lemma 2: the generic state factors at least across the diagram blocks
    generic = generic_amplitudes(spec, random.Random(numeric_seed))
    numeric = finest_partition(normalize(assemble_network_state(generic)))
    blocks = [set(block) for block in report.lemma2_partition]
    assert all(any(set(b) <= block for block in blocks) for b in numeric)
    # theorem 1: a diagram failing its conditions gives no genuine entanglement
    if report.theorem1.verdict is Verdict.CANNOT_BE_GENUINE:
        assert len(numeric) > 1


def test_report_finds_the_diagram_components_once(monkeypatch):
    calls = []

    def counting(n, succ):
        calls.append(n)
        return tarjan(n, succ)

    tarjan = graphs._tarjan_sccs
    monkeypatch.setattr(graphs, "_tarjan_sccs", counting)
    build_report(loops_only(3))
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

    def test_alternating_ghz_4000_names_one_main_source(self):
        # 2000 sources, each counted once: linear in the red edges
        n = 4000
        report = theorem2_w_optimal_check(diagram_of_network(design_ghz(n, "ud" * (n // 2))))
        assert not report.ok and report.red_edge_count == n
        # every even vertex has its red loop and one red ring edge: a tie,
        # which max breaks to the first source, w2
        assert report.source_vertices == tuple(range(2, n + 1, 2))
        assert len(report.diagnostics) == n - 2
        assert report.diagnostics[0] == "red edge w4->w4 leaves w4, not w2"
        assert all(line.endswith(", not w2") for line in report.diagnostics)


class TestSchmidtRank:
    def test_bell_state(self):
        assert schmidt_rank(BELL, {1}) == 2

    def test_product_state(self):
        assert schmidt_rank(PRODUCT_UD, {1}) == 1
        assert schmidt_rank(PRODUCT_UD, {2}) == 1

    def test_n5_generic_rank_one_across_guaranteed_cut(self):
        spec = generic_amplitudes(n5_network(), random.Random(71))
        state = normalize(assemble_network_state(spec))
        assert schmidt_rank(state, {1, 3, 4}) == 1
        # and entangled within the blocks
        assert schmidt_rank(state, {1}) == 2

    def test_swap_symmetry_random(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            spec = random_network_with_pm(rng, n)
            state = normalize(assemble_network_state(spec))
            size = int(rng.integers(1, n))
            subset = set(rng.choice(range(1, n + 1), size, replace=False).tolist())
            rest = set(range(1, n + 1)) - subset
            assert schmidt_rank(state, subset) == schmidt_rank(state, rest)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            schmidt_rank(BELL, {3})

    def test_ghz_40_has_rank_two_on_a_cut_of_each_size(self):
        # two kets, so no 2**40 vector and no size limit
        n = 40
        ghz = normalize(NoBunchState(n, {"u" * n: 1.0, "d" * n: 1.0}))
        order = list(range(1, n + 1))
        random.Random(40).shuffle(order)
        for size in range(1, n):
            assert schmidt_rank(ghz, set(order[:size])) == 2, size

    def test_ghz_2048_half_cut(self):
        n = 2048
        ghz = NoBunchState(n, {"u" * n: 1.0, "d" * n: -1j})
        assert schmidt_rank(ghz, set(range(1, n // 2 + 1))) == 2
        assert schmidt_rank(ghz, set(range(1, n + 1, 2))) == 2

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_product_of_bell_pairs(self, k):
        # pair p holds detectors p and p + k, so the cut {1..k} splits
        # every pair and the rank is 2**k; a cut along the pairs has rank 1
        n = 2 * k
        amplitudes = {}
        for bits in itertools.product("ud", repeat=k):
            amplitudes["".join(bits) * 2] = (-1) ** bits.count("d") * 2 ** (-k / 2)
        state = NoBunchState(n, amplitudes)
        assert schmidt_rank(state, set(range(1, k + 1))) == 2**k
        assert schmidt_rank(state, {1, 1 + k}) == 1
        assert schmidt_rank(state, set(range(1, k + 1))) == reference_schmidt_rank(
            state, range(1, k + 1)
        )

    @pytest.mark.parametrize(
        "amplitudes, rank",
        [
            ({"uu": 1e-320, "dd": 1e-320}, 2),
            ({"uu": 1e-320, "ud": 1e-320, "du": 1e-320, "dd": 1e-320}, 1),
            ({"ud": 5e-324j}, 1),
            ({"uu": 1e308, "dd": -1e308j}, 2),
            ({"uu": 1e308, "ud": 1e308, "du": 1e308, "dd": 1e308}, 1),
        ],
    )
    def test_subnormal_and_huge_amplitudes(self, amplitudes, rank):
        assert schmidt_rank(NoBunchState(2, amplitudes), {1}) == rank

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(max_n=8, modes=("strict", "design")), st.none() | st.integers(0, 2**32 - 1))
    def test_equals_svd_reference_on_every_cut(self, spec, seed):
        # raw amplitudes (seed None) carry whatever coincidences the
        # network has; generic ones are redrawn from the seed
        if seed is not None:
            spec = generic_amplitudes(spec, random.Random(seed))
        state = assemble_network_state(spec)
        assume(state.amplitudes)
        detectors = range(1, state.n + 1)
        for size in range(1, state.n):
            for subset in itertools.combinations(detectors, size):
                assert schmidt_rank(state, set(subset)) == reference_schmidt_rank(
                    state, subset
                ), subset

    @pytest.mark.parametrize("amplitudes", [{}, {"uud": 0j}])
    def test_zero_state_has_no_rank(self, amplitudes):
        # rank 0 would read as "not a product" to a caller testing rank == 1
        with pytest.raises(ZeroState):
            schmidt_rank(NoBunchState(3, amplitudes), {1})


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

    def test_codes_carry_detector_j_in_bit_j(self):
        # X_1 and X_3 form a Bell pair, X_2 is pinned down
        h = 1 / math.sqrt(2)
        state = NoBunchState(3, {"udu": h, "ddd": h})
        assert finest_partition(state) == ((1, 3), (2,))
        # (0.6|u> + 0.8i|d>) on X_1, a Bell pair on X_2 and X_4, X_3 pinned up
        kets = {"uuuu": 0.6, "udud": 0.6, "duuu": 0.8j, "ddud": 0.8j}
        assert finest_partition(NoBunchState(4, kets)) == ((1,), (2, 4), (3,))

    def test_code_route_keeps_the_state_checks(self):
        # an empty state has no partition; a NaN or infinite amplitude never
        # reaches the pair test, since the state refuses it
        with pytest.raises(ZeroState):
            finest_partition(NoBunchState(2, {}))
        for amp in (complex(math.nan, 0.0), complex(0.0, math.inf)):
            with pytest.raises(NonFiniteValue, match="ket 'du'"):
                finest_partition(NoBunchState(2, {"uu": 1.0, "du": amp}))

    def test_refines_structural_partition(self):
        rng = np.random.default_rng(83)
        draw = random.Random(83)
        for _ in range(20):
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            structural = build_report(spec).lemma2_partition
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
                assert schmidt_rank(state, set(subset)) == reference_schmidt_rank(
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
        report = build_report(n5_network())
        assert report.lemma1_vertices == ((3, Color.UP),)
        assert report.lemma2_partition == ((1, 3, 4), (2, 5))
        assert report.theorem1.verdict is Verdict.CANNOT_BE_GENUINE
        assert report.numeric_finest_partition == ((1, 4), (2, 5), (3,))

    @pytest.mark.parametrize("seed", ["2.5", "three", "True"], ids=["float", "str", "bool"])
    def test_non_integer_seed_rejected(self, capsys, fixtures_dir, seed):
        # the seed is ignored, but the CLI still reads it as an integer
        path = str(fixtures_dir / "n5_example.json")
        assert cli_main(["analyze", path, "--numeric", seed]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ")

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(modes=("strict", "design")))
    def test_partition_is_always_present(self, spec):
        # no flag or seed asks for it: every report partitions the detectors
        try:
            report = build_report(spec)
        except NoPerfectMatching:
            reject()
        blocks = report.numeric_finest_partition
        assert blocks == tuple(sorted(blocks))
        assert sorted(d for block in blocks for d in block) == list(range(1, spec.n + 1))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(min_n=2, modes=("strict", "design")))
    def test_theorem1_verdict_is_one_generic_block(self, spec):
        # the corollary in build_report's docstring: for generic amplitudes
        # theorem 1's two conditions are sufficient as well as necessary
        try:
            report = build_report(spec)
        except NoPerfectMatching:
            reject()
        one_block = report.numeric_finest_partition == (tuple(range(1, spec.n + 1)),)
        assert (report.theorem1.verdict is Verdict.MAY_BE_GENUINE) == one_block

    def test_single_detector_is_one_block_but_cannot_be_genuine(self):
        # n = 1 is the corollary's one exception: the loop pins the detector
        report = build_report(loops_only(1))
        assert (report.numeric_finest_partition, report.theorem1.verdict) == (
            ((1,),), Verdict.CANNOT_BE_GENUINE
        )

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_w_ring_256_is_one_block(self, capsys, tmp_path, seed, statistics):
        # a float walk split this ring into 7 to 122 blocks for these seeds
        # of --numeric, as a pair's determinant fell below the tolerance or
        # underflowed; the CLI reads the seed and ignores it
        path = tmp_path / "w256.json"
        spec = design_w(256, "ring")._replace(statistics=Statistics(statistics))
        path.write_text(serialize_network(spec))
        assert cli_main(["analyze", str(path), "--numeric", str(seed), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["numeric_finest_partition"] == [list(range(1, 257))]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: design_w(12, "ring"),
            lambda: design_w(12, "ring")._replace(statistics=Statistics.FERMION),
            lambda: design_w(2048, "ring"),
            lambda: design_w(2048, "star"),
            lambda: design_ghz(10**4),
            lambda: _complete(12, "boson"),
            lambda: _complete(40, "fermion"),
        ],
        ids=[
            "w-ring-12", "w-ring-12-fermion", "w-ring-2048", "w-star-2048", "ghz-10000",
            "complete-12-boson", "complete-40-fermion",
        ],
    )
    def test_past_ten_detectors_is_one_block(self, make):
        # each was refused above a 10-detector component; no walk, so no limit
        spec = make()
        report = build_report(spec)
        assert report.numeric_finest_partition == (tuple(range(1, spec.n + 1)),)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_matchable_networks(), st.integers(0, 2**32 - 1))
    def test_numeric_partition_equals_brute_force_reference(self, spec, seed):
        # the reference sums every permutation of the whole network in
        # exact integers, dead edges included, and pair-tests the sums
        report = build_report(spec)
        reference = reference_generic_partition(spec, random.Random(seed))
        assert report.numeric_finest_partition == reference

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
        generic_seed = data.draw(st.integers(0, 2**32 - 1), label="generic_seed")
        report = build_report(spec)
        # the reference draws over the diagram's kept transitions, in slots
        diag = report.diagram
        generic = generic_amplitudes(diag.network, random.Random(generic_seed))
        slots = finest_partition(assemble_network_state(generic))
        full = tuple(
            sorted(tuple(sorted(diag.detector_of_vertex(v) for v in b)) for b in slots)
        )
        assert report.numeric_finest_partition == full

    def test_numeric_route_walks_nothing_and_builds_no_state(
        self, capsys, fixtures_dir, monkeypatch
    ):
        # ghz:3 | W star n=3 | one loop, with a forward cross edge: the
        # partition comes from the diagram, with no matching and no state
        path = fixtures_dir / "blocks7_ghz_wstar_single_boson.json"

        def refuse(*args, **kwargs):
            raise AssertionError("the numeric route walked or built a state")

        monkeypatch.setattr(graphs, "_walk_prefixes", refuse)
        monkeypatch.setattr(NoBunchState, "__new__", refuse)
        assert cli_main(["analyze", str(path), "--numeric", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.endswith("numeric finest partition: (X1,X2,X3) | (X4,X5,X6) | (X7)\n")

    def test_pinned_vertices_are_numeric_singletons(self):
        rng = np.random.default_rng(89)
        seen = 0
        while seen < 15:
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            report = build_report(spec)
            if not report.lemma1_vertices:
                continue
            seen += 1
            for vertex, _ in report.lemma1_vertices:
                detector = report.diagram.detector_of_vertex(vertex)
                assert (detector,) in report.numeric_finest_partition


class TestBipartition:
    """``schmidt_rank``'s cut: the set of detectors on one side of it."""

    GHZ3 = NoBunchState(3, {"uuu": 1.0, "ddd": 1.0})

    def test_huge_n_builds_at_once(self):
        # each detector is compared with n: O(|subset|), whatever n is
        n = 10**12
        zero = NoBunchState(n, {})
        with pytest.raises(DimensionMismatch):
            schmidt_rank(zero, {n + 1})
        for subset in ({1}, {n - 1, n}):
            with pytest.raises(ZeroState):
                schmidt_rank(zero, subset)

    def test_rejects_empty_and_full_subsets(self):
        # the cut is checked before the state: a bad one on the zero state
        # is an argument error, and only a good one reaches ZeroState
        zero = NoBunchState(3, {})
        for subset in (set(), {1, 2, 3}):
            with pytest.raises(DimensionMismatch):
                schmidt_rank(zero, subset)
        with pytest.raises(ZeroState):
            schmidt_rank(zero, {1, 2})

    @pytest.mark.parametrize(
        "subset, error",
        [
            ({1.0}, IndexOutOfRange),
            ({True}, IndexOutOfRange),
            ({"1"}, IndexOutOfRange),
            ([1], InvalidArgument),
            ((1,), InvalidArgument),
            ("1", InvalidArgument),
            (1, InvalidArgument),
            (set(), DimensionMismatch),
            ({0}, DimensionMismatch),
            ({4}, DimensionMismatch),
            ({1, 2, 3}, DimensionMismatch),
        ],
        ids=[
            "float-detector", "bool-detector", "str-detector", "list", "tuple", "str", "int",
            "empty", "zero", "above-n", "full",
        ],
    )
    def test_rejects_what_is_not_a_set_of_detector_indices(self, subset, error):
        # the type rows were a bare TypeError, or (1.0, True) taken as detector 1
        with pytest.raises(error):
            schmidt_rank(self.GHZ3, subset)

    def test_reads_integer_likes_and_plain_sets(self):
        # X_1 and X_2 form a Bell pair; X_3 and X_4 are pinned up
        state = NoBunchState(4, {"uuuu": 1.0, "dduu": 1.0})
        assert schmidt_rank(state, {np.int64(1), 3}) == schmidt_rank(state, {1, 3}) == 2
        assert schmidt_rank(state, frozenset({np.int64(1), 2})) == 1
