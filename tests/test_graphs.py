"""Matching enumeration, cycle search, diagrams, connectivity."""

import itertools
import math

import numpy as np
import pytest

from lqngraph.designers import design_cluster4, design_ghz, design_w, preset_tritter
from lqngraph.entanglement import Verdict, build_report
from lqngraph.errors import NoPerfectMatching
from lqngraph.graphs import (
    DirectedEdge,
    _matching_assignment,
    diagram_of_network,
    elementary_cycles,
    pm_diagram,
    strongly_connected,
    to_directed,
    walk_matchings,
    weak_components,
)
from lqngraph.model import Color, to_adjacency, validate_network

from conftest import (
    N5_DEAD_EDGES,
    brute_force_assignments,
    brute_force_cycles,
    matchings,
    n5_network,
    random_network,
    random_network_with_pm,
)


def directed_of(spec):
    return to_directed(to_adjacency(spec))


def neighbors_of(spec):
    neighbors = [[] for _ in range(spec.n)]
    for t in spec.transitions:
        neighbors[t.source - 1].append(t.detector)
    return neighbors


def assignments_of(spec):
    return [assignment for assignment, _ in matchings(spec)]


def walk_of(spec):
    """(assignment, transitions by particle, weight, parity) per matching."""
    edges = ((t.source, t.detector, t.amplitude, t) for t in spec.transitions)
    return [
        (tuple(assignment), tuple(tags[j - 1] for j in assignment), weight, odd)
        for assignment, tags, weight, odd in walk_matchings(spec.n, edges)
    ]


def identity_network(n):
    return validate_network(
        n, "boson", [(a, a, 1.0, "up") for a in range(1, n + 1)], "strict"
    )


def complete_digraph_network(n):
    amp = 1 / math.sqrt(n)
    edges = [(a, j, amp, "up") for a in range(1, n + 1) for j in range(1, n + 1)]
    return validate_network(n, "boson", edges, "strict")


class TestToDirected:
    def test_n5_has_fourteen_edges_with_loops(self):
        view = directed_of(n5_network())
        assert len(view.edges) == 14
        loops = {(e.tail, e.head) for e in view.edges if e.tail == e.head}
        assert loops == {(v, v) for v in range(1, 6)}

    def test_diagonal_gives_loops_only(self):
        view = directed_of(identity_network(4))
        assert {(e.tail, e.head) for e in view.edges} == {(v, v) for v in range(1, 5)}

    def test_two_mode_crossing_gives_two_loops_and_a_two_cycle(self):
        a1, b1, a2, b2 = 0.6, 0.8, 0.8, 0.6
        spec = validate_network(
            2,
            "boson",
            [(1, 1, a1, "u"), (1, 2, b1, "u"), (2, 1, a2, "d"), (2, 2, b2, "d")],
            "strict",
        )
        view = directed_of(spec)
        pairs = {(e.tail, e.head) for e in view.edges}
        assert pairs == {(1, 1), (2, 2), (1, 2), (2, 1)}
        weights = {(e.tail, e.head): e.weight for e in view.edges}
        assert weights[(1, 2)] == b1 and weights[(2, 1)] == a2


class TestInitialMatching:
    """The base matching that the PM diagram relabels to loops."""

    def test_n5_finds_the_diagonal(self):
        assert _matching_assignment(5, neighbors_of(n5_network())) == (1, 2, 3, 4, 5)

    def test_pigeonhole_failure_returns_none(self):
        spec = validate_network(
            2, "boson", [(1, 1, 1.0, "u"), (2, 1, 1.0, "u")], "strict"
        )
        assert _matching_assignment(2, neighbors_of(spec)) is None

    def test_identity_network(self):
        spec = identity_network(3)
        assert _matching_assignment(3, neighbors_of(spec)) == (1, 2, 3)
        assert matchings(spec) == [((1, 2, 3), (Color.UP,) * 3)]


class TestRelabelToLoops:
    """``pm_diagram`` moves the base matching onto the diagonal."""

    def test_swap_only_network_gets_loops(self):
        spec = validate_network(
            2, "boson", [(1, 2, 1.0, "u"), (2, 1, 1.0, "d")], "strict"
        )
        diag = pm_diagram(directed_of(spec))
        assert diag.relabeling == (2, 1)
        assert {(e.tail, e.head) for e in diag.view.edges} == {(1, 1), (2, 2)}

    def test_diagonal_matching_leaves_n5_unchanged(self):
        view = directed_of(n5_network())
        diag = pm_diagram(view)
        assert diag.relabeling == (1, 2, 3, 4, 5)
        removed = {
            DirectedEdge(e.particle, e.detector, e.weight, e.color) for e in diag.removed
        }
        assert set(diag.view.edges) | removed == set(view.edges)

    def test_tritter_diagonal_is_usable(self):
        spec = preset_tritter()
        diag = pm_diagram(directed_of(spec))
        assert diag.relabeling == (1, 2, 3)
        assert diag.view == directed_of(spec)


class TestElementaryCycles:
    def test_n5_cycles_match_worked_example(self):
        cycles = elementary_cycles(directed_of(n5_network()))
        assert set(cycles) == {(2, 5), (1, 4), (1, 4, 3)}

    def test_loops_only_yields_nothing(self):
        assert elementary_cycles(directed_of(identity_network(5))) == []

    def test_cluster_network_has_three_cycles(self):
        cycles = elementary_cycles(directed_of(design_cluster4()))
        assert set(cycles) == {(1, 2), (3, 4), (1, 2, 3, 4)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_digraph_counts(self, n):
        view = directed_of(complete_digraph_network(n))
        cycles = elementary_cycles(view)
        expected = sum(
            math.comb(n, k) * math.factorial(k - 1) for k in range(2, n + 1)
        )
        assert len(cycles) == expected
        assert cycles == brute_force_cycles(view)

    def test_random_digraphs_match_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            spec = random_network(rng, int(rng.integers(2, 7)), edge_prob=0.5)
            view = directed_of(spec)
            assert elementary_cycles(view) == brute_force_cycles(view)

    def test_canonical_form_and_order(self):
        cycles = elementary_cycles(directed_of(complete_digraph_network(4)))
        assert all(c[0] == min(c) for c in cycles)
        assert cycles == sorted(cycles)


class TestEnumeratePMs:
    """Perfect matchings as ``walk_matchings`` enumerates them."""

    def test_two_mode_crossing_has_two_matchings(self):
        spec = validate_network(
            2,
            "boson",
            [(1, 1, 0.6, "u"), (1, 2, 0.8, "d"), (2, 1, 0.8, "d"), (2, 2, 0.6, "u")],
            "strict",
        )
        assert assignments_of(spec) == [(1, 2), (2, 1)]

    def test_n5_exact_matchings(self):
        assert assignments_of(n5_network()) == [
            (1, 2, 3, 4, 5),
            (1, 5, 3, 4, 2),
            (4, 2, 1, 3, 5),
            (4, 2, 3, 1, 5),
            (4, 5, 1, 3, 2),
            (4, 5, 3, 1, 2),
        ]

    def test_tritter_has_all_six_permutations(self):
        assignments = assignments_of(preset_tritter())
        assert len(assignments) == 6
        assert set(assignments) == set(
            itertools.permutations((1, 2, 3))
        )

    def test_no_matching_gives_empty_list(self):
        spec = validate_network(
            2, "boson", [(1, 1, 1.0, "u"), (2, 1, 1.0, "u")], "strict"
        )
        assert matchings(spec) == []

    def test_matches_brute_force_up_to_n7(self):
        rng = np.random.default_rng(17)
        for n in range(2, 8):
            for _ in range(6):
                spec = random_network(rng, n)
                assert assignments_of(spec) == brute_force_assignments(spec)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_walk_weight_and_parity_per_matching(self, n):
        # every field the walk yields, against a product and an inversion
        # count taken straight from the brute-force assignment
        spec = random_network_with_pm(np.random.default_rng(31 + n), n)
        weight_of = {(t.source, t.detector): t.amplitude for t in spec.transitions}
        color_of = {(t.source, t.detector): t.color for t in spec.transitions}
        got = [
            (tuple(assignment), list(tags), weight, odd)
            for assignment, tags, weight, odd in walk_matchings(
                n, ((t.source, t.detector, t.amplitude, t.color) for t in spec.transitions)
            )
        ]
        want = []
        for perm in brute_force_assignments(spec):
            weight = complex(1.0)
            for a, j in enumerate(perm, start=1):
                weight *= weight_of[(a, j)]
            tags = [None] * n
            for a, j in enumerate(perm, start=1):
                tags[j - 1] = color_of[(a, j)]
            inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
            want.append((perm, tags, weight, inversions % 2))
        assert got == want
        assert [repr(g[2]) for g in got] == [repr(w[2]) for w in want]

    def test_dense_seven_detector_network(self):
        # thousands of elementary cycles; all 7! matchings must come out
        spec = complete_digraph_network(7)
        assignments = assignments_of(spec)
        assert len(assignments) == math.factorial(7)
        assert assignments == sorted(
            itertools.permutations(range(1, 8))
        )

    def test_edge_order_invariance(self):
        rng = np.random.default_rng(23)
        spec = n5_network(rng)
        reference = walk_of(spec)
        edges = [
            (t.source, t.detector, t.amplitude, t.color) for t in spec.transitions
        ]
        for _ in range(5):
            rng.shuffle(edges)
            shuffled = validate_network(5, spec.statistics, edges, "strict")
            assert walk_of(shuffled) == reference

    def test_matchings_reference_existing_edges(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            spec = random_network_with_pm(rng, int(rng.integers(2, 6)))
            present = {(t.source, t.detector): t for t in spec.transitions}
            for assignment, by_particle, _, _ in walk_of(spec):
                assert sorted(assignment) == list(range(1, spec.n + 1))
                for a, j in enumerate(assignment, start=1):
                    assert by_particle[a - 1] == present[(a, j)]


class TestPMDiagram:
    def test_n5_removes_exactly_the_dead_row2_edges(self):
        diag = diagram_of_network(n5_network())
        assert set(diag.removed_bipartite_pairs()) == N5_DEAD_EDGES
        assert len(diag.view.edges) == 11
        assert diag.relabeling == (1, 2, 3, 4, 5)

    def test_loops_only_diagram_is_itself(self):
        view = directed_of(identity_network(3))
        diag = pm_diagram(view)
        assert diag.view == view
        assert diag.cycles == ()
        assert diag.removed == ()

    def test_tritter_diagram_keeps_every_edge(self):
        spec = preset_tritter()
        diag = pm_diagram(directed_of(spec))
        assert diag.removed == ()
        assert len(diag.view.edges) == 9

    def test_no_matching_raises(self):
        spec = validate_network(
            2, "boson", [(1, 1, 1.0, "u"), (2, 1, 1.0, "u")], "strict"
        )
        with pytest.raises(NoPerfectMatching):
            pm_diagram(directed_of(spec))

    def test_kept_edges_equal_union_over_matchings(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            spec = random_network_with_pm(rng, int(rng.integers(2, 7)))
            diag = diagram_of_network(spec)
            union = set()
            for assignment in assignments_of(spec):
                union |= {(a, j) for a, j in enumerate(assignment, start=1)}
            assert set(diag.kept_bipartite_pairs()) == union
            removed = set(diag.removed_bipartite_pairs())
            all_edges = {(t.source, t.detector) for t in spec.transitions}
            assert removed == all_edges - union


class TestConnectivity:
    def test_n5_weak_components(self):
        diag = diagram_of_network(n5_network())
        assert weak_components(diag) == ((1, 3, 4), (2, 5))

    def test_loops_only_gives_singletons(self):
        diag = diagram_of_network(identity_network(3))
        assert weak_components(diag) == ((1,), (2,), (3,))

    def test_ghz_diagram_is_one_component_and_strong(self):
        diag = diagram_of_network(design_ghz(4))
        assert weak_components(diag) == ((1, 2, 3, 4),)
        ok, partition = strongly_connected(diag)
        assert ok and partition == ((1, 2, 3, 4),)

    def test_n5_is_not_strongly_connected(self):
        ok, partition = strongly_connected(diagram_of_network(n5_network()))
        assert not ok
        assert len(partition) > 1

    def test_single_vertex_with_loop(self):
        diag = diagram_of_network(identity_network(1))
        ok, partition = strongly_connected(diag)
        assert ok and partition == ((1,),)

    def test_w_star_is_single_block(self):
        diag = diagram_of_network(design_w(5, form="star"))
        assert weak_components(diag) == ((1, 2, 3, 4, 5),)


class TestBeyondRecursionLimit:
    # n is above Python's default recursion limit of 1000, so each search
    # must keep its own stack
    N = 1100

    def test_ghz_ring_analyze(self):
        report = build_report(design_ghz(self.N))
        assert report.lemma2_partition == (tuple(range(1, self.N + 1)),)
        assert report.theorem1.verdict is Verdict.MAY_BE_GENUINE

    def test_ghz_ring_has_its_single_cycle(self):
        cycles = elementary_cycles(directed_of(design_ghz(self.N)))
        assert cycles == [tuple(range(1, self.N + 1))]

    def test_shifted_chain_gets_its_matching(self):
        # loops seed the identity on 1..n-1; the last particle reaches only
        # X1, so its augmenting path displaces every earlier particle
        n = self.N
        edges = [(a, a, 1.0, "u") for a in range(1, n)]
        edges += [(a, a + 1, 1.0, "d") for a in range(1, n)]
        edges.append((n, 1, 1.0, "d"))
        spec = validate_network(n, "boson", edges, "design")
        shifted = tuple(range(2, n + 1)) + (1,)
        assert _matching_assignment(n, neighbors_of(spec)) == shifted
        assert assignments_of(spec) == [shifted]
