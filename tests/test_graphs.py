"""Matching enumeration, diagrams and their cycles, connectivity."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lqngraph.designers import design_cluster4, design_ghz, design_w, preset_tritter
from lqngraph.entanglement import Verdict, build_report
from lqngraph.errors import NoPerfectMatching
from lqngraph.graphs import (
    TABLE_PARTICLES,
    _base_matching,
    _matching_assignment,
    _successors,
    _tarjan_sccs,
    diagram_of_network,
    walk_matchings,
)
from lqngraph.io import DotRenderOptions, View, export_dot
from lqngraph.states import assemble_network_state
from lqngraph.model import (
    Color,
    NetworkSpec,
    NormalizationMode,
    Statistics,
    validate_network,
)

from conftest import (
    N5_DEAD_EDGES,
    brute_force_assignments,
    brute_force_cycles,
    matchings,
    n5_network,
    networks,
    random_network,
    random_network_with_pm,
)

PROPERTY = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def assignments_of(spec):
    return [assignment for assignment, _ in matchings(spec)]


def walk_of(spec):
    """(assignment, transitions by particle, term) per matching.

    The transitions are looked up by (particle, detector); the ket the walk
    yields must hold the color of the transition reaching each detector.
    """
    by_pair = spec.transition_map()
    out = []
    for assignment, ket, term in walk_matchings(spec):
        used = tuple(by_pair[a, j] for a, j in enumerate(assignment, start=1))
        assert ket == "".join(t.color.value for t in sorted(used, key=lambda t: t.detector))
        out.append((tuple(assignment), used, term))
    return out


def diagram_or_none(spec):
    try:
        return diagram_of_network(spec)
    except NoPerfectMatching:
        return None


def identity_network(n):
    return validate_network(
        n, "boson", [(a, a, 1.0, "up") for a in range(1, n + 1)], "strict"
    )


def no_matching_networks():
    """Two networks without a perfect matching: in the first, detector X2
    has no edge; in the second, every vertex has one, but particles 1 and 2
    both reach X1 alone."""
    return [
        validate_network(2, "boson", [(1, 1, 1.0, "u"), (2, 1, 1.0, "u")], "strict"),
        validate_network(
            3,
            "boson",
            [(1, 1, 1.0, "u"), (2, 1, 1.0, "u"), (3, 2, 1.0, "u"), (3, 3, 1.0, "d")],
            "design",
        ),
    ]


def complete_digraph_network(n):
    amp = 1 / math.sqrt(n)
    edges = [(a, j, amp, "up") for a in range(1, n + 1) for j in range(1, n + 1)]
    return validate_network(n, "boson", edges, "strict")


class TestToDirected:
    """A spec is its own digraph: edge w_a → w_j per transition a → X_j."""

    def test_n5_has_fourteen_edges_with_loops(self):
        spec = n5_network()
        assert len(spec.transitions) == 14
        loops = {(t.source, t.detector) for t in spec.transitions if t.source == t.detector}
        assert loops == {(v, v) for v in range(1, 6)}
        assert list(map(sorted, _successors(spec))) == [[4], [1, 3, 4, 5], [1], [1, 3], [2]]

    def test_diagonal_gives_loops_only(self):
        assert _successors(identity_network(4)) == [[], [], [], []]

    def test_two_mode_crossing_gives_two_loops_and_a_two_cycle(self):
        a1, b1, a2, b2 = 0.6, 0.8, 0.8, 0.6
        spec = validate_network(
            2,
            "boson",
            [(1, 1, a1, "u"), (1, 2, b1, "u"), (2, 1, a2, "d"), (2, 2, b2, "d")],
            "strict",
        )
        assert list(map(sorted, _successors(spec))) == [[2], [1]]
        assert brute_force_cycles(diagram_of_network(spec).network) == [(1, 2)]
        weights = {pair: t.amplitude for pair, t in spec.transition_map().items()}
        assert weights[(1, 2)] == b1 and weights[(2, 1)] == a2


class TestInitialMatching:
    """The base matching that the PM diagram relabels to loops."""

    def test_n5_finds_the_diagonal(self):
        assert _base_matching(n5_network()) == (1, 2, 3, 4, 5)

    def test_pigeonhole_failure_returns_none(self):
        spec = validate_network(
            2, "boson", [(1, 1, 1.0, "u"), (2, 1, 1.0, "u")], "strict"
        )
        assert _base_matching(spec) is None

    def test_identity_network(self):
        spec = identity_network(3)
        assert _base_matching(spec) == (1, 2, 3)
        assert matchings(spec) == [((1, 2, 3), (Color.UP,) * 3)]


class TestLoopLabeled:
    """A loop at every vertex makes a spec its own base matching."""

    @PROPERTY
    @given(networks(modes=("design",)), st.data())
    def test_base_matching_is_the_identity_the_search_finds(self, spec, data):
        have = {t.source for t in spec.transitions if t.source == t.detector}
        loops = [(v, v, 1.0, "u") for v in range(1, spec.n + 1) if v not in have]
        edges = data.draw(st.permutations([*spec.transitions, *loops]), label="edges")
        spec = validate_network(spec.n, spec.statistics, edges, "design")
        identity = tuple(range(1, spec.n + 1))
        assert _base_matching(spec) == identity
        neighbors = [[] for _ in range(spec.n)]
        for t in spec.transitions:
            neighbors[t.source - 1].append(t.detector)
        assert _matching_assignment(spec.n, [sorted(r) for r in neighbors]) == identity

    def test_diagram_holds_the_specs_own_transitions(self):
        spec = n5_network()
        assert {t.source for t in spec.transitions if t.source == t.detector} == {1, 2, 3, 4, 5}
        diag = diagram_of_network(spec)
        own = {id(t) for t in spec.transitions}
        assert diag.removed
        assert all(id(t) in own for t in diag.network.transitions)
        assert diag.network.normalization_mode is NormalizationMode.DESIGN

    def test_strongly_connected_diagram_is_the_spec_itself(self):
        # loops and the ring 1 -> 3 -> 2 -> 1: one SCC, so no edge is dropped
        edges = [(1, 1, 1.0, "u"), (2, 2, 1.0, "d"), (3, 3, 1.0, "u")]
        edges += [(1, 3, 1j, "d"), (3, 2, -1.0, "u"), (2, 1, 0.5, "d")]
        spec = validate_network(3, "fermion", edges, "design")
        diag = diagram_of_network(spec)
        assert diag.network.transitions is spec.transitions
        assert diag.removed == ()
        assert diag.components == ((1, 2, 3),)
        assert diag.relabeling == (1, 2, 3)


class TestRelabelToLoops:
    """``diagram_of_network`` moves the base matching onto the diagonal."""

    def test_swap_only_network_gets_loops(self):
        spec = validate_network(
            2, "boson", [(1, 2, 1.0, "u"), (2, 1, 1.0, "d")], "strict"
        )
        diag = diagram_of_network(spec)
        assert diag.relabeling == (2, 1)
        assert {(t.source, t.detector) for t in diag.network.transitions} == {(1, 1), (2, 2)}

    def test_diagonal_matching_leaves_n5_unchanged(self):
        spec = n5_network()
        diag = diagram_of_network(spec)
        assert diag.relabeling == (1, 2, 3, 4, 5)
        assert set(diag.network.transitions) | set(diag.removed) == set(spec.transitions)

    def test_tritter_diagonal_is_usable(self):
        spec = preset_tritter()
        diag = diagram_of_network(spec)
        assert diag.relabeling == (1, 2, 3)
        assert diag.network.transitions == spec.transitions


def cycle_edges(spec):
    """Loops plus the edges of every elementary cycle, by brute force."""
    edges = {(v, v) for v in range(1, spec.n + 1)}
    for c in brute_force_cycles(spec):
        edges |= {(v, c[(k + 1) % len(c)]) for k, v in enumerate(c)}
    return edges


class TestElementaryCycles:
    """The PM diagram against its definition: loops plus the edges of the
    elementary cycles, found by brute force on the diagram's digraph."""

    def test_n5_cycles_match_worked_example(self):
        cycles = brute_force_cycles(diagram_of_network(n5_network()).network)
        assert set(cycles) == {(2, 5), (1, 4), (1, 4, 3)}

    def test_loops_only_yields_nothing(self):
        assert brute_force_cycles(diagram_of_network(identity_network(5)).network) == []

    def test_cluster_network_has_three_cycles(self):
        cycles = brute_force_cycles(diagram_of_network(design_cluster4()).network)
        assert set(cycles) == {(1, 2), (3, 4), (1, 2, 3, 4)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_digraph_counts(self, n):
        # every edge of a complete network is in a matching, so the diagram
        # keeps them all, with every cycle of the complete digraph
        diag = diagram_of_network(complete_digraph_network(n))
        assert diag.removed == ()
        expected = sum(
            math.comb(n, k) * math.factorial(k - 1) for k in range(2, n + 1)
        )
        assert len(brute_force_cycles(diag.network)) == expected

    @PROPERTY
    @given(networks(max_n=8, modes=("strict", "design")))
    def test_random_digraphs_match_brute_force(self, spec):
        diag = diagram_or_none(spec)
        if diag is None:
            return
        # the whole digraph in the diagram's labels, dead edges included
        slot_of = {j: v for v, j in enumerate(diag.relabeling, start=1)}
        relabeled = NetworkSpec(
            spec.n,
            spec.statistics,
            tuple(t._replace(detector=slot_of[t.detector]) for t in spec.transitions),
            NormalizationMode.DESIGN,
        )
        kept = {(t.source, t.detector) for t in diag.network.transitions}
        assert kept == cycle_edges(relabeled)
        assert cycle_edges(diag.network) == kept


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
        for spec in no_matching_networks():
            assert matchings(spec) == []

    def test_matches_brute_force_up_to_n7(self):
        rng = np.random.default_rng(17)
        for n in range(2, 8):
            for _ in range(6):
                spec = random_network(rng, n)
                assert assignments_of(spec) == brute_force_assignments(spec)

    @pytest.mark.parametrize("n", range(1, TABLE_PARTICLES + 3))
    def test_walk_weight_and_parity_per_matching(self, n):
        # every field the walk yields, for both statistics, against a
        # product and an inversion count taken straight from the
        # brute-force assignment; n runs from a table led by weight-1 rows
        # to two searched particles above it. The term is the weight,
        # negated for an odd fermion permutation; terms compare with ==, as
        # a negated product may differ from the signed fold in the sign of
        # a zero part, which no sum from 0j keeps
        for statistics in Statistics:
            spec = random_network_with_pm(np.random.default_rng(31 + n), n, statistics)
            weight_of = {(t.source, t.detector): t.amplitude for t in spec.transitions}
            color_of = {(t.source, t.detector): t.color.value for t in spec.transitions}
            got = [(tuple(assignment), ket, term) for assignment, ket, term in walk_matchings(spec)]
            want = []
            for perm in brute_force_assignments(spec):
                term = complex(1.0)
                for a, j in enumerate(perm, start=1):
                    term *= weight_of[(a, j)]
                inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
                if statistics is Statistics.FERMION and inversions % 2:
                    term = -term
                ket = [""] * n
                for a, j in enumerate(perm, start=1):
                    ket[j - 1] = color_of[(a, j)]
                want.append((perm, "".join(ket), term))
            assert got == want

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(max_n=9))
    def test_terms_folded_by_ket_are_the_state(self, spec):
        # folding the yielded terms by ket from 0j, in yield order, and
        # dropping exact cancellations gives the assembled state: the same
        # kets in the same order, every amplitude with the same repr
        folded: dict[str, complex] = {}
        for _, ket, term in walk_matchings(spec):
            folded[ket] = folded.get(ket, 0j) + term
        got = [(k, repr(v)) for k, v in folded.items() if v != 0]
        want = [(k, repr(v)) for k, v in assemble_network_state(spec).amplitudes.items()]
        assert got == want

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
            for assignment, by_particle, _ in walk_of(spec):
                assert sorted(assignment) == list(range(1, spec.n + 1))
                for a, j in enumerate(assignment, start=1):
                    assert by_particle[a - 1] == present[(a, j)]


class TestPMDiagram:
    def test_n5_removes_exactly_the_dead_row2_edges(self):
        diag = diagram_of_network(n5_network())
        assert set(diag.removed_bipartite_pairs()) == N5_DEAD_EDGES
        assert len(diag.network.transitions) == 11
        assert diag.relabeling == (1, 2, 3, 4, 5)

    def test_loops_only_diagram_is_itself(self):
        spec = identity_network(3)
        diag = diagram_of_network(spec)
        assert diag.network.transitions == spec.transitions
        assert diag.removed == ()

    def test_tritter_diagram_keeps_every_edge(self):
        spec = preset_tritter()
        diag = diagram_of_network(spec)
        assert diag.removed == ()
        assert len(diag.network.transitions) == 9

    def test_no_matching_raises(self):
        for spec in no_matching_networks():
            with pytest.raises(NoPerfectMatching):
                diagram_of_network(spec)

    @PROPERTY
    @given(networks(modes=("strict", "design")), st.data())
    def test_diagram_ignores_transition_order(self, spec, data):
        # the base matching, and with it the relabeling, depends only on
        # the set of transitions, not on the order the spec lists them in
        diag = diagram_or_none(spec)
        shuffled = data.draw(st.permutations(spec.transitions), label="transitions")
        other = diagram_or_none(
            NetworkSpec(spec.n, spec.statistics, tuple(shuffled), spec.normalization_mode)
        )
        if diag is None:
            assert other is None
            return
        assert other.relabeling == diag.relabeling
        assert other.kept_bipartite_pairs() == diag.kept_bipartite_pairs()
        assert other.removed_bipartite_pairs() == diag.removed_bipartite_pairs()
        assert other.components == diag.components

    @PROPERTY
    @given(networks(modes=("strict", "design")))
    def test_kept_edges_equal_union_over_matchings(self, spec):
        union = set()
        for assignment in assignments_of(spec):
            union |= {(a, j) for a, j in enumerate(assignment, start=1)}
        diag = diagram_or_none(spec)
        if diag is None:
            assert union == set()
            return
        assert set(diag.kept_bipartite_pairs()) == union
        # removed edges are the spec's own transitions, in original labels
        assert set(diag.removed) == {
            t for t in spec.transitions if (t.source, t.detector) not in union
        }


class TestConnectivity:
    def test_n5_weak_components(self):
        diag = diagram_of_network(n5_network())
        assert diag.components == ((1, 3, 4), (2, 5))

    def test_loops_only_gives_singletons(self):
        diag = diagram_of_network(identity_network(3))
        assert diag.components == ((1,), (2,), (3,))

    def test_ghz_diagram_is_one_component_and_strong(self):
        diag = diagram_of_network(design_ghz(4))
        assert diag.components == ((1, 2, 3, 4),)

    def test_n5_is_not_strongly_connected(self):
        assert len(diagram_of_network(n5_network()).components) > 1

    def test_single_vertex_with_loop(self):
        diag = diagram_of_network(identity_network(1))
        assert diag.components == ((1,),)

    def test_w_star_is_single_block(self):
        diag = diagram_of_network(design_w(5, form="star"))
        assert diag.components == ((1, 2, 3, 4, 5),)

    @PROPERTY
    @given(networks(modes=("strict", "design")))
    def test_weak_components_are_undirected_reachability(self, spec):
        diag = diagram_or_none(spec)
        if diag is None:
            return
        linked = {v: set() for v in range(1, diag.n + 1)}
        for t in diag.network.transitions:
            linked[t.source].add(t.detector)
            linked[t.detector].add(t.source)
        components, seen = [], set()
        for root in range(1, diag.n + 1):
            if root in seen:
                continue
            seen.add(root)
            frontier, component = [root], []
            while frontier:
                v = frontier.pop()
                component.append(v)
                for w in linked[v] - seen:
                    seen.add(w)
                    frontier.append(w)
            components.append(tuple(sorted(component)))
        assert diag.components == tuple(components)


def mutual_reachability_classes(n, succ):
    """Classes of vertices 1..n that reach each other, by a search from each."""
    reach = []
    for v in range(1, n + 1):
        seen, frontier = {v}, [v]
        while frontier:
            for w in succ[frontier.pop() - 1]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        reach.append(seen)
    return {frozenset(w for w in reach[v - 1] if v in reach[w - 1]) for v in range(1, n + 1)}


@settings(max_examples=2000, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]), st.integers(0, 2**32 - 1))
def test_tarjan_sccs_are_the_mutual_reachability_classes(n, density, seed):
    # loops, isolated vertices and vertices without out-edges all occur
    rng = random.Random(seed)
    succ = [[w for w in range(1, n + 1) if rng.random() < density] for _ in range(n)]
    sccs = _tarjan_sccs(n, succ)
    assert all(comp == sorted(comp) for comp in sccs)
    assert sorted(v for comp in sccs for v in comp) == list(range(1, n + 1))
    assert {frozenset(comp) for comp in sccs} == mutual_reachability_classes(n, succ)


class TestBeyondRecursionLimit:
    # n is above Python's default recursion limit of 1000, so each search
    # must keep its own stack
    N = 1100

    def test_ghz_ring_analyze(self):
        report = build_report(design_ghz(self.N))
        assert report.lemma2_partition == (tuple(range(1, self.N + 1)),)
        assert report.theorem1.verdict is Verdict.MAY_BE_GENUINE

    def test_ghz_ring_has_its_single_cycle(self):
        # the diagram keeps the loops and the one ring 1 → 2 → … → N → 1
        diag = diagram_of_network(design_ghz(self.N))
        assert diag.removed == ()
        assert {(t.source, t.detector) for t in diag.network.transitions} == {
            (v, v) for v in range(1, self.N + 1)
        } | {(v, v % self.N + 1) for v in range(1, self.N + 1)}

    def test_shifted_chain_gets_its_matching(self):
        # loops seed the identity on 1..n-1; the last particle reaches only
        # X1, so its augmenting path displaces every earlier particle
        n = self.N
        edges = [(a, a, 1.0, "u") for a in range(1, n)]
        edges += [(a, a + 1, 1.0, "d") for a in range(1, n)]
        edges.append((n, 1, 1.0, "d"))
        spec = validate_network(n, "boson", edges, "design")
        shifted = tuple(range(2, n + 1)) + (1,)
        assert _base_matching(spec) == shifted
        assert assignments_of(spec) == [shifted]


def test_sparse_ring_builds_no_square_structure():
    # a GHZ ring has 2n edges, so analyze, the PM diagram and the directed
    # DOT view must stay within a few KB per edge; one n×n complex array
    # alone would take 16 MB at n = 1024
    spec = design_ghz(1024)
    tracemalloc.start()
    try:
        build_report(spec)
        diagram_of_network(spec)
        export_dot(spec, DotRenderOptions(view=View.DIRECTED))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB for {len(spec.transitions)} edges"


@pytest.mark.parametrize("n", [12, 40])
def test_complete_network_diagram_needs_no_cycle_search(n):
    # a complete network has sum_k C(n,k)(k-1)! elementary cycles, about 1e8
    # at n = 12; the diagram and its DOT view must still come out at once,
    # in a few KB per edge
    spec = complete_digraph_network(n)
    tracemalloc.start()
    try:
        report = build_report(spec)
        dot = export_dot(spec, DotRenderOptions(view=View.PM_DIAGRAM))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB for {len(spec.transitions)} edges"
    assert report.diagram.removed == ()
    assert report.diagram.components == (tuple(range(1, n + 1)),)
    assert dot.count("->") == n * n


@pytest.mark.parametrize(
    "design", [design_ghz, lambda n: design_w(n, "ring"), lambda n: design_w(n, "star")],
    ids=["ghz-ring", "w-ring", "w-star"],
)
def test_ten_thousand_vertex_designs_analyze(design):
    n = 10**4
    report = build_report(design(n))
    assert report.diagram.removed == ()
    assert report.lemma2_partition == (tuple(range(1, n + 1)),)
    assert report.theorem1.strongly_connected
