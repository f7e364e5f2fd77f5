"""Perfect matchings of a network and the directed-graph view of them.

Matchings are enumerated by a depth-first search over particles in order
(``walk_matchings``), with the last three placed from a table keyed by the
detectors left free. It is the package's only enumeration, and it keeps no
matching as an object: ``states`` sums the state inside it
(``walk_prefixes``), and ``io`` stops it at the matching that a DOT
export highlights. The structural view: merging particle ``a`` and
detector ``X_a`` into one vertex ``w_a`` turns the bipartite network view
into a digraph whose loops encode a chosen perfect matching. Every other
perfect matching is then reachable by exchanging edges along pairwise
vertex-disjoint elementary cycles. The retained subgraph of loops plus cycle
edges (the "PM diagram") contains exactly the edges that participate in some
matching, and its color/connectivity structure is what the entanglement
criteria inspect.

All vertices are 1-based to match the external index convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TypeVar

from .errors import NoPerfectMatching
from .model import (
    BipartiteEdge,
    Color,
    ColoredAdjacency,
    NetworkSpec,
    to_adjacency,
)

Cycle = tuple[int, ...]
T = TypeVar("T")


@dataclass(frozen=True)
class DirectedEdge:
    tail: int
    head: int
    weight: complex
    color: Color


@dataclass(frozen=True)
class DirectedView:
    """Digraph on vertices w_1..w_n; loops allowed."""

    n: int
    edges: tuple[DirectedEdge, ...]

    def successors(self) -> list[list[int]]:
        """Sorted non-loop out-neighbors per vertex (index 0 ↔ w_1)."""
        out: list[set[int]] = [set() for _ in range(self.n)]
        for e in self.edges:
            if e.tail != e.head:
                out[e.tail - 1].add(e.head)
        return [sorted(s) for s in out]


@dataclass(frozen=True)
class PMDiagram:
    """Loop-labeled digraph retaining only loops and elementary-cycle edges.

    ``view`` lives in relabeled coordinates where the reference matching is
    the diagonal, so every vertex carries a loop. ``relabeling[v-1]`` is the
    original detector whose column was moved to slot ``v`` (vertex ``w_v``
    therefore stands for particle ``v`` and original detector
    ``relabeling[v-1]``). ``cycles`` are the elementary cycles of the
    retained subgraph; ``removed`` lists the original-label bipartite edges
    that participate in no perfect matching.
    """

    view: DirectedView
    relabeling: tuple[int, ...]
    cycles: tuple[Cycle, ...]
    removed: tuple[BipartiteEdge, ...]

    @property
    def n(self) -> int:
        return self.view.n

    def detector_of_vertex(self, v: int) -> int:
        return self.relabeling[v - 1]

    def kept_bipartite_pairs(self) -> tuple[tuple[int, int], ...]:
        """Maximally matchable edges as original (particle, detector) pairs."""
        pairs = {
            (e.tail, self.relabeling[e.head - 1]) for e in self.view.edges
        }
        return tuple(sorted(pairs))

    def removed_bipartite_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((e.particle, e.detector) for e in self.removed))


def to_directed(adj: ColoredAdjacency) -> DirectedView:
    """Edge w_a → w_j for every nonzero adjacency entry (loops included)."""
    edges = []
    for a in range(adj.n):
        for j in range(adj.n):
            color = adj.colors[a, j]
            if color is not None:
                edges.append(
                    DirectedEdge(a + 1, j + 1, complex(adj.weights[a, j]), color)
                )
    return DirectedView(adj.n, tuple(edges))


def _matching_assignment(n: int, neighbors: list[list[int]]) -> tuple[int, ...] | None:
    """Augmenting-path matching; deterministic in neighbor order.

    Loop edges (a, X_a) are seeded first so a network that is already
    loop-labeled keeps the identity matching; remaining particles are
    matched by augmenting paths, searched depth-first with an explicit
    stack so path length is not bounded by the recursion limit.
    """
    owner = [0] * (n + 1)  # detector -> particle, 0 = free
    seeded = [a in neighbors[a - 1] for a in range(1, n + 1)]
    for a in range(1, n + 1):
        if seeded[a - 1]:
            owner[a] = a

    for root in range(1, n + 1):
        if seeded[root - 1]:
            continue
        visited: set[int] = set()
        # frames[k] is a particle with its untried neighbors; path[k] the
        # detector frames[k] is currently trying to take over
        frames = [(root, iter(neighbors[root - 1]))]
        path: list[int] = []
        while frames:
            for j in frames[-1][1]:
                if j in visited:
                    continue
                visited.add(j)
                path.append(j)
                if owner[j] == 0:
                    for (a, _), d in zip(frames, path):
                        owner[d] = a
                    frames.clear()
                else:
                    frames.append((owner[j], iter(neighbors[owner[j] - 1])))
                break
            else:
                frames.pop()
                if path:
                    path.pop()
        if not path:
            return None

    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[owner[j] - 1] = j
    return tuple(assignment)


def _tarjan_sccs(n: int, succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components (Tarjan, explicit stack); vertices 1..n."""
    index_of = [0] * (n + 1)  # 0 = not yet visited, else visit order from 1
    lowlink = [0] * (n + 1)
    on_stack = [False] * (n + 1)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(1, n + 1):
        if index_of[root]:
            continue
        counter += 1
        index_of[root] = lowlink[root] = counter
        stack.append(root)
        on_stack[root] = True
        frames = [(root, iter(succ[root - 1]))]
        while frames:
            v, untried = frames[-1]
            for w in untried:
                if not index_of[w]:
                    counter += 1
                    index_of[w] = lowlink[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, iter(succ[w - 1])))
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    lowlink[u] = min(lowlink[u], lowlink[v])
                if lowlink[v] == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(sorted(comp))
    return sccs


def elementary_cycles(dir_view: DirectedView) -> list[Cycle]:
    """All elementary cycles of length >= 2; loops are excluded.

    Johnson-style blocked search over sorted non-loop adjacency lists, with
    explicit stacks. For each start vertex s (ascending), only the strongly
    connected part of the subgraph on vertices >= s is explored, so every
    cycle is reported exactly once, rooted at its smallest vertex. Output is
    sorted lexicographically.
    """
    n = dir_view.n
    succ_all = dir_view.successors()
    max_pred = [0] * (n + 1)
    for v, succ in enumerate(succ_all, start=1):
        for w in succ:
            max_pred[w] = max(max_pred[w], v)
    cycles: list[Cycle] = []

    for s in range(1, n + 1):
        # a cycle rooted at s enters and leaves s through larger vertices
        if max_pred[s] <= s or not succ_all[s - 1] or succ_all[s - 1][-1] <= s:
            continue
        restricted = [
            [w for w in succ_all[v - 1] if w >= s] if v >= s else []
            for v in range(1, n + 1)
        ]
        comp = next((c for c in _tarjan_sccs(n, restricted) if s in c), [s])
        if len(comp) < 2:
            continue
        comp_set = set(comp)
        succ = [
            [w for w in restricted[v - 1] if w in comp_set]
            for v in range(1, n + 1)
        ]

        blocked = {v: False for v in comp}
        block_list: dict[int, set[int]] = {v: set() for v in comp}

        def unblock(v: int) -> None:
            blocked[v] = False
            pending = [v]
            while pending:
                u = pending.pop()
                for w in block_list[u]:
                    if blocked[w]:
                        blocked[w] = False
                        pending.append(w)
                block_list[u].clear()

        # path[k] is the vertex of frames[k]; a frame holds the vertex's
        # untried successors and whether a cycle was closed below it
        path = [s]
        blocked[s] = True
        frames = [[iter(succ[s - 1]), False]]
        while frames:
            frame = frames[-1]
            for w in frame[0]:
                if w == s:
                    cycles.append(tuple(path))
                    frame[1] = True
                elif not blocked[w]:
                    path.append(w)
                    blocked[w] = True
                    frames.append([iter(succ[w - 1]), False])
                    break
            else:
                frames.pop()
                v = path.pop()
                if frame[1]:
                    unblock(v)
                    if frames:
                        frames[-1][1] = True
                else:
                    for w in succ[v - 1]:
                        block_list[w].add(v)

    return sorted(cycles)


#: particles at the bottom of the matching walk that are placed from a
#: per-free-set table of completions instead of being searched; the row
#: layout of ``_completion_rows`` is written for three
TABLE_PARTICLES = 3

_ONE = complex(1.0)


def _pair_rows(n: int, options: list, last: dict, free: int) -> list:
    """Rows for particles n-1 and n taking the two detectors in ``free``.

    They have the layout of ``_completion_rows``, led by weight 1 and a
    repeat of their first placement.
    """
    rows = []
    for bit, j, w, tag in options[n - 2]:
        if free & bit and free ^ bit in last:
            _, k, v, tag_k = last[free ^ bit]
            odd = (n - j - (free >> (j + 1)).bit_count() + n - k) & 1
            rows.append((_ONE, w, v, j - 1, tag, j - 1, tag, k - 1, tag_k, (j, k), odd))
    return rows


def _completion_rows(
    n: int, options: list, last: dict, pairs: dict[int, list], free: int
) -> list:
    """Every way for the last particles to take the detectors in ``free``.

    ``free`` is the bitmask a walk prefix left free, and the rows place the
    last ``TABLE_PARTICLES`` particles (all n when n is smaller) on it in
    lexicographic order. A row is ``(w1, w2, w3, i1, t1, i2, t2, i3, t3,
    detectors, odd)``: the weights, the tag index (detector - 1) and tag
    of each placement, the detectors in particle order, and the parity
    bit. Rows of fewer particles lead with weight 1 and repeat their first
    placement, which changes neither the product nor the tags.

    Each of the first particle's choices is extended by the two-particle
    rows of the set it leaves, kept in ``pairs`` for the rest of the walk.
    When particle a takes detector j, particles 1..a-1 hold exactly the
    n - j detectors above j that are not free, so a row's parity bit
    depends on the free set alone.
    """
    if n == 1:  # the up-front matching check found the one edge
        _, _, w, tag = last[free]
        return [(_ONE, _ONE, w, 0, tag, 0, tag, 0, tag, (1,), 0)]
    if n == 2:
        return _pair_rows(n, options, last, free)
    rows = []
    for bit, j, w, tag in options[n - 3]:
        if free & bit:
            rest = free ^ bit
            odd = (n - j - (free >> (j + 1)).bit_count()) & 1
            pair_rows = pairs.get(rest)
            if pair_rows is None:
                pair_rows = pairs[rest] = _pair_rows(n, options, last, rest)
            for _, w2, w3, _, _, i2, t2, i3, t3, (j2, j3), odd23 in pair_rows:
                rows.append((w, w2, w3, j - 1, tag, i2, t2, i3, t3, (j, j2, j3), odd ^ odd23))
    return rows


def walk_prefixes(
    n: int, edges: Iterable[tuple[int, int, complex, T]]
) -> Iterator[tuple[list[int], list[T], complex, int, list]]:
    """The matching walk down to its completion table (see ``walk_matchings``).

    Particles 1..n-K, K = ``TABLE_PARTICLES`` (all of them when n <= K),
    are placed by depth-first search. Per placement of them that the last
    K particles can complete this yields ``(assignment, tags, prefix,
    parity, rows)``: the placement so far (both lists updated in place),
    its weight product and parity, and the completion rows of its free
    detectors, as ``_completion_rows`` describes.
    """
    options: list[list[tuple[int, int, complex, T]]] = [[] for _ in range(n)]
    for a, j, w, tag in edges:
        options[a - 1].append((1 << j, j, w, tag))
    for opts in options:
        opts.sort(key=lambda o: o[1])
    if _matching_assignment(n, [[o[1] for o in opts] for opts in options]) is None:
        return

    # due[a-1]: detectors whose last neighbor is particle a, so a must take
    # any of them still free
    last_neighbor = [0] * (n + 1)
    for a, opts in enumerate(options):
        for o in opts:
            last_neighbor[o[1]] = a
    due = [0] * n
    for j in range(1, n + 1):
        due[last_neighbor[j]] |= 1 << j
    full = ((1 << n) - 1) << 1
    depth = max(n - TABLE_PARTICLES, 0)
    by_bit = [{o[0]: o for o in opts} for opts in options[:depth]]
    last = {o[0]: o for o in options[-1]}
    # completion rows per free set at the table depth, and the two-particle
    # rows they are built from
    table: dict[int, list] = {}
    pairs: dict[int, list] = {}
    assignment = [0] * n
    tags: list = [None] * n
    # prefix[a], parity[a]: weight product and permutation parity of the
    # placements of particles 1..a
    prefix = [_ONE] * n
    parity = [0] * n
    held = [0] * n  # detector bit held by each particle, 0 = none
    untried = [iter(())] * n
    used = 0
    a = 0  # 0-based particle being placed
    while a >= 0:
        if a == depth:
            free = full ^ used
            rows = table.get(free)
            if rows is None:
                rows = table[free] = _completion_rows(n, options, last, pairs, free)
            if rows:
                yield assignment, tags, prefix[a], parity[a], rows
            a -= 1
            continue
        if held[a]:
            used ^= held[a]
        else:
            pending = due[a] & ~used
            if pending & (pending - 1):  # two free detectors need this particle
                a -= 1
                continue
            untried[a] = iter((by_bit[a][pending],) if pending else options[a])
        for bit, j, w, tag in untried[a]:
            if not used & bit:
                break
        else:
            held[a] = 0
            a -= 1
            continue
        held[a] = bit
        assignment[a] = j
        tags[j - 1] = tag
        prefix[a + 1] = prefix[a] * w
        parity[a + 1] = parity[a] ^ ((used >> j).bit_count() & 1)
        used |= bit
        a += 1


def walk_matchings(
    n: int, edges: Iterable[tuple[int, int, complex, T]]
) -> Iterator[tuple[list[int], list[T], complex, int]]:
    """Every perfect matching, by depth-first search over particles 1..n.

    ``edges`` holds ``(particle, detector, weight, tag)`` in any order.
    Each particle tries its free detectors in ascending order, so matchings
    come out in lexicographic order of assignment. Per matching this yields
    ``(assignment, tags, weight, odd)``: ``assignment[a-1]`` is particle
    a's detector, ``tags[j-1]`` the tag of the edge reaching detector j,
    ``weight`` the product of the edge weights multiplied left to right in
    particle order from ``complex(1.0)``, and ``odd`` the parity (0 or 1)
    of the assignment permutation. Both lists are updated in place between
    matchings; copy them to keep them.

    A network without a perfect matching is detected up front by one
    augmenting-path search. A branch is pruned as soon as a free detector
    has lost its last unassigned neighbor. The last ``TABLE_PARTICLES``
    particles are not searched: each placement of the others is completed
    from a table of rows keyed by its free detectors (``walk_prefixes``).
    """
    depth = max(n - TABLE_PARTICLES, 0)
    for assignment, tags, prefix, parity, rows in walk_prefixes(n, edges):
        for w1, w2, w3, i1, t1, i2, t2, i3, t3, detectors, odd in rows:
            tags[i1] = t1
            tags[i2] = t2
            tags[i3] = t3
            assignment[depth:] = detectors
            yield assignment, tags, ((prefix * w1) * w2) * w3, parity ^ odd


def pm_diagram(dir_view: DirectedView) -> PMDiagram:
    """Restrict a loop-labelable digraph to loops plus elementary-cycle edges.

    Raises NoPerfectMatching when the underlying network has no matching
    (without one there is no loop labeling to define the diagram).
    """
    n = dir_view.n
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for e in dir_view.edges:
        neighbors[e.tail - 1].append(e.head)
    relabeling = _matching_assignment(n, neighbors)
    if relabeling is None:
        raise NoPerfectMatching("network has no perfect matching")

    # permute detector labels so the base matching becomes the diagonal:
    # detector relabeling[v-1] moves to slot v
    slot_of = [0] * (n + 1)
    for a, j in enumerate(relabeling, start=1):
        slot_of[j] = a
    relabeled = tuple(
        DirectedEdge(e.tail, slot_of[e.head], e.weight, e.color)
        for e in dir_view.edges
    )
    cycles = tuple(elementary_cycles(DirectedView(n, relabeled)))

    kept: set[tuple[int, int]] = {(v, v) for v in range(1, n + 1)}
    for c in cycles:
        for k, v in enumerate(c):
            kept.add((v, c[(k + 1) % len(c)]))

    kept_edges = tuple(e for e in relabeled if (e.tail, e.head) in kept)
    removed = tuple(
        BipartiteEdge(e.tail, relabeling[e.head - 1], e.weight, e.color)
        for e in relabeled
        if (e.tail, e.head) not in kept
    )
    return PMDiagram(DirectedView(n, kept_edges), relabeling, cycles, removed)


def diagram_of_network(spec: NetworkSpec) -> PMDiagram:
    """Convenience chain: spec → adjacency → digraph → PM diagram."""
    return pm_diagram(to_directed(to_adjacency(spec)))


def weak_components(diag: PMDiagram) -> tuple[tuple[int, ...], ...]:
    """Vertex partition into connected components, ignoring direction."""
    n = diag.n
    parent = list(range(n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in diag.view.edges:
        ra, rb = find(e.tail), find(e.head)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    blocks: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        blocks.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(b)) for b in sorted(blocks.values()))


def strongly_connected(diag: PMDiagram) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """SCC decomposition; True iff one component spans every vertex."""
    sccs = _tarjan_sccs(diag.n, diag.view.successors())
    partition = tuple(tuple(c) for c in sorted(sccs))
    return len(partition) == 1, partition
