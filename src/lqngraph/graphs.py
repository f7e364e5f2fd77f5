"""Perfect matchings of a network and the PM diagram built from them.

Matchings are enumerated by a depth-first search over particles in order
(``walk_matchings``), with the last five placed from a nested table,
built once per set of detectors left free, whose rows share their partial
weight products; a fermion's sign enters as exact negation of the odd
placements' weights. It is the package's only enumeration, and it keeps no
matching as an object: ``_ket_sums`` sums the state inside it for
``states``, and ``io`` stops it at the matching that a DOT export
highlights; only this module reads the tables. The walk reads the
``NetworkSpec`` itself and carries each ket as an integer code of down
bits (bit j set when detector X_j receives a down edge), which
``walk_matchings`` spells out as the state's ``u``/``d`` string
(``ket_of_code``), yielded with the signed term the state adds to it.
The walk and the PM diagram take
their reference perfect matching, or the answer that there is none, from
one check (``_base_matching``); a loop-labeled spec, such as a PM diagram
or a designer ring, is its own, the identity, with no search.
The structural picture: merging particle
``a`` and detector ``X_a`` into one vertex ``w_a`` turns each transition
a → X_j into a digraph edge w_a → w_j, so a ``NetworkSpec`` is read as
that digraph directly, with no second edge type. Relabeling the
detectors so a chosen perfect matching becomes the loops, every other
perfect matching is reachable by exchanging edges along pairwise
vertex-disjoint elementary cycles. The retained subgraph of loops plus
cycle edges (the "PM diagram") contains exactly the edges that
participate in some matching: those whose two ends share a strongly
connected component. ``diagram_of_network`` keeps it as a ``NetworkSpec``
in the relabeled coordinates, with the SCCs, found in one pass; they are
also its weak components; with one SCC, as in every designer ring, the
relabeled spec is the diagram. Those components and the edge colors are
what the entanglement criteria inspect.

All vertices are 1-based to match the external index convention.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterator
from itertools import compress

from .errors import NoPerfectMatching
from .model import Color, NetworkSpec, NormalizationMode, Statistics, Transition


class PMDiagram(namedtuple("PMDiagram", "network relabeling removed components")):
    """Loop-labeled digraph retaining only loops and edges inside an SCC.

    ``network`` is the diagram as a design-mode ``NetworkSpec`` in
    relabeled coordinates, where the reference matching is the diagonal,
    so every vertex carries a loop: its transition a → X_v is the edge
    w_a → w_v. ``relabeling[v-1]`` is the original detector whose column
    was moved to slot ``v`` (vertex ``w_v`` therefore stands for particle
    ``v`` and original detector ``relabeling[v-1]``). ``removed`` lists
    the transitions, in original labels, that participate in no perfect
    matching. ``components`` is the strongly connected partition of
    ``network``: sorted vertex tuples in ascending order. The two ends of
    every kept edge share an SCC, so these are also the weak components.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.network.n

    def detector_of_vertex(self, v: int) -> int:
        return self.relabeling[v - 1]

    def kept_bipartite_pairs(self) -> tuple[tuple[int, int], ...]:
        """Maximally matchable edges as original (particle, detector) pairs."""
        pairs = {
            (t.source, self.relabeling[t.detector - 1]) for t in self.network.transitions
        }
        return tuple(sorted(pairs))

    def removed_bipartite_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((t.source, t.detector) for t in self.removed))


def _successors(spec: NetworkSpec) -> list[list[int]]:
    """Sorted non-loop out-neighbors of each vertex (index 0 ↔ w_1)."""
    out: list[list[int]] = [[] for _ in range(spec.n)]
    for t in spec.transitions:
        if t.source != t.detector:
            out[t.source - 1].append(t.detector)
    for succ in out:
        succ.sort()
    return out


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


def _base_matching(spec: NetworkSpec) -> tuple[int, ...] | None:
    """The reference perfect matching of ``spec`` (detector per particle), or None.

    A vertex without a transition is found first, in O(edges), so a huge
    ``n`` is answered before any per-vertex list is built. The neighbor
    lists are sorted, so the matching ignores the order of the transitions.
    A loop-labeled spec, with a loop at each of its vertices 1..n, is its
    own base matching: the identity, which the augmenting search, seeding
    loops first, would return too. A repeated loop counts once.
    """
    n = spec.n
    loops = {t.source for t in spec.transitions if t.source == t.detector}
    if len(loops) == n and all(0 < v <= n for v in loops):
        return tuple(range(1, n + 1))
    particles = {t.source for t in spec.transitions}
    detectors = {t.detector for t in spec.transitions}
    if len(particles) < n or len(detectors) < n:
        return None
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for t in spec.transitions:
        neighbors[t.source - 1].append(t.detector)
    for row in neighbors:
        row.sort()
    return _matching_assignment(n, neighbors)


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
            low = lowlink[v]  # kept here while v's successors are scanned
            for w in untried:
                if not index_of[w]:
                    lowlink[v] = low
                    counter += 1
                    index_of[w] = lowlink[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, iter(succ[w - 1])))
                    break
                if on_stack[w] and index_of[w] < low:
                    low = index_of[w]
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    lowlink[u] = min(lowlink[u], low)
                if low == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(sorted(comp))
    return sccs


#: particles at the bottom of the matching walk that are placed from a
#: nested per-free-set table of completions instead of being searched; the
#: table loops of ``walk_matchings`` and ``_ket_sums`` are written for five
TABLE_PARTICLES = 5

_ONE = complex(1.0)

_UD = str.maketrans("01", "ud")


def ket_of_code(code: int, n: int) -> str:
    """The ket string of a down-bit code: 'd' at detector j where bit j is set.

    Bit j of ``code`` is detector X_j's bit in the walk's free-detector
    masks; bit 0 is never set.
    """
    return format(code >> 1, f"0{n}b")[::-1].translate(_UD)


def _table(free: int, options: list, last: dict, tables: dict, negate: bool) -> list:
    """The completion table of the last particles on the detectors in ``free``.

    The rows are laid out as ``_walk_prefixes`` describes; ``tables``
    keeps each table built, keyed by its free set, for the rest of the walk.
    """
    n = len(options)
    rows = tables[free] = []
    size = free.bit_count()
    for bit, j, w, down in options[n - size]:
        if free & bit:
            rest = free ^ bit
            if negate and (n - j - (free >> (j + 1)).bit_count()) & 1:
                w = -w
            if size > 2:
                below = tables.get(rest)
                if below is None:
                    below = _table(rest, options, last, tables, negate)
                if below:
                    rows.append((w, down, below, j))
            elif size == 1:  # n == 1
                rows.append((_ONE, w, down, (j,)))
            elif rest in last:
                _, k, v, down_k = last[rest]
                if negate and (n - k) & 1:
                    v = -v
                rows.append((w, v, down | down_k, (j, k)))
    return rows


def _walk_prefixes(spec: NetworkSpec) -> Iterator[tuple[list[int], int, complex, list]]:
    """The matching walk down to its completion table (see ``walk_matchings``).

    Particles 1..n-K, K = ``TABLE_PARTICLES`` (none when n <= K), are
    placed by depth-first search. Per placement of them that the last K
    particles can complete this yields ``(assignment, code, prefix,
    table)``: the placement so far (a list updated in place), its ket code
    (bit j set when detector X_j receives a down edge), its signed weight
    product, and the table of its free detectors.

    The table, built once per free set, has a level per particle listing
    its choices in ascending detector order as rows ``(w, down, table,
    j)``: the signed weight, detector j's bit if the edge is down, the next
    particle's table on the detectors left free, and the detector. The last
    two particles are pair rows ``(w, w', down, (j, j'))``. Below n = K,
    rows ``(1, 0, table, 0)`` lead, and a lone particle's pair row is ``(1,
    w, down, (j,))``, with 1 as ``complex(1.0)``. A matching's term is the
    prefix (from ``complex(1.0)``) times its rows' weights, left to right,
    and its code is ``code`` OR their ``down`` bits. A fermion's sign is in
    the weights: the rows and prefixes that add an odd parity are negated,
    which is exact (particles 1..a-1 hold exactly the n - j detectors above
    j that are not free, so a row's parity depends on the free set alone).
    The walk has this one arithmetic, which ``walk_matchings`` and
    ``_ket_sums`` expand; the numeric partition reads the PM diagram
    instead (``entanglement.build_report``).
    """
    if _base_matching(spec) is None:
        return
    n = spec.n
    # (detector bit, detector, weight, detector bit if the edge is down else 0)
    options: list[list[tuple[int, int, complex, int]]] = [[] for _ in range(n)]
    down_color = Color.DOWN
    for a, j, w, color in spec.transitions:
        bit = 1 << j
        options[a - 1].append((bit, j, w, bit if color is down_color else 0))
    detector = operator.itemgetter(1)  # not the weight, which may not compare
    for opts in options:
        opts.sort(key=detector)

    # due[a-1]: detectors whose last neighbor is particle a, so a must take
    # any of them still free; by_bit[a-1] maps each to a's option on it
    last_neighbor = [0] * (n + 1)
    last_option: list = [None] * (n + 1)
    for a, opts in enumerate(options):
        for o in opts:
            last_neighbor[o[1]] = a
            last_option[o[1]] = o
    due = [0] * n
    by_bit: list[dict] = [{} for _ in range(n)]
    for a, o in zip(last_neighbor[1:], last_option[1:]):
        due[a] |= o[0]
        by_bit[a][o[0]] = o
    full = ((1 << n) - 1) << 1
    depth = max(n - TABLE_PARTICLES, 0)
    padding = TABLE_PARTICLES - max(n - depth, 2)  # weight-1 levels led in below n = K
    last = {o[0]: o for o in options[-1]}
    negate = spec.statistics is Statistics.FERMION
    tables: dict[int, list] = {}  # completion table per free set, any size
    assignment = [0] * n
    # prefix[a], parity[a]: weight product and permutation parity of the
    # placements of particles 1..a
    prefix = [_ONE] * n
    parity = [0] * n
    # down bits of the detectors as last placed, a free detector's stale;
    # a bit flips only when its detector's color changes, since an OR or a
    # copy per placement costs O(n) on a large network
    code = 0
    down_of = [0] * (n + 1)
    held = [0] * n  # detector bit held by each particle, 0 = none
    untried = [iter(())] * n
    used = 0
    a = 0  # 0-based particle being placed
    while a >= 0:
        if a == depth:
            free = full ^ used
            rows = tables.get(free)
            if rows is None:
                rows = _table(free, options, last, tables, negate)
            if rows:
                for _ in range(padding):
                    rows = [(_ONE, 0, rows, 0)]
                p = prefix[a]
                if negate and parity[a]:
                    p = -p
                yield assignment, code & used, p, rows
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
        for bit, j, w, down in untried[a]:
            if not used & bit:
                break
        else:
            held[a] = 0
            a -= 1
            continue
        held[a] = bit
        assignment[a] = j
        if down_of[j] != down:
            code ^= bit
            down_of[j] = down
        prefix[a + 1] = prefix[a] * w
        parity[a + 1] = parity[a] ^ ((used >> j).bit_count() & 1)
        used |= bit
        a += 1


def walk_matchings(spec: NetworkSpec) -> Iterator[tuple[list[int], str, complex]]:
    """Every perfect matching of ``spec``, by depth-first search over particles 1..n.

    Each particle tries its free detectors in ascending order, so matchings
    come out in lexicographic order of assignment, whatever the order of
    ``spec.transitions``. Per matching this yields ``(assignment, ket,
    term)``: ``assignment[a-1]`` is particle a's detector, ``ket`` the
    state's ``u``/``d`` string (character j-1 the color of the edge
    reaching detector j), and ``term`` exactly what
    ``states.assemble_network_state`` adds to that ket: the product of the
    edge amplitudes multiplied left to right in particle order from
    ``complex(1.0)``, negated for a fermion matching whose assignment
    permutation is odd. ``assignment`` is updated in place between
    matchings; copy it to keep it.

    A network without a perfect matching is detected up front by
    ``_base_matching``. A branch is pruned as soon as a free detector has
    lost its last unassigned neighbor. The last ``TABLE_PARTICLES``
    particles are not searched: each placement of the others is completed
    by expanding the nested table of its free detectors
    (``_walk_prefixes``) level by level, in particle order; the loops are
    written for five table particles.
    """
    n = spec.n
    depth = max(n - TABLE_PARTICLES, 0)
    for assignment, code, prefix, rows in _walk_prefixes(spec):
        for w1, down1, rows2, j1 in rows:
            for w2, down2, rows3, j2 in rows2:
                for w3, down3, pairs, j3 in rows3:
                    for w4, w5, down45, j45 in pairs:
                        # rows that place nothing lead, so the last n - depth place
                        assignment[depth:] = (j1, j2, j3, *j45)[depth - n :]
                        ket = ket_of_code(code | down1 | down2 | down3 | down45, n)
                        yield assignment, ket, ((((prefix * w1) * w2) * w3) * w4) * w5


def _ket_sums(spec: NetworkSpec) -> dict[int, complex]:
    """The state of ``spec`` keyed by the walk's ket codes, cancellations dropped.

    This is ``walk_matchings``' expansion of the tables with the sum inside
    it, which spares a generator step per matching. Completions below a row
    share its partial product (``p1 = prefix * w1``, then ``p2 = p1 * w2``,
    ...), the same left fold in particle order, so each term is the one
    ``walk_matchings`` yields, and matchings come in lexicographic order,
    as ``states.oracle_state`` sums its permutations.
    The fermion sign is in the signed weights: negation is exact, and a ±0
    difference never reaches a sum, which starts at ``0j``. So the two
    agree bit for bit. Codes keep the order they were first seen in, the
    oracle's order; a code whose sum cancelled exactly is dropped.
    ``states.assemble_network_state`` is its only caller.
    """
    sums: dict[int, complex] = {}
    for _, code, prefix, rows in _walk_prefixes(spec):
        for w1, down1, rows2, _ in rows:
            p1 = prefix * w1
            code1 = code | down1
            for w2, down2, rows3, _ in rows2:
                p2 = p1 * w2
                code2 = code1 | down2
                for w3, down3, pairs, _ in rows3:
                    p3 = p2 * w3
                    code3 = code2 | down3
                    for w4, w5, down45, _ in pairs:
                        key = code3 | down45
                        sums[key] = sums.get(key, 0j) + (p3 * w4) * w5
    return {k: v for k, v in sums.items() if v != 0}


def diagram_of_network(spec: NetworkSpec) -> PMDiagram:
    """Restrict the digraph of ``spec`` to loops plus elementary-cycle edges.

    The base matching, and with it the relabeling, comes from
    ``_base_matching``, so it does not depend on the order the spec lists
    its transitions in. In the relabeled digraph every other matching is a
    permutation whose moved vertices form disjoint cycles, so an edge is in
    a matching exactly when its ends share an SCC (Dulmage–Mendelsohn). One
    Tarjan pass gives those edges and the components; dropping the edges
    between SCCs leaves the SCCs as they are. With one SCC nothing is
    dropped, and the relabeled spec is the diagram. A loop-labeled spec is
    relabeled by the identity, so its diagram keeps the spec's own
    ``Transition`` records (with one SCC, their very tuple). Raises
    NoPerfectMatching when the network has no matching (without one there
    is no loop labeling to define the diagram).
    """
    relabeling = _base_matching(spec)
    if relabeling is None:
        raise NoPerfectMatching("network has no perfect matching")

    n = spec.n
    transitions = spec.transitions
    if any(a != j for a, j in enumerate(relabeling, start=1)):
        # permute detector labels so the base matching becomes the
        # diagonal: detector relabeling[v-1] moves to slot v
        slot_of = [0] * (n + 1)
        for a, j in enumerate(relabeling, start=1):
            slot_of[j] = a
        transitions = tuple(
            [tuple.__new__(Transition, (a, slot_of[j], w, c)) for a, j, w, c in transitions]
        )
    relabeled = NetworkSpec(n, spec.statistics, transitions, NormalizationMode.DESIGN)
    sccs = _tarjan_sccs(n, _successors(relabeled))
    if len(sccs) == 1:  # every edge lies inside the one SCC
        return PMDiagram(relabeled, relabeling, (), (tuple(sccs[0]),))
    scc_of = [0] * (n + 1)
    for k, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = k
    inside = [scc_of[t.source] == scc_of[t.detector] for t in transitions]
    network = relabeled._replace(transitions=tuple(compress(transitions, inside)))
    removed = tuple(compress(spec.transitions, map(operator.not_, inside)))
    components = tuple(sorted(tuple(c) for c in sccs))
    return PMDiagram(network, relabeling, removed, components)
