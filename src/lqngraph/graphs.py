"""Perfect matchings of a network and the PM diagram built from them.

Matchings are enumerated by a depth-first search over particles in order
(``walk_matchings``), with the last five placed from a nested table,
built once per set of detectors left free, whose rows share their partial
weight products; a fermion's sign enters as exact negation of the odd
placements' weights. It is the package's only enumeration, and it keeps no
matching as an object: ``states`` sums the state inside it
(``walk_prefixes``), and ``io`` stops it at the matching that a DOT
export highlights. The walk reads the ``NetworkSpec`` itself and carries
each ket as an integer code of down bits (bit j set when detector X_j
receives a down edge), which ``walk_matchings`` spells out as color
characters (``ket_of_code``). The walk and the PM diagram take
their reference perfect matching, or the answer that there is none, from
one check (``_base_matching``); a loop-labeled spec, such as a PM diagram
or a component cut from one, is its own, the identity, with no search.
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
also its weak components. Those components and the edge colors are what
the entanglement criteria inspect.

All vertices are 1-based to match the external index convention.
"""

from __future__ import annotations

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


#: particles at the bottom of the matching walk that are placed from a
#: nested per-free-set table of completions instead of being searched; the
#: table loops of ``walk_matchings`` and ``states._ket_sums`` are written for five
TABLE_PARTICLES = 5

_ONE = complex(1.0)

_UD = str.maketrans("01", "ud")


def ket_of_code(code: int, n: int) -> str:
    """The ket string of a down-bit code: 'd' at detector j where bit j is set.

    Bit j of ``code`` is detector X_j's bit in the walk's free-detector
    masks; bit 0 is never set.
    """
    return format(code >> 1, f"0{n}b")[::-1].translate(_UD)


def _table(free: int, options: list, last: dict, tables: dict, negate: bool, one) -> list:
    """The completion table of the last particles on the detectors in ``free``.

    The rows are laid out as ``walk_prefixes`` describes; ``tables`` keeps
    each table built, keyed by its free set, for the rest of the walk.
    """
    n = len(options)
    rows = tables[free] = []
    size = free.bit_count()
    for bit, j, w, down in options[n - size]:
        if free & bit:
            rest = free ^ bit
            odd = (n - j - (free >> (j + 1)).bit_count()) & 1
            if negate and odd:
                w = -w
            if size > 2:
                below = tables.get(rest)
                if below is None:
                    below = _table(rest, options, last, tables, negate, one)
                if below:
                    rows.append((w, down, below, j, odd))
            elif size == 1:  # n == 1
                rows.append((one, w, down, (j,), odd))
            elif rest in last:
                _, k, v, down_k = last[rest]
                odd_k = (n - k) & 1
                if negate and odd_k:
                    v = -v
                rows.append((w, v, down | down_k, (j, k), odd ^ odd_k))
    return rows


def walk_prefixes(
    spec: NetworkSpec, signed: bool = True, one=_ONE
) -> Iterator[tuple[list[int], int, complex, int, list]]:
    """The matching walk down to its completion table (see ``walk_matchings``).

    Particles 1..n-K, K = ``TABLE_PARTICLES`` (none when n <= K), are
    placed by depth-first search. Per placement of them that the last K
    particles can complete this yields ``(assignment, code, prefix,
    parity, table)``: the placement so far (a list updated in place), its
    ket code (bit j set when detector X_j receives a down edge), weight
    product and permutation parity, and the table of its free detectors.

    The table, built once per free set, has a level per particle listing
    its choices in ascending detector order as rows ``(w, down, table, j,
    odd)``: the weight, detector j's bit if the edge is down, the next
    particle's table on the detectors left free, the detector, and the
    parity bit the placement adds (particles 1..a-1 hold exactly the n - j
    detectors above j that are not free, so it depends on the free set
    alone). The last two particles are pair rows ``(w, w', down, (j, j'),
    odd)``. Below n = K, rows ``(one, 0, table, 0, 0)`` lead, and a lone
    particle's pair row is ``(one, w, down, (j,), odd)``. A matching's
    weight is the prefix (from ``one``) times its rows' weights, left to
    right, and its code is ``code`` OR their ``down`` bits. When
    ``signed``, a fermion's odd rows and odd prefixes are negated, which is
    exact, so the product comes out signed.
    """
    if _base_matching(spec) is None:
        return
    n = spec.n
    # (detector bit, detector, weight, detector bit if the edge is down else 0)
    options: list[list[tuple[int, int, complex, int]]] = [[] for _ in range(n)]
    down_color = Color.DOWN
    for t in spec.transitions:
        bit = 1 << t.detector
        down = bit if t.color is down_color else 0
        options[t.source - 1].append((bit, t.detector, t.amplitude, down))
    for opts in options:
        opts.sort(key=lambda o: o[1])

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
    padding = TABLE_PARTICLES - max(n - depth, 2)  # weight-1 levels led in below n = K
    by_bit = [{o[0]: o for o in opts} for opts in options[:depth]]
    last = {o[0]: o for o in options[-1]}
    negate = signed and spec.statistics is Statistics.FERMION
    tables: dict[int, list] = {}  # completion table per free set, any size
    assignment = [0] * n
    # prefix[a], parity[a]: weight product and permutation parity of the
    # placements of particles 1..a
    prefix = [one] * n
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
                rows = _table(free, options, last, tables, negate, one)
            if rows:
                for _ in range(padding):
                    rows = [(one, 0, rows, 0, 0)]
                p = prefix[a]
                if negate and parity[a]:
                    p = -p
                yield assignment, code & used, p, parity[a], rows
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


def walk_matchings(spec: NetworkSpec) -> Iterator[tuple[list[int], list[str], complex, int]]:
    """Every perfect matching of ``spec``, by depth-first search over particles 1..n.

    Each particle tries its free detectors in ascending order, so matchings
    come out in lexicographic order of assignment, whatever the order of
    ``spec.transitions``. Per matching this yields ``(assignment, ket,
    weight, odd)``: ``assignment[a-1]`` is particle a's detector,
    ``ket[j-1]`` the color character (``'u'`` or ``'d'``) of the edge
    reaching detector j, ``weight`` the product of the edge amplitudes
    multiplied left to right in particle order from ``complex(1.0)``, and
    ``odd`` the parity (0 or 1) of the assignment permutation.
    ``assignment`` is updated in place between matchings; copy it to keep
    it. ``ket`` is a new list per matching.

    A network without a perfect matching is detected up front by
    ``_base_matching``. A branch is pruned as soon as a free detector has
    lost its last unassigned neighbor. The last ``TABLE_PARTICLES``
    particles are not searched: each placement of the others is completed
    by expanding the unsigned nested table of its free detectors
    (``walk_prefixes``) level by level, in particle order; the loops are
    written for five table particles.
    """
    n = spec.n
    depth = max(n - TABLE_PARTICLES, 0)
    for assignment, code, prefix, parity, rows in walk_prefixes(spec, signed=False):
        for w1, down1, rows2, j1, odd1 in rows:
            for w2, down2, rows3, j2, odd2 in rows2:
                for w3, down3, pairs, j3, odd3 in rows3:
                    for w4, w5, down45, j45, odd45 in pairs:
                        # rows that place nothing lead, so the last n - depth place
                        assignment[depth:] = (j1, j2, j3, *j45)[depth - n :]
                        ket = list(ket_of_code(code | down1 | down2 | down3 | down45, n))
                        weight = ((((prefix * w1) * w2) * w3) * w4) * w5
                        yield assignment, ket, weight, parity ^ odd1 ^ odd2 ^ odd3 ^ odd45


def diagram_of_network(spec: NetworkSpec) -> PMDiagram:
    """Restrict the digraph of ``spec`` to loops plus elementary-cycle edges.

    The base matching, and with it the relabeling, comes from
    ``_base_matching``, so it does not depend on the order the spec lists
    its transitions in. In the relabeled digraph every other matching is a
    permutation whose moved vertices form disjoint cycles, so an edge is in
    a matching exactly when its ends share an SCC (Dulmage–Mendelsohn). One
    Tarjan pass gives those edges and the components; dropping the edges
    between SCCs leaves the SCCs as they are. A loop-labeled spec is
    relabeled by the identity, so its diagram keeps the spec's own
    ``Transition`` records. Raises NoPerfectMatching when the network has
    no matching (without one there is no loop labeling to define the
    diagram).
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
            Transition(t.source, slot_of[t.detector], t.amplitude, t.color)
            for t in transitions
        )
    relabeled = NetworkSpec(n, spec.statistics, transitions, NormalizationMode.DESIGN)
    sccs = _tarjan_sccs(n, _successors(relabeled))
    scc_of = {v: k for k, comp in enumerate(sccs) for v in comp}
    inside = [scc_of[t.source] == scc_of[t.detector] for t in relabeled.transitions]
    network = relabeled._replace(transitions=tuple(compress(relabeled.transitions, inside)))
    removed = tuple(t for t, keep in zip(spec.transitions, inside) if not keep)
    components = tuple(sorted(tuple(c) for c in sccs))
    return PMDiagram(network, relabeling, removed, components)
