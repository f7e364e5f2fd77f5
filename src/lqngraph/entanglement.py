"""Entanglement classification of no-bunching states.

Two complementary routes are provided. The structural route inspects the PM
diagram only: a vertex whose incoming edges all share one color pins its
detector to a computational-basis state; a weakly disconnected diagram
forces the state to factor across the component blocks; and genuine
N-partite entanglement requires both incoming colors at every vertex and a
strongly connected diagram. These conditions are sufficient for generic
amplitudes, but only necessary for the network's own: a structurally
healthy diagram can still produce a separable state for special
amplitudes. The diagram's SCCs are its weak components, so lemma 2,
theorem 1 and the numeric route all read the one partition
``PMDiagram.components``.

The numerical route works on an assembled state directly, in pure Python
on the sparse kets, each read as an integer ket code (bit j set when
detector X_j is down). ``schmidt_rank`` takes the rank of the amplitude
matrix across a detector bipartition by Gram-Schmidt over its nonzero
rows: rank 1 means the state factors there. ``finest_partition`` finds
the finest product partition, unique for pure states, without a search
over cuts: two detectors lie in different blocks exactly when the
amplitudes, read as a multilinear polynomial, have a vanishing 2x2
coefficient determinant over that pair.

``build_report``'s numeric partition asks that question of generic
amplitudes, and for them the PM diagram answers it exactly, with no walk
and no weight draw: in each component, the vertices with both incoming
colors form one block and every other vertex is a block of its own. Its
docstring proves this; a corollary is that for generic amplitudes
theorem 1's two conditions are sufficient as well as necessary.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from collections import Counter, namedtuple
from enum import Enum
from functools import reduce

from .errors import DimensionMismatch, InvalidArgument, ZeroState
from .graphs import PMDiagram, diagram_of_network
from .model import Color, NetworkSpec, _index
from .states import NoBunchState

#: singular values, and the row residuals of ``schmidt_rank``, at or below
#: this fraction of the largest count as zero
SV_TOL = 1e-8

Partition = tuple[tuple[int, ...], ...]


class Bipartition(namedtuple("Bipartition", "subset n")):
    """A nonempty proper subset of detector indices.

    ``n`` and each detector are read as ``validate_network`` reads ``n``: a
    float, bool or numeric string raises IndexOutOfRange. A ``subset`` that
    is not a set raises InvalidArgument; a ``set`` is kept as a frozenset.
    ``_replace`` and ``_make`` check as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, subset, n):
        if not isinstance(subset, (set, frozenset)):
            raise InvalidArgument(f"subset must be a set of detectors, got {subset!r}")
        n = _index(n, "n")
        subset = frozenset(_index(d, "detector") for d in subset)
        if not subset or not all(1 <= d <= n for d in subset):
            raise DimensionMismatch(f"subset {set(subset)} invalid for n={n}")
        if len(subset) == n:
            raise DimensionMismatch("subset must be proper")
        return super().__new__(cls, subset, n)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Verdict(Enum):
    MAY_BE_GENUINE = "may_be_genuine"
    CANNOT_BE_GENUINE = "cannot_be_genuine"


class Theorem1Report(
    namedtuple("Theorem1Report", "color_condition_ok strongly_connected verdict")
):
    """Theorem 1's check for genuine N-partite entanglement.

    Fields: ``color_condition_ok`` (tuple of bool, one per vertex),
    ``strongly_connected`` (bool), ``verdict`` (Verdict).
    """

    __slots__ = ()


class WOptimalityReport(
    namedtuple("WOptimalityReport", "ok red_edge_count source_vertices diagnostics")
):
    """Red-edge distribution required of an optimal W-state diagram.

    Fields: ``ok`` (bool), ``red_edge_count`` (int), ``source_vertices``
    (tuple of int), ``diagnostics`` (tuple of str).
    """

    __slots__ = ()


class SeparabilityReport(
    namedtuple(
        "SeparabilityReport",
        "lemma1_vertices lemma2_partition theorem1 numeric_finest_partition diagram",
    )
):
    """Everything ``analyze`` reports on one network.

    Fields: ``lemma1_vertices`` (tuple of (vertex, Color)),
    ``lemma2_partition`` (Partition), ``theorem1`` (Theorem1Report),
    ``numeric_finest_partition`` (Partition: the finest product partition
    for generic amplitudes), ``diagram`` (PMDiagram).
    """

    __slots__ = ()


#: bits of an incoming-color mask; a vertex with both colors has mask 3
_UP_BIT, _DOWN_BIT = 1, 2


def _incoming_colors(diag: PMDiagram) -> list[int]:
    """Per vertex, a mask of the colors of its incoming edges: 1 up, 2 down.

    Ints, not sets of ``Color`` members, because hashing an enum member
    runs Python code for every edge.
    """
    up = Color.UP
    incoming = [0] * diag.n
    for t in diag.network.transitions:
        incoming[t.detector - 1] |= _UP_BIT if t.color is up else _DOWN_BIT
    return incoming


def lemma1_separable_vertices(diag: PMDiagram) -> list[tuple[int, Color]]:
    """Vertices whose incoming edges (loops included) share one color.

    The detector sitting at such a vertex receives the same internal state
    in every matching, so it is separable and pinned to that color.
    """
    return _lemma1(_incoming_colors(diag))


def _lemma1(incoming: list[int]) -> list[tuple[int, Color]]:
    pinned = {_UP_BIT: Color.UP, _DOWN_BIT: Color.DOWN}
    return [(v, pinned[mask]) for v, mask in enumerate(incoming, start=1) if mask in pinned]


def lemma2_partition(diag: PMDiagram) -> Partition:
    """Weak components mapped to detector labels: a guaranteed separability.

    Edge exchanges never cross a weak component, so the state factors
    across the blocks. Reported in original detector indices.
    """
    blocks = []
    for comp in diag.components:
        blocks.append(tuple(sorted(diag.detector_of_vertex(v) for v in comp)))
    return tuple(sorted(blocks))


def theorem1_check(diag: PMDiagram) -> Theorem1Report:
    """Necessary conditions for a genuinely entangled output.

    Every vertex must see both incoming colors and the diagram must be one
    strongly connected piece. Failing either means the state cannot be
    genuinely N-partite entangled. Passing both makes the state genuinely
    entangled for generic amplitudes (a corollary proved in
    ``build_report``), but not for every choice of the network's own
    amplitudes: special values can still cancel it into a product.
    """
    return _theorem1(diag, _incoming_colors(diag))


def _theorem1(diag: PMDiagram, incoming: list[int]) -> Theorem1Report:
    both = _UP_BIT | _DOWN_BIT
    color_ok = tuple(mask == both for mask in incoming)
    strong = len(diag.components) == 1
    verdict = (
        Verdict.MAY_BE_GENUINE
        if strong and all(color_ok)
        else Verdict.CANNOT_BE_GENUINE
    )
    return Theorem1Report(color_ok, strong, verdict)


def theorem2_w_optimal_check(diag: PMDiagram) -> WOptimalityReport:
    """Check the red-edge layout every optimal W-state diagram must have.

    A diagram realizing the N-partite W state with each matching appearing
    once needs exactly N red edges, all leaving one common vertex (the red
    loop counts as leaving its vertex).
    """
    red = sorted(
        (t.source, t.detector) for t in diag.network.transitions if t.color is Color.DOWN
    )
    leaving = Counter(t for t, _ in red)
    sources = tuple(sorted(leaving))
    diagnostics = []
    if len(red) != diag.n:
        diagnostics.append(f"expected {diag.n} red edges, found {len(red)}")
    if len(sources) > 1:
        main = max(sources, key=leaving.__getitem__)
        for t, h in red:
            if t != main:
                diagnostics.append(f"red edge w{t}->w{h} leaves w{t}, not w{main}")
    ok = len(red) == diag.n and len(sources) == 1
    return WOptimalityReport(ok, len(red), sources, tuple(diagnostics))


_KET_BITS = str.maketrans("ud", "01")


def _ket_code(ket: str) -> int:
    """The walk's code of a ket string: bit j set when X_j is down."""
    return int(ket[::-1].translate(_KET_BITS), 2) << 1


#: the fixed value y_k of detector X_(k+1) in ``finest_partition``: the
#: k-th draw of this generator, a uniform phase; drawn once, when first used
_PROBE_DRAWS = random.Random(2010)
_PROBES: list[complex] = []


def schmidt_rank(state: NoBunchState, cut: Bipartition) -> int:
    """Rank of the amplitude matricization across the cut.

    Each nonzero ket's string is read as its code; the matrix's row is the
    code's bits on the cut's detectors, its column the rest, so only
    rows and entries that are present are stored. The amplitudes are
    divided by their largest real or imaginary part first, so no scale
    overflows or underflows. The rank is taken by Gram-Schmidt with one
    re-orthogonalization pass: a row counts when its residual norm is above
    ``SV_TOL`` times the largest row norm, so rank 1 means the state is a
    product across the cut. This is not the singular-value rule: where
    singular values lie within a few orders of ``SV_TOL`` of the largest,
    it can count more of them. There is no size limit: the work grows
    with the kets, not with 2**n. The zero state has no rank: it raises
    ZeroState.
    """
    if cut.n != state.n:
        raise DimensionMismatch(f"cut over {cut.n} detectors, state has {state.n}")
    terms = [(ket, complex(amp)) for ket, amp in state.amplitudes.items() if amp]
    if not terms:
        raise ZeroState("state has zero norm (no Schmidt rank)")
    mask = 0
    for d in cut.subset:
        mask |= 1 << d
    peak = max(max(abs(v.real), abs(v.imag)) for _, v in terms)
    rows: dict[int, dict[int, complex]] = {}
    for ket, amp in terms:
        code = _ket_code(ket)
        rows.setdefault(code & mask, {})[code & ~mask] = amp / peak
    floor = SV_TOL * max(map(_norm, rows.values()))
    # the rank is at most the number of columns; a row past that many basis
    # vectors keeps only a rounding residual, far below ``floor``
    width = len(set().union(*rows.values()))
    basis: list[dict[int, complex]] = []
    for row in rows.values():
        if len(basis) == width:
            break
        for _ in range(2):
            for q in basis:
                # <q, row>, summed over the shorter of the two
                if len(row) < len(q):
                    c = sum(q[k].conjugate() * v for k, v in row.items() if k in q)
                else:
                    c = sum(v.conjugate() * row[k] for k, v in q.items() if k in row)
                if c:
                    for k, v in q.items():
                        row[k] = row.get(k, 0j) - c * v
        norm = _norm(row)
        if norm > floor:
            basis.append({k: v / norm for k, v in row.items()})
    return len(basis)


def _norm(row: dict[int, complex]) -> float:
    # added left to right: from Python 3.12, sum() of floats rounds otherwise
    return math.sqrt(
        reduce(operator.add, (v.real * v.real + v.imag * v.imag for v in row.values()), 0.0)
    )


def finest_partition(state: NoBunchState) -> Partition:
    """Finest detector partition across which the pure state factorizes.

    Read the amplitudes as a multilinear polynomial f with one variable
    x_j per detector, present in the kets where X_j is down. Split f by two
    detectors i and j as a + b x_i + c x_j + d x_i x_j: they lie in
    different blocks exactly when ad - bc is identically 0 (Shpilka and
    Volkovich, ICALP 2010). The test sets every other detector k to a fixed
    unit-modulus value y_k and calls the pair entangled when the smaller
    singular value of [[a, c], [b, d]] is above ``SV_TOL`` times the larger
    one, from the closed form of a 2x2 matrix's singular values. A detector
    whose bit is the same in every ket of nonzero amplitude factors out, so
    it is a block of its own with no pair test. Same-block is an
    equivalence, so each other detector is tested against the first member
    of each block of such detectors found so far: O(n * blocks * kets),
    with no size limit, where blocks counts only those blocks. The
    amplitudes are divided by their largest real or imaginary part first,
    so no scale overflows or underflows the test. The zero state has no
    partition: it raises ZeroState; a ``NoBunchState`` has already refused
    NaN and infinite amplitudes.

    Each ket string is read once as its code (bit j set when X_j is down),
    and the kets keep the state's order, in which every 2x2 sum adds its
    terms.
    """
    n = state.n
    kets = {_ket_code(ket): amp for ket, amp in state.amplitudes.items() if amp}
    if not kets:
        raise ZeroState("state has zero norm (no kets to partition)")
    while len(_PROBES) < n:
        _PROBES.append(cmath.exp(2j * math.pi * _PROBE_DRAWS.random()))
    peak = max(max(abs(v.real), abs(v.imag)) for v in kets.values())
    # each term carries y_k for every down detector, i and j included:
    # that scales a row and a column of the pair's matrix by unit-modulus
    # factors, which keeps its singular values, so one list serves all pairs
    terms = []
    for code, amp in kets.items():
        w = amp / peak
        down = code
        while down:
            low = down & -down
            w *= _PROBES[low.bit_length() - 2]  # bit j is detector X_j
            down ^= low
        terms.append((code, w))

    def entangled(i: int, j: int) -> bool:
        # m[2 * bit i + bit j]: the uu, ud, du and dd sums
        m = [0j] * 4
        for code, w in terms:
            m[(code >> i & 1) << 1 | code >> j & 1] += w
        a, c, b, d = m
        det = abs(a * d - b * c)
        frob = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        top_sq = (frob + math.sqrt(max(frob * frob - 4 * det * det, 0.0))) / 2
        return det > SV_TOL * top_sq

    first = next(iter(kets))
    varying = 0
    for code in kets:
        varying |= code ^ first
    blocks: list[list[int]] = []
    # the blocks a later detector may join: not those of constant detectors
    tested: list[list[int]] = []
    for j in range(1, n + 1):
        if not varying >> j & 1:
            blocks.append([j])
            continue
        for block in tested:
            if entangled(block[0], j):
                block.append(j)
                break
        else:
            tested.append([j])
            blocks.append(tested[-1])
    return tuple(map(tuple, blocks))


def build_report(spec: NetworkSpec) -> SeparabilityReport:
    """Structural report for a network, with its generic finest partition.

    ``numeric_finest_partition`` is the finest product partition of the
    state for generic amplitudes on the network's edges, read off the PM
    diagram: in each component, the vertices whose incoming edges have
    both colors form one block, and every other vertex, one that lemma 1
    pins, is a block of its own. Blocks are mapped to detectors through
    ``diag.relabeling`` and sorted. There is no walk, no weight draw and no
    size limit.

    Why this is exact. Take one component C, an SCC of the diagram. Give
    every kept edge (a, j) an independent weight variable w_aj and every
    detector a variable x_j. C's state is the polynomial
    F(w, x) = sum over C's matchings s of +-prod_a w_a,s(a) * prod_(j down
    in s) x_j, the sign being the parity of s for fermions and + for bosons.

    1. Each matching has its own w-monomial, whose coefficient is
       +-x^down(s), for bosons and fermions alike.
    2. F has degree 1 in each row's weights and degree 1 in each column's
       weights. So in any factorization F = P * Q each row and each column
       belongs to exactly one factor, and w_aj lies in the factor that owns
       row a and column j. C's bipartite graph is connected (the loop of v
       joins row v to column v, and the SCC's edges join the rest), so one
       factor holds every w and the other lies in Q[x].
    3. A factor in Q[x] divides every +-x^down(s), so it is a monomial in
       the detectors that are down in every matching: lemma 1's pinned-down
       vertices.
    4. Every edge of C lies in some matching (Dulmage-Mendelsohn; the
       diagram keeps exactly those edges), so a vertex that receives both
       colors is up in one matching and down in another: it varies.
    5. Write a split of F over Q(w) as G(x_S) * H(x_T). Gauss's lemma
       carries it to Q[w, x], so by 2 and 3 one of G and H is a monomial,
       and its side holds no vertex that varies. So the two-colored
       vertices of C share a block. Components factor by lemma 2, and
       pinned vertices are constant, so each is a block of its own.

    A corollary changes no output: for generic amplitudes, theorem 1's two
    conditions are also sufficient for genuine N-partite entanglement.
    """
    diag = diagram_of_network(spec)
    incoming = _incoming_colors(diag)  # read by lemma 1, theorem 1 and the partition
    both = _UP_BIT | _DOWN_BIT
    relabeling = diag.relabeling
    blocks = []
    for comp in diag.components:
        varying = tuple(sorted(relabeling[v - 1] for v in comp if incoming[v - 1] == both))
        if varying:
            blocks.append(varying)
        blocks.extend((relabeling[v - 1],) for v in comp if incoming[v - 1] != both)
    return SeparabilityReport(
        tuple(_lemma1(incoming)),
        lemma2_partition(diag),
        _theorem1(diag, incoming),
        tuple(sorted(blocks)),
        diag,
    )
