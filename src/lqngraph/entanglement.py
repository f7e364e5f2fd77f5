"""Entanglement classification of no-bunching states.

Two complementary routes are provided. The structural route inspects the PM
diagram only: a vertex whose incoming edges all share one color pins its
detector to a computational-basis state; a weakly disconnected diagram
forces the state to factor across the component blocks; and genuine
N-partite entanglement requires both incoming colors at every vertex and a
strongly connected diagram (necessary conditions only: a structurally healthy
diagram can still produce a separable state for special amplitudes). The
diagram's SCCs are its weak components, so lemma 2, theorem 1 and the
numeric route all read the one partition ``PMDiagram.components``.

The numerical route works on an assembled state directly, in pure Python
on the sparse kets, each read as the walk's integer ket code (bit j set
when detector X_j is down). ``schmidt_rank`` takes the rank of the
amplitude matrix across a detector bipartition by Gram-Schmidt over its
nonzero rows: rank 1 means the state factors there. ``finest_partition``
finds the finest product partition, unique for pure states, without a
search over cuts: two detectors lie in different blocks exactly when the
amplitudes, read as a multilinear polynomial, have a vanishing 2x2
coefficient determinant over that pair. ``build_report`` asks that of
generic amplitudes, a polynomial identity test, so it answers exactly: it
draws a random integer weight per kept transition of the PM diagram and
walks each component's network, cut from ``PMDiagram.network``, in Python
integers, since the state is the product of the component states. Each
component's sums go from the walk to the pair test as codes, with no
``NoBunchState`` and no ket string in between, and a one-vertex
component, whose state is one ket, is a block without a walk.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from collections import Counter, namedtuple
from enum import Enum
from functools import reduce

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NonFiniteValue,
    TooLarge,
    ZeroState,
)
from .graphs import PMDiagram, diagram_of_network, ket_of_code
from .model import Color, NetworkSpec, NormalizationMode, Transition, _index
from .states import NoBunchState, _ket_sums

#: the most detectors in a component that ``build_report``'s numeric route
#: walks: a bound on the walk's work, since its exact answer needs none
PARTITION_LIMIT = 10
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

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.subset


class Verdict(Enum):
    MAY_BE_GENUINE = "may_be_genuine"
    CANNOT_BE_GENUINE = "cannot_be_genuine"


class Theorem1Report(
    namedtuple("Theorem1Report", "color_condition_ok strongly_connected verdict")
):
    """Necessary-condition check for genuine N-partite entanglement.

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
    ``numeric_finest_partition`` (Partition, or None without a numeric
    seed), ``diagram`` (PMDiagram).
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
    pinned = {_UP_BIT: Color.UP, _DOWN_BIT: Color.DOWN}
    return [
        (v, pinned[mask])
        for v, mask in enumerate(_incoming_colors(diag), start=1)
        if mask in pinned
    ]


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
    genuinely N-partite entangled; passing both guarantees nothing.
    """
    both = _UP_BIT | _DOWN_BIT
    color_ok = tuple(mask == both for mask in _incoming_colors(diag))
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
    partition: it raises ZeroState.

    Each ket string is read once as its code (bit j set when X_j is down),
    and the test runs on the codes, as ``build_report`` runs its exact
    form on the integer sums of the matching walk.
    """
    return _pair_test_partition(
        state.n, {_ket_code(ket): amp for ket, amp in state.amplitudes.items() if amp}
    )


def _pair_test_partition(n: int, sums: dict[int, complex], exact: bool = False) -> Partition:
    """``finest_partition`` of a state given as its nonzero amplitudes by ket code.

    ``sums`` keeps the kets in the order they were first seen, and every
    2x2 sum adds the terms in that order. With ``exact`` the sums are
    integers, every other detector is set to 1, and a pair is entangled
    when ad != bc. Otherwise each term is multiplied by the probes of its
    down detectors in ascending detector order, and a NaN or infinite
    amplitude raises NonFiniteValue, as building a ``NoBunchState`` of them
    would. No kets raises ZeroState.
    """
    if not sums:
        raise ZeroState("state has zero norm (no kets to partition)")
    terms = sums.items()
    if not exact:
        while len(_PROBES) < n:
            _PROBES.append(cmath.exp(2j * math.pi * _PROBE_DRAWS.random()))
        for code, amp in terms:
            if not cmath.isfinite(amp):
                raise NonFiniteValue(f"ket {ket_of_code(code, n)!r} has amplitude {amp!r}")
        peak = max(max(abs(v.real), abs(v.imag)) for v in sums.values())
        # each term carries y_k for every down detector, i and j included:
        # that scales a row and a column of the pair's matrix by unit-modulus
        # factors, which keeps its singular values, so one list serves all pairs
        terms = []
        for code, amp in sums.items():
            w = amp / peak
            down = code
            while down:
                low = down & -down
                w *= _PROBES[low.bit_length() - 2]  # bit j is detector X_j
                down ^= low
            terms.append((code, w))
    zero = 0 if exact else 0j

    def entangled(i: int, j: int) -> bool:
        # m[2 * bit i + bit j]: the uu, ud, du and dd sums
        m = [zero] * 4
        for code, w in terms:
            m[(code >> i & 1) << 1 | code >> j & 1] += w
        a, c, b, d = m
        if exact:
            return a * d != b * c
        det = abs(a * d - b * c)
        frob = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        top_sq = (frob + math.sqrt(max(frob * frob - 4 * det * det, 0.0))) / 2
        return det > SV_TOL * top_sq

    first = next(iter(sums))
    varying = 0
    for code in sums:
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


def _partition_by_component(diag: PMDiagram, rng: random.Random) -> Partition:
    """Finest partition of a generic state of ``diag.network``, one component at a time.

    Each kept transition gets one weight, drawn uniformly from 1..2**61-1
    in diagram order, and each component is walked and pair-tested in
    exact integers. Every kept edge lies inside one component, so the
    state is, up to sign, the tensor product of the component states, and
    its finest partition is the union of theirs. Vertex ``v`` is both
    particle ``v`` and slot ``v``, so one table renumbers each component's
    vertices 1..m in ascending order, and a block of slots maps back to
    detectors through ``diag.relabeling``. A one-vertex component holds
    only its loop, so its state is one ket and it is a block with no walk.

    Read the weights w as variables: a pair's ad - bc is a polynomial of
    degree at most 2m on an m-vertex component. Each detector k's variable
    x_k comes with the one edge into k of each matching, when it is down,
    so w_e -> w_e * x_k turns the polynomial at x = 1 into the one in (w, x):
    one vanishes identically exactly when the other does. If it does, the
    test reads 0 and never joins two blocks; if not, it reads 0 with
    probability at most 2m / (2**61 - 1) (Schwartz 1980; Zippel 1979), and
    only then splits a block.
    """
    # (component index, local label) of every vertex
    at = [(0, 0)] * (diag.n + 1)
    for k, comp in enumerate(diag.components):
        for local, v in enumerate(comp, start=1):
            at[v] = (k, local)
    inside: list[list[Transition]] = [[] for _ in diag.components]
    for t in diag.network.transitions:
        k, a = at[t.source]
        weight = rng.randint(1, 2**61 - 1)
        inside[k].append(Transition(a, at[t.detector][1], weight, t.color))

    blocks = []
    for comp, transitions in zip(diag.components, inside):
        if len(comp) == 1:  # its loop alone: one ket, a block of its own
            blocks.append((diag.detector_of_vertex(comp[0]),))
            continue
        sub = NetworkSpec(
            len(comp), diag.network.statistics, tuple(transitions), NormalizationMode.DESIGN
        )
        sums = _ket_sums(sub, exact=True)
        for block in _pair_test_partition(len(comp), sums, exact=True):
            blocks.append(tuple(sorted(diag.detector_of_vertex(comp[d - 1]) for d in block)))
    return tuple(sorted(blocks))


def build_report(spec: NetworkSpec, numeric_seed: int | None = None) -> SeparabilityReport:
    """Structural report for a network, optionally with a numeric partition.

    The numeric part draws an integer weight for each of the PM diagram's
    kept transitions, in diagram order, from ``random.Random(numeric_seed)``
    (structure-driven entanglement should not depend on amplitude
    coincidences, so the partition does not depend on the seed) and
    computes the finest product partition of that state exactly, one
    component at a time (``_partition_by_component``). ``PARTITION_LIMIT``
    bounds each component, not the whole network, and is checked before
    the draw. It bounds work only: the exact test is right at any size,
    but the walk over a component's matchings grows with its size. A seed that is not an integer (floats, bools and numeric
    strings included) raises IndexOutOfRange, as a non-integer ``n`` does
    in ``validate_network``; a negative one raises InvalidArgument.
    """
    diag = diagram_of_network(spec)
    numeric = None
    if numeric_seed is not None:
        seed = _index(numeric_seed, "numeric seed")
        if seed < 0:
            raise InvalidArgument(f"numeric seed must be >= 0, got {seed}")
        largest = max(len(c) for c in diag.components)
        if largest > PARTITION_LIMIT:
            raise TooLarge(largest, PARTITION_LIMIT, "partition-search", "component size n")
        numeric = _partition_by_component(diag, random.Random(seed))
    return SeparabilityReport(
        tuple(lemma1_separable_vertices(diag)),
        lemma2_partition(diag),
        theorem1_check(diag),
        numeric,
        diag,
    )
