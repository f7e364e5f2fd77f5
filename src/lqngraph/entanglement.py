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

The numerical route works on an assembled state directly. ``schmidt_rank``
takes one SVD of the amplitude matrix across a detector bipartition: rank 1
means the state factors there. ``finest_partition`` finds the finest
product partition, unique for pure states, without a search over cuts: two
detectors lie in different blocks exactly when the amplitudes, read as a
multilinear polynomial, have a vanishing 2x2 coefficient determinant over
that pair, which it tests in pure Python on the sparse kets.
``build_report`` redraws the amplitudes of the PM diagram's kept
transitions generically from a seed and applies it to each component's
network, cut from ``PMDiagram.network``, since the state is the product of
the component states.

Only ``schmidt_rank`` needs numpy, so it is imported inside it. The
structural route, ``finest_partition``, ``generic_amplitudes`` (which draws
from a ``random.Random``), ``build_report`` with a numeric seed and every
other part of the package run without it.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from enum import Enum

from .errors import DimensionMismatch, InvalidArgument, TooLarge, ZeroState
from .graphs import PMDiagram, diagram_of_network
from .model import Color, NetworkSpec, NormalizationMode, Transition, _index
from .states import NoBunchState, assemble_network_state

PARTITION_LIMIT = 10
#: singular values at or below this fraction of the largest count as zero
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
        if not subset or not subset <= set(range(1, n + 1)):
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
    sources = tuple(sorted({t for t, _ in red}))
    diagnostics = []
    if len(red) != diag.n:
        diagnostics.append(f"expected {diag.n} red edges, found {len(red)}")
    if len(sources) > 1:
        main = max(sources, key=lambda s: sum(1 for t, _ in red if t == s))
        for t, h in red:
            if t != main:
                diagnostics.append(f"red edge w{t}->w{h} leaves w{t}, not w{main}")
    ok = len(red) == diag.n and len(sources) == 1
    return WOptimalityReport(ok, len(red), sources, tuple(diagnostics))


_KET_BITS = str.maketrans("ud", "01")

#: the fixed value y_k of detector X_(k+1) in ``finest_partition``: the
#: k-th draw of this generator, a uniform phase; drawn once, when first used
_PROBE_DRAWS = random.Random(2010)
_PROBES: list[complex] = []


def _check_partition_size(m: int, subject: str = "n") -> None:
    """Raise TooLarge if ``m`` detectors exceed ``PARTITION_LIMIT``."""
    if m > PARTITION_LIMIT:
        raise TooLarge(m, PARTITION_LIMIT, "partition-search", subject)


def schmidt_rank(state: NoBunchState, cut: Bipartition) -> int:
    """Rank of the amplitude matricization across the cut.

    The ket's u/d string read as bits indexes a flat vector of the
    amplitudes; the matrix's rows are the cut's detectors, its columns the
    rest. Singular values are counted above ``SV_TOL`` times the largest
    one, so rank 1 means the state is a product across the cut. The vector
    is dense, so the state's size is bounded by ``PARTITION_LIMIT``. The
    zero state has no rank: it raises ZeroState.
    """
    if cut.n != state.n:
        raise DimensionMismatch(f"cut over {cut.n} detectors, state has {state.n}")
    _check_partition_size(state.n)
    if not any(state.amplitudes.values()):
        raise ZeroState("state has zero norm (no Schmidt rank)")
    import numpy as np

    vector = np.zeros(2**state.n, dtype=complex)
    for ket, amp in state.amplitudes.items():
        vector[int(ket.translate(_KET_BITS), 2)] = amp
    axes = [d - 1 for d in sorted(cut.subset)] + [d - 1 for d in sorted(cut.complement)]
    matrix = vector.reshape((2,) * state.n).transpose(axes).reshape(2 ** len(cut.subset), -1)
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(s > SV_TOL * s[0]))


def finest_partition(state: NoBunchState) -> Partition:
    """Finest detector partition across which the pure state factorizes.

    Read the amplitudes as a multilinear polynomial f with one variable
    x_j per detector, present in the kets where X_j is down. Split f by two
    detectors i and j as a + b x_i + c x_j + d x_i x_j: they lie in
    different blocks exactly when ad - bc is identically 0 (Shpilka and
    Volkovich, ICALP 2010). The test sets every other detector k to a fixed
    unit-modulus value y_k and calls the pair entangled when the smaller
    singular value of [[a, c], [b, d]] is above ``SV_TOL`` times the larger
    one, the rank-1 test of ``schmidt_rank``. A detector whose bit is the
    same in every ket of nonzero amplitude factors out, so it is a block of
    its own with no pair test. Same-block is an equivalence, so each other
    detector is tested against the first member of each block of such
    detectors found so far: O(n * blocks * kets), with no size limit, where
    blocks counts only those blocks. The amplitudes are
    divided by their largest real or imaginary part first, so no scale
    overflows or underflows the test. The zero state has no partition: it
    raises ZeroState.
    """
    amplitudes = state.amplitudes
    if not any(amplitudes.values()):
        raise ZeroState("state has zero norm (no kets to partition)")
    n = state.n
    while len(_PROBES) < n:
        _PROBES.append(cmath.exp(2j * math.pi * _PROBE_DRAWS.random()))
    peak = max(max(abs(v.real), abs(v.imag)) for v in amplitudes.values())
    # each term carries y_k for every down detector, i and j included: that
    # scales a row and a column of the pair's matrix by unit-modulus
    # factors, which keeps its singular values, so one list serves all pairs
    terms = []
    for ket, amp in amplitudes.items():
        w = amp / peak
        for k, ch in enumerate(ket):
            if ch == "d":
                w *= _PROBES[k]
        terms.append((ket, w))

    def entangled(i: int, j: int) -> bool:
        m = {"uu": 0j, "ud": 0j, "du": 0j, "dd": 0j}
        for ket, w in terms:
            m[ket[i] + ket[j]] += w
        a, c, b, d = m.values()
        det = abs(a * d - b * c)
        frob = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        top_sq = (frob + math.sqrt(max(frob * frob - 4 * det * det, 0.0))) / 2
        return det > SV_TOL * top_sq

    codes = [int(ket.translate(_KET_BITS), 2) for ket, amp in amplitudes.items() if amp]
    varying = 0
    for code in codes:
        varying |= code ^ codes[0]
    blocks: list[list[int]] = []
    # the blocks a later detector may join: not those of constant detectors
    tested: list[list[int]] = []
    for j in range(n):
        if not varying >> (n - 1 - j) & 1:
            blocks.append([j])
            continue
        for block in tested:
            if entangled(block[0], j):
                block.append(j)
                break
        else:
            tested.append([j])
            blocks.append(tested[-1])
    return tuple(tuple(k + 1 for k in block) for block in blocks)


def generic_amplitudes(spec: NetworkSpec, rng: random.Random) -> NetworkSpec:
    """Redraw amplitudes generically, keeping everything else of ``spec``.

    Per transition, in spec order, two ``rng.random()`` draws give a
    magnitude 0.3 + 0.7u in [0.3, 1] and then a phase 2πu, and each row is
    then normalized, which avoids both accidental cancellations and
    accidental product structure beyond what the topology forces. The
    drawn values are nonzero and finite, so the spec's validation still
    holds and is not run again.
    """
    transitions = spec.transitions
    drawn = [
        cmath.rect(0.3 + 0.7 * rng.random(), 2.0 * math.pi * rng.random())
        for _ in transitions
    ]
    row_norm = [0.0] * spec.n
    for t, amp in zip(transitions, drawn):
        row_norm[t.source - 1] += abs(amp) ** 2
    transitions = tuple(
        Transition(t.source, t.detector, amp / row_norm[t.source - 1] ** 0.5, t.color)
        for t, amp in zip(transitions, drawn)
    )
    return NetworkSpec(spec.n, spec.statistics, transitions, spec.normalization_mode)


def _partition_by_component(diag: PMDiagram, rng: random.Random) -> Partition:
    """Finest partition of a generic state of ``diag.network``, one component at a time.

    The amplitudes of the diagram's kept transitions are redrawn by
    ``generic_amplitudes``. Every kept edge lies inside one component, so
    the state is, up to sign, the tensor product of the component states,
    and its finest partition is the union of theirs. Vertex ``v`` is both
    particle ``v`` and slot ``v``, so one table renumbers each component's
    vertices 1..m in ascending order, and a block of slots maps back to
    detectors through ``diag.relabeling``.
    """
    network = generic_amplitudes(diag.network, rng)
    # (component index, local label) of every vertex
    at = [(0, 0)] * (diag.n + 1)
    for k, comp in enumerate(diag.components):
        for local, v in enumerate(comp, start=1):
            at[v] = (k, local)
    inside: list[list[Transition]] = [[] for _ in diag.components]
    for t in network.transitions:
        k, a = at[t.source]
        inside[k].append(Transition(a, at[t.detector][1], t.amplitude, t.color))

    blocks = []
    for comp, transitions in zip(diag.components, inside):
        sub = NetworkSpec(
            len(comp), network.statistics, tuple(transitions), NormalizationMode.DESIGN
        )
        for block in finest_partition(assemble_network_state(sub)):
            blocks.append(tuple(sorted(diag.detector_of_vertex(comp[d - 1]) for d in block)))
    return tuple(sorted(blocks))


def build_report(spec: NetworkSpec, numeric_seed: int | None = None) -> SeparabilityReport:
    """Structural report for a network, optionally with a numeric partition.

    The numeric part redraws the amplitudes of the PM diagram's kept
    transitions, in diagram order, from ``random.Random(numeric_seed)``
    (structure-driven entanglement should not depend on amplitude
    coincidences, so the partition does not depend on the seed) and
    computes the finest product partition of the resulting state, cutting
    each component's network out of ``diag.network`` and assembling and
    splitting it on its own. ``PARTITION_LIMIT`` bounds each component, not
    the whole network, and is checked before the draw: the partition test
    has no size limit, but the walk over a component's matchings grows
    with its size. A seed that is not an integer (floats, bools and numeric
    strings included) raises IndexOutOfRange, as a non-integer ``n`` does
    in ``validate_network``; a negative one raises InvalidArgument.
    """
    diag = diagram_of_network(spec)
    numeric = None
    if numeric_seed is not None:
        seed = _index(numeric_seed, "numeric seed")
        if seed < 0:
            raise InvalidArgument(f"numeric seed must be >= 0, got {seed}")
        _check_partition_size(max(len(c) for c in diag.components), "component size n")
        numeric = _partition_by_component(diag, random.Random(seed))
    return SeparabilityReport(
        tuple(lemma1_separable_vertices(diag)),
        lemma2_partition(diag),
        theorem1_check(diag),
        numeric,
        diag,
    )
