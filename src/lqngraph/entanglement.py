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

The numerical route works on an assembled state directly: the Schmidt rank
across a detector bipartition is 1 exactly when the state factors there,
and recursively splitting along rank-1 cuts yields the finest product
partition, unique for pure states. The amplitudes are held as a flat
vector indexed by the ket's down bits; the matrices of every cut of one
size are gathered from it by one cached fancy index and tested in one
stacked SVD call. That call runs the same LAPACK routine on each matrix of
the stack, so it gives the factors one call per matrix would.
``build_report`` applies it to one weak component of the PM diagram at a
time, since the state is the product of the component states, on
amplitudes redrawn generically from a seed.

Only that numeric route needs linear algebra, so numpy is imported inside
the functions that call it: ``finest_partition``, ``schmidt_rank``,
``generic_amplitudes`` and ``build_report`` with a numeric seed. The
structural route and every other part of the package run without it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, InvalidArgument, TooLarge, ZeroState
from .graphs import PMDiagram, diagram_of_network
from .model import Color, NetworkSpec, NormalizationMode, Transition, _index
from .states import NoBunchState, assemble_network_state, normalize

if TYPE_CHECKING:
    import numpy as np

PARTITION_LIMIT = 10
#: singular values at or below this fraction of the largest count as zero
SV_TOL = 1e-8

Partition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Bipartition:
    """A nonempty proper subset of detector indices."""

    subset: frozenset[int]
    n: int

    def __post_init__(self):
        if not self.subset or not self.subset <= set(range(1, self.n + 1)):
            raise DimensionMismatch(f"subset {set(self.subset)} invalid for n={self.n}")
        if len(self.subset) == self.n:
            raise DimensionMismatch("subset must be proper")

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.subset


class Verdict(Enum):
    MAY_BE_GENUINE = "may_be_genuine"
    CANNOT_BE_GENUINE = "cannot_be_genuine"


@dataclass(frozen=True)
class Theorem1Report:
    """Necessary-condition check for genuine N-partite entanglement."""

    color_condition_ok: tuple[bool, ...]
    strongly_connected: bool
    verdict: Verdict


@dataclass(frozen=True)
class WOptimalityReport:
    """Red-edge distribution required of an optimal W-state diagram."""

    ok: bool
    red_edge_count: int
    source_vertices: tuple[int, ...]
    diagnostics: tuple[str, ...]


@dataclass(frozen=True)
class SeparabilityReport:
    lemma1_vertices: tuple[tuple[int, Color], ...]
    lemma2_partition: Partition
    theorem1: Theorem1Report
    numeric_finest_partition: Partition | None
    diagram: PMDiagram


def _incoming_colors(diag: PMDiagram) -> list[set[Color]]:
    incoming: list[set[Color]] = [set() for _ in range(diag.n)]
    for t in diag.network.transitions:
        incoming[t.detector - 1].add(t.color)
    return incoming


def lemma1_separable_vertices(diag: PMDiagram) -> list[tuple[int, Color]]:
    """Vertices whose incoming edges (loops included) share one color.

    The detector sitting at such a vertex receives the same internal state
    in every matching, so it is separable and pinned to that color.
    """
    result = []
    for v, colors in enumerate(_incoming_colors(diag), start=1):
        if len(colors) == 1:
            result.append((v, next(iter(colors))))
    return result


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
    color_ok = tuple(
        colors == {Color.UP, Color.DOWN} for colors in _incoming_colors(diag)
    )
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


def _check_partition_size(m: int, subject: str = "n") -> None:
    """Raise TooLarge if ``m`` detectors exceed ``PARTITION_LIMIT``."""
    if m > PARTITION_LIMIT:
        raise TooLarge(m, PARTITION_LIMIT, "partition-search", subject)


def _amplitude_vector(state: NoBunchState) -> np.ndarray:
    """Amplitudes as a flat (2,)*n tensor: detector X_j is axis j-1, with
    0=up and 1=down, so the ket's u/d string read as bits is its index."""
    import numpy as np

    vector = np.zeros(2**state.n, dtype=complex)
    for ket, amp in state.amplitudes.items():
        vector[int(ket.translate(_KET_BITS), 2)] = amp
    return vector


def _cut_index(m: int, cuts: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Gather index of a stack of cut matrices over a flat (2,)*m tensor.

    Cut ``c`` keeps the axes ``cuts[c]`` as rows and the other axes, in
    order, as columns: ``vector[index]`` is the ``(len(cuts), rows,
    columns)`` stack of matricizations. Every cut has the same size.
    """
    import numpy as np

    flat = np.arange(2**m).reshape((2,) * m)
    return np.stack([
        np.transpose(flat, axes + tuple(i for i in range(m) if i not in axes))
        .reshape(2 ** len(axes), -1)
        for axes in cuts
    ])


@functools.cache
def _search_cuts(m: int, size: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The cuts of ``size`` axes out of ``m`` that ``finest_partition``
    tries, in its order, with their gather index. A half cut and its
    complement are the same cut, so only the one holding axis 0 is kept.
    The index is shared by every call, so it is read-only."""
    cuts = tuple(
        axes
        for axes in itertools.combinations(range(m), size)
        if 2 * size < m or 0 in axes
    )
    index = _cut_index(m, cuts)
    index.flags.writeable = False
    return cuts, index


def _cut_svd(vector: np.ndarray, index: np.ndarray):
    """``(ranks, u, s, vh)`` of every cut matrix of ``index``, from one SVD.

    A rank counts the singular values above ``SV_TOL`` times the cut's
    largest one, so a zero matrix has rank 0. For a rank-1 cut ``c`` the
    outer product of ``u[c, :, 0] * s[c, 0]`` and ``vh[c, 0]`` is its matrix.
    """
    import numpy as np

    u, s, vh = np.linalg.svd(vector[index], full_matrices=False)
    ranks = np.count_nonzero(s > SV_TOL * s[:, :1], axis=1)
    return ranks, u, s, vh


def schmidt_rank(state: NoBunchState, cut: Bipartition) -> int:
    """Rank of the amplitude matricization across the cut.

    Singular values are counted above ``SV_TOL`` times the largest one;
    rank 1 means the state is a product across the cut. It is the one-cut
    case of the stacked test ``finest_partition`` runs, under the same
    ``PARTITION_LIMIT`` on the state's size. The zero state has no rank: it
    raises ZeroState.
    """
    if cut.n != state.n:
        raise DimensionMismatch(f"cut over {cut.n} detectors, state has {state.n}")
    _check_partition_size(state.n)
    if not any(state.amplitudes.values()):
        raise ZeroState("state has zero norm (no Schmidt rank)")
    axes = tuple(d - 1 for d in sorted(cut.subset))
    ranks = _cut_svd(_amplitude_vector(state), _cut_index(state.n, (axes,)))[0]
    return int(ranks[0])


def finest_partition(state: NoBunchState) -> Partition:
    """Finest detector partition across which the pure state factorizes.

    Recursively splits along a rank-1 bipartition, smallest subset first:
    every cut of one size is tested in one stacked SVD call, and the first
    rank-1 cut in ``itertools.combinations`` order is taken. Pure-state
    factorizations are unique, so the search order does not affect the
    result. A single full-size block means the state is genuinely
    entangled; that takes one SVD call per cut size, ``m // 2`` calls for
    ``m`` detectors. The zero state has no partition: it raises ZeroState.
    """
    _check_partition_size(state.n)
    if not any(state.amplitudes.values()):
        raise ZeroState("state has zero norm (no kets to partition)")

    blocks: list[tuple[int, ...]] = []

    def split(detectors: tuple[int, ...], vector: np.ndarray) -> None:
        m = len(detectors)
        for size in range(1, m // 2 + 1):
            cuts, index = _search_cuts(m, size)
            ranks, u, s, vh = _cut_svd(vector, index)
            hits = (ranks == 1).nonzero()[0]
            if hits.size:
                c = hits[0]
                axes = cuts[c]
                inside = tuple(detectors[i] for i in axes)
                outside = tuple(detectors[i] for i in range(m) if i not in axes)
                split(inside, u[c, :, 0] * s[c, 0])
                split(outside, vh[c, 0])
                return
        blocks.append(detectors)

    split(tuple(range(1, state.n + 1)), _amplitude_vector(state))
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def generic_amplitudes(
    spec: NetworkSpec, rng: np.random.Generator
) -> NetworkSpec:
    """Redraw amplitudes generically, keeping everything else of ``spec``.

    Per transition, in spec order, a magnitude in [0.3, 1] and then a
    uniform phase are drawn, all in one ``rng.uniform`` call, and each row
    is then normalized, which avoids both accidental cancellations and
    accidental product structure beyond what the topology forces. The
    drawn values are nonzero and finite, so the spec's validation still
    holds and is not run again.
    """
    import numpy as np

    transitions = spec.transitions
    mags, phases = rng.uniform([0.3, 0.0], [1.0, 2.0 * np.pi], (len(transitions), 2)).T
    drawn = mags * np.exp(1j * phases)
    row_norm = [0.0] * spec.n
    for t, amp in zip(transitions, drawn):
        row_norm[t.source - 1] += abs(amp) ** 2
    transitions = tuple(
        Transition(
            t.source, t.detector, complex(amp / row_norm[t.source - 1] ** 0.5), t.color
        )
        for t, amp in zip(transitions, drawn)
    )
    return NetworkSpec(spec.n, spec.statistics, transitions, spec.normalization_mode)


def _partition_by_component(spec: NetworkSpec, diag: PMDiagram) -> Partition:
    """Finest partition of the state of ``spec``, one diagram component at a time.

    An edge between two weak components lies in no perfect matching, so the
    state is, up to sign, the tensor product of the component states, and
    its finest partition is the union of theirs. Vertex ``v`` stands for
    particle ``v`` and detector ``diag.relabeling[v-1]``; each component's
    particles and detectors are renumbered 1..m in ascending order.
    """
    components = diag.components
    # (component index, local label) of every particle and every detector
    particle_at = [(0, 0)] * (diag.n + 1)
    detector_at = [(0, 0)] * (diag.n + 1)
    detectors = []
    for k, comp in enumerate(components):
        for local, a in enumerate(comp, start=1):
            particle_at[a] = (k, local)
        dets = sorted(diag.detector_of_vertex(v) for v in comp)
        for local, j in enumerate(dets, start=1):
            detector_at[j] = (k, local)
        detectors.append(dets)
    inside: list[list[Transition]] = [[] for _ in components]
    for t in spec.transitions:
        (k, a), (kj, j) = particle_at[t.source], detector_at[t.detector]
        if k == kj:
            inside[k].append(Transition(a, j, t.amplitude, t.color))

    blocks = []
    for dets, transitions in zip(detectors, inside):
        sub = NetworkSpec(
            len(dets), spec.statistics, tuple(transitions), NormalizationMode.DESIGN
        )
        state = normalize(assemble_network_state(sub))
        for block in finest_partition(state):
            blocks.append(tuple(dets[d - 1] for d in block))
    return tuple(sorted(blocks))


def build_report(spec: NetworkSpec, numeric_seed: int | None = None) -> SeparabilityReport:
    """Structural report for a network, optionally with a numeric partition.

    The numeric part redraws amplitudes generically from ``numeric_seed``
    (structure-driven entanglement should not depend on amplitude
    coincidences) and computes the finest product partition of the
    resulting state, assembling and splitting each weak component of the
    PM diagram on its own. ``PARTITION_LIMIT`` bounds each component, not
    the whole network, and is checked before the draw. A seed that is not
    an integer (floats, bools and numeric strings included) raises
    IndexOutOfRange, as a non-integer ``n`` does in ``validate_network``; a
    negative one raises InvalidArgument.
    """
    diag = diagram_of_network(spec)
    numeric = None
    if numeric_seed is not None:
        seed = _index(numeric_seed, "numeric seed")
        if seed < 0:
            raise InvalidArgument(f"numeric seed must be >= 0, got {seed}")
        _check_partition_size(max(len(c) for c in diag.components), "component size n")
        import numpy as np

        generic = generic_amplitudes(spec, np.random.default_rng(seed))
        numeric = _partition_by_component(generic, diag)
    return SeparabilityReport(
        tuple(lemma1_separable_vertices(diag)),
        lemma2_partition(diag),
        theorem1_check(diag),
        numeric,
        diag,
    )
