"""Entanglement classification of no-bunching states.

Two complementary routes are provided. The structural route inspects the PM
diagram only: a vertex whose incoming edges all share one color pins its
detector to a computational-basis state; a weakly disconnected diagram
forces the state to factor across the component blocks; and genuine
N-partite entanglement requires both incoming colors at every vertex and a
strongly connected diagram (necessary conditions only: a structurally healthy
diagram can still produce a separable state for special amplitudes).

The numerical route works on an assembled state directly: the Schmidt rank
across a detector bipartition is 1 exactly when the state factors there,
and recursively splitting along rank-1 cuts yields the finest product
partition, unique for pure states. ``build_report`` applies it to one weak
component of the PM diagram at a time, since the state is the product of
the component states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, TooLarge
from .graphs import PMDiagram, diagram_of_network, strongly_connected, weak_components
from .model import Color, NetworkSpec, NormalizationMode, Transition, validate_network
from .states import NoBunchState, assemble_network_state, normalize

PARTITION_LIMIT = 10
DEFAULT_SV_TOL = 1e-8

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
    for e in diag.view.edges:
        incoming[e.head - 1].add(e.color)
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
    for comp in weak_components(diag):
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
    strong, _ = strongly_connected(diag)
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
        (e.tail, e.head) for e in diag.view.edges if e.color is Color.DOWN
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


def _amplitude_tensor(state: NoBunchState) -> np.ndarray:
    """Amplitudes as a (2,)*n tensor; axis j-1 = detector X_j, 0=up, 1=down."""
    tensor = np.zeros((2,) * state.n, dtype=complex)
    for ket, amp in state.amplitudes.items():
        idx = tuple(0 if ch == "u" else 1 for ch in ket)
        tensor[idx] = amp
    return tensor


def _rank_across(
    tensor: np.ndarray, axes: tuple[int, ...], tol: float, want_factors: bool
):
    m = tensor.ndim
    rest = tuple(i for i in range(m) if i not in axes)
    mat = np.transpose(tensor, axes + rest).reshape(2 ** len(axes), 2 ** len(rest))
    if want_factors:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
    else:
        s = np.linalg.svd(mat, compute_uv=False)
    top = s[0] if len(s) else 0.0
    rank = int(np.sum(s > tol * top)) if top > 0 else 0
    if not want_factors:
        return rank
    left = (u[:, 0] * s[0]).reshape((2,) * len(axes))
    right = vh[0, :].reshape((2,) * len(rest))
    return rank, left, right


def schmidt_rank(
    state: NoBunchState, cut: Bipartition, tol: float = DEFAULT_SV_TOL
) -> int:
    """Rank of the amplitude matricization across the cut.

    Singular values are counted above ``tol`` times the largest one; rank 1
    means the state is a product across the cut.
    """
    if cut.n != state.n:
        raise DimensionMismatch(f"cut over {cut.n} detectors, state has {state.n}")
    axes = tuple(d - 1 for d in sorted(cut.subset))
    return _rank_across(_amplitude_tensor(state), axes, tol, want_factors=False)


def finest_partition(state: NoBunchState, tol: float = DEFAULT_SV_TOL) -> Partition:
    """Finest detector partition across which the pure state factorizes.

    Recursively splits along any rank-1 bipartition, smallest subset first;
    pure-state factorizations are unique, so the search order does not
    affect the result. A single full-size block means the state is
    genuinely entangled.
    """
    if state.n > PARTITION_LIMIT:
        raise TooLarge(state.n, PARTITION_LIMIT)

    blocks: list[tuple[int, ...]] = []

    def split(detectors: tuple[int, ...], tensor: np.ndarray) -> None:
        m = len(detectors)
        for size in range(1, m // 2 + 1):
            for axes in itertools.combinations(range(m), size):
                if 2 * size == m and 0 not in axes:
                    continue
                rank, left, right = _rank_across(tensor, axes, tol, want_factors=True)
                if rank == 1:
                    inside = tuple(detectors[i] for i in axes)
                    outside = tuple(
                        detectors[i] for i in range(m) if i not in axes
                    )
                    split(inside, left)
                    split(outside, right)
                    return
        blocks.append(detectors)

    split(tuple(range(1, state.n + 1)), _amplitude_tensor(state))
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def generic_amplitudes(
    spec: NetworkSpec, rng: np.random.Generator
) -> NetworkSpec:
    """Redraw amplitudes generically, keeping sparsity, colors, statistics.

    Magnitudes land in [0.3, 1] with uniform phases and rows are then
    normalized, which avoids both accidental cancellations and accidental
    product structure beyond what the topology forces.
    """
    raw = []
    for t in spec.transitions:
        mag = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        raw.append([t.source, t.detector, mag * np.exp(1j * phase), t.color])
    row_norm = [0.0] * spec.n
    for a, _, amp, _ in raw:
        row_norm[a - 1] += abs(amp) ** 2
    for entry in raw:
        entry[2] /= row_norm[entry[0] - 1] ** 0.5
    return validate_network(spec.n, spec.statistics, raw, "strict")


def _partition_by_component(
    spec: NetworkSpec, diag: PMDiagram, sv_tol: float
) -> Partition:
    """Finest partition of the state of ``spec``, one diagram component at a time.

    An edge between two weak components lies in no perfect matching, so the
    state is, up to sign, the tensor product of the component states, and
    its finest partition is the union of theirs. Vertex ``v`` stands for
    particle ``v`` and detector ``diag.relabeling[v-1]``; each component's
    particles and detectors are renumbered 1..m in ascending order. The
    size limit applies per component and is checked before any assembly.
    """
    components = weak_components(diag)
    largest = max(len(c) for c in components)
    if largest > PARTITION_LIMIT:
        raise TooLarge(largest, PARTITION_LIMIT)
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
        for block in finest_partition(state, sv_tol):
            blocks.append(tuple(dets[d - 1] for d in block))
    return tuple(sorted(blocks))


def build_report(
    spec: NetworkSpec,
    numeric_seed: int | None = None,
    sv_tol: float = DEFAULT_SV_TOL,
) -> SeparabilityReport:
    """Structural report for a network, optionally with a numeric partition.

    The numeric part redraws amplitudes generically from ``numeric_seed``
    (structure-driven entanglement should not depend on amplitude
    coincidences) and computes the finest product partition of the
    resulting state, assembling and splitting each weak component of the
    PM diagram on its own. ``PARTITION_LIMIT`` bounds each component, not
    the whole network.
    """
    diag = diagram_of_network(spec)
    numeric = None
    if numeric_seed is not None:
        if numeric_seed < 0:
            raise InvalidArgument(f"numeric seed must be >= 0, got {numeric_seed}")
        generic = generic_amplitudes(spec, np.random.default_rng(numeric_seed))
        numeric = _partition_by_component(generic, diag, sv_tol)
    return SeparabilityReport(
        tuple(lemma1_separable_vertices(diag)),
        lemma2_partition(diag),
        theorem1_check(diag),
        numeric,
        diag,
    )
