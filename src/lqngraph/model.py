"""Core data model for linear quantum networks (LQNs).

An LQN sends N identical particles through a linear transformation to N
detectors. Each allowed particle→detector path carries a complex amplitude
and a two-valued internal state (up/down). The network is equivalently a
simple bipartite graph (particles vs detectors) whose edges are colored and
weighted, or a pair of N×N matrices: a complex weight matrix and a color
matrix with identical sparsity.

Indices are 1-based at every public surface (particle ``a``, detector
``X_j``); the matrix representations are plain numpy arrays indexed from 0.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    NonFiniteValue,
    RowNotNormalized,
    SuperposedInternalState,
    ZeroAmplitude,
)

DEFAULT_TOL = 1e-9

#: components with squared magnitude below this are treated as absent when
#: reducing a general transform to single-internal-state channels
SPIN_COMPONENT_TOL = 1e-12


class Color(Enum):
    """Internal state carried along an edge. Drawn blue (up) / red (down)."""

    UP = "u"
    DOWN = "d"

    def flipped(self) -> "Color":
        return Color.DOWN if self is Color.UP else Color.UP

    @property
    def glyph(self) -> str:
        return "↑" if self is Color.UP else "↓"


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


class NormalizationMode(Enum):
    #: every particle's outgoing squared amplitudes must sum to 1
    STRICT = "strict"
    #: amplitudes are free; physical realization is the user's concern
    DESIGN = "design"


@dataclass(frozen=True)
class Transition:
    """One allowed path: particle ``source`` → detector ``detector``."""

    source: int
    detector: int
    amplitude: complex
    color: Color


@dataclass(frozen=True)
class NetworkSpec:
    """A validated LQN: particle count, statistics, and its sparse edges."""

    n: int
    statistics: Statistics
    transitions: tuple[Transition, ...]
    normalization_mode: NormalizationMode

    def transition_map(self) -> dict[tuple[int, int], Transition]:
        return {(t.source, t.detector): t for t in self.transitions}


@dataclass(frozen=True)
class ColoredAdjacency:
    """Paired weight/color matrices with identical sparsity.

    ``weights`` is an (n, n) complex array; ``colors`` an (n, n) object array
    holding Color or None. Entry [a-1, j-1] describes the edge a → X_j.
    """

    weights: np.ndarray
    colors: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class BipartiteEdge:
    particle: int
    detector: int
    weight: complex
    color: Color


@dataclass(frozen=True)
class BipartiteView:
    """The network as a balanced bigraph: particles 1..n vs detectors X_1..X_n."""

    n: int
    edges: tuple[BipartiteEdge, ...]


@dataclass(frozen=True)
class Channel:
    """General-transform channel with separate up/down amplitudes."""

    source: int
    detector: int
    amp_up: complex
    amp_down: complex


@dataclass(frozen=True)
class GeneralTransform:
    """Linear transform whose internal-state rotation is kept explicit."""

    n: int
    channels: tuple[Channel, ...]


def _coerce_color(value) -> Color:
    if isinstance(value, Color):
        return value
    if isinstance(value, str):
        key = value.strip().lower()
        if key in ("u", "up", "↑"):
            return Color.UP
        if key in ("d", "down", "↓"):
            return Color.DOWN
    raise ValueError(f"not a color: {value!r}")


def _index(value, what: str) -> int:
    """A strict integer: floats, bools and numeric strings are rejected."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise IndexOutOfRange(f"{what} must be an integer, got {value!r}")


def validate_network(
    n: int,
    statistics: Statistics | str,
    transitions: Iterable[tuple[int, int, complex, Color | str]],
    normalization_mode: NormalizationMode | str = NormalizationMode.STRICT,
    row_tol: float = DEFAULT_TOL,
) -> NetworkSpec:
    """Check invariants on raw transition data and build a NetworkSpec.

    Raises IndexOutOfRange, DuplicateEdge, ZeroAmplitude or NonFiniteValue
    on malformed edges. In strict mode every particle row must satisfy
    sum_j |T_aj|^2 = 1 within ``row_tol`` (RowNotNormalized otherwise);
    design mode skips the row check.
    """
    n = _index(n, "n")
    if n < 1:
        raise IndexOutOfRange(f"n must be >= 1, got {n}")
    if isinstance(statistics, str):
        statistics = Statistics(statistics)
    if isinstance(normalization_mode, str):
        normalization_mode = NormalizationMode(normalization_mode)

    seen: set[tuple[int, int]] = set()
    cooked: list[Transition] = []
    for a, j, amp, color in transitions:
        a, j = _index(a, "transition source"), _index(j, "transition detector")
        if not (1 <= a <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"transition ({a}, {j}) outside 1..{n}")
        if (a, j) in seen:
            raise DuplicateEdge(f"more than one transition on ({a}, {j})")
        seen.add((a, j))
        amp = complex(amp)
        if amp == 0:
            raise ZeroAmplitude(f"transition ({a}, {j}) has zero amplitude")
        if not cmath.isfinite(amp):
            raise NonFiniteValue(f"transition ({a}, {j}) has amplitude {amp!r}")
        cooked.append(Transition(a, j, amp, _coerce_color(color)))

    if normalization_mode is NormalizationMode.STRICT:
        sums = [0.0] * n
        for t in cooked:
            sums[t.source - 1] += abs(t.amplitude) ** 2
        for a, s in enumerate(sums, start=1):
            if abs(s - 1.0) > row_tol:
                raise RowNotNormalized(a, s)

    return NetworkSpec(n, statistics, tuple(cooked), normalization_mode)


def to_adjacency(spec: NetworkSpec) -> ColoredAdjacency:
    """Insert amplitudes and colors into paired n×n matrices."""
    weights = np.zeros((spec.n, spec.n), dtype=complex)
    colors = np.full((spec.n, spec.n), None, dtype=object)
    for t in spec.transitions:
        weights[t.source - 1, t.detector - 1] = t.amplitude
        colors[t.source - 1, t.detector - 1] = t.color
    return ColoredAdjacency(weights, colors)


def to_bipartite(adj: ColoredAdjacency) -> BipartiteView:
    """One undirected edge (a, X_j) per nonzero matrix entry."""
    edges = []
    n = adj.n
    for a in range(n):
        for j in range(n):
            color = adj.colors[a, j]
            if color is not None:
                edges.append(
                    BipartiteEdge(a + 1, j + 1, complex(adj.weights[a, j]), color)
                )
    return BipartiteView(n, tuple(edges))


def exchange_rows(
    adj: ColoredAdjacency, a: int, b: int, statistics: Statistics
) -> tuple[ColoredAdjacency, int]:
    """Swap particle rows a and b in both matrices.

    Returns the swapped adjacency and the exchange sign: +1 for bosons,
    -1 for fermions.
    """
    n = adj.n
    if not (1 <= a <= n and 1 <= b <= n):
        raise IndexOutOfRange(f"rows ({a}, {b}) outside 1..{n}")
    if a == b:
        raise ValueError("rows to exchange must differ")
    weights = adj.weights.copy()
    colors = adj.colors.copy()
    weights[[a - 1, b - 1]] = weights[[b - 1, a - 1]]
    colors[[a - 1, b - 1]] = colors[[b - 1, a - 1]]
    sign = -1 if statistics is Statistics.FERMION else 1
    return ColoredAdjacency(weights, colors), sign


def validate_general_transform(
    n: int,
    channels: Iterable[tuple[int, int, complex, complex]],
    row_tol: float = DEFAULT_TOL,
) -> GeneralTransform:
    """Build a GeneralTransform, checking index ranges and row normalization.

    Rows must satisfy sum_{j,r} |T_{a,jr}|^2 = 1; there is no design mode
    for general transforms.
    """
    if n < 1:
        raise IndexOutOfRange(f"n must be >= 1, got {n}")
    seen: set[tuple[int, int]] = set()
    cooked: list[Channel] = []
    sums = [0.0] * n
    for a, j, up, down in channels:
        if not (1 <= a <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"channel ({a}, {j}) outside 1..{n}")
        if (a, j) in seen:
            raise DuplicateEdge(f"more than one channel on ({a}, {j})")
        seen.add((a, j))
        up, down = complex(up), complex(down)
        cooked.append(Channel(a, j, up, down))
        sums[a - 1] += abs(up) ** 2 + abs(down) ** 2
    for a, s in enumerate(sums, start=1):
        if abs(s - 1.0) > row_tol:
            raise RowNotNormalized(a, s)
    return GeneralTransform(n, tuple(cooked))


def reduce_general_transform(
    gt: GeneralTransform, statistics: Statistics = Statistics.BOSON
) -> NetworkSpec:
    """Collapse a general transform whose channels are all single-component.

    A channel with exactly one internal component above SPIN_COMPONENT_TOL
    (by squared magnitude) becomes a colored transition; a channel with both
    components present raises SuperposedInternalState, as such networks
    would need multi-edges between vertex pairs. Channels with neither
    component are dropped.
    """
    transitions = []
    for ch in gt.channels:
        has_up = abs(ch.amp_up) ** 2 > SPIN_COMPONENT_TOL
        has_down = abs(ch.amp_down) ** 2 > SPIN_COMPONENT_TOL
        if has_up and has_down:
            raise SuperposedInternalState(ch.source, ch.detector)
        if has_up:
            transitions.append((ch.source, ch.detector, ch.amp_up, Color.UP))
        elif has_down:
            transitions.append((ch.source, ch.detector, ch.amp_down, Color.DOWN))
    return validate_network(gt.n, statistics, transitions, NormalizationMode.STRICT)


def to_general_transform(spec: NetworkSpec) -> GeneralTransform:
    """Re-expand a network into explicit up/down channel amplitudes."""
    channels = []
    for t in spec.transitions:
        up = t.amplitude if t.color is Color.UP else 0j
        down = t.amplitude if t.color is Color.DOWN else 0j
        channels.append(Channel(t.source, t.detector, up, down))
    return GeneralTransform(spec.n, tuple(channels))


def is_unitary(adj: ColoredAdjacency, tol: float = DEFAULT_TOL) -> bool:
    """True iff A·A† equals the identity entrywise within ``tol``."""
    product = adj.weights @ adj.weights.conj().T
    return bool(np.max(np.abs(product - np.eye(adj.n))) <= tol)


def polar_amplitude(r: float, theta: float) -> complex:
    """Cartesian amplitude from magnitude and phase (radians)."""
    return r * cmath.exp(1j * theta)
