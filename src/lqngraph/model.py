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
    InvalidArgument,
    NonFiniteValue,
    RowNotNormalized,
    ZeroAmplitude,
)

DEFAULT_TOL = 1e-9


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


def _coerce_color(value) -> Color:
    if isinstance(value, Color):
        return value
    if isinstance(value, str):
        key = value.strip().lower()
        if key in ("u", "up", "↑"):
            return Color.UP
        if key in ("d", "down", "↓"):
            return Color.DOWN
    raise InvalidArgument(f"not a color: {value!r}")


def _member(enum: type[Enum], value, what: str):
    """``enum(value)``, with an unknown value raised as InvalidArgument."""
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(m.value for m in enum)
        raise InvalidArgument(f"{what} must be one of {choices}, got {value!r}") from None


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
    on malformed edges, and InvalidArgument on an unknown statistics, mode
    or color. In strict mode every particle row must satisfy
    sum_j |T_aj|^2 = 1 within ``row_tol`` (RowNotNormalized otherwise);
    design mode skips the row check.
    """
    n = _index(n, "n")
    if n < 1:
        raise IndexOutOfRange(f"n must be >= 1, got {n}")
    statistics = _member(Statistics, statistics, "statistics")
    normalization_mode = _member(NormalizationMode, normalization_mode, "mode")

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


def polar_amplitude(r: float, theta: float) -> complex:
    """Cartesian amplitude from magnitude and phase (radians)."""
    return r * cmath.exp(1j * theta)
