"""Core data model for linear quantum networks (LQNs).

An LQN sends N identical particles through a linear transformation to N
detectors. Each allowed particle→detector path carries a complex amplitude
and a two-valued internal state (up/down). The network is equivalently a
simple bipartite graph (particles vs detectors) whose edges are colored and
weighted. ``NetworkSpec.transitions`` is that edge list. Merging particle
``a`` with detector ``X_a`` reads the same list as a digraph with one edge
w_a → w_j per transition, so ``graphs`` and ``io`` work on the spec itself,
and the PM diagram is a ``NetworkSpec`` too: no other edge type exists.

Indices are 1-based at every public surface (particle ``a``, detector
``X_j``).

The records, here and in the other modules, are immutable named tuples
(``collections.namedtuple`` subclasses with empty ``__slots__``): they
iterate, index and compare as tuples, and ``._replace`` returns a changed
copy. So a ``Transition`` is itself the (source, detector, amplitude,
color) edge that ``validate_network`` reads, and a spec's fields rebuild
it: ``validate_network(*spec)`` gives back ``spec``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum

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


class Transition(namedtuple("Transition", "source detector amplitude color")):
    """One allowed path: particle ``source`` → detector ``detector``.

    Fields: ``source`` and ``detector`` (int), ``amplitude`` (complex),
    ``color`` (Color).
    """

    __slots__ = ()


class NetworkSpec(
    namedtuple("NetworkSpec", "n statistics transitions normalization_mode")
):
    """A validated LQN: particle count, statistics, and its sparse edges.

    Fields: ``n`` (int), ``statistics`` (Statistics), ``transitions``
    (tuple of Transition), ``normalization_mode`` (NormalizationMode).
    """

    __slots__ = ()

    def transition_map(self) -> dict[tuple[int, int], Transition]:
        return {(t.source, t.detector): t for t in self.transitions}


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


def _amplitude(value, a: int, j: int) -> complex:
    """A number as complex: strings and bools are rejected, as in ``_index``."""
    if not isinstance(value, (str, bool)):
        try:
            return complex(value)
        except TypeError:
            pass
        except OverflowError:  # an int beyond the float range
            raise NonFiniteValue(
                f"transition ({a}, {j}) has an amplitude beyond the float range"
            ) from None
    raise InvalidArgument(f"transition ({a}, {j}) has amplitude {value!r}, not a number")


def validate_network(
    n: int,
    statistics: Statistics | str,
    transitions: Iterable[tuple[int, int, complex, Color | str]],
    normalization_mode: NormalizationMode | str = NormalizationMode.STRICT,
    row_tol: float = DEFAULT_TOL,
) -> NetworkSpec:
    """Check invariants on raw transition data and build a NetworkSpec.

    The arguments are checked first, in order: ``n`` (IndexOutOfRange if
    not an integer of at least 1), then the statistics and the mode
    (InvalidArgument if unknown), ``row_tol`` (InvalidArgument unless a
    finite number >= 0) and ``transitions`` (InvalidArgument if not
    iterable). Then each edge in turn, and the first defect raises:

    - InvalidArgument if it is not (source, detector, amplitude, color);
    - IndexOutOfRange if the source, then the detector, is not an integer
      (bools included), or either lies outside 1..n;
    - DuplicateEdge on a second transition on the same pair;
    - InvalidArgument if the amplitude is not a number (strings and bools
      included), NonFiniteValue if it is an int beyond the float range;
    - ZeroAmplitude, then NonFiniteValue (NaN or infinite);
    - InvalidArgument on an unknown color.

    Last, in strict mode, every particle row must satisfy
    sum_j |T_aj|^2 = 1 within ``row_tol``; the lowest failing row raises
    RowNotNormalized. Design mode skips the row check.
    """
    n = _index(n, "n")
    if n < 1:
        raise IndexOutOfRange(f"n must be >= 1, got {n}")
    statistics = _member(Statistics, statistics, "statistics")
    normalization_mode = _member(NormalizationMode, normalization_mode, "mode")
    strict = normalization_mode is NormalizationMode.STRICT
    try:
        tol_ok = not isinstance(row_tol, (str, bool)) and 0 <= row_tol < math.inf
    except TypeError:
        tol_ok = False
    if not tol_ok:
        raise InvalidArgument(f"row_tol must be a finite number >= 0, got {row_tol!r}")
    try:
        edges = iter(transitions)
    except TypeError:
        raise InvalidArgument(
            f"transitions must be an iterable of edges, got {transitions!r}"
        ) from None

    seen: set[tuple[int, int]] = set()
    cooked: list[Transition] = []
    # each row's squared sum, added in edge order
    sums: dict[int, float] = {}
    for edge in edges:
        try:
            a, j, amp, color = edge
        except (TypeError, ValueError):
            raise InvalidArgument(
                f"transition {edge!r} is not (source, detector, amplitude, color)"
            ) from None
        # values of the exact type need no coercion (a bool is not an int here)
        if type(a) is not int:
            a = _index(a, "transition source")
        if type(j) is not int:
            j = _index(j, "transition detector")
        if not (1 <= a <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"transition ({a}, {j}) outside 1..{n}")
        if (a, j) in seen:
            raise DuplicateEdge(f"more than one transition on ({a}, {j})")
        seen.add((a, j))
        if type(amp) is not complex:
            amp = _amplitude(amp, a, j)
        if amp == 0:
            raise ZeroAmplitude(f"transition ({a}, {j}) has zero amplitude")
        if not cmath.isfinite(amp):
            raise NonFiniteValue(f"transition ({a}, {j}) has amplitude {amp!r}")
        if type(color) is not Color:
            color = _coerce_color(color)
        cooked.append(Transition(a, j, amp, color))
        if strict:
            try:
                sums[a] = sums.get(a, 0.0) + abs(amp) ** 2
            except OverflowError:  # |amplitude| above about 1.3e154
                sums[a] = math.inf

    if strict:
        # every empty row sums to 0.0, so the first one stands for them all
        first_empty = next(a for a in itertools.count(1) if a not in sums)
        for a in sorted(sums.keys() | {first_empty}):
            s = sums.get(a, 0.0)
            if a <= n and abs(s - 1.0) > row_tol:
                raise RowNotNormalized(a, s)

    return NetworkSpec(n, statistics, tuple(cooked), normalization_mode)


def polar_amplitude(r: float, theta: float) -> complex:
    """Cartesian amplitude from magnitude and phase (radians)."""
    return r * cmath.exp(1j * theta)
