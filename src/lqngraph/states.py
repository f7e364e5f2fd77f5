"""Post-selected no-bunching states and their assembly from matchings.

A no-bunching outcome places exactly one particle at each detector, so the
detectors' internal states form an N-character string over {u, d} (position
j-1 holds detector X_j). Each perfect matching contributes the product of
its edge weights to the string determined by its edge colors; matchings
landing on the same string add coherently. ``assemble_network_state`` sums
them during the matching walk itself (``graphs._ket_sums``, which takes
the ``NetworkSpec`` and keys each ket by an integer of down bits, bit j
set when detector X_j receives a down edge), the only route from a
network to its state; ``oracle_state`` is the independent n! reference it
is checked against. The sums stay keyed by those codes until
``assemble_network_state`` spells each ket out once. A
``NoBunchState`` checks its fields whenever one is built, through
``_replace`` and ``_make`` as well.

Float sums of squares (``norm_squared``, ``normalize``) are added left to
right explicitly: from Python 3.12 on, ``sum()`` of floats compensates its
rounding, which would change the printed amplitudes with the interpreter.

Sign convention for fermions: output creation operators are ordered by
detector index, so a matching with assignment permutation σ picks up the
parity of σ: an odd σ adds the exact negation of its weight, and a boson
weight is added as it is, with no sign multiplied in. This reproduces the
plus/minus pair of the two-particle beam-splitter state.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from collections import namedtuple
from collections.abc import Mapping
from functools import reduce
from types import MappingProxyType

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NonFiniteValue,
    TooLarge,
    ZeroState,
)
from .graphs import _ket_sums, ket_of_code
from .model import Color, NetworkSpec, Statistics

ORACLE_LIMIT = 10


class NoBunchState(
    namedtuple("NoBunchState", "n amplitudes normalized postselect_probability")
):
    """Map from detector-state strings to complex amplitudes.

    ``postselect_probability`` is populated by normalize(); for a state
    assembled from a unitary strict-mode network it equals the probability
    of the no-bunching post-selection succeeding. Fields are checked in
    order, and the first defect raises InvalidArgument: an ``n`` that is
    not an integer of at least 1, ``amplitudes`` that is not a mapping, a
    ket that is not a string of n characters u/d, an amplitude that is not
    a number, a ``normalized`` that is not a bool, a
    ``postselect_probability`` that is neither None nor a real number >= 0
    (bools refused). A NaN or infinite amplitude (an overflowed matching
    weight), an int one beyond floats, or a NaN or infinite probability
    raises NonFiniteValue instead. ``_replace`` and ``_make`` check as the
    constructor does. ``amplitudes`` is kept as a read-only copy, so a
    later change to the caller's mapping cannot undo the checks; it still
    compares equal to a dict of the same items.
    """

    __slots__ = ()

    def __new__(cls, n, amplitudes, normalized=False, postselect_probability=None):
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidArgument(f"n must be an integer, got {n!r}")
        if n < 1:
            raise InvalidArgument(f"n must be >= 1, got {n}")
        if not isinstance(amplitudes, Mapping):
            raise InvalidArgument(
                f"amplitudes must be a mapping, got {type(amplitudes).__name__}"
            )
        for ket, amp in amplitudes.items():
            if (
                not isinstance(ket, str)
                or len(ket) != n
                or ket.count("u") + ket.count("d") != n
            ):
                raise InvalidArgument(f"bad ket {ket!r} for n={n}")
            try:
                if not cmath.isfinite(amp):
                    raise NonFiniteValue(f"ket {ket!r} has amplitude {amp!r}")
            except TypeError:
                raise InvalidArgument(
                    f"ket {ket!r} has amplitude {amp!r}, not a number"
                ) from None
            except OverflowError:  # an int beyond the float range
                raise NonFiniteValue(f"ket {ket!r}: amplitude beyond floats") from None
        if not isinstance(normalized, bool):
            raise InvalidArgument(f"normalized must be a bool, got {normalized!r}")
        p = postselect_probability
        if p is not None:
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise InvalidArgument(
                    f"postselect_probability must be None or a number, got {p!r}"
                )
            if isinstance(p, float) and not math.isfinite(p):  # an int is finite
                raise NonFiniteValue(f"postselect_probability is {p!r}")
            if p < 0:
                raise InvalidArgument(f"postselect_probability must be >= 0, got {p!r}")
        return super().__new__(cls, n, MappingProxyType(dict(amplitudes)), normalized, p)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __getnewargs__(self):
        # a mapping proxy cannot be pickled or copied; its dict can
        return (self.n, dict(self.amplitudes), self.normalized, self.postselect_probability)

    def amplitude(self, ket: str) -> complex:
        return self.amplitudes.get(ket, 0j)

    def norm_squared(self) -> float:
        return _sum_squares(self.amplitudes.values())

    def sorted_terms(self) -> list[tuple[str, complex]]:
        return sorted(self.amplitudes.items())


def _sum_squares(values) -> float:
    """Sum of |v|**2, added left to right on every Python version."""
    return reduce(operator.add, (abs(v) ** 2 for v in values), 0.0)


_GLYPHS = str.maketrans({c.value: c.glyph for c in Color})


def ket_glyphs(ket: str) -> str:
    """Human form of a machine ket string: 'ud' → '↑↓'.

    A character other than u or d raises InvalidArgument.
    """
    if ket.strip("ud"):
        raise InvalidArgument(f"bad ket {ket!r}: characters must be u or d")
    return ket.translate(_GLYPHS)


def assemble_network_state(spec: NetworkSpec) -> NoBunchState:
    """Full pipeline: walk the matchings of ``spec`` and sum them as they come.

    The sums come from ``graphs._ket_sums``; each distinct ket becomes a string
    once, at the end, in the order first seen, which is the oracle's order
    and the order ``normalize`` sums the norm in.
    """
    n = spec.n
    return NoBunchState(n, {ket_of_code(k, n): v for k, v in _ket_sums(spec).items()})


def oracle_state(spec: NetworkSpec) -> NoBunchState:
    """Brute-force reference: sum over all n! detector assignments.

    Deliberately ignorant of the matching walk: it walks
    itertools.permutations and keeps those whose every pair is a network
    edge, so it can vouch for the matching-based assembly. It shares no
    code with ``assemble_network_state`` on purpose: permutations come in
    lexicographic order and weights are multiplied in particle order, so it
    equals the engine bit for bit. A fermion permutation of odd parity adds
    ``-weight``, the exact negation the engine's signed weights give.
    """
    if spec.n > ORACLE_LIMIT:
        raise TooLarge(spec.n, ORACLE_LIMIT)
    edge_map = spec.transition_map()
    fermion = spec.statistics is Statistics.FERMION
    amplitudes: dict[str, complex] = {}
    for perm in itertools.permutations(range(1, spec.n + 1)):
        ket = ["" for _ in range(spec.n)]
        weight = complex(1.0)
        for a, j in enumerate(perm, start=1):
            t = edge_map.get((a, j))
            if t is None:
                break
            ket[j - 1] = t.color.value
            weight *= t.amplitude
        else:
            key = "".join(ket)
            if fermion and sum(x > y for x, y in itertools.combinations(perm, 2)) % 2:
                weight = -weight  # odd permutation
            amplitudes[key] = amplitudes.get(key, 0j) + weight
    amplitudes = {k: v for k, v in amplitudes.items() if v != 0}
    return NoBunchState(spec.n, amplitudes)


def normalize(state: NoBunchState) -> NoBunchState:
    """Scale to unit norm; record the input's squared norm.

    Raises ZeroState when no ket survived assembly, i.e. no matching exists
    or all contributions cancelled exactly, and NonFiniteValue when the
    squared norm to be recorded is not finite (a finite amplitude whose
    square, or the sum of squares, overflowed). A squared norm below the
    normal float range (a large network's weight underflows) is taken over
    amplitudes divided by their largest component first.
    """
    if not any(state.amplitudes.values()):
        raise ZeroState("state has zero norm (no matchings or exact cancellation)")
    try:
        norm_sq = state.norm_squared()
    except OverflowError:  # a float |v| ** 2 beyond the float range
        norm_sq = math.inf
    if not math.isfinite(norm_sq):
        raise NonFiniteValue(f"state has squared norm {norm_sq!r} (float overflow)")
    if norm_sq >= sys.float_info.min:
        scale = norm_sq**-0.5
        amplitudes = {k: v * scale for k, v in state.amplitudes.items()}
    else:
        peak = max(max(abs(v.real), abs(v.imag)) for v in state.amplitudes.values())
        amplitudes = {k: v / peak for k, v in state.amplitudes.items()}
        rest_sq = _sum_squares(amplitudes.values())
        scale = rest_sq**-0.5
        amplitudes = {k: v * scale for k, v in amplitudes.items()}
        norm_sq = peak * peak * rest_sq
    return NoBunchState(
        state.n,
        amplitudes,
        normalized=True,
        postselect_probability=norm_sq,
    )


def max_amplitude_difference(s1: NoBunchState, s2: NoBunchState) -> float:
    """Largest entrywise |amplitude difference| between two states."""
    if s1.n != s2.n:
        raise DimensionMismatch(f"states on {s1.n} and {s2.n} detectors")
    keys = set(s1.amplitudes) | set(s2.amplitudes)
    if not keys:
        return 0.0
    return max(abs(s1.amplitude(k) - s2.amplitude(k)) for k in keys)
