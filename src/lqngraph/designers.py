"""Constructive networks for canonical entangled target states.

Each designer emits a validated NetworkSpec whose PM diagram realizes the
target state's matchings with no superfluous ones (except the two-down
Dicke family, where the doubly-excited strings intentionally collect four
matchings each and the shipped amplitude presets make them interfere to a
flat state).

Color conventions follow the diagrams: up edges are drawn blue, down edges
red. Where a color vector is accepted, entry ``c_a`` colors the loop at
vertex ``a`` and flipping conventions match the basis-generalized
constructions, so the all-up vector reproduces the standard state.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping, Sequence

from .errors import BadLength, InvalidArgument, NoPresetForN
from .model import (
    Color,
    NetworkSpec,
    NormalizationMode,
    Statistics,
    _index,
    validate_network,
)

ColorVector = tuple[Color, ...]

RawEdges = list[tuple[int, int, complex, Color]]
AmplitudeOverrides = Mapping[tuple[int, int], complex]


def color_vector(value: Iterable[Color | str] | str | None, n: int) -> ColorVector:
    """Coerce 'udu...', sequences of Color, or None (all up) to length n."""
    if value is None:
        return (Color.UP,) * n
    try:
        items: Sequence = tuple(value)
    except TypeError:
        raise InvalidArgument(f"colors must be a string or an iterable, got {value!r}") from None
    if len(items) != n:
        raise BadLength(f"color vector has length {len(items)}, expected {n}")
    out = []
    for item in items:
        try:
            out.append(item if isinstance(item, Color) else Color(str(item)))
        except ValueError:
            raise InvalidArgument(f"color {item!r} is not 'u' or 'd'") from None
    return tuple(out)


def _apply_overrides(edges: RawEdges, amplitudes: AmplitudeOverrides | None) -> RawEdges:
    if not amplitudes:
        return edges
    known = {(a, j) for a, j, _, _ in edges}
    unknown = set(amplitudes) - known
    if unknown:
        raise InvalidArgument(f"amplitude overrides for absent edges: {sorted(unknown)}")
    return [
        (a, j, amplitudes.get((a, j), amp), color)
        for a, j, amp, color in edges
    ]


def design_ghz(n: int, colors: Iterable[Color | str] | str | None = None) -> NetworkSpec:
    """Loops plus one ring: exactly two matchings, giving |c> + |c⊕1>.

    The loop at vertex a carries color c_a; the ring edge a → a+1 (mod n)
    carries the flip of c_{a+1}. Every edge has amplitude 1/sqrt(2), which
    makes the output the balanced superposition.
    """
    n = _index(n, "n")
    if n < 2:
        raise BadLength(f"ring construction needs n >= 2, got {n}")
    c = color_vector(colors, n)
    amp = 1 / math.sqrt(2)
    edges: RawEdges = []
    for a in range(1, n + 1):
        succ = a % n + 1
        edges.append((a, a, amp, c[a - 1]))
        edges.append((a, succ, amp, c[succ - 1].flipped()))
    return validate_network(n, Statistics.BOSON, edges, NormalizationMode.STRICT)


def design_w(
    n: int,
    form: str = "star",
    colors: Iterable[Color | str] | str | None = None,
) -> NetworkSpec:
    """Hub-based W-state network in star or ring form: exactly n matchings.

    Star form: two-cycles hub ↔ a for every a >= 2. Ring form: hub edges
    1 → a plus the descending chain a → a-1, so the n matchings walk
    progressively longer cycles. In both forms every matching flips exactly
    one detector out of the loop pattern, and all n red edges leave the
    hub, as any superfluous-free W diagram must.

    With the default all-up colors the loop at the hub is red and the state
    is the standard uniform-magnitude W state.
    """
    n = _index(n, "n")
    if n < 3:
        raise BadLength(f"W construction needs n >= 3, got {n}")
    if form not in ("star", "ring"):
        raise InvalidArgument(f"form must be 'star' or 'ring', got {form!r}")
    c = color_vector(colors, n)
    hub_amp = 1 / math.sqrt(n)
    leaf_amp = 1 / math.sqrt(2)

    edges: RawEdges = [(1, 1, hub_amp, c[0].flipped())]
    for a in range(2, n + 1):
        edges.append((a, a, leaf_amp, c[a - 1]))
        edges.append((1, a, hub_amp, c[a - 1].flipped()))
        if form == "star":
            edges.append((a, 1, leaf_amp, c[0]))
        else:
            edges.append((a, a - 1, leaf_amp, c[a - 2]))
    return validate_network(n, Statistics.BOSON, edges, NormalizationMode.STRICT)


def _dicke_preset_n4() -> AmplitudeOverrides:
    s = 1 / math.sqrt(3)
    p = cmath.exp(1j * math.pi / 6)
    return {
        (1, 1): s, (2, 2): s, (3, 3): s, (4, 4): s,
        (1, 3): s * p, (3, 1): s / p,
        (1, 4): s / p, (4, 1): s * p,
        (2, 3): s / p, (3, 2): s * p,
        (2, 4): s * p, (4, 2): s / p,
    }


def _dicke_preset_n5() -> AmplitudeOverrides:
    half = 0.5
    w = cmath.exp(1j * math.pi / 3)
    amps = {
        (1, 1): half, (2, 2): half,
        (3, 3): half, (4, 4): half, (5, 5): half,
        (1, 3): half, (1, 4): half / w, (1, 5): half / w**2,
        (2, 3): half / w, (2, 4): half, (2, 5): half * w,
    }
    for (a, j) in list(amps):
        if a in (1, 2) and j >= 3:
            amps[(j, a)] = amps[(a, j)].conjugate()
    return amps


def design_dicke2(
    n: int,
    preset: str | None = None,
    amplitudes: AmplitudeOverrides | None = None,
) -> NetworkSpec:
    """Two red-loop hubs feeding two-cycles: the two-excitation Dicke family.

    Vertices 1 and 2 carry red loops; every other vertex k carries a blue
    loop and a two-cycle against each hub (red hub → k, blue k → hub). The
    strings with both excitations outside the hubs each collect four
    matchings whose sum factorizes, and the shipped presets for n=4 and
    n=5 choose phases that flatten all C(n,2) amplitudes to one magnitude.

    ``preset`` accepts "paper-n4" (n=4, row-normalized) or "paper-n5"
    (n=5, hub rows normalized only). Without a preset, amplitudes default
    to balanced row magnitudes, or to explicit per-edge overrides.
    """
    n = _index(n, "n")
    if n < 4:
        raise BadLength(f"two-excitation construction needs n >= 4, got {n}")
    hub_amp = 1 / math.sqrt(n - 1)
    leaf_amp = 1 / math.sqrt(3)
    edges: RawEdges = [
        (1, 1, hub_amp, Color.DOWN),
        (2, 2, hub_amp, Color.DOWN),
    ]
    for k in range(3, n + 1):
        edges.append((k, k, leaf_amp, Color.UP))
        for hub in (1, 2):
            edges.append((hub, k, hub_amp, Color.DOWN))
            edges.append((k, hub, leaf_amp, Color.UP))

    mode = NormalizationMode.STRICT
    if preset is not None:
        if amplitudes is not None:
            raise InvalidArgument("pass either preset or amplitudes, not both")
        if preset == "paper-n4":
            if n != 4:
                raise NoPresetForN(f"preset {preset!r} is defined for n=4, got {n}")
            amplitudes = _dicke_preset_n4()
        elif preset == "paper-n5":
            if n != 5:
                raise NoPresetForN(f"preset {preset!r} is defined for n=5, got {n}")
            amplitudes = _dicke_preset_n5()
            mode = NormalizationMode.DESIGN
        else:
            raise NoPresetForN(f"unknown preset {preset!r}")
    elif amplitudes is not None:
        mode = NormalizationMode.DESIGN

    edges = _apply_overrides(edges, amplitudes)
    return validate_network(n, Statistics.BOSON, edges, mode)


def design_cluster4() -> NetworkSpec:
    """Four-detector cluster-state network: two overlaid ring families.

    Blue loops everywhere, red two-cycles 1 ↔ 2 and 3 ↔ 4, and red edges
    2 → 3 and 4 → 1 closing the long four-cycle. The five matchings hit
    four strings; the |dddd> string receives two contributions which the
    shipped amplitudes (1/sqrt(2) on loops and two-cycles, i on the two
    closing edges) make interfere to the sign pattern (+, +, +, -), i.e.
    the standard four-partite cluster state after normalization. Rows are
    not normalizable here, so the network is in design mode.
    """
    r = 1 / math.sqrt(2)
    edges: RawEdges = [
        (1, 1, r, Color.UP),
        (2, 2, r, Color.UP),
        (3, 3, r, Color.UP),
        (4, 4, r, Color.UP),
        (1, 2, r, Color.DOWN),
        (2, 1, r, Color.DOWN),
        (3, 4, r, Color.DOWN),
        (4, 3, r, Color.DOWN),
        (2, 3, 1j, Color.DOWN),
        (4, 1, 1j, Color.DOWN),
    ]
    return validate_network(4, Statistics.BOSON, edges, NormalizationMode.DESIGN)


def preset_tritter() -> NetworkSpec:
    """Balanced three-mode mixer fed with two up-particles and one down.

    The transformation matrix is unitary; all six matchings survive and
    the three no-bunching strings come out with equal amplitudes, so the
    normalized state is a uniform W state (post-selection probability 1/9).
    """
    w = cmath.exp(2j * math.pi / 3)
    s = 1 / math.sqrt(3)
    rows = [
        [1, w, w**2],
        [w, 1, w**2],
        [1, 1, 1],
    ]
    edges: RawEdges = []
    for a in range(1, 4):
        color = Color.DOWN if a == 3 else Color.UP
        for j in range(1, 4):
            edges.append((a, j, s * rows[a - 1][j - 1], color))
    return validate_network(3, Statistics.BOSON, edges, NormalizationMode.STRICT)


def preset_beamsplitter(
    alpha1: complex,
    beta1: complex,
    alpha2: complex,
    beta2: complex,
    statistics: Statistics = Statistics.BOSON,
) -> NetworkSpec:
    """Two-particle crossing network with colors (up, down, down, up).

    Particle 1 reaches X1 as up and X2 as down; particle 2 reaches X1 as
    down and X2 as up. Each row must be normalized. Zero amplitudes drop
    the corresponding edge.
    """
    raw = [
        (1, 1, alpha1, Color.UP),
        (1, 2, beta1, Color.DOWN),
        (2, 1, alpha2, Color.DOWN),
        (2, 2, beta2, Color.UP),
    ]
    edges = [t for t in raw if t[2] != 0]
    return validate_network(2, statistics, edges, NormalizationMode.STRICT)
