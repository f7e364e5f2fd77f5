"""File formats and DOT rendering.

Network files are JSON:

    {"version": 1, "n": 3, "statistics": "boson", "mode": "strict",
     "edges": [{"from": 1, "to": 2,
                "amp": {"re": 0.5, "im": 0.0},   # or {"r": ..., "theta": ...}
                "color": "up"}]}

``version`` and ``mode`` may be omitted (mode defaults to strict; theta is
radians). States serialize with kets as 'u'/'d' strings sorted
lexicographically, so files are stable and diffable. Networks, states and
reports are written directly, byte for byte as ``json.dumps(doc,
indent=2)`` and a newline would write them, without the pure-Python
indenting encoder.

DOT export colors up edges blue and down edges red, matching the drawing
convention used throughout.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import Enum

from .entanglement import SeparabilityReport
from .errors import InvalidArgument, ParseError
from .graphs import diagram_of_network, walk_matchings
from .model import (
    DEFAULT_TOL,
    Color,
    NetworkSpec,
    Transition,
    _index,
    polar_amplitude,
    validate_network,
)
from .states import NoBunchState


def _number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParseError(f"{where}: amp {key} must be a number, got {value!r}")


def _parse_amp(obj, where: str) -> complex:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: amp must be an object")
    if set(obj) == {"re", "im"}:
        return complex(_number(obj, "re", where), _number(obj, "im", where))
    if set(obj) == {"r", "theta"}:
        return polar_amplitude(_number(obj, "r", where), _number(obj, "theta", where))
    raise ParseError(f"{where}: amp needs keys re/im or r/theta, got {sorted(obj)}")


_COLORS = {"up": Color.UP, "down": Color.DOWN}


def _parse_edge(edge, where: str) -> tuple[object, object, complex, Color]:
    """An edge object as (from, to, amplitude, color), its shape checked.

    The checks run in this order, and the first that fails raises
    ParseError: an object, each of the keys from, to, amp and color, the
    color, then the amplitude (an object, its keys, each part a number).
    """
    if not isinstance(edge, dict):
        raise ParseError(f"{where}: must be an object")
    for key in ("from", "to", "amp", "color"):
        if key not in edge:
            raise ParseError(f"{where}: missing key {key!r}")
    color = str(edge["color"])
    if color not in _COLORS:
        raise ParseError(f"{where}: color must be up or down, got {color!r}")
    return edge["from"], edge["to"], _parse_amp(edge["amp"], where), _COLORS[color]


def parse_network(text: str, row_tol: float = DEFAULT_TOL) -> NetworkSpec:
    """Parse and validate a network file.

    Errors are reported in file order, one at a time. The document's shape
    comes first (ParseError): valid JSON, an object, the keys n,
    statistics and edges, edges a list, the statistics and the mode. Then
    every edge's shape, edge by edge: an object, the keys from, to, amp and
    color, the color, the amplitude's keys and its parts. Only then does
    ``validate_network`` check what the values mean: ``n``, then each edge
    in turn, then the rows. So a shape defect in any edge is reported
    before a bad ``n`` or a meaning defect in an earlier edge.
    An edge with float re/im parts and an up/down color becomes a ``Transition``
    here, which ``validate_network`` keeps when its ends are ints: one record per edge.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int digit limit, nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("n", "statistics", "edges"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    if not isinstance(doc["edges"], list):
        raise ParseError("edges must be a list")

    statistics = str(doc["statistics"])
    if statistics not in ("boson", "fermion"):
        raise ParseError(f"statistics must be boson or fermion, got {statistics!r}")
    mode = str(doc.get("mode", "strict"))
    if mode not in ("strict", "design"):
        raise ParseError(f"mode must be strict or design, got {mode!r}")

    transitions = []
    add = transitions.append
    new = tuple.__new__
    for i, edge in enumerate(doc["edges"]):
        # an edge of the usual form, with a re/im amplitude of two floats,
        # takes lookups and exact-type tests only; any other edge (int or
        # polar parts, or a defect) goes through ``_parse_edge``, which
        # raises the first defect
        try:
            amp = edge["amp"]
            re, im = amp["re"], amp["im"]
            if type(re) is float and type(im) is float and len(amp) == 2:
                color = _COLORS[edge["color"]]
                add(new(Transition, (edge["from"], edge["to"], complex(re, im), color)))
                continue
        except (KeyError, TypeError):  # not an object, a missing key, a bad color
            pass
        add(_parse_edge(edge, f"edges[{i}]"))

    return validate_network(doc["n"], statistics, transitions, mode, row_tol=row_tol)


def serialize_network(spec: NetworkSpec) -> str:
    """JSON form of a network, as ``json.dumps(doc, indent=2)`` writes it,
    with a newline; amplitudes in Cartesian form, bit-exact.

    The document is ``{"version": 1, "n", "statistics", "mode", "edges":
    [{"from", "to", "amp": {"re", "im"}, "color"}]}``. It is written
    directly rather than through the pure-Python indenting encoder, as
    ``serialize_report`` is: a validated spec's amplitudes are finite
    complex numbers, so each part is the ``repr`` of a float, and every
    other value is an int or a fixed ASCII string.
    """
    up = Color.UP
    edges = [
        f'{{\n      "from": {t.source},\n      "to": {t.detector},\n'
        f'      "amp": {{\n        "re": {t.amplitude.real!r},\n'
        f'        "im": {t.amplitude.imag!r}\n      }},\n'
        f'      "color": "{"up" if t.color is up else "down"}"\n    }}'
        for t in spec.transitions
    ]
    return (
        f'{{\n  "version": 1,\n  "n": {spec.n},\n'
        f'  "statistics": "{spec.statistics.value}",\n'
        f'  "mode": "{spec.normalization_mode.value}",\n'
        f'  "edges": {_json_array(edges, "  ")}\n}}\n'
    )


def serialize_state(state: NoBunchState) -> str:
    """JSON form of a state, as ``json.dumps(doc, indent=2)`` writes it.

    The document is ``{"n", "normalized", "postselect_probability",
    "terms": [{"ket", "amp": {"re", "im"}}]}``. The terms are written
    directly rather than through the pure-Python indenting encoder: each
    part of an amplitude as the ``repr`` of a float, which is how ``json``
    writes a finite float (a state's amplitudes are finite; an int part is
    written as a float too). The output is built by one join, so no second
    copy of it is made.
    """
    head = (
        f'{{\n  "n": {state.n},\n  "normalized": {json.dumps(state.normalized)},\n'
        f'  "postselect_probability": {json.dumps(state.postselect_probability)},\n'
        '  "terms": ['
    )
    terms = [
        f'\n    {{\n      "ket": "{ket}",\n      "amp": {{\n'
        f'        "re": {float(amp.real)!r},\n        "im": {float(amp.imag)!r}\n      }}\n    }}'
        for ket, amp in state.sorted_terms()
    ]
    if not terms:
        return head + "]\n}\n"
    terms[0] = head + terms[0]
    terms[-1] += "\n  ]\n}\n"
    return ",".join(terms)


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of written ``items``, as ``json.dumps(indent=2)`` lays
    it out when the array itself sits at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _json_partition(partition) -> str:
    """A partition as the value of a top-level key of a report document."""
    return _json_array([_json_array([str(d) for d in block], "    ") for block in partition], "  ")


def serialize_report(report: SeparabilityReport) -> str:
    """JSON form of a separability report, as ``json.dumps(doc, indent=2)``
    writes it, with a newline.

    The document is ``{"lemma1_vertices": [{"vertex", "color"}],
    "lemma2_partition", "theorem1": {"color_condition_ok",
    "strongly_connected", "verdict"}, "numeric_finest_partition"}``, the
    last null when the report carries none (``analyze`` without
    ``--numeric``). It is written directly rather than through the
    pure-Python indenting encoder; every value is an int, a
    bool, null or one of a few fixed ASCII strings, so each is written as
    ``json`` writes it without escaping.
    """
    pinned = [
        f'{{\n      "vertex": {v},\n      "color": "{c.name.lower()}"\n    }}'
        for v, c in report.lemma1_vertices
    ]
    theorem1 = report.theorem1
    color_ok = ["true" if ok else "false" for ok in theorem1.color_condition_ok]
    numeric = report.numeric_finest_partition
    return (
        f'{{\n  "lemma1_vertices": {_json_array(pinned, "  ")},\n'
        f'  "lemma2_partition": {_json_partition(report.lemma2_partition)},\n'
        '  "theorem1": {\n'
        f'    "color_condition_ok": {_json_array(color_ok, "    ")},\n'
        f'    "strongly_connected": {"true" if theorem1.strongly_connected else "false"},\n'
        f'    "verdict": "{theorem1.verdict.value}"\n'
        "  },\n"
        '  "numeric_finest_partition": '
        f'{"null" if numeric is None else _json_partition(numeric)}\n'
        "}\n"
    )


class View(Enum):
    BIPARTITE = "bipartite"
    DIRECTED = "directed"
    PM_DIAGRAM = "pm_diagram"


class DotRenderOptions(namedtuple("DotRenderOptions", "view show_weights highlight_pm")):
    """What ``export_dot`` draws; a ``view`` that is not a View member
    raises InvalidArgument, also through ``_replace`` and ``_make``.

    Fields: ``view`` (View), ``show_weights`` (bool), ``highlight_pm``
    (matching index, or None).
    """

    __slots__ = ()

    def __new__(cls, view=View.BIPARTITE, show_weights=False, highlight_pm=None):
        if not isinstance(view, View):
            raise InvalidArgument(f"view must be a View member, got {view!r}")
        return super().__new__(cls, view, show_weights, highlight_pm)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def format_complex(z: complex, digits: int = 6) -> str:
    """Compact complex formatting: '0.5', '1i', '0.5-0.866i'."""
    re = f"{z.real:.{digits}g}"
    im = f"{abs(z.imag):.{digits}g}"
    if z.imag == 0:
        return re
    sign = "-" if z.imag < 0 else "+"
    if z.real == 0:
        return f"{'-' if z.imag < 0 else ''}{im}i"
    return f"{re}{sign}{im}i"


_DOT_COLOR = {Color.UP: "blue", Color.DOWN: "red"}


def _edge_attrs(color: Color, weight: complex, opts: DotRenderOptions, bold: bool) -> str:
    attrs = [f"color={_DOT_COLOR[color]}"]
    if opts.show_weights:
        attrs.append(f'label="{format_complex(weight)}"')
    if bold:
        attrs.append("penwidth=2.5")
    return ", ".join(attrs)


def _dot_bipartite(spec: NetworkSpec, opts: DotRenderOptions, marked: set) -> str:
    lines = ["graph network {", "  rankdir=LR;"]
    lines.append("  { rank=source; " + " ".join(f'"{a}";' for a in range(1, spec.n + 1)) + " }")
    lines.append(
        "  { rank=sink; " + " ".join(f'"X{j}";' for j in range(1, spec.n + 1)) + " }"
    )
    for t in sorted(spec.transitions, key=lambda t: (t.source, t.detector)):
        attrs = _edge_attrs(t.color, t.amplitude, opts, (t.source, t.detector) in marked)
        lines.append(f'  "{t.source}" -- "X{t.detector}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_directed(spec: NetworkSpec, opts: DotRenderOptions, marked: set) -> str:
    """The digraph on w_1..w_n with one edge w_a → w_j per transition a → X_j."""
    lines = ["digraph network {"]
    for v in range(1, spec.n + 1):
        lines.append(f'  "w{v}";')
    for t in sorted(spec.transitions, key=lambda t: (t.source, t.detector)):
        attrs = _edge_attrs(t.color, t.amplitude, opts, (t.source, t.detector) in marked)
        lines.append(f'  "w{t.source}" -> "w{t.detector}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _matching_pairs(spec: NetworkSpec, index: int) -> set[tuple[int, int]]:
    """(particle, detector) pairs of matching ``index`` in lexicographic order.

    The walk stops at that matching; only an index past the last one walks
    to the end, counting them for the error. An index that is not an
    integer (floats, bools and numeric strings included) raises
    IndexOutOfRange.
    """
    index = _index(index, "matching index")
    if index < 0:
        raise InvalidArgument(f"matching index {index} out of range (must be >= 0)")
    found = 0
    for found, (assignment, _, _) in enumerate(walk_matchings(spec), start=1):
        if found == index + 1:
            return set(enumerate(assignment, start=1))
    raise InvalidArgument(f"matching index {index} out of range ({found} found)")


def export_dot(spec: NetworkSpec, opts: DotRenderOptions = DotRenderOptions()) -> str:
    """Render a network as DOT text; deterministic edge order.

    The view is chosen by ``opts.view``, with matching ``opts.highlight_pm``
    (an index into the lexicographic matching order) drawn bold when given.
    """
    marked: set = set()
    if opts.highlight_pm is not None:
        marked = _matching_pairs(spec, opts.highlight_pm)
    if opts.view is View.BIPARTITE:
        return _dot_bipartite(spec, opts, marked)
    if opts.view is View.DIRECTED:
        return _dot_directed(spec, opts, marked)
    diag = diagram_of_network(spec)
    relabeled_marked = set()
    if marked:
        slot_of = {d: v for v, d in enumerate(diag.relabeling, start=1)}
        relabeled_marked = {(a, slot_of[j]) for a, j in marked}
    return _dot_directed(diag.network, opts, relabeled_marked)
