"""File formats and DOT rendering."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lqngraph import io, model
from lqngraph.designers import (
    design_cluster4,
    design_dicke2,
    design_ghz,
    design_w,
    preset_beamsplitter,
    preset_tritter,
)
from lqngraph.entanglement import build_report
from lqngraph.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidArgument,
    LQNError,
    NonFiniteValue,
    ParseError,
    RowNotNormalized,
    ZeroAmplitude,
)
from lqngraph.graphs import diagram_of_network
from lqngraph.io import (
    DotRenderOptions,
    View,
    export_dot,
    format_complex,
    parse_network,
    serialize_network,
    serialize_report,
    serialize_state,
)
from lqngraph.model import Color, NetworkSpec, Transition, validate_network
from lqngraph.states import (
    NoBunchState,
    assemble_network_state,
    max_amplitude_difference,
    normalize,
)

from conftest import brute_force_assignments, n5_network, networks, random_network_with_pm


#: JSON scalars of every type, with floats that overflow when squared and
#: ints too large for a float; ints stay short enough for json.dumps
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e200, -1e200, 1.7976931348623157e308, 5e-324]),
    st.text(max_size=6),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
#: ``n`` is an int of at most 16 or not an int at all, since the strict
#: row check allocates one float per detector
N_VALUES = st.one_of(
    st.integers(-2, 16),
    JSON.filter(lambda v: not isinstance(v, int) or isinstance(v, bool)),
)


@st.composite
def network_documents(draw):
    """A network file's JSON with up to four keys dropped or set to any value.

    The keys are drawn from the top level, an edge or an amplitude, so
    every layer of the format gets broken.
    """
    n = draw(st.integers(1, 6), label="n")
    edges = []
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    for a, j in draw(st.lists(pairs, max_size=5, unique=True)):
        parts = ("re", "im") if draw(st.booleans()) else ("r", "theta")
        amp = {k: draw(st.floats(-2, 2)) for k in parts}
        color = draw(st.sampled_from(["up", "down"]))
        edges.append({"from": a, "to": j, "amp": amp, "color": color})
    doc = {
        "version": 1,
        "n": n,
        "statistics": draw(st.sampled_from(["boson", "fermion"])),
        "mode": draw(st.sampled_from(["strict", "design"])),
        "edges": edges,
    }
    holders = [doc] + edges + [e["amp"] for e in edges]
    for _ in range(draw(st.integers(0, 4), label="changes")):
        holder = draw(st.sampled_from(holders))
        key = draw(st.sampled_from(sorted(holder) or ["n"]))
        if draw(st.booleans()):
            holder.pop(key, None)
        else:
            holder[key] = draw(N_VALUES if holder is doc and key == "n" else JSON)
    return doc if draw(st.integers(0, 9)) else draw(JSON)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network_documents())
@example(
    {
        "n": 1,
        "statistics": "boson",
        "edges": [{"from": 1, "to": 1, "amp": {"re": 1e200, "im": 0}, "color": "up"}],
    }
)
def test_any_document_parses_or_raises_lqn_error(doc):
    try:
        spec = parse_network(json.dumps(doc))
    except LQNError:
        return
    assert isinstance(spec, NetworkSpec)


@pytest.mark.parametrize("text", [None, 3, ["{}"]], ids=["none", "int", "list"])
def test_text_that_is_not_a_string_is_a_parse_error(text):
    # json.loads raises TypeError on a value that is not text
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_network(text)


#: marks a change that removes a key or list item in ``contract_document``
DROP = object()


def contract_document(*changes) -> str:
    """A valid strict network file with ``changes`` applied, as JSON text.

    Each change is ``(path, value)``: the value at ``path`` (keys and list
    indices from the top) is set to ``value``, or removed when ``value`` is
    ``DROP``. The file has four edges, every row sums to 1 within 1e-9, and
    its amplitudes come in both re/im and r/theta form.
    """
    doc = {
        "version": 1,
        "n": 3,
        "statistics": "boson",
        "mode": "strict",
        "edges": [
            {"from": 1, "to": 1, "amp": {"re": 0.6, "im": 0.0}, "color": "up"},
            {"from": 1, "to": 2, "amp": {"re": 0.0, "im": 0.8}, "color": "down"},
            {"from": 2, "to": 2, "amp": {"r": 1.0, "theta": 0.5}, "color": "up"},
            {"from": 3, "to": 3, "amp": {"re": -1.0, "im": 0.0}, "color": "down"},
        ],
    }
    for path, value in changes:
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        if value is DROP:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    return json.dumps(doc)

#: one document per check of ``parse_network``, each with its defect in an
#: edge after the first, and the exact error it must raise; then documents
#: with two defects, which pin the one that is reported
ERROR_CONTRACT = {
    # edge shape
    "edge-not-an-object": (
        [(("edges", 1), [1, 2])], ParseError, "edges[1]: must be an object"
    ),
    "edge-missing-from": (
        [(("edges", 1, "from"), DROP)], ParseError, "edges[1]: missing key 'from'"
    ),
    "edge-missing-to": (
        [(("edges", 2, "to"), DROP)], ParseError, "edges[2]: missing key 'to'"
    ),
    "edge-missing-amp": (
        [(("edges", 3, "amp"), DROP)], ParseError, "edges[3]: missing key 'amp'"
    ),
    "edge-missing-color": (
        [(("edges", 1, "color"), DROP)], ParseError, "edges[1]: missing key 'color'"
    ),
    "edge-bad-color": (
        [(("edges", 1, "color"), "left")],
        ParseError,
        "edges[1]: color must be up or down, got 'left'",
    ),
    "edge-color-not-a-string": (
        [(("edges", 2, "color"), ["up"])],
        ParseError,
        "edges[2]: color must be up or down, got \"['up']\"",
    ),
    "amp-not-an-object": (
        [(("edges", 1, "amp"), 0.8)], ParseError, "edges[1]: amp must be an object"
    ),
    "amp-keys-missing-im": (
        [(("edges", 1, "amp", "im"), DROP)],
        ParseError,
        "edges[1]: amp needs keys re/im or r/theta, got ['re']",
    ),
    "amp-keys-extra": (
        [(("edges", 1, "amp", "theta"), 0.0)],
        ParseError,
        "edges[1]: amp needs keys re/im or r/theta, got ['im', 're', 'theta']",
    ),
    "amp-re-a-string": (
        [(("edges", 1, "amp", "re"), "0")],
        ParseError,
        "edges[1]: amp re must be a number, got '0'",
    ),
    "amp-im-a-bool": (
        [(("edges", 3, "amp", "im"), False)],
        ParseError,
        "edges[3]: amp im must be a number, got False",
    ),
    "amp-theta-null": (
        [(("edges", 2, "amp", "theta"), None)],
        ParseError,
        "edges[2]: amp theta must be a number, got None",
    ),
    "amp-re-beyond-float": (
        [(("edges", 1, "amp", "re"), 10**310)],
        ParseError,
        f"edges[1]: amp re must be a number, got {10**310!r}",
    ),
    # meaning
    "source-a-bool": (
        [(("edges", 1, "from"), True)],
        IndexOutOfRange,
        "transition source must be an integer, got True",
    ),
    "detector-a-float": (
        [(("edges", 1, "to"), 2.0)],
        IndexOutOfRange,
        "transition detector must be an integer, got 2.0",
    ),
    "detector-out-of-range": (
        [(("edges", 1, "to"), 4)], IndexOutOfRange, "transition (1, 4) outside 1..3"
    ),
    "source-zero": (
        [(("edges", 2, "from"), 0)], IndexOutOfRange, "transition (0, 2) outside 1..3"
    ),
    "duplicate-pair": (
        [(("edges", 1, "to"), 1)], DuplicateEdge, "more than one transition on (1, 1)"
    ),
    "zero-amplitude": (
        [(("edges", 1, "amp"), {"re": 0.0, "im": 0})],
        ZeroAmplitude,
        "transition (1, 2) has zero amplitude",
    ),
    "int-amplitude-parts": (
        [(("edges", 3, "amp"), {"re": 0, "im": 0})],
        ZeroAmplitude,
        "transition (3, 3) has zero amplitude",
    ),
    "non-finite-amplitude": (
        [(("edges", 1, "amp", "re"), math.inf)],
        NonFiniteValue,
        "transition (1, 2) has amplitude (inf+0.8j)",
    ),
    "huge-amplitude": (
        [(("edges", 1, "amp", "im"), 1e200)],
        RowNotNormalized,
        "row 1: squared amplitudes sum to inf, expected 1",
    ),
    "empty-row": (
        [(("edges", 2), DROP)],
        RowNotNormalized,
        "row 2: squared amplitudes sum to 0.0, expected 1",
    ),
    "unnormalized-row": (
        [(("edges", 1, "amp", "im"), 0.5)],
        RowNotNormalized,
        "row 1: squared amplitudes sum to 0.61, expected 1",
    ),
    "n-a-string": ([(("n",), "3")], IndexOutOfRange, "n must be an integer, got '3'"),
    # two defects
    "shape-before-meaning": (
        [(("edges", 1, "to"), 1), (("edges", 3, "color"), "left")],
        ParseError,
        "edges[3]: color must be up or down, got 'left'",
    ),
    "shape-before-bad-n": (
        [(("n",), "3"), (("edges", 3, "amp"), 1.0)],
        ParseError,
        "edges[3]: amp must be an object",
    ),
    "earlier-shape-first": (
        [(("edges", 2, "amp", "r"), "1"), (("edges", 1, "color"), "left")],
        ParseError,
        "edges[1]: color must be up or down, got 'left'",
    ),
    "missing-key-before-color": (
        [(("edges", 1, "color"), "left"), (("edges", 1, "to"), DROP)],
        ParseError,
        "edges[1]: missing key 'to'",
    ),
    "color-before-amp": (
        [(("edges", 2, "color"), "left"), (("edges", 2, "amp"), None)],
        ParseError,
        "edges[2]: color must be up or down, got 'left'",
    ),
    "earlier-meaning-first": (
        [(("edges", 3, "to"), 9), (("edges", 1, "to"), 1)],
        DuplicateEdge,
        "more than one transition on (1, 1)",
    ),
    "edge-before-row": (
        [(("edges", 1, "amp", "im"), 0.5), (("edges", 3, "amp"), {"re": 0.0, "im": 0.0})],
        ZeroAmplitude,
        "transition (3, 3) has zero amplitude",
    ),
    "lowest-row-first": (
        [(("edges", 3, "amp", "re"), 2.0), (("edges", 1, "amp", "im"), 0.5)],
        RowNotNormalized,
        "row 1: squared amplitudes sum to 0.61, expected 1",
    ),
}


@pytest.mark.parametrize(
    "changes, error, message", ERROR_CONTRACT.values(), ids=ERROR_CONTRACT.keys()
)
def test_file_error_contract(changes, error, message):
    # the exact class and message, and so which defect is reported first
    text = contract_document(*changes)
    with pytest.raises(LQNError) as info:
        parse_network(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_contract_document_is_valid():
    spec = parse_network(contract_document())
    assert [(t.source, t.detector) for t in spec.transitions] == [(1, 1), (1, 2), (2, 2), (3, 3)]


class TestParseNetwork:
    def test_roundtrip_is_identity(self):
        spec = n5_network()
        assert parse_network(serialize_network(spec)) == spec

    def test_tritter_fixture_matches_preset(self, fixtures_dir):
        parsed = parse_network((fixtures_dir / "tritter.json").read_text())
        diff = max_amplitude_difference(
            assemble_network_state(parsed), assemble_network_state(preset_tritter())
        )
        assert diff < 1e-15

    def test_n5_fixture_has_fourteen_edges(self, fixtures_dir):
        spec = parse_network((fixtures_dir / "n5_example.json").read_text())
        assert spec.n == 5
        assert len(spec.transitions) == 14

    def test_exact_typed_document_takes_the_fast_path(self, monkeypatch):
        # int indices, float re/im parts and up/down colors: no edge is
        # coerced, and each becomes the one Transition the spec keeps
        spec = design_w(6, form="ring", colors="udduud")
        text = serialize_network(spec)

        def refuse(*args):
            raise AssertionError("the fast path coerced a value")

        for module, name in [
            (io, "_parse_edge"),
            (model, "_index"),
            (model, "_amplitude"),
            (model, "_coerce_color"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        parsed = parse_network(text)
        assert parsed == spec
        assert all(type(t) is Transition for t in parsed.transitions)

    def test_polar_amplitudes(self):
        doc = {
            "n": 1,
            "statistics": "boson",
            "mode": "design",
            "edges": [
                {"from": 1, "to": 1, "amp": {"r": 2.0, "theta": math.pi}, "color": "up"}
            ],
        }
        spec = parse_network(json.dumps(doc))
        assert spec.transitions[0].amplitude == pytest.approx(-2.0)

    def test_bad_color_rejected(self):
        doc = {
            "n": 1,
            "statistics": "boson",
            "edges": [
                {"from": 1, "to": 1, "amp": {"re": 1.0, "im": 0.0}, "color": "left"}
            ],
        }
        with pytest.raises(ParseError):
            parse_network(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError):
            parse_network("{not json")

    def test_missing_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_network(json.dumps({"n": 1, "statistics": "boson"}))
        with pytest.raises(ParseError):
            parse_network(
                json.dumps(
                    {"n": 1, "statistics": "boson", "edges": [{"from": 1, "to": 1}]}
                )
            )

    def test_bad_amp_keys_rejected(self):
        doc = {
            "n": 1,
            "statistics": "boson",
            "edges": [{"from": 1, "to": 1, "amp": {"mag": 1.0}, "color": "up"}],
        }
        with pytest.raises(ParseError):
            parse_network(json.dumps(doc))

    def test_model_errors_pass_through(self):
        doc = {
            "n": 1,
            "statistics": "boson",
            "mode": "design",
            "edges": [
                {"from": 1, "to": 1, "amp": {"re": 1.0, "im": 0.0}, "color": "up"},
                {"from": 1, "to": 1, "amp": {"re": 0.5, "im": 0.0}, "color": "up"},
            ],
        }
        with pytest.raises(DuplicateEdge):
            parse_network(json.dumps(doc))

    def test_mode_defaults_to_strict(self):
        doc = {
            "n": 1,
            "statistics": "boson",
            "edges": [
                {"from": 1, "to": 1, "amp": {"re": 0.5, "im": 0.0}, "color": "up"}
            ],
        }
        with pytest.raises(Exception, match="squared amplitudes"):
            parse_network(json.dumps(doc))


def json_state(state: NoBunchState) -> str:
    """Reference serializer: the state document through ``json.dumps``."""
    doc = {
        "n": state.n,
        "normalized": state.normalized,
        "postselect_probability": state.postselect_probability,
        "terms": [
            {"ket": ket, "amp": {"re": amp.real, "im": amp.imag}}
            for ket, amp in state.sorted_terms()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


#: float parts of amplitudes: any finite float, the extremes of the float
#: range, signed zero and integer-valued floats
AMP_PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -2.0]),
    st.integers(-(2**60), 2**60).map(float),
)


@st.composite
def states(draw):
    n = draw(st.integers(1, 12))
    kets = draw(st.lists(st.text("ud", min_size=n, max_size=n), max_size=8, unique=True))
    # numpy's complex, whose parts repr as np.float64(...), is written the same
    kind = draw(st.sampled_from([complex, np.complex128]))
    amplitudes = {ket: kind(draw(AMP_PARTS), draw(AMP_PARTS)) for ket in kets}
    return NoBunchState(
        n,
        amplitudes,
        normalized=draw(st.booleans()),
        postselect_probability=draw(
            st.none() | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
        ),
    )


def json_network(spec: NetworkSpec) -> str:
    """Reference serializer: the network document through ``json.dumps``."""
    doc = {
        "version": 1,
        "n": spec.n,
        "statistics": spec.statistics.value,
        "mode": spec.normalization_mode.value,
        "edges": [
            {
                "from": t.source,
                "to": t.detector,
                "amp": {"re": t.amplitude.real, "im": t.amplitude.imag},
                "color": "up" if t.color is Color.UP else "down",
            }
            for t in spec.transitions
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _colors(n):
    return st.none() | st.text("ud", min_size=n, max_size=n)


#: every designer family, at sizes and with colors drawn
DESIGNED = st.one_of(
    st.integers(2, 40).flatmap(lambda n: st.builds(design_ghz, st.just(n), _colors(n))),
    st.integers(3, 40).flatmap(
        lambda n: st.builds(design_w, st.just(n), st.sampled_from(["star", "ring"]), _colors(n))
    ),
    st.sampled_from(
        [
            design_dicke2(4, preset="paper-n4"),
            design_dicke2(5, preset="paper-n5"),
            design_dicke2(7),
            design_cluster4(),
            preset_tritter(),
            preset_beamsplitter(0.6, 0.8j, -0.8j, -0.6),
        ]
    ),
)


class TestSerializeNetwork:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(max_n=9, modes=("design", "strict")) | DESIGNED)
    @example(validate_network(2, "fermion", [], "design"))
    @example(
        validate_network(
            2,
            "boson",
            [(1, 2, complex(5e-324, -1e308), "d"), (2, 1, complex(-0.0, 2.0**60), "u")],
            "design",
        )
    )
    def test_matches_json_dumps(self, spec):
        assert serialize_network(spec) == json_network(spec)


class TestSerializeState:
    @settings(max_examples=300)
    @given(states())
    def test_matches_json_dumps(self, state):
        assert serialize_state(state) == json_state(state)

    def test_terms_sorted_by_ket(self):
        state = normalize(assemble_network_state(preset_tritter()))
        doc = json.loads(serialize_state(state))
        kets = [term["ket"] for term in doc["terms"]]
        assert kets == sorted(kets) == ["duu", "udu", "uud"]
        assert doc["normalized"] is True
        assert doc["postselect_probability"] == pytest.approx(1 / 9)

    def test_unnormalized_state_has_null_probability(self):
        state = assemble_network_state(preset_tritter())
        doc = json.loads(serialize_state(state))
        assert doc["postselect_probability"] is None


def json_report(report) -> str:
    """Reference serializer: the report document through ``json.dumps``."""
    doc = {
        "lemma1_vertices": [
            {"vertex": v, "color": c.name.lower()} for v, c in report.lemma1_vertices
        ],
        "lemma2_partition": [list(b) for b in report.lemma2_partition],
        "theorem1": {
            "color_condition_ok": list(report.theorem1.color_condition_ok),
            "strongly_connected": report.theorem1.strongly_connected,
            "verdict": report.theorem1.verdict.value,
        },
        "numeric_finest_partition": (
            None
            if report.numeric_finest_partition is None
            else [list(b) for b in report.numeric_finest_partition]
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


def _analyze_report(spec, numeric):
    """The report ``analyze`` serializes; ``numeric`` is the value of
    ``--numeric``, and None, as without the flag, blanks the partition."""
    report = build_report(spec)
    return report if numeric is not None else report._replace(numeric_finest_partition=None)


class TestSerializeReport:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(networks(max_n=7, modes=("design", "strict")), st.none() | st.just(0))
    def test_matches_json_dumps(self, spec, numeric):
        # a loop on every vertex that lacks one gives the network a perfect
        # matching, so every drawn network has a report
        loops = [
            (a, a, 1.0, "u")
            for a in range(1, spec.n + 1)
            if (a, a) not in spec.transition_map()
        ]
        edges = [(t.source, t.detector, t.amplitude, t.color) for t in spec.transitions]
        spec = validate_network(spec.n, spec.statistics, edges + loops, "design")
        report = _analyze_report(spec, numeric)
        assert serialize_report(report) == json_report(report)

    @pytest.mark.parametrize(
        "spec, numeric",
        [
            (preset_tritter(), None),
            (n5_network(), 3),
            (design_ghz(40, colors="ud" * 20), None),
        ],
    )
    def test_designer_reports_match_json_dumps(self, spec, numeric):
        report = _analyze_report(spec, numeric)
        assert serialize_report(report) == json_report(report)


class TestDot:
    def test_directed_view_color_counts(self):
        dot = export_dot(n5_network(), DotRenderOptions(view=View.DIRECTED))
        assert dot.startswith("digraph")
        assert dot.count("color=red") == 7
        assert dot.count("color=blue") == 7
        assert '"w2" -> "w2"' in dot

    def test_pm_diagram_has_eleven_edges(self):
        dot = export_dot(n5_network(), DotRenderOptions(view=View.PM_DIAGRAM))
        assert dot.count("->") == 11

    def test_bipartite_is_undirected_with_ranks(self):
        dot = export_dot(n5_network(), DotRenderOptions(view=View.BIPARTITE))
        assert dot.startswith("graph")
        assert "rank=source" in dot and "rank=sink" in dot
        assert dot.count(" -- ") == 14

    def test_byte_identical_across_runs(self):
        spec = n5_network()
        opts = DotRenderOptions(view=View.DIRECTED, show_weights=True)
        assert export_dot(spec, opts) == export_dot(spec, opts)

    def test_input_edge_order_does_not_matter(self):
        spec = n5_network()
        edges = [(t.source, t.detector, t.amplitude, t.color) for t in spec.transitions]
        shuffled = validate_network(5, spec.statistics, edges[::-1], "strict")
        for view in View:
            opts = DotRenderOptions(view=view, show_weights=True, highlight_pm=3)
            assert export_dot(shuffled, opts) == export_dot(spec, opts)

    def test_weights_and_highlight(self):
        spec = preset_tritter()
        opts = DotRenderOptions(
            view=View.BIPARTITE, show_weights=True, highlight_pm=0
        )
        dot = export_dot(spec, opts)
        assert "label=" in dot
        assert dot.count("penwidth=2.5") == 3

    def test_isolated_nodes_shown_without_edges(self):
        dot = export_dot(
            validate_network(2, "boson", [], "design"),
            DotRenderOptions(view=View.DIRECTED),
        )
        assert '"w1";' in dot and '"w2";' in dot

    @pytest.mark.parametrize("view", ["x", "pm_diagram", None])
    def test_view_that_is_not_a_view_member_is_refused(self, view):
        with pytest.raises(InvalidArgument, match="view must be a View member"):
            export_dot(preset_tritter(), DotRenderOptions(view=view))

    def test_highlight_out_of_range(self):
        with pytest.raises(InvalidArgument):
            export_dot(
                preset_tritter(),
                DotRenderOptions(view=View.BIPARTITE, highlight_pm=6),
            )

    @pytest.mark.parametrize("index", [-1, 99])
    def test_highlight_out_of_range_is_an_lqn_error(self, index):
        with pytest.raises(InvalidArgument):
            export_dot(
                preset_tritter(),
                DotRenderOptions(view=View.PM_DIAGRAM, highlight_pm=index),
            )

    @pytest.mark.parametrize("index", ["1", True, 1.5])
    def test_highlight_that_is_not_an_integer_is_refused(self, index, monkeypatch):
        # read as the numeric seed is: no walk, and True is not matching 1
        monkeypatch.setattr(io, "walk_matchings", None)
        for view in View:
            with pytest.raises(IndexOutOfRange, match="matching index must be an integer"):
                export_dot(preset_tritter(), DotRenderOptions(view=view, highlight_pm=index))

    @pytest.mark.parametrize(
        "spec",
        [preset_tritter(), n5_network()]
        + [
            random_network_with_pm(np.random.default_rng(seed), n)
            for n in range(1, 6)
            for seed in (n, 10 + n)
        ],
    )
    def test_highlight_marks_the_kth_matching(self, spec):
        # every view marks the K-th assignment in lexicographic order; an
        # index past the last is refused with the matching count, and a
        # negative one before any matching is counted
        expected = brute_force_assignments(spec)
        relabeling = diagram_of_network(spec).relabeling
        for view in View:
            for k, perm in enumerate(expected):
                dot = export_dot(spec, DotRenderOptions(view=view, highlight_pm=k))
                marked = {
                    tuple(int(v) for v in re.findall(r'"[wX]?(\d+)"', line))
                    for line in dot.splitlines()
                    if "penwidth=2.5" in line
                }
                if view is View.PM_DIAGRAM:
                    marked = {(a, relabeling[v - 1]) for a, v in marked}
                assert marked == set(enumerate(perm, start=1))
            count = len(expected)
            for k, message in (
                (count, f"matching index {count} out of range ({count} found)"),
                (-1, "matching index -1 out of range (must be >= 0)"),
            ):
                with pytest.raises(InvalidArgument, match=re.escape(message)):
                    export_dot(spec, DotRenderOptions(view=view, highlight_pm=k))


def test_format_complex():
    assert format_complex(0.5 + 0j) == "0.5"
    assert format_complex(1j) == "1i"
    assert format_complex(-1j) == "-1i"
    assert format_complex(0.5 - 0.25j) == "0.5-0.25i"
