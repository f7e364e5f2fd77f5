"""File formats and DOT rendering."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lqngraph import io
from lqngraph.designers import preset_tritter
from lqngraph.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidArgument,
    LQNError,
    ParseError,
)
from lqngraph.graphs import diagram_of_network
from lqngraph.io import (
    DotRenderOptions,
    View,
    export_dot,
    format_complex,
    parse_network,
    serialize_network,
    serialize_state,
)
from lqngraph.model import NetworkSpec, validate_network
from lqngraph.states import (
    NoBunchState,
    assemble_network_state,
    max_amplitude_difference,
    normalize,
)

from conftest import brute_force_assignments, n5_network, random_network_with_pm


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
        postselect_probability=draw(st.none() | st.floats()),
    )


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
