"""File formats and DOT rendering."""

import json
import math
import re

import numpy as np
import pytest

from lqngraph.designers import preset_tritter
from lqngraph.errors import DuplicateEdge, InvalidArgument, ParseError
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
from lqngraph.model import validate_network
from lqngraph.states import assemble_network_state, max_amplitude_difference, normalize

from conftest import brute_force_assignments, n5_network, random_network_with_pm


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


class TestSerializeState:
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
        diag = diagram_of_network(n5_network())
        dot = export_dot(diag, DotRenderOptions(view=View.PM_DIAGRAM))
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

    def test_view_mismatch_rejected(self):
        diag = diagram_of_network(preset_tritter())
        with pytest.raises(InvalidArgument):
            export_dot(diag, DotRenderOptions(view=View.DIRECTED))

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
        # every view marks the K-th assignment in lexicographic order, and
        # an index outside 0..count-1 is refused with the matching count
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
            for k in (len(expected), -1):
                message = f"matching index {k} out of range ({len(expected)} found)"
                with pytest.raises(InvalidArgument, match=re.escape(message)):
                    export_dot(spec, DotRenderOptions(view=view, highlight_pm=k))


def test_format_complex():
    assert format_complex(0.5 + 0j) == "0.5"
    assert format_complex(1j) == "1i"
    assert format_complex(-1j) == "-1i"
    assert format_complex(0.5 - 0.25j) == "0.5-0.25i"
