"""Command-line surface: subcommands, exit codes, output shapes."""

import json
import math

import numpy as np
import pytest

import lqngraph.cli as cli
from lqngraph.designers import design_ghz, design_w
from lqngraph.io import parse_network, serialize_network
from lqngraph.model import validate_network
from lqngraph.states import NoBunchState


def run(capsys, *argv):
    code = cli.cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_text_output(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "compute", str(fixtures_dir / "tritter.json"))
        assert code == 0
        assert "post-selection probability: 0.111111111111" in out
        assert out.count("|") == 3
        assert "↑↑↓" in out

    def test_json_output(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "compute", "--json", str(fixtures_dir / "tritter.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert [t["ket"] for t in doc["terms"]] == ["duu", "udu", "uud"]
        amp = doc["terms"][0]["amp"]
        assert abs(complex(amp["re"], amp["im"])) == pytest.approx(1 / math.sqrt(3))

    def test_zero_state_is_a_validation_error(self, capsys, tmp_path):
        h = 1 / math.sqrt(2)
        doc = {
            "n": 2,
            "statistics": "fermion",
            "edges": [
                {"from": a, "to": j, "amp": {"re": h, "im": 0.0}, "color": "up"}
                for a in (1, 2)
                for j in (1, 2)
            ],
        }
        path = tmp_path / "cancel.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compute", str(path))
        assert code == cli.EXIT_VALIDATION
        assert "zero norm" in err

    @pytest.mark.parametrize("family, n", [("ghz", 2048), ("w", 200)])
    def test_large_rings_give_closed_forms(self, capsys, tmp_path, family, n):
        # the weight 2**(1-n) falls below any absolute norm floor; at n=2048
        # the plain sum of squares, like the closed form, underflows to 0.0
        if family == "ghz":
            spec = design_ghz(n)
            want = {"u" * n: 2**-0.5, "d" * n: 2**-0.5}
        else:
            spec = design_w(n, form="ring")
            want = {"u" * k + "d" + "u" * (n - k - 1): n**-0.5 for k in range(n)}
        prob = 2.0 ** (1 - n)
        path = tmp_path / "ring.json"
        path.write_text(serialize_network(spec))
        code, out, err = run(capsys, "compute", "--json", str(path))
        assert code == 0, err
        doc = json.loads(out)
        got = {t["ket"]: complex(t["amp"]["re"], t["amp"]["im"]) for t in doc["terms"]}
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-12
        assert doc["postselect_probability"] == pytest.approx(prob, rel=1e-9, abs=0)


def _strict_json(text):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    return json.loads(text, parse_constant=reject)


class TestComputeJsonIsStrict:
    @pytest.mark.parametrize("name", ["n5_example.json", "tritter.json"])
    def test_fixture_output_is_standard_json(self, capsys, fixtures_dir, name):
        code, out, _ = run(capsys, "compute", "--json", str(fixtures_dir / name))
        assert code == 0
        assert _strict_json(out)["terms"]

    def test_norm_overflow_is_validation_error(self, capsys, tmp_path):
        doc = {
            "n": 1,
            "statistics": "boson",
            "mode": "design",
            "edges": [
                {"from": 1, "to": 1, "amp": {"re": 1e300, "im": 0.0}, "color": "up"}
            ],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compute", "--json", str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error:")


def _block_union(specs, detector_order):
    """Disjoint union of networks with detectors relabeled by ``detector_order``.

    Returns the union, in design mode, and its planted detector blocks. One
    forward edge from the first block into the second lies in no perfect
    matching and must not merge them.
    """
    edges, blocks, offset = [], [], 0
    for spec in specs:
        for t in spec.transitions:
            edges.append((
                t.source + offset,
                detector_order[t.detector + offset - 1],
                t.amplitude,
                t.color,
            ))
        blocks.append(sorted(detector_order[offset:offset + spec.n]))
        offset += spec.n
    edges.append((1, detector_order[specs[0].n], 0.5, "d"))
    union = validate_network(offset, "fermion", edges, "design")
    return union, sorted(blocks)


class TestAnalyze:
    def test_structural_and_numeric_text(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "analyze", "--numeric", "3",
            str(fixtures_dir / "n5_example.json"),
        )
        assert code == 0
        assert "w3 -> X3 pinned to ↑" in out
        assert "guaranteed separability blocks: (X1,X3,X4) | (X2,X5)" in out
        assert "strongly connected: no" in out
        assert "verdict: cannot_be_genuine" in out
        assert "numeric finest partition (seed 3): (X1,X4) | (X2,X5) | (X3)" in out

    def test_json_report(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "analyze", str(fixtures_dir / "n5_example.json"),
            "--json", "--numeric",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lemma1_vertices"] == [{"vertex": 3, "color": "up"}]
        assert doc["lemma2_partition"] == [[1, 3, 4], [2, 5]]
        assert doc["theorem1"]["verdict"] == "cannot_be_genuine"
        assert doc["numeric_finest_partition"] == [[1, 4], [2, 5], [3]]

    def test_numeric_partition_beyond_ten_detectors(self, capsys, tmp_path):
        # each PM-diagram component is split on its own, so only components
        # are bound by the ten-detector limit, not the whole network
        specs = [design_w(4, form="ring")] + [
            design_ghz(3, colors=c) for c in ("uud", "udu", "duu", "ddd")
        ]
        order = [int(d) for d in np.random.default_rng(4).permutation(16) + 1]
        union, planted = _block_union(specs, order)
        path = tmp_path / "blocks.json"
        path.write_text(serialize_network(union))
        code, out, err = run(capsys, "analyze", str(path), "--numeric", "1", "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["lemma2_partition"] == planted
        assert doc["numeric_finest_partition"] == planted

    def test_component_beyond_limit_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "w12.json"
        path.write_text(serialize_network(design_w(12, form="ring")))
        code, out, err = run(capsys, "analyze", str(path), "--numeric", "1", "--json")
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "n=12 exceeds" in err


class TestPMDiagram:
    def test_removed_edges_listed(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "pm-diagram", str(fixtures_dir / "n5_example.json"))
        assert code == 0
        retained, removed = out.split("removed edges")
        for pair in ("(2, X1)", "(2, X3)", "(2, X4)"):
            assert pair in removed
            assert pair not in retained
        assert "(2, X2)" in retained and "(2, X5)" in retained

    def test_dot_view(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "pm-diagram", "--dot", str(fixtures_dir / "n5_example.json")
        )
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 11


class TestDesign:
    def test_design_ghz_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "ghz.json"
        code, _, _ = run(
            capsys, "design", "ghz", "--n", "4", "--colors", "udud",
            "--out", str(out_path),
        )
        assert code == 0
        spec = parse_network(out_path.read_text())
        assert spec.n == 4
        assert len(spec.transitions) == 8

    def test_design_tritter_stdout_roundtrip(self, capsys):
        code, out, _ = run(capsys, "design", "tritter")
        assert code == 0
        assert parse_network(out).n == 3

    def test_design_dicke_preset(self, capsys):
        code, out, _ = run(capsys, "design", "dicke", "--n", "5", "--preset", "paper-n5")
        assert code == 0
        assert parse_network(out).normalization_mode.value == "design"

    def test_design_w_ring(self, capsys):
        code, out, _ = run(capsys, "design", "w", "--n", "5", "--form", "ring")
        assert code == 0
        assert len(parse_network(out).transitions) == 13

    def test_design_beamsplitter_amps(self, capsys):
        code, out, _ = run(
            capsys, "design", "beamsplitter", "--amps", "0.6", "0.8i", "1", "0"
        )
        assert code == 0
        spec = parse_network(out)
        assert len(spec.transitions) == 3

    def test_preset_for_wrong_n_is_validation_error(self, capsys):
        code, _, err = run(capsys, "design", "dicke", "--n", "6", "--preset", "paper-n4")
        assert code == cli.EXIT_VALIDATION
        assert "preset" in err


class TestVerify:
    def test_fixtures_verify_clean(self, capsys, fixtures_dir):
        for name in ("tritter.json", "n5_example.json"):
            code, out, _ = run(capsys, "verify", str(fixtures_dir / name))
            assert code == 0
            assert "max |assembled - reference|" in out

    def test_mismatch_exit_code(self, capsys, fixtures_dir, monkeypatch):
        def broken_oracle(spec):
            return NoBunchState(spec.n, {"u" * spec.n: 1.0})

        monkeypatch.setattr(cli.states, "oracle_state", broken_oracle)
        code, _, _ = run(capsys, "verify", str(fixtures_dir / "tritter.json"))
        assert code == cli.EXIT_MISMATCH


class TestDot:
    def test_views(self, capsys, fixtures_dir):
        path = str(fixtures_dir / "n5_example.json")
        for view, marker in (("bb", "graph"), ("d", "digraph"), ("pm", "digraph")):
            code, out, _ = run(capsys, "dot", path, "--view", view)
            assert code == 0
            assert out.startswith(marker)

    def test_weights_flag(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "dot", str(fixtures_dir / "tritter.json"),
            "--view", "bb", "--weights",
        )
        assert code == 0
        assert "label=" in out


class TestErrors:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == cli.EXIT_USAGE
        assert "usage error" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == cli.EXIT_USAGE

    def test_missing_file_is_validation_error(self, capsys):
        code, _, err = run(capsys, "compute", "/nonexistent/net.json")
        assert code == cli.EXIT_VALIDATION

    def test_bad_network_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "statistics": "boson", "edges": []}')
        code, _, err = run(capsys, "compute", str(path))
        assert code == cli.EXIT_VALIDATION
        assert "squared amplitudes" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestEnvTolerance:
    def test_lqn_tol_loosens_row_check(self, capsys, tmp_path, monkeypatch):
        doc = {
            "n": 1,
            "statistics": "boson",
            "edges": [
                {"from": 1, "to": 1, "amp": {"re": 0.999, "im": 0.0}, "color": "up"}
            ],
        }
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "compute", str(path))[0] == cli.EXIT_VALIDATION
        monkeypatch.setenv("LQN_TOL", "0.1")
        assert run(capsys, "compute", str(path))[0] == 0


class TestHardening:
    @pytest.mark.parametrize(
        "mode, patch",
        [
            ("strict", {"amp": {"re": math.nan, "im": 0.0}}),
            ("design", {"amp": {"re": math.inf, "im": 0.0}}),
            ("strict", {"amp": {"re": "x", "im": 0.0}}),
            ("strict", {"amp": {"re": None, "im": 0.0}}),
            ("strict", {"from": 1.9}),
            ("strict", {"to": True}),
        ],
    )
    def test_malformed_edge_is_validation_error(self, capsys, tmp_path, mode, patch):
        edge = {"from": 1, "to": 1, "amp": {"re": 1.0, "im": 0.0}, "color": "up"}
        edge.update(patch)
        doc = {"n": 1, "statistics": "boson", "mode": mode, "edges": [edge]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compute", "--json", str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error:")

    def test_non_numeric_lqn_tol_is_validation_error(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.setenv("LQN_TOL", "abc")
        code, out, err = run(capsys, "compute", str(fixtures_dir / "tritter.json"))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "LQN_TOL" in err
