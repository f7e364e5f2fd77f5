"""Command-line surface: subcommands, exit codes, output shapes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lqngraph
import lqngraph.cli as cli
from lqngraph.designers import design_ghz, design_w
from lqngraph.io import parse_network, serialize_network
from lqngraph.model import validate_network
from lqngraph.states import NoBunchState

from conftest import networks


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
        assert out.endswith("numeric finest partition: (X1,X4) | (X2,X5) | (X3)\n")

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
        # each PM-diagram component is split on its own: sixteen detectors
        # in five planted blocks
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

    def test_w_ring_12_is_one_block(self, capsys, tmp_path):
        # a twelve-detector component, once refused with exit 2
        path = tmp_path / "w12.json"
        path.write_text(serialize_network(design_w(12, form="ring")))
        code, out, err = run(capsys, "analyze", str(path), "--numeric", "1", "--json")
        assert code == 0, err
        assert json.loads(out)["numeric_finest_partition"] == [list(range(1, 13))]

    def test_complete_boson_12_is_one_block(self, capsys, tmp_path):
        # 12! matchings, none walked
        edges = [(a, j, 1.0, "ud"[(a + j) % 2]) for a in range(1, 13) for j in range(1, 13)]
        path = tmp_path / "complete12.json"
        path.write_text(serialize_network(validate_network(12, "boson", edges, "design")))
        code, out, err = run(capsys, "analyze", str(path), "--numeric", "5")
        assert (code, err) == (0, "")
        blocks = "(" + ",".join(f"X{d}" for d in range(1, 13)) + ")"
        assert out.endswith(f"numeric finest partition: {blocks}\n")

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_numeric_seed_is_accepted_and_ignored(self, capsys, fixtures_dir, as_json):
        # no weight is drawn, so whatever SEED is given, or none, the
        # output is the same bytes
        path = str(fixtures_dir / "blocks7_ghz_wstar_single_boson.json")
        tail = ["--json"] if as_json else []
        runs = {
            run(capsys, "analyze", path, "--numeric", *seed, *tail)
            for seed in ([], ["0"], ["3"], ["-1"], [str(2**64 + 1)])
        }
        assert len(runs) == 1
        code, out, err = runs.pop()
        assert (code, err) == (0, "")
        if as_json:
            assert json.loads(out)["numeric_finest_partition"] == [[1, 2, 3], [4, 5, 6], [7]]
        else:
            assert out.endswith("numeric finest partition: (X1,X2,X3) | (X4,X5,X6) | (X7)\n")


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

    @pytest.mark.parametrize(
        "amp", ["inf", "Infinity", "infi", "1+infi", " -inf", "nan", "-inf", "-nan", "-1-infi"]
    )
    def test_non_finite_amp_is_validation_error(self, capsys, amp):
        code, out, err = run(capsys, "design", "beamsplitter", "--amps", "0.6", "0.8", amp, "0")
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: transition (2, 1) has amplitude ")

    @pytest.mark.parametrize(
        "amps, values",
        [
            (
                ("0.7071067811865476",) * 2 + ("0.7071067811865476i", "-0.7071067811865476i"),
                (0.7071067811865476,) * 2 + (0.7071067811865476j, -0.7071067811865476j),
            ),
            (("-0.6", "-0.8i", "0.8", "-0.6i"), (-0.6, -0.8j, 0.8, -0.6j)),
            (("-1+0i", "0", "0", "-i"), (-1, 0, 0, -1j)),
            (("0.6-0i", "-0.8-0i", "0.8", "-0.6"), (0.6, -0.8, 0.8, -0.6)),
            (("-0.8i", "0.6", "0.6", "-0.8i"), (-0.8j, 0.6, 0.6, -0.8j)),
        ],
    )
    def test_negative_literals_are_values(self, capsys, amps, values):
        # argparse would read -0.5i, -1+2i or -inf as a flag
        pairs = ((1, 1), (1, 2), (2, 1), (2, 2))
        want = {pair: v for pair, v in zip(pairs, values) if v != 0}
        for flag in ("--amps", "--amp"):
            code, out, err = run(capsys, "design", "beamsplitter", flag, *amps)
            assert (code, err) == (0, "")
            spec = parse_network(out)
            assert {(t.source, t.detector): t.amplitude for t in spec.transitions} == want
            # the --amps=V spelling binds its first value
            joined = run(capsys, "design", "beamsplitter", f"{flag}={amps[0]}", *amps[1:])
            assert joined == (code, out, err)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1+2i", 1 + 2j),
            ("i", 1j),
            ("-i", -1j),
            ("-0.5i", -0.5j),
            ("1e-3i", 0.001j),
            (" 0.8i ", 0.8j),
            ("0.7071067811865476", 0.7071067811865476),
            ("-2", -2),
            ("1+2j", 1 + 2j),
        ],
    )
    def test_complex_literals(self, text, value):
        assert cli._parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "1+2I", "2i+1", "i1", " one "])
    def test_bad_complex_literal_is_usage_error(self, capsys, text):
        code, out, err = run(capsys, "design", "beamsplitter", "--amps", "1", "0", "0", text)
        assert code == cli.EXIT_USAGE
        assert err == f"usage error: not a complex number: {text!r}\n"

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

    def test_oracle_limit_is_checked_before_assembly(self, capsys, tmp_path, monkeypatch):
        assembled = []
        monkeypatch.setattr(cli.states, "assemble_network_state", assembled.append)
        n = cli.states.ORACLE_LIMIT + 1
        path = tmp_path / "ghz.json"
        path.write_text(serialize_network(design_ghz(n)))
        code, out, err = run(capsys, "verify", str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == f"error: n={n} exceeds the exhaustive-enumeration limit 10\n"
        assert assembled == []

    @staticmethod
    def run_overflowed(capsys, tmp_path, command, statistics):
        doc = {
            "n": 2,
            "statistics": statistics,
            "mode": "design",
            "edges": [
                {"from": a, "to": j, "amp": {"re": 1e200, "im": 0.0}, "color": "up"}
                for a in (1, 2)
                for j in (1, 2)
            ],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        return err

    @pytest.mark.parametrize("command", ["verify", "compute"])
    def test_overflowed_weight_is_validation_error(self, capsys, tmp_path, command):
        # each matching weight 1e200 * 1e200 overflows to inf+0j on both
        # engines, so there is no finite state to print or to compare; a
        # boson weight is summed as it is, with no sign multiplied in
        err = self.run_overflowed(capsys, tmp_path, command, "boson")
        assert err == "error: ket 'uu' has amplitude (inf+0j)\n"

    @pytest.mark.parametrize("command", ["verify", "compute"])
    def test_overflowed_fermion_weight_is_validation_error(self, capsys, tmp_path, command):
        # the odd matching adds the exact negation of its inf+0j weight on
        # both engines, so the sum is inf - inf
        err = self.run_overflowed(capsys, tmp_path, command, "fermion")
        assert err == "error: ket 'uu' has amplitude (nan+0j)\n"


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

    def test_directory_as_input_is_validation_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "compute", str(tmp_path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_undecodable_input_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "compute", str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_unwritable_design_output_is_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "design", "ghz", "--n", "3", "--out", str(tmp_path))
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:") and err.count("\n") == 1


class TestBadFlagValues:
    """Each bad value ends as a one-line error with exit 2, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("design", "w", "--n", "3", "--colors", "ud"), "color vector has length 2"),
            (("dot", "{tritter}", "--view", "pm", "--highlight", "99"), "matching index 99"),
            (("dot", "{tritter}", "--view", "pm", "--highlight", "-1"), "matching index -1"),
            (("design", "w", "--n", "3", "--colors", "xyz"), "color 'x'"),
        ],
    )
    def test_bad_value_is_validation_error(self, capsys, fixtures_dir, argv, message):
        tritter = str(fixtures_dir / "tritter.json")
        code, out, err = run(capsys, *(a.format(tritter=tritter) for a in argv))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_valid_values_still_answer(self, capsys, fixtures_dir):
        tritter = str(fixtures_dir / "tritter.json")
        assert run(capsys, "analyze", tritter, "--numeric", "0")[0] == 0
        assert run(capsys, "analyze", tritter, "--numeric", "-1")[0] == 0
        code, out, _ = run(capsys, "dot", tritter, "--view", "pm", "--highlight", "5")
        assert code == 0 and out.startswith("digraph")
        assert run(capsys, "design", "w", "--n", "3", "--colors", "udu")[0] == 0


class TestRepeatedCalls:
    """One parser serves every call; nothing carries over between calls."""

    def test_json_flag_does_not_stick(self, capsys, fixtures_dir):
        tritter = str(fixtures_dir / "tritter.json")
        code, out, _ = run(capsys, "compute", tritter, "--json")
        assert code == 0 and json.loads(out)["n"] == 3
        code, out, _ = run(capsys, "compute", tritter)
        assert code == 0 and out.startswith("post-selection probability:")

    def test_numeric_seed_does_not_stick(self, capsys, fixtures_dir):
        tritter = str(fixtures_dir / "tritter.json")
        code, out, _ = run(capsys, "analyze", tritter, "--numeric", "3", "--json")
        assert code == 0 and json.loads(out)["numeric_finest_partition"] is not None
        code, out, _ = run(capsys, "analyze", tritter, "--json")
        assert code == 0
        assert json.loads(out)["numeric_finest_partition"] is None

    def test_usage_error_then_valid_call(self, capsys, fixtures_dir):
        tritter = str(fixtures_dir / "tritter.json")
        assert run(capsys, "compute", tritter, "--frobnicate")[0] == cli.EXIT_USAGE
        assert run(capsys, "analyze")[0] == cli.EXIT_USAGE
        code, out, err = run(capsys, "compute", tritter)
        assert code == 0 and err == ""
        assert "post-selection probability: 0.111111111111" in out


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

    @pytest.mark.parametrize(
        "argv",
        [["compute"], ["analyze"], ["verify"], ["dot", "--view", "d"]],
        ids=["compute", "analyze", "verify", "dot"],
    )
    def test_overflowing_strict_row_is_validation_error(self, capsys, tmp_path, argv):
        # |amp|**2 overflows a float above about 1.3e154
        edge = {"from": 1, "to": 1, "amp": {"re": 1e200, "im": 0}, "color": "up"}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 1, "statistics": "boson", "edges": [edge]}))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == "error: row 1: squared amplitudes sum to inf, expected 1\n"

    def test_strict_file_with_huge_n_is_validation_error(self, capsys, tmp_path):
        edge = {"from": 1, "to": 1, "amp": {"re": 1.0, "im": 0.0}, "color": "up"}
        path = tmp_path / "huge-n.json"
        path.write_text(json.dumps({"n": 10**20, "statistics": "boson", "edges": [edge]}))
        code, out, err = run(capsys, "compute", str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == "error: row 2: squared amplitudes sum to 0.0, expected 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute"], "state has zero norm (no matchings or exact cancellation)"),
            (["analyze", "--numeric"], "network has no perfect matching"),
            (["pm-diagram"], "network has no perfect matching"),
            (["verify"], f"n={10**12} exceeds the exhaustive-enumeration limit 10"),
            (["dot", "--view", "pm"], "network has no perfect matching"),
        ],
        ids=["compute", "analyze", "pm-diagram", "verify", "dot-pm"],
    )
    def test_design_file_with_huge_n_has_no_matching(self, capsys, tmp_path, argv, message):
        # detectors 2..n have no edge, which an O(edges) scan finds before
        # any list with one entry per vertex is built
        edge = {"from": 1, "to": 1, "amp": {"re": 1.0, "im": 0.0}, "color": "up"}
        doc = {"n": 10**12, "statistics": "boson", "mode": "design", "edges": [edge]}
        path = tmp_path / "huge-n.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == f"error: {message}\n"


_FILE_COMMANDS = st.one_of(
    st.sampled_from(
        [["compute"], ["compute", "--json"], ["pm-diagram"], ["pm-diagram", "--dot"], ["verify"]]
    ),
    st.builds(
        lambda seed, as_json: ["analyze"]
        + ([] if seed is None else ["--numeric", str(seed)])
        + (["--json"] if as_json else []),
        st.none() | st.integers(-2, 2**40),
        st.booleans(),
    ),
    st.builds(
        lambda view, k: ["dot", "--view", view] + ([] if k is None else ["--highlight", str(k)]),
        st.sampled_from(["bb", "d", "pm"]),
        st.none() | st.integers(-3, 50),
    ),
)

# literals that _parse_complex accepts: a sign, a real part, an ``i`` unit
_REAL = st.one_of(
    st.floats(0, 2).map(repr), st.sampled_from(["0", "1", "inf", "Infinity", "nan"])
)
_SIGN = st.sampled_from(["", "-", "+"])
_LITERAL = st.one_of(
    st.builds("{}{}{}".format, _SIGN, _REAL, st.sampled_from(["", "i"])),
    st.builds("{}{}{}{}i".format, _SIGN, _REAL, st.sampled_from(["-", "+"]), _REAL),
)


class TestExitCodes:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        spec=networks(modes=("strict", "design")),
        command=_FILE_COMMANDS,
        amps=st.lists(_LITERAL, min_size=4, max_size=4),
    )
    def test_every_command_answers_or_exits_2(self, capsys, tmp_path, spec, command, amps):
        # a valid file or literal never gets a usage error or a traceback,
        # and a refused one gets a single error line
        path = tmp_path / "network.json"
        path.write_text(serialize_network(spec))
        with_file = [command[0], str(path), *command[1:]]
        joined = ["design", "beamsplitter", f"--amps={amps[0]}", *amps[1:]]
        for argv in (with_file, ["design", "beamsplitter", "--amps", *amps], joined):
            code, out, err = run(capsys, *argv)
            assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_MISMATCH), (argv, err)
            assert "Traceback" not in out + err
            if code == cli.EXIT_VALIDATION:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        # the joined spelling answers as the space-separated one
        assert run(capsys, *joined) == run(capsys, "design", "beamsplitter", "--amps", *amps)


# Calls finest_partition and schmidt_rank once, then runs each argv list of
# argv[3] through cli_main in this fresh interpreter, and prints, per run,
# its exit code, stdout, stderr and whether numpy has been imported by then.
# With argv[2] set to "block", every import of numpy fails.
_COLD_START = """
import contextlib, io, json, sys
if sys.argv[2] == "block":
    sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
import lqngraph
from lqngraph.cli import cli_main
loaded = lambda: sys.modules.get("numpy") is not None
runs = [["import", 0, "", "", loaded()]]
ghz = lqngraph.NoBunchState(3, {"uuu": 1.0, "ddd": 1.0})
runs.append(["finest_partition", 0, repr(lqngraph.finest_partition(ghz)), "", loaded()])
rank = lqngraph.schmidt_rank(ghz, lqngraph.Bipartition({1}, 3))
runs.append(["schmidt_rank", 0, repr(rank), "", loaded()])
for argv in json.loads(sys.argv[3]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    runs.append([" ".join(argv), code, out.getvalue(), err.getvalue(), loaded()])
print(json.dumps(runs))
"""


# Imports lqngraph.cli, then runs each argv list of argv[2] through cli_main,
# and prints, after the import and after each run, the exit code (None for
# the import), which of GUARDED are loaded and whether lqngraph.entanglement is.
_IMPORT_GUARD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import lqngraph.cli
GUARDED = ("dataclasses", "inspect", "ast", "typing", "pathlib")
def loaded(code):
    guarded = [m for m in GUARDED if m in sys.modules]
    return [code, guarded, "lqngraph.entanglement" in sys.modules]
runs = [loaded(None)]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        runs.append(loaded(lqngraph.cli.cli_main(argv)))
print(json.dumps(runs))
"""


def _cold_start_commands(fixtures_dir, tmp_path) -> list[list[str]]:
    n5 = str(fixtures_dir / "n5_example.json")
    ghz11 = tmp_path / "ghz11.json"
    ghz11.write_text(serialize_network(design_ghz(11)))
    return [
        ["compute", n5, "--json"],
        ["verify", n5],
        ["analyze", n5, "--json"],
        ["pm-diagram", n5],
        ["dot", n5, "--view", "pm", "--highlight", "0"],
        ["design", "ghz", "--n", "4"],
        ["analyze", str(ghz11), "--numeric", "1"],
        ["verify", str(ghz11)],
        ["analyze", n5, "--numeric", "3", "--json"],
    ]


class TestColdStart:
    def test_no_command_imports_numpy(self, capsys, fixtures_dir, tmp_path):
        # fresh interpreters: this one imported numpy with the test modules
        commands = _cold_start_commands(fixtures_dir, tmp_path)
        in_process = [list(run(capsys, *argv)) for argv in commands]
        assert [r[0] for r in in_process] == [0] * 7 + [cli.EXIT_VALIDATION, 0]
        src = str(Path(lqngraph.__file__).resolve().parents[1])
        for numpy in ("load", "block"):
            proc = subprocess.run(
                [sys.executable, "-c", _COLD_START, src, numpy, json.dumps(commands)],
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, (numpy, proc.stderr)
            runs = json.loads(proc.stdout)
            assert [(r[0], r[4]) for r in runs] == [
                (name, False)
                for name in [
                    "import", "finest_partition", "schmidt_rank", *map(" ".join, commands)
                ]
            ], numpy
            assert runs[1][2] == "((1, 2, 3),)"
            assert runs[2][2] == "2"
            assert [r[1:4] for r in runs[3:]] == in_process, numpy

    def test_no_command_imports_the_slow_stdlib_modules(self, fixtures_dir, tmp_path):
        # records are named tuples: no dataclasses (which loads inspect and
        # ast), typing or pathlib on any command. The child runs without
        # site, whose .pth files may load typing and pathlib themselves.
        # The benchmark's tracer reads lqngraph.entanglement from
        # sys.modules right after importing lqngraph.cli.
        commands = _cold_start_commands(fixtures_dir, tmp_path)
        src = str(Path(lqngraph.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _IMPORT_GUARD, src, json.dumps(commands)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        codes = [None] + [0] * 7 + [cli.EXIT_VALIDATION, 0]
        assert json.loads(proc.stdout) == [[code, [], True] for code in codes]
