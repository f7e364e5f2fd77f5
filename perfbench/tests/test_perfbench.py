"""Self-test of the benchmark: smallest inputs pass, corrupted answers fail.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from run import Runner, digest, par2, tail  # noqa: E402
from workloads import WORKLOADS, Op, generate  # noqa: E402


def _smallest_ops(name, tmp_path, seed=1):
    ops = generate(name, seed, tmp_path / name)
    n = min(op.n for op in ops)
    return [op for op in ops if op.n == n]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smallest_inputs_pass(name, tmp_path):
    with Runner(WORKLOADS[name].limit_s) as runner:
        for op in _smallest_ops(name, tmp_path):
            outcome = runner.run(op)
            assert outcome.failure is None, (op.label, outcome)


def _corrupting(cli, corrupt):
    """A stand-in for lqngraph.cli whose JSON output is altered by ``corrupt``."""

    def cli_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.cli_main(argv)
        doc = json.loads(buf.getvalue())
        corrupt(doc)
        sys.stdout.write(json.dumps(doc))
        return rc

    return types.SimpleNamespace(cli_main=cli_main)


def _flip_sign(doc):
    amp = doc["terms"][0]["amp"]
    amp["re"], amp["im"] = -amp["re"], -amp["im"]


def _merge_blocks(doc):
    parts = doc["numeric_finest_partition"]
    parts[:2] = [sorted(parts[0] + parts[1])]


@pytest.mark.parametrize(
    "name, corrupt",
    [("dense-unitary", _flip_sign), ("sparse-rings", _flip_sign),
     ("block-analyze", _merge_blocks)],
)
def test_corrupted_answer_counts_as_failed(name, corrupt, tmp_path):
    kind = "report" if corrupt is _merge_blocks else "state"
    op = next(op for op in _smallest_ops(name, tmp_path) if op.expected["kind"] == kind)
    with Runner(WORKLOADS[name].limit_s) as runner:
        runner.cli = _corrupting(runner.cli, corrupt)
        outcome = runner.run(op)
    assert outcome.failure == "wrong", outcome
    assert par2(outcome, WORKLOADS[name].limit_s) > WORKLOADS[name].limit_s


def test_program_error_is_recorded_with_class_and_layer(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "statistics": "boson", "edges": "none"}')
    op = Op(("compute", str(bad), "--json"), {"kind": "state"}, 2, "bad file")
    with Runner(1.0) as runner:
        outcome = runner.run(op)
    assert outcome.failure == "exit"
    assert (outcome.exc, outcome.layer) == ("ParseError", "io")


def test_inputs_depend_only_on_the_seed(tmp_path):
    generate("block-analyze", 7, tmp_path / "a")
    generate("block-analyze", 7, tmp_path / "b")
    generate("block-analyze", 8, tmp_path / "c")
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert digest(tmp_path / "a") != digest(tmp_path / "c")


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
