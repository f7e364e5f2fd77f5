"""Structural CLI outputs pinned byte for byte against a recorded file.

``fixtures/structural_golden.json`` holds stdout, stderr and exit code of
each structural command, and of ``compute`` and ``verify``, on the
n5 and tritter fixtures, the n5 fixture read as fermions, two dense
fixtures (a Haar n=6 boson and an n=7 fermion network with all n² edges
and mixed colors), three block unions (dicke2:5 + ghz:2 and ghz:3 + W
star n=3 + one loop as bosons, cluster4 + W star n=3 as fermions, each
with one forward cross edge, so ``analyze --numeric`` splits components
of size 1 to 5) and five designer networks. The W ring n=12 pins a
twelve-detector ``analyze --numeric`` answer and the ``verify`` size
limit message.
To rewrite it after an intended output change, run from the repo root:

    PYTHONPATH=src python tests/test_golden.py

To compare without rewriting, under an interpreter with or without
pytest, add ``--check``: it exits 1 and names the first differing run.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import lqngraph.cli as cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "structural_golden.json"

DESIGNS = {
    "ghz5-udduu": ["ghz", "--n", "5", "--colors", "udduu"],
    "w6-ring": ["w", "--n", "6", "--form", "ring"],
    "w12-ring": ["w", "--n", "12", "--form", "ring"],
    "cluster4": ["cluster4"],
    "dicke5-paper": ["dicke", "--n", "5", "--preset", "paper-n5"],
}

COMMANDS = (
    ["analyze"],
    ["analyze", "--json"],
    ["analyze", "--numeric", "3"],
    ["analyze", "--numeric", "3", "--json"],
    ["pm-diagram"],
    ["pm-diagram", "--dot"],
    ["dot", "--view", "pm"],
    ["dot", "--view", "pm", "--highlight", "0"],
    ["dot", "--view", "d"],
    ["dot", "--view", "d", "--weights"],
    ["dot", "--view", "d", "--highlight", "0"],
    ["dot", "--view", "d", "--highlight", "5"],
    ["dot", "--view", "bb", "--highlight", "0"],
    ["compute"],
    ["compute", "--json"],
    ["verify"],
)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def structural_outputs(workdir: Path) -> dict:
    """{input name: {command: {stdout, stderr, exit}}} for every pair."""
    inputs = {
        name: FIXTURES / name
        for name in (
            "n5_example.json",
            "tritter.json",
            "dense6_boson.json",
            "dense7_fermion.json",
            "blocks7_dicke2_ghz_boson.json",
            "blocks7_cluster4_wstar_fermion.json",
            "blocks7_ghz_wstar_single_boson.json",
        )
    }
    doc = json.loads(inputs["n5_example.json"].read_text(encoding="utf-8"))
    inputs["n5-fermion"] = workdir / "n5-fermion.json"
    inputs["n5-fermion"].write_text(json.dumps({**doc, "statistics": "fermion"}), encoding="utf-8")
    for name, args in DESIGNS.items():
        path = workdir / f"{name}.json"
        assert _run(["design", *args, "--out", str(path)])["exit"] == 0
        inputs[name] = path
    return {
        name: {
            " ".join(command): _run([command[0], str(path), *command[1:]])
            for command in COMMANDS
        }
        for name, path in inputs.items()
    }


def first_difference(actual: dict, expected: dict) -> tuple[str, str] | None:
    """The first (input, command) pair, in sorted order, whose run differs."""
    for name in sorted(actual.keys() | expected.keys()):
        got, want = actual.get(name, {}), expected.get(name, {})
        for command in sorted(got.keys() | want.keys()):
            if got.get(command) != want.get(command):
                return name, command
    return None


def test_structural_commands_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = structural_outputs(tmp_path)
    differing = first_difference(actual, expected)
    if differing is not None:
        name, command = differing
        got = actual.get(name, {}).get(command)
        want = expected.get(name, {}).get(command)
        assert got == want, f"first differing run: {command!r} on {name!r}"


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        sys.stderr.write("usage: test_golden.py [--check]\n")
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        outputs = structural_outputs(Path(workdir))
    if not argv:
        GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        sys.stdout.write(f"wrote {GOLDEN}\n")
        return 0
    differing = first_difference(outputs, json.loads(GOLDEN.read_text(encoding="utf-8")))
    if differing is not None:
        name, command = differing
        sys.stdout.write(f"first differing run: {command!r} on {name!r}\n")
        return 1
    sys.stdout.write(f"{GOLDEN.name}: all {sum(map(len, outputs.values()))} runs match\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
