"""The benchmark's own answer checker accepts what the CLI prints.

Seed 1 of each workload in ``perfbench/`` is written to a temporary
directory and each op's argv is run through ``cli_main``: every
dense-unitary and block-analyze op, and the sparse-rings ops up to
n = 256, which keeps the whole run near a second. ``perfbench/workloads.py``
and ``perfbench/check.py`` are imported as they are; neither is changed.
"""

import sys
from pathlib import Path

import pytest

from lqngraph.cli import cli_main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from check import check_output  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

#: the largest sparse-rings input run here; the larger rings take seconds
SPARSE_MAX_N = 256


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_every_answer(name, tmp_path, capsys):
    ops = generate(name, 1, tmp_path)
    if name == "sparse-rings":
        ops = [op for op in ops if op.n <= SPARSE_MAX_N]
    assert ops
    for op in ops:
        code = cli_main(list(op.argv))
        out, err = capsys.readouterr()
        assert code == 0, (op.label, err)
        assert check_output(op.expected, out) is None, op.label
