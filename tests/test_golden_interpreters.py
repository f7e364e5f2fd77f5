"""The golden file checked under the other CPython versions the package supports.

The matching walk's sums are pinned bit for bit, and a float operation
that rounds differently from one interpreter to the next (as ``sum()``
did from 3.12 on) would change the printed amplitudes. Each test runs
``test_golden.py --check`` in a fresh interpreter of one version, found
on ``PATH`` as ``pythonX.Y`` or under pyenv's ``versions`` directory, and
skips the version when none of them starts.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

GOLDEN_SCRIPT = Path(__file__).parent / "test_golden.py"
SRC = Path(__file__).parent.parent / "src"

_PROBE = "import platform, sys; print(platform.python_implementation(), '%d.%d' % sys.version_info[:2])"


def interpreter(version: str) -> str | None:
    """A CPython ``version`` executable that starts, or None."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which(f"python{version}")]
    candidates += sorted(map(str, pyenv.glob(f"versions/{version}.*/bin/python")))
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run(
                [exe, "-c", _PROBE], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.split() == ["CPython", version]:
            return exe
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_golden_check_under_interpreter(version):
    exe = interpreter(version)
    if exe is None:
        pytest.skip(f"no CPython {version} interpreter starts here")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [exe, str(GOLDEN_SCRIPT), "--check"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith(" runs match\n")
