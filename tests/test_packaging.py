"""The package's declared dependencies and imports stay on the standard library."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    # numpy draws test networks and gives the SVD reference
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])


def test_no_module_imports_numpy():
    sources = sorted((ROOT / "src" / "lqngraph").glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+numpy\b", text, re.M), path.name
