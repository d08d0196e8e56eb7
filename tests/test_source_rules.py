"""Rules the package source keeps, checked on every run."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "secaggsim"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path: Path):
    """``python -O`` strips ``assert``, so a check the package relies on
    must raise a typed error instead."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at line(s) {lines}"


def test_abort_paths_hold_under_python_O():
    """The cheating-server, opening and advert abort tests pass with
    asserts stripped, so none of those checks rests on an ``assert``."""
    cmd = [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_protocol.py"]
    run = subprocess.run(
        [*cmd, "-k", "cheating_server or opening or advert"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
