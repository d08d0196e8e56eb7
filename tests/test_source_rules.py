"""Rules the package source keeps, checked on every run."""

import ast
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


TEST_ONLY = {"scipy", "sympy", "hypothesis", "pytest"}  # the ``test`` extra of pyproject.toml


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_test_only_imports(path: Path):
    """The package imports nothing that only the ``test`` extra installs."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    bad = sorted({name for name in names if name.split(".")[0] in TEST_ONLY})
    assert not bad, f"{path.name} imports {bad}"


def test_abort_paths_hold_under_python_O():
    """The cheating-server, opening, advert, point-range, key-range,
    unmask-response, upload and phase-order abort tests, and every wire and
    grouping test, pass with asserts stripped, so none of those checks, nor
    any decoder's layout or width check, nor ``verify_setup``'s, rests on
    an ``assert``."""
    cmd = [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    protocol = (
        "cheating_server or opening or advert or outside or receive_unmask or before_the_share_bundle or phase_skip"
        " or blamed_on_its_sender"
    )
    # -k matches node ids, which contain their file name: every test of
    # test_wire.py and test_orgtree.py, and the selected ones of
    # test_protocol.py
    selected = f"test_wire.py or test_orgtree.py or ({protocol})"
    files = ["tests/test_wire.py", "tests/test_orgtree.py", "tests/test_protocol.py"]
    run = subprocess.run([*cmd, *files, "-k", selected], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


class _FlagFirstLeaf:
    """Detector stand-in that flags leaf 0."""

    def detect(self, aggregates, model):
        return SimpleNamespace(flagged=[0])


def test_benchmark_traced_run_is_correct():
    """The benchmark command itself, traced, for one second of its ``wide_m``
    workload: it exits 0 and reports ``"correct": true``, so a change to a
    name or attribute the traced run reads fails here."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "wide_m", "--seed", "1", "--seconds", "1", "--trace", "1"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert '"correct": true' in run.stdout


def test_benchmark_tracer_binds_every_span(monkeypatch):
    """The benchmark's traced run wraps package functions and methods by
    name and reads attributes of their results; one traced round with
    dropouts and an excluded leaf reaches every span and observer, and its
    per-tag wire bytes add up to the transport's counters."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    from secaggsim import simulation
    from secaggsim.fixedpoint import SegmentSpec, zeros
    from secaggsim.orgtree import TreeConfig

    from conftest import build_round, random_inputs

    spec = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)
    server, users, transport, counters = build_round(16, TreeConfig(height=1, degree=2, share_threshold=2), spec)
    drop = {2, 9}
    inputs = {u: x for u, x in random_inputs(16, 4, spec, seed=5).items() if u not in drop}
    tr = spans.Tracer()
    tr.install()
    try:
        simulation.execute_round(
            server=server, users=users, transport=transport, model=zeros(4, spec), inputs=inputs,
            round_seed=(5, 0), pre_drop=drop, detector=_FlagFirstLeaf(),
        )
    finally:
        tr.restore()
    assert tr.rounds == 1
    assert {tag for _, tag in tr.wire_bytes} == set(spans.TAG_NAMES)
    up = sum(n for (direction, _), n in tr.wire_bytes.items() if direction == "up")
    down = sum(n for (direction, _), n in tr.wire_bytes.items() if direction == "down")
    assert (up, down) == (counters.bytes_user_to_server, counters.bytes_server_to_user)
    # the reconstruct observer counts its first positional argument, which
    # must be the t points of each secret
    assert counters.shares_reconstructed > 0
    assert tr.counts["shares_consumed"] == server.tree.share_threshold * counters.shares_reconstructed
