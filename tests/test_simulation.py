import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from secaggsim.adversary import AttackPlan
from secaggsim.errors import ConfigError
from secaggsim.scenarios import converging_attack_config, exactness_config
from secaggsim.fixedpoint import dequantize_vector, quantize_vector
from secaggsim.simulation import (
    CSV_COLUMNS,
    DRIFT_SCALE,
    SIGMA0,
    DetectionSettings,
    ScenarioConfig,
    SyntheticWorkload,
    _sub_np_rng,
    _Workload,
    run_scenario,
)
from secaggsim.wire import StarTransport
from secaggsim.counters import OpCounters


ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with the package under ``src/`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m secaggsim.cli`` on the package under ``src/``."""
    return _run_python("-m", "secaggsim.cli", *args)


def small_config(**kw) -> ScenarioConfig:
    base = dict(
        n_users=18,
        rounds=3,
        tree_height=2,
        tree_degree=2,
        neighbor_radius=1,
        share_threshold=2,
        detection=DetectionSettings(enabled=True, low_bits_override=16),
        synthetic=SyntheticWorkload(vector_len=12),
        seed=11,
    )
    base.update(kw)
    return ScenarioConfig(**base)


# -- config validation ------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_config(n_users=6).validate()  # subgroups too small
    with pytest.raises(ConfigError):
        small_config(dropout_rate=1.5).validate()
    with pytest.raises(ConfigError):
        small_config(protocol="carrier-pigeon").validate()
    with pytest.raises(ConfigError):
        small_config(share_threshold=9).validate()
    with pytest.raises(ConfigError):
        cfg = small_config()
        cfg.attack = AttackPlan(attacker_ids=(0,), start_round=99)
        cfg.validate()
    with pytest.raises(ConfigError):
        cfg = small_config(inter_mask_margin_bits=16)
        cfg.validate()  # no room left for inter-group masks


def test_config_json_roundtrip():
    cfg = small_config()
    cfg.attack = AttackPlan(attacker_ids=(1, 2), strategy="continuous", start_round=1, duration=2)
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again == cfg


@pytest.mark.parametrize(
    "section, key",
    [
        (None, "bogus"),
        ("detection", "record_pre_replacement"),
        ("task", "min_lr"),
        ("synthetic", "bogus"),
        ("attack", "bogus"),
        (None, "dropout_timing"),
        (None, "inter_radius"),
        ("synthetic", "drift_scale"),
        ("synthetic", "sigma0"),
        ("synthetic", "sigma_decay"),
        ("synthetic", "sigma_floor"),
        ("synthetic", "value_range"),
        ("task", "samples_per_user"),
        ("attack", "min_scale"),
        ("attack", "scale_override"),
        ("detection", "replacement"),
        (None, "dh_group"),
    ],
)
def test_config_unknown_key_rejected(section, key):
    cfg = small_config()
    cfg.attack = AttackPlan(attacker_ids=(1,))
    doc = json.loads(cfg.to_json())
    (doc[section] if section else doc)[key] = 1
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig.from_dict(doc)


def test_segment_spec_from_epsilon():
    cfg = small_config(detection=DetectionSettings(enabled=True, epsilon=70.0))
    spec = cfg.segment_spec()
    # subgroups of 5: threshold 2(1-sqrt(4/5))*70 ~ 14.8 real units,
    # 3785 quantized -> 12 bits
    assert spec.low_bits == 12


# -- determinism --------------------------------------------------------------------


def test_reports_byte_identical():
    cfg = small_config(dropout_rate=0.1)
    cfg.attack = AttackPlan(attacker_ids=(3,), strategy="one_shot", start_round=2)
    a = run_scenario(cfg)
    b = run_scenario(small_config(dropout_rate=0.1, attack=AttackPlan(attacker_ids=(3,), strategy="one_shot", start_round=2)))
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


PINNED_REPORTS = {
    "dropout_72": (
        lambda: exactness_config(3, 72, 2, 3, dropout_rate=0.3),
        "02dcb56bb288f95eabaf22796cbca675f4b0980027e24d5990d3f56c02bce712",
        dict(
            prg_user_total=450,
            prg_server=180,
            key_agreements_user_total=576,
            key_randomizations_server=576,
            shares_created=1152,
            shares_reconstructed=72,
            mask_cancellations=130,
            bytes_user_to_server=26936,
            bytes_server_to_user=208214,
        ),
    ),
    "flagging_81": (
        lambda: ScenarioConfig(
            n_users=81,
            rounds=9,
            mode="synthetic",
            tree_height=2,
            tree_degree=3,
            neighbor_radius=2,
            share_threshold=3,
            dropout_rate=0.1,
            seed=5,
            detection=DetectionSettings(warmup_rounds=5, low_bits_override=13),
            synthetic=SyntheticWorkload(vector_len=32),
            attack=AttackPlan(attacker_ids=(0, 1), strategy="one_shot", start_round=7),
        ),
        "bd50fe9ad505c0bf3de7dc599d9a93996c936b421da813677e5c2c1dd6fc874f",
        dict(
            prg_user_total=5913,
            prg_server=1311,
            key_agreements_user_total=5832,
            key_randomizations_server=5832,
            shares_created=13122,
            shares_reconstructed=761,
            mask_cancellations=654,
            bytes_user_to_server=344412,
            bytes_server_to_user=2965629,
        ),
    ),
}


def _behaviour_digest(report) -> str:
    """SHA-256 of ``to_csv()`` plus ``to_json()`` without its ``counters``
    section: what a run computed and decided, apart from what it cost."""
    doc = json.loads(report.to_json())
    del doc["counters"]
    return hashlib.sha256((report.to_csv() + json.dumps(doc, sort_keys=True, indent=1)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_digest_pinned(name):
    """The behaviour digest of a dropout round and of a run that flags and
    excludes leaves (rounds 7 and 8) with dropouts, so a refactor that
    claims to keep behaviour is checked on its reports.  A wire change
    that only resizes messages leaves it alone; an intended behaviour
    change updates it and records the change in CHANGES.md."""
    make, digest, _ = PINNED_REPORTS[name]
    assert _behaviour_digest(run_scenario(make())) == digest


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_counters_pinned(name):
    """The same runs' operation and byte counters, as exact values, so a
    change of cost names the counters it moves."""
    make, _, counters = PINNED_REPORTS[name]
    assert run_scenario(make()).counters.as_dict() == counters


def test_round_inputs_equal_the_per_user_formula():
    """Decoding the model once per round changes no input by a bit: each
    benign user gets quantize((X_t + drift) + noise) and the attacker
    quantize(X_t + scale * (target - X_t)), computed here user by user."""
    cfg = small_config(attack=AttackPlan(attacker_ids=(3,), strategy="one_shot", start_round=2))
    spec = cfg.segment_spec()
    workload = _Workload(cfg, spec)
    model, t = workload.initial_model(), 2
    users = [u for u in range(cfg.n_users) if u != 5]
    inputs = workload.inputs_for(users, t, model)
    assert sorted(inputs) == users
    sigma = workload._sigma(t)
    scale = cfg.attack.scale_for(t, cfg.n_users, cfg.eta, cfg.tree().leaf_count)
    for u in users:
        theta = dequantize_vector(model)
        if u == 3:
            expect = theta + scale * (workload.target_theta - theta)
        else:
            noise = _sub_np_rng(cfg.seed, "benign", t, u).normal(0.0, sigma, size=theta.shape)
            expect = theta + DRIFT_SCALE * sigma / SIGMA0 * workload.drift_dir + noise
        assert inputs[u] == quantize_vector(expect, spec)


def test_different_seeds_differ():
    a = run_scenario(small_config())
    b = run_scenario(small_config(seed=12))
    assert a.to_json() != b.to_json()


def test_csv_schema():
    report = run_scenario(small_config())
    lines = report.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3


def test_transcript_schema():
    report = run_scenario(small_config())
    doc = json.loads(report.to_json())
    assert doc["schema"] == "run-report-v1"
    assert {"config", "metrics", "rounds", "counters", "final"} <= set(doc)
    assert len(doc["rounds"]) == 3
    assert "detection" in doc["rounds"][0]


def test_baseline_scenario_runs():
    cfg = small_config(protocol="baseline", n_users=10)
    report = run_scenario(cfg)
    assert len(report.rows) == 3
    assert report.counters.per_user_prg(10) == 30  # 3 rounds of 9 pairwise masks + 1 self mask


# -- transport rules ------------------------------------------------------------------


def test_star_transport_rejects_user_to_user():
    transport = StarTransport(OpCounters())
    with pytest.raises(AssertionError):
        transport.deliver("user:1", "user:2", b"x")
    transport.deliver("user:1", "server", b"abc")
    transport.deliver("server", "user:1", b"defg")
    assert transport.counters.bytes_user_to_server == 3
    assert transport.counters.bytes_server_to_user == 4


# -- bench -----------------------------------------------------------------------------


def _run_script(cwd: Path, name: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>`` from ``cwd`` with no PYTHONPATH, as from a
    plain checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, cwd=cwd
    )


def _load_script(name: str):
    """Import ``scripts/<name>`` as a module, without running its ``main``."""
    path = ROOT / "scripts" / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_rows():
    bench = _load_script("run_complexity_bench.py")
    # bench_once counts the cost of the one round of a single-round config
    single = dict(rounds=1, detection=DetectionSettings(enabled=False))
    row = bench.bench_once(small_config(**single))
    assert row.protocol == "tree"
    assert row.per_user_prg > 0
    base = bench.bench_once(small_config(protocol="baseline", n_users=10, **single))
    assert base.per_user_prg == 10  # N-1 pairwise masks + 1 self mask
    assert base.per_user_bytes > 0
    assert base.up_bytes_per_user > 0 and base.down_bytes_per_user > 0
    assert base.up_bytes_per_user + base.down_bytes_per_user == pytest.approx(base.per_user_bytes)
    assert fields(bench.BenchRow)[0].name == "protocol"


def test_complexity_bench_script(tmp_path: Path):
    """The script runs from a plain checkout, with no PYTHONPATH and from
    another directory, writes tree and baseline rows whose up and down
    traffic add up to the total, and prints the DH, fixed-base g^x and
    Shamir primitive rates."""
    out = tmp_path / "bench.csv"
    proc = _run_script(tmp_path, "run_complexity_bench.py", "--sizes", "16", "--big", "128", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert text.startswith("protocol,")
    rows = list(csv.DictReader(text.splitlines()))
    assert {r["protocol"] for r in rows} == {"tree", "baseline"}
    for r in rows:
        up, down = float(r["up_bytes_per_user"]), float(r["down_bytes_per_user"])
        assert up > 0 and down > 0
        assert up + down == pytest.approx(float(r["per_user_bytes"]))
    assert all(" up=" in line and " down=" in line for line in proc.stdout.splitlines() if " prg/user=" in line)
    assert proc.stdout.count("dh fast64 batch=") == 2
    keygen = [line for line in proc.stdout.splitlines() if line.startswith("dh fast64 g^x batch=")]
    assert [int(line.split("batch=")[1].split()[0]) for line in keygen] == [486, 4000]
    assert all(" pow_g_many=" in line and " exp/s (" in line for line in keygen)
    shamir = [line for line in proc.stdout.splitlines() if line.startswith("shamir t=")]
    assert len(shamir) == 4 and all(" shares/s reconstruct=" in line and line.endswith(" secrets/s") for line in shamir)
    assert [line.split("field=")[1].split()[0] for line in shamir] == ["2^63+29", "2^128+51"] * 2


def test_detection_sweep_script_help(tmp_path: Path):
    proc = _run_script(tmp_path, "run_detection_sweep.py", "--help")
    assert proc.returncode == 0, proc.stderr


# -- CLI --------------------------------------------------------------------------------


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
def test_committed_config_runs(path: Path, tmp_path: Path):
    """A one-round, attack-free copy of each committed config runs through
    the CLI, which takes nothing but the document and the output path."""
    doc = json.loads(path.read_text())
    ScenarioConfig.from_dict(doc).validate()
    doc.update(rounds=1, attack=None)
    cfg_path = tmp_path / path.name
    cfg_path.write_text(json.dumps(doc))
    proc = _run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "o" / "report.csv").read_text().splitlines()) == 2  # header + one round


@pytest.mark.parametrize(
    "name, make",
    [
        ("converging_attack.json", lambda: converging_attack_config(0, 5, "continuous")),
        ("exact_aggregation.json", lambda: exactness_config(0, 81, 2, 3, dropout_rate=0.15)),
    ],
)
def test_committed_config_is_its_preset(name, make):
    """The committed configs that a preset describes are that preset's
    document, byte for byte, so neither can drift from the other."""
    assert (ROOT / "configs" / name).read_text() == make().to_json() + "\n"


def test_cli_run_and_determinism(tmp_path: Path):
    cfg = small_config()
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(cfg.to_json())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        proc = _run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "transcript.json").read_bytes() == (out_b / "transcript.json").read_bytes()


def test_cli_config_error_exit_code(tmp_path: Path):
    """A config the tree cannot hold, whose segment settings leave no valid
    ring layout, with a setting that would crash or reverse the run, a
    file that is not a JSON object, or a path that cannot be read exits 1
    with a config error and no traceback."""
    cfg = small_config(n_users=6)
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text(cfg.to_json())
    proc = _run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    small = {"n_users": 30, "tree_height": 1, "tree_degree": 2}
    attack = {"attacker_ids": [0]}
    # k below q, w above 64, and q + 8 above w; then each setting the error names
    docs = [({"detection": {"low_bits_override": 5}}, ""), ({"word_bits": 70}, ""), ({"frac_bits": 30}, "")]
    docs += [
        ({**small, "eta": 0, "attack": attack}, "eta"),
        ({**small, "eta": -1}, "eta"),
        ({**small, "detection": {"window": 0}}, "window"),
        ({**small, "synthetic": {"vector_len": 0}}, "vector_len"),
        ({**small, "mode": "toy_task", "task": {"classes_per_user": 0}}, "classes_per_user"),
        ({**small, "mode": "toy_task", "task": {"classes_per_user": 11}}, "classes_per_user"),
        ({**small, "attack": {**attack, "cap": -1}}, "cap"),
        ({**small, "detection": {"expansion": -1}}, "expansion"),
        ({**small, "detection": {"expansion": 0}}, "expansion"),
        ({**small, "mode": "toy_task", "task": {"local_lr": -0.5}}, "local_lr"),
        ({**small, "mode": "toy_task", "task": {"lr_decay": -0.8}}, "lr_decay"),
        ({**small, "inter_mask_margin_bits": -3}, "inter_mask_margin_bits"),
        ({**small, "mode": "toy_task", "task": {"noise": -1.0}}, "noise"),
        ({**small, "eta": float("inf")}, "eta"),
        ({**small, "eta": float("nan")}, "eta"),
    ]
    texts = [(json.dumps(doc), name) for doc, name in docs] + [("[1, 2]", "JSON list"), ("{bad", "not JSON")]
    for text, name in texts:
        cfg_path.write_text(text)
        proc = _run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, text
        assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr, text
        assert name in proc.stderr, text
    proc = _run_cli("run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1 and proc.stderr.startswith("config error: cannot read"), proc.stderr


def test_cli_saturated_run_exit_code(tmp_path: Path):
    """A run whose updates leave the fixed-point range, a 27-user toy task
    with a learning rate of 1e9, exits 1 with one saturation line and no
    traceback."""
    doc = {"n_users": 27, "tree_height": 1, "tree_degree": 3, "rounds": 2, "mode": "toy_task", "task": {"local_lr": 1e9}}
    cfg_path = tmp_path / "saturating.json"
    cfg_path.write_text(json.dumps(doc))
    proc = _run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("saturation error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_default_run(tmp_path: Path):
    """With no ``--config`` the CLI runs the ``ScenarioConfig`` defaults,
    243 users for 20 rounds, and writes a header and one row per round."""
    out = tmp_path / "o"
    proc = _run_cli("run", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len((out / "report.csv").read_text().splitlines()) == 1 + 20
    assert json.loads((out / "transcript.json").read_text())["config"] == json.loads(ScenarioConfig().to_json())


def test_cli_unknown_config_key(tmp_path: Path):
    """A stray key, a value of the wrong type and a section missing a
    required key each exit 1 with a config error naming the field."""
    docs = {"bogus": {"bogus": 1}, "n_users": {"n_users": "many"}, "attacker_ids": {"attack": {"strategy": "one_shot"}}}
    for name, doc in docs.items():
        cfg_path = tmp_path / "stray.json"
        cfg_path.write_text(json.dumps(doc))
        proc = _run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, name
        assert "config error" in proc.stderr and name in proc.stderr and "Traceback" not in proc.stderr
