#!/usr/bin/env python3
"""Instrumented cost comparison: tree protocol vs full-pairwise baseline.

The baseline runs on the same engine as a one-leaf tree whose ring
covers every user.  Runs each point of the benchmark grid for one round
and prints its per-user PRG expansions, per-user traffic (in total, up
and down), and per-dropout recovery work across population sizes and
tree shapes, then the 1000-user tree-shape traffic comparison; the rows
go to a CSV whose columns are the fields of ``BenchRow``.  Then prints
fast64 Diffie-Hellman exponentiations per second, one builtin ``pow``
each and batched through ``pow_many``, at the batch sizes of a 243-user
and a 2000-user round's server key blinding, then Shamir share and
reconstruct rates at the threshold and share-leaf sizes of those rounds,
in each of the two share fields a fast64 user shares in.

Runs from a plain checkout: the package is imported from ``src/`` next to
this directory.
"""

import argparse
import csv
import sys
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from secaggsim.crypto import FAST_GROUP, SELF_SEED_BYTES, pow_many, reconstruct_secret, share_secret  # noqa: E402
from secaggsim.scenarios import exactness_config  # noqa: E402
from secaggsim.simulation import ScenarioConfig, run_scenario  # noqa: E402
from secaggsim.wire import SECRET_MASK_KEY, SECRET_SELF_SEED, SHARE_FIELDS  # noqa: E402

DH_BATCH_SIZES = (2_430, 24_060)
# (threshold, share-leaf size): the 243-user 3x3 detection tree and the 2000-user 4x3 tree
SHAMIR_POINTS = ((3, 9), (2, 25))
SHAMIR_OWNERS = 200


def field_label(prime: int) -> str:
    """A share field's prime as 2^k+c, k the largest power of two below it."""
    k = prime.bit_length() - 1
    return f"2^{k}+{prime - (1 << k)}"


# the fields a fast64 user shares its mask key and then its self seed in
SHAMIR_FIELDS = tuple(
    (field_label(SHARE_FIELDS[stype][0]), SHARE_FIELDS[stype][0]) for stype in (SECRET_MASK_KEY, SECRET_SELF_SEED)
)


@dataclass
class BenchRow:
    protocol: str
    n_users: int
    tree_shape: str
    vector_len: int
    dropout_rate: float
    per_user_prg: float
    per_user_bytes: float
    up_bytes_per_user: float
    down_bytes_per_user: float
    cancellations_per_dropout: float
    server_prg: int
    wall_ms: float


def bench_once(config: ScenarioConfig) -> BenchRow:
    """Run a single-round config (an ``exactness_config``) and count its cost."""
    started = time.perf_counter()
    report = run_scenario(config)
    wall_ms = (time.perf_counter() - started) * 1e3
    c = report.counters
    n_drop = int(round(config.dropout_rate * config.n_users))
    shape = f"{config.tree_height}x{config.tree_degree}" if config.protocol == "tree" else "flat"
    return BenchRow(
        protocol=config.protocol,
        n_users=config.n_users,
        tree_shape=shape,
        vector_len=config.synthetic.vector_len,
        dropout_rate=config.dropout_rate,
        per_user_prg=c.per_user_prg(config.n_users),
        per_user_bytes=c.per_user_bytes(config.n_users),
        up_bytes_per_user=c.bytes_user_to_server / config.n_users,
        down_bytes_per_user=c.bytes_server_to_user / config.n_users,
        cancellations_per_dropout=(c.mask_cancellations / n_drop) if n_drop else 0.0,
        server_prg=c.prg_server,
        wall_ms=wall_ms,
    )


def _best_rate(run, n: int, repeats: int) -> tuple[float, list[int]]:
    """Highest rate of ``run`` over ``repeats`` timed calls, and its output."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - started)
    return n / best, out


def dh_throughput(n: int, repeats: int = 3) -> tuple[float, float]:
    """Exponentiations per second for builtin pow and pow_many on n random
    fast64 bases and exponents; exits if the two disagree."""
    rng = Random(n)
    p = FAST_GROUP.p
    bases = [rng.randrange(p) for _ in range(n)]
    exps = [FAST_GROUP.random_exponent(rng) for _ in range(n)]
    builtin, expect = _best_rate(lambda: [pow(b, e, p) for b, e in zip(bases, exps)], n, repeats)
    batched, got = _best_rate(lambda: pow_many(p, bases, exps), n, repeats)
    if got != expect:
        sys.exit(f"pow_many differs from builtin pow at batch size {n}")
    return builtin, batched


def shamir_throughput(t: int, n: int, repeats: int = 3) -> list[tuple[str, float, float]]:
    """Per share field, as a fast64 user shares its mask key and then its
    self seed, one ``share_secret`` call each: the field, the shares per
    second ``share_secret`` makes and the secrets per second
    ``reconstruct_secret`` recovers from the shares at points 1..t; exits
    if a recovered secret differs."""
    rng = Random(t * 1000 + n)
    owners = [
        (FAST_GROUP.random_exponent(rng), int.from_bytes(rng.randbytes(SELF_SEED_BYTES), "big"))
        for _ in range(SHAMIR_OWNERS)
    ]
    rates = []
    for part, (field, prime) in enumerate(SHAMIR_FIELDS):
        secrets = [pair[part] for pair in owners]
        share_rate, dealt = _best_rate(
            lambda: [share_secret(s, t, n, rng, prime) for s in secrets], n * len(secrets), repeats
        )
        points = list(range(1, t + 1))
        picked = [values[:t] for values in dealt]
        rate, got = _best_rate(
            lambda: [reconstruct_secret(points, values, prime) for values in picked], len(picked), repeats
        )
        if got != secrets:
            sys.exit(f"reconstruct_secret differs from the shared secrets at t={t}, n={n} in {field}")
        rates.append((field, share_rate, rate))
    return rates


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="32,64,128")
    parser.add_argument("--dropout", type=float, default=0.15)
    parser.add_argument("--big", type=int, default=1000, help="population for the tree-shape row")
    parser.add_argument("--out", default="out/bench.csv")
    args = parser.parse_args()

    rows = []
    for n in (int(s) for s in args.sizes.split(",")):
        for protocol in ("tree", "baseline"):
            cfg = exactness_config(0, n, 2, 2, protocol=protocol, dropout_rate=args.dropout)
            rows.append(bench_once(cfg))
    for height, degree in ((2, 2), (3, 2), (3, 3)):
        cfg = exactness_config(0, args.big, height, degree, dropout_rate=args.dropout)
        rows.append(bench_once(cfg))

    for row in rows:
        print(
            f"{row.protocol:8s} N={row.n_users:5d} {row.tree_shape:4s} "
            f"prg/user={row.per_user_prg:8.2f} bytes/user={row.per_user_bytes:12.1f} "
            f"up={row.up_bytes_per_user:10.1f} down={row.down_bytes_per_user:12.1f} "
            f"cancel/drop={row.cancellations_per_dropout:8.2f} wall={row.wall_ms:9.1f}ms"
        )
    for n in DH_BATCH_SIZES:
        builtin, batched = dh_throughput(n)
        print(
            f"dh fast64 batch={n:6d} builtin pow={builtin:10.0f} exp/s "
            f"pow_many={batched:10.0f} exp/s ({batched / builtin:.1f}x)"
        )
    for t, n in SHAMIR_POINTS:
        for field, share_rate, rate in shamir_throughput(t, n):
            print(
                f"shamir t={t} n={n:3d} field={field:9s} share={share_rate:10.0f} shares/s "
                f"reconstruct={rate:10.0f} secrets/s"
            )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(BenchRow))
        writer.writerows(astuple(row) for row in rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
