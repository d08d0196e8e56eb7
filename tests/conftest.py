import hypothesis
import numpy as np
import pytest

from secaggsim.aggserver import AggServer
from secaggsim.counters import OpCounters
from secaggsim.crypto import FAST_GROUP
from secaggsim.fixedpoint import SegmentSpec, quantize_vector, zeros
from secaggsim.orgtree import TreeConfig
from secaggsim.simulation import execute_round
from secaggsim.useragent import UserAgent
from secaggsim.wire import StarTransport

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def spec() -> SegmentSpec:
    return SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)


def build_round(
    n_users: int,
    tree: TreeConfig,
    spec: SegmentSpec,
    *,
    inter_mask_bits: int | None = None,
    group=FAST_GROUP,
):
    """Fresh (server, users, transport, counters) for one protocol round."""
    bits = inter_mask_bits if inter_mask_bits is not None else spec.low_bits - 6
    counters = OpCounters()
    server = AggServer(tree=tree, group=group, spec=spec, inter_mask_bits=bits, counters=counters)
    users = [
        UserAgent(
            u,
            group=group,
            spec=spec,
            inter_mask_bits=bits,
            tree=tree,
            counters=counters,
        )
        for u in range(n_users)
    ]
    return server, users, StarTransport(counters), counters


def random_inputs(n_users: int, m: int, spec: SegmentSpec, seed: int, scale: float = 5.0):
    rng = np.random.default_rng(seed)
    return {u: quantize_vector(rng.uniform(-scale, scale, m), spec) for u in range(n_users)}


def plaintext_sum(inputs: dict, m: int, spec: SegmentSpec) -> np.ndarray:
    acc = np.zeros(m, dtype=np.uint64)
    for x in inputs.values():
        acc = (acc + x.values) & np.uint64(spec.word_mask)
    return acc


def run_plain_round(
    n_users: int,
    tree: TreeConfig,
    spec: SegmentSpec,
    inputs: dict,
    seed: int,
    *,
    pre_drop: set[int] | None = None,
    detector=None,
    group=FAST_GROUP,
    inter_mask_bits: int | None = None,
):
    server, users, transport, counters = build_round(
        n_users, tree, spec, group=group, inter_mask_bits=inter_mask_bits
    )
    m = len(next(iter(inputs.values())))
    if pre_drop:
        inputs = {u: x for u, x in inputs.items() if u not in pre_drop}
    result = execute_round(
        server=server,
        users=users,
        transport=transport,
        model=zeros(m, spec),
        inputs=inputs,
        round_seed=(seed, 0),
        pre_drop=pre_drop or set(),
        detector=detector,
    )
    return result, server, users, counters
