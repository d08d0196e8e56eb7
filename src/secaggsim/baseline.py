"""Full-pairwise secure aggregation baseline.

Every user pairwise-masks with all N-1 others and secret-shares its
mask key and self-mask seed t-out-of-N across the whole population; no
grouping, no partial disclosure, no detection.  The engine reuses the
same user state machine as the tree protocol so instrumented counters
compare like for like: per-user mask expansions grow with N here versus
a constant for the tree, and each dropout costs one cancellation per
surviving peer instead of a handful.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .counters import OpCounters
from .crypto import DhGroup, Share, derive_shared_seed, prg_expand, randomize_pub, reconstruct_secret
from .errors import UnrecoverableRoundError
from .fixedpoint import ParamVector, SegmentSpec
from .useragent import UserAgent
from .wire import (
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    PeerHandle,
    PeerListMsg,
    TreeCommitMsg,
    UnmaskRequestMsg,
)


@dataclass
class BaselineResult:
    total: ParamVector
    included: list[int]  # users whose inputs are in the sum
    counters: OpCounters


def run_baseline_round(
    inputs: list[ParamVector],
    *,
    threshold: int,
    group: DhGroup,
    spec: SegmentSpec,
    rng: Random,
    dropouts: set[int] | None = None,
    counters: OpCounters | None = None,
) -> BaselineResult:
    """One aggregation round of the all-pairs protocol.

    ``dropouts`` drop at the worst time: after distributing shares but
    before uploading, so every one of their pairwise masks must be
    reconstructed and cancelled.
    """
    n = len(inputs)
    dropouts = dropouts or set()
    counters = counters if counters is not None else OpCounters()
    m = len(inputs[0])

    users = [
        UserAgent(
            u,
            group=group,
            spec=spec,
            inter_mask_bits=spec.low_bits,
            share_threshold=threshold,
            counters=counters,
        )
        for u in range(n)
    ]
    for u, agent in enumerate(users):
        agent.begin_round(Random(rng.getrandbits(64)), server_commit=bytes(32))
        agent.open_rand(TreeCommitMsg(bytes(32), n, bytes(32)))

    tokens = [u.to_bytes(8, "big") for u in range(n)]
    user_of_token = {tok: u for u, tok in enumerate(tokens)}
    mask_pubs = [agent.mask_keys.public for agent in users]

    # all-pairs blinded key exchange; orientation by the population order
    pair_rand: dict[tuple[int, int], tuple[int, int]] = {}
    for u in range(n):
        for v in range(u + 1, n):
            r = group.random_exponent(rng)
            pair_rand[(u, v)] = (
                randomize_pub(group, mask_pubs[v], r),  # handed to u
                randomize_pub(group, mask_pubs[u], r),  # handed to v
            )
            counters.key_randomizations_server += 2

    for u, agent in enumerate(users):
        handles = []
        for v in range(n):
            if v == u:
                continue
            lo, hi = min(u, v), max(u, v)
            for_u, for_v = pair_rand[(lo, hi)]
            handles.append(
                PeerHandle(
                    token=tokens[v],
                    randomized_pub=group.encode(for_u if u == lo else for_v),
                    sign=1 if u < v else -1,
                    kind="intra",
                    layer=0,
                )
            )
        agent.receive_peer_list(
            PeerListMsg(own_token=tokens[u], peers=tuple(handles), share_recipients=tuple(tokens))
        )

    outbox = [agent.distribute_shares() for agent in users]
    for msgs in outbox:
        for msg in msgs:
            users[user_of_token[msg.recipient_token]].receive_share(msg)

    uploads: dict[int, np.ndarray] = {}
    for u, agent in enumerate(users):
        if u in dropouts:
            continue
        uploads[u] = agent.mask_input(inputs[u]).vector()
    online = sorted(uploads)
    if not online:
        raise UnrecoverableRoundError("all users dropped")

    targets = tuple(
        (tokens[u], SECRET_SELF_SEED) if u in uploads else (tokens[u], SECRET_MASK_KEY)
        for u in range(n)
    )
    request = UnmaskRequestMsg(targets)
    collected: dict[bytes, dict[tuple[int, int], Share]] = {}
    for u in online:
        resp = users[u].unmask_response(request)
        for record in resp.shares:
            store = collected.setdefault(record.owner_token, {})
            for stype in record.secret_types():
                store[(stype, record.share_index)] = Share(
                    index=record.share_index, values=record.part(stype), threshold=threshold
                )

    def reconstruct(token: bytes, stype: int) -> int:
        store = collected.get(token, {})
        shares = sorted((s for (st, _), s in store.items() if st == stype), key=lambda s: s.index)
        if not shares or len(shares) < threshold:
            raise UnrecoverableRoundError(
                f"only {len(shares)} shares for user {user_of_token[token]}"
            )
        counters.shares_reconstructed += 1
        return reconstruct_secret(shares[:threshold])

    wordmask = np.uint64(spec.word_mask)
    total = np.zeros(m, dtype=np.uint64)
    for u in online:
        total = (total + uploads[u]) & wordmask
    for u in online:
        seed = reconstruct(tokens[u], SECRET_SELF_SEED).to_bytes(32, "big")
        mask = prg_expand(seed, m, spec)
        counters.prg_server += 1
        total = (total - mask.values) & wordmask

    for u in sorted(dropouts):
        secret = reconstruct(tokens[u], SECRET_MASK_KEY)
        for v in online:
            lo, hi = min(u, v), max(u, v)
            for_u, for_v = pair_rand[(lo, hi)]
            seed = derive_shared_seed(group, for_u if u == lo else for_v, secret)
            mask = prg_expand(seed, m, spec)
            counters.prg_server += 1
            counters.mask_cancellations += 1
            v_sign = 1 if v < u else -1
            if v_sign == 1:
                total = (total - mask.values) & wordmask
            else:
                total = (total + mask.values) & wordmask

    return BaselineResult(total=ParamVector(total, spec), included=online, counters=counters)
