"""Server state machine: round orchestration, dropout recovery,
hierarchical aggregation with partial disclosure, exclusion of flagged
subgroups, and the global model update.

The server never stores an unmasked individual vector: its model-domain
state is limited to masked uploads, per-leaf partial sums, and the global
model.  Self-mask removal and pairwise-mask cancellation work directly on
the partial sums; reconstructed secrets are integers, and the mask
vectors they imply are recomputed transiently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random

import numpy as np

from .counters import OpCounters
from .crypto import (
    Commitment,
    DhGroup,
    Share,
    commit,
    derive_shared_seed,
    prg_expand,
    randomize_pub,
    reconstruct_secret,
    verify_commitment,
)
from .errors import ProtocolAbort, UnrecoverableRoundError
from .fixedpoint import (
    ParamVector,
    SegmentSpec,
    dequantize_vector,
    quantize_vector,
    signed_values,
)
from .orgtree import TreeConfig, TreeSetup, build_peer_sets, commits_digest, masking_pairs, run_tree_setup
from .wire import (
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    AdvertMsg,
    MaskedUploadMsg,
    PeerHandle,
    PeerListMsg,
    RandOpenMsg,
    RevealMsg,
    ServerCommitMsg,
    ShareMsg,
    TreeCommitMsg,
    UnmaskRequestMsg,
    UnmaskResponseMsg,
)


@dataclass
class SubgroupAggregate:
    """One leaf's partial sum after self-mask removal and dropout repair.

    ``revealed_high`` carries only the high segments.  ``full_sum`` is
    not hidden below them: it differs from the true leaf sum only by the
    signed sum of the leaf's uncancelled inter-group masks, each below
    2^``inter_mask_bits``, so most of the low segment is in the clear too
    (at most 514 off against a 2^13 cell in the 243-user detection
    scenario; ROADMAP item 3).  ``void`` marks leaves with fewer than two
    survivors, which are excluded like flagged ones.
    """

    leaf: int
    revealed_high: ParamVector
    survivor_count: int
    member_tokens: list[bytes]
    full_sum: ParamVector
    void: bool = False


@dataclass
class _PairInfo:
    u: int
    v: int
    kind: str
    layer: int
    rand_pub_for_u: int  # pub_v ** r, handed to u
    rand_pub_for_v: int  # pub_u ** r, handed to v
    sign_u: int  # sign u applies; v applies the negative


def fedsgd_update(model: ParamVector, total: ParamVector, n_eff: int, eta: float) -> ParamVector:
    """One global step: X' = X + (eta / n)(S - n * X) in dequantized space.

    ``total`` is the modular sum of n_eff effective contributions; its
    signed decode is exact while |true sum| stays below 2^(w-1).
    """
    if n_eff <= 0:
        raise ValueError("need at least one effective contribution")
    x = dequantize_vector(model)
    s = signed_values(total) / model.spec.scale
    return quantize_vector(x + (eta / n_eff) * (s - n_eff * x), model.spec)


class AggServer:
    """Aggregation server for one simulated deployment."""

    def __init__(
        self,
        *,
        tree: TreeConfig,
        group: DhGroup,
        spec: SegmentSpec,
        inter_mask_bits: int,
        counters: OpCounters,
    ):
        self.tree = tree
        self.group = group
        self.spec = spec
        self.inter_mask_bits = inter_mask_bits
        self.counters = counters

    # -- setup phase ---------------------------------------------------------

    def begin_round(self, n_users: int, rng: Random) -> ServerCommitMsg:
        self.n_users = n_users
        self.rng = rng
        self.server_rand = rng.randbytes(32)
        self.server_nonce = rng.randbytes(16)
        self._share_pubs: list[bytes | None] = [None] * n_users
        self._mask_pubs: list[bytes | None] = [None] * n_users
        self._user_rands: list[bytes | None] = [None] * n_users
        self._user_nonces: list[bytes | None] = [None] * n_users
        self._rand_commits: list[bytes | None] = [None] * n_users
        self._uploads: dict[int, np.ndarray] = {}
        self._dropped: set[int] = set()
        # (owner token, secret type) -> share index -> limbs
        self._collected: dict[tuple[bytes, int], dict[int, tuple[int, ...]]] = {}
        self._mask_secrets: dict[int, int] = {}
        self._leaf_sums: dict[int, np.ndarray] = {}
        self._cancelled_pairs: set[tuple[int, int]] = set()
        self.setup: TreeSetup | None = None
        return ServerCommitMsg(commit(self.server_rand, self.server_nonce).digest)

    def receive_advert(self, user: int, msg: AdvertMsg) -> None:
        self._share_pubs[user] = msg.share_pub
        self._mask_pubs[user] = msg.mask_pub
        self._rand_commits[user] = msg.rand_commit

    def commit_tree(self) -> TreeCommitMsg:
        """Fix the tree shape after all keys are in, before any opening, and
        bind the advertised randomness commitments by their digest."""
        if any(p is None for p in self._share_pubs):
            raise ProtocolAbort("missing advertisements", blamed="server")
        self._tree_nonce = hashlib.sha256(b"tree-nonce" + self.server_nonce).digest()
        digest = commit(self.tree.describe(), self._tree_nonce).digest
        commits = commits_digest(self._rand_commits)  # type: ignore[arg-type]
        return TreeCommitMsg(digest, self.n_users, commits)

    def receive_open(self, user: int, msg: RandOpenMsg) -> None:
        if not verify_commitment(Commitment(self._rand_commits[user]), msg.user_rand, msg.nonce):
            raise ProtocolAbort(f"user {user} opened a different randomness", blamed=f"user:{user}")
        self._user_rands[user] = msg.user_rand
        self._user_nonces[user] = msg.nonce

    def finish_setup(self) -> None:
        """Derive identities, both assignments, tokens, and the pair plan."""
        self.setup = run_tree_setup(
            self.tree,
            self.server_rand,
            self.server_nonce,
            self._share_pubs,  # type: ignore[arg-type]
            self._mask_pubs,  # type: ignore[arg-type]
            self._user_rands,  # type: ignore[arg-type]
            self._user_nonces,  # type: ignore[arg-type]
        )
        n = self.n_users
        tokens: list[bytes] = []
        seen = set()
        for _ in range(n):
            tok = self.rng.randbytes(8)
            while tok in seen:
                tok = self.rng.randbytes(8)
            seen.add(tok)
            tokens.append(tok)
        self.tokens = tokens
        self.user_of_token = {tok: u for u, tok in enumerate(tokens)}

        mask_ids = self.setup.mask_ids
        peer_sets = build_peer_sets(self.setup.mask_assignment)
        self.peer_sets = peer_sets
        self._pairs: dict[tuple[int, int], _PairInfo] = {}
        self._pairs_of: dict[int, list[_PairInfo]] = {u: [] for u in range(n)}
        for u, v, kind, layer in masking_pairs(peer_sets):
            r = self.group.random_exponent(self.rng)
            pub_u = int.from_bytes(self._mask_pubs[u], "big")
            pub_v = int.from_bytes(self._mask_pubs[v], "big")
            info = _PairInfo(
                u=u,
                v=v,
                kind=kind,
                layer=layer,
                rand_pub_for_u=randomize_pub(self.group, pub_v, r),
                rand_pub_for_v=randomize_pub(self.group, pub_u, r),
                sign_u=1 if (mask_ids[u], u) < (mask_ids[v], v) else -1,
            )
            self.counters.key_randomizations_server += 2
            self._pairs[(u, v)] = info
            self._pairs_of[u].append(info)
            self._pairs_of[v].append(info)

    def peer_list_for(self, user: int) -> PeerListMsg:
        handles = []
        for info in self._pairs_of[user]:
            peer = info.v if info.u == user else info.u
            sign = info.sign_u if info.u == user else -info.sign_u
            rand_pub = info.rand_pub_for_u if info.u == user else info.rand_pub_for_v
            handles.append(
                PeerHandle(
                    token=self.tokens[peer],
                    randomized_pub=self.group.encode(rand_pub),
                    sign=sign,
                    kind=info.kind,
                    layer=info.layer,
                )
            )
        share_asn = self.setup.share_assignment
        leaf = share_asn.leaf_of[user]
        recipients = tuple(self.tokens[u] for u in share_asn.members[leaf])
        return PeerListMsg(
            own_token=self.tokens[user],
            peers=tuple(handles),
            share_recipients=recipients,
        )

    def route_share(self, msg: ShareMsg) -> int:
        """Relay an opaque share record to its recipient."""
        return self.user_of_token[msg.recipient_token]

    # -- upload and dropout ----------------------------------------------------

    def receive_upload(self, user: int, msg: MaskedUploadMsg) -> None:
        if user in self._dropped:
            return  # late upload from a dropped user is discarded
        self._uploads[user] = msg.vector()

    def mark_dropout(self, user: int) -> None:
        self._dropped.add(user)
        self._uploads.pop(user, None)

    @property
    def online_users(self) -> list[int]:
        return sorted(self._uploads)

    # -- unmask ------------------------------------------------------------------

    def unmask_requests(self) -> dict[int, UnmaskRequestMsg]:
        """Per-user requests: self-seed shares for online users, mask-key
        shares for dropped ones; each user is asked only about its own
        share subgroup."""
        share_asn = self.setup.share_assignment
        online = set(self._uploads)
        reqs: dict[int, UnmaskRequestMsg] = {}
        for user in online:
            leaf = share_asn.leaf_of[user]
            targets = []
            for mate in share_asn.members[leaf]:
                if mate in online:
                    targets.append((self.tokens[mate], SECRET_SELF_SEED))
                elif mate in self._dropped:
                    targets.append((self.tokens[mate], SECRET_MASK_KEY))
            reqs[user] = UnmaskRequestMsg(tuple(targets))
        return reqs

    def receive_unmask(self, user: int, msg: UnmaskResponseMsg) -> None:
        """Collect released shares; the threshold is the configured t, so a
        record claiming another one is rejected rather than trusted."""
        collected = self._collected
        t = self.tree.share_threshold
        for record in msg.shares:
            if record.threshold != t:
                raise ProtocolAbort(
                    f"user {user} released a share with threshold {record.threshold}, not {t}",
                    blamed=f"user:{user}",
                )
            for stype in record.secret_types():
                key = (record.owner_token, stype)
                store = collected.get(key)
                if store is None:
                    store = collected[key] = {}
                store[record.share_index] = record.part(stype)

    def _reconstruct(self, token: bytes, secret_type: int) -> int:
        store = self._collected.get((token, secret_type), {})
        t = self.tree.share_threshold
        if len(store) < t:
            owner = self.user_of_token[token]
            raise UnrecoverableRoundError(
                f"only {len(store)} shares for user {owner} secret type {secret_type}"
            )
        use = sorted(store)[:t]
        secret = reconstruct_secret([Share(index=i, values=store[i], threshold=t) for i in use])
        self.counters.shares_reconstructed += 1
        return secret

    def _pair_seed_via(self, owner: int, info: _PairInfo) -> bytes:
        """Recompute the pair seed from the owner's reconstructed key."""
        rand_pub = info.rand_pub_for_u if info.u == owner else info.rand_pub_for_v
        return derive_shared_seed(self.group, rand_pub, self._mask_secrets[owner])

    def recover_dropout(self, user: int, m: int) -> None:
        """Reconstruct a dropped user's mask key and cancel every mask an
        online peer applied with it from that peer's leaf sum."""
        if user not in self._mask_secrets:
            self._mask_secrets[user] = self._reconstruct(self.tokens[user], SECRET_MASK_KEY)
        mask_asn = self.setup.mask_assignment
        for info in self._pairs_of[user]:
            peer = info.v if info.u == user else info.u
            if peer not in self._uploads:
                continue  # neither side uploaded; nothing to cancel
            key = (min(user, peer), max(user, peer))
            if key in self._cancelled_pairs:
                continue
            self._cancelled_pairs.add(key)
            seed = self._pair_seed_via(user, info)
            bits = None if info.kind == "intra" else self.inter_mask_bits
            mask = prg_expand(seed, m, self.spec, mask_bits=bits)
            self.counters.prg_server += 1
            self.counters.mask_cancellations += 1
            peer_sign = info.sign_u if info.u == peer else -info.sign_u
            leaf = mask_asn.leaf_of[peer]
            wordmask = np.uint64(self.spec.word_mask)
            if peer_sign == 1:
                self._leaf_sums[leaf] = (self._leaf_sums[leaf] - mask.values) & wordmask
            else:
                self._leaf_sums[leaf] = (self._leaf_sums[leaf] + mask.values) & wordmask

    def aggregate_subgroups(self) -> list[SubgroupAggregate]:
        """Per-leaf survivor sums with self masks removed, dropout masks
        cancelled, and only the high segments exposed."""
        if not self._uploads:
            raise UnrecoverableRoundError("no uploads this round")
        mask_asn = self.setup.mask_assignment
        m = len(next(iter(self._uploads.values())))
        wordmask = np.uint64(self.spec.word_mask)

        for leaf, members in enumerate(mask_asn.members):
            acc = np.zeros(m, dtype=np.uint64)
            for u in members:
                if u in self._uploads:
                    acc = acc + self._uploads[u]
            self._leaf_sums[leaf] = acc & wordmask

        # remove self masks of every online user
        for user in self.online_users:
            token = self.tokens[user]
            seed_int = self._reconstruct(token, SECRET_SELF_SEED)
            seed = int(seed_int).to_bytes(32, "big")
            mask = prg_expand(seed, m, self.spec)
            self.counters.prg_server += 1
            leaf = mask_asn.leaf_of[user]
            self._leaf_sums[leaf] = (self._leaf_sums[leaf] - mask.values) & wordmask

        for user in sorted(self._dropped):
            self.recover_dropout(user, m)

        out = []
        k = np.uint64(self.spec.low_bits)
        for leaf, members in enumerate(mask_asn.members):
            survivors = [u for u in members if u in self._uploads]
            full = ParamVector(self._leaf_sums[leaf], self.spec)
            out.append(
                SubgroupAggregate(
                    leaf=leaf,
                    revealed_high=ParamVector(full.values >> k, self.spec),
                    survivor_count=len(survivors),
                    member_tokens=[self.tokens[u] for u in members],
                    full_sum=full,
                    void=len(survivors) < 2,
                )
            )
        self._aggregates = out
        return out

    # -- exclusion and finalization -------------------------------------------------

    def excluded_leaves(self, flagged: set[int]) -> set[int]:
        voids = {a.leaf for a in self._aggregates if a.void}
        return set(flagged) | voids

    def exclusion_requests(self, flagged: set[int]) -> dict[int, UnmaskRequestMsg]:
        """Ask for mask-key shares of every online member of an excluded
        leaf, marking them force-dropped.  Their uploads are discarded, so
        recovery does not expose any input the server still holds."""
        excluded = self.excluded_leaves(flagged)
        mask_asn = self.setup.mask_assignment
        share_asn = self.setup.share_assignment
        targets_by_holder: dict[int, list[tuple[bytes, int]]] = {}
        forced_by_holder: dict[int, list[bytes]] = {}
        for leaf in sorted(excluded):
            for member in mask_asn.members[leaf]:
                if member not in self._uploads:
                    continue  # already handled by dropout recovery
                token = self.tokens[member]
                sleaf = share_asn.leaf_of[member]
                for holder in share_asn.members[sleaf]:
                    if holder in self._uploads:
                        targets_by_holder.setdefault(holder, []).append((token, SECRET_MASK_KEY))
                        forced_by_holder.setdefault(holder, []).append(token)
        return {
            holder: UnmaskRequestMsg(tuple(targets), tuple(forced_by_holder[holder]))
            for holder, targets in targets_by_holder.items()
        }

    def finalize(self, flagged: set[int], model: ParamVector) -> tuple[ParamVector, int]:
        """Global sum over included leaves, with excluded members' residual
        inter-group masks cancelled and n_i * X_t substituted per excluded
        leaf.  Returns the total and the effective contribution count."""
        excluded = self.excluded_leaves(flagged)
        mask_asn = self.setup.mask_assignment
        m = len(model)
        wordmask = np.uint64(self.spec.word_mask)

        total = np.zeros(m, dtype=np.uint64)
        for leaf in range(self.tree.leaf_count):
            if leaf not in excluded:
                total = total + self._leaf_sums[leaf]
        total &= wordmask

        for leaf in sorted(excluded):
            for member in mask_asn.members[leaf]:
                if member not in self._uploads:
                    continue
                self._uploads.pop(member)  # discard the excluded upload
                if member not in self._mask_secrets:
                    self._mask_secrets[member] = self._reconstruct(
                        self.tokens[member], SECRET_MASK_KEY
                    )
                for info in self._pairs_of[member]:
                    if info.kind != "inter":
                        continue  # intra masks live inside the discarded sum
                    peer = info.v if info.u == member else info.u
                    if peer not in self._uploads:
                        continue
                    if mask_asn.leaf_of[peer] in excluded:
                        continue
                    seed = self._pair_seed_via(member, info)
                    mask = prg_expand(seed, m, self.spec, mask_bits=self.inter_mask_bits)
                    self.counters.prg_server += 1
                    self.counters.mask_cancellations += 1
                    peer_sign = info.sign_u if info.u == peer else -info.sign_u
                    if peer_sign == 1:
                        total = (total - mask.values) & wordmask
                    else:
                        total = (total + mask.values) & wordmask

        n_eff = len(self._uploads)
        for agg in self._aggregates:
            if agg.leaf in excluded and agg.survivor_count:
                total = (total + model.values * np.uint64(agg.survivor_count)) & wordmask
                n_eff += agg.survivor_count
        return ParamVector(total & wordmask, self.spec), n_eff

    def reveal(self) -> RevealMsg:
        """Post-upload opening of the tree, server randomness, and every
        user's keys and randomness, for client-side verification."""
        tr = self.setup.transcript
        return RevealMsg(
            server_rand=tr.server_rand,
            server_nonce=tr.server_nonce,
            tree_desc=tr.tree_desc,
            tree_nonce=tr.tree_nonce,
            user_records=tuple(zip(tr.share_pubs, tr.mask_pubs, tr.user_rands, tr.user_nonces)),
        )
