"""Server state machine: round orchestration, dropout recovery,
hierarchical aggregation with partial disclosure, exclusion of flagged
subgroups, and the global model update.

The server never stores an unmasked individual vector: its model-domain
state is limited to masked uploads, per-leaf partial sums, and the global
model.  Self-mask removal and pairwise-mask cancellation work directly on
the partial sums; reconstructed secrets are integers, and the mask
vectors they imply are recomputed transiently.

Exclusion is dropout recovery run late.  The online members of an
excluded leaf are marked dropped, their mask keys are reconstructed, and
``recover_dropout`` cancels the masks they share with included leaves,
as for a user that never uploaded.

Unmask asks exactly t holders per secret.  A secret's holders are the
online members of its owner's share leaf, taken in leaf order and
cyclically from just after the owner, so the owner is asked last and
each holder is asked about roughly t owners.  A shortfall (a missing
response or a refused slot) is asked again: each further call of
``unmask_requests`` or ``exclusion_requests`` asks holders not yet asked
for the secrets still below t, and returns nothing once no holder is
left, so the exchange loop ends and reconstruction raises
``UnrecoverableRoundError``.

Owners and holders are named on the wire by their evaluation points,
their 1-based places in their share leaf, and the server maps a point
back to a user through the leaf it sent to or heard from.  It keeps the
targets it last sent each holder, and a response answers them by
position, one slot per target, so the server files each released share
under the secret it asked for, at the holder's own point; neither is on
the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .counters import OpCounters
from .crypto import (
    RAND_BYTES,
    SELF_SEED_BYTES,
    DhGroup,
    add_masks,
    commit_random,
    derive_shared_seeds,
    randomize_pubs,
    reconstruct_secret,
)
from .errors import ProtocolAbort, UnrecoverableRoundError, WireError
from .fixedpoint import (
    ParamVector,
    SegmentSpec,
    dequantize_vector,
    quantize_vector,
    signed_values,
)
from .orgtree import TreeConfig, TreeSetup, build_peer_sets, commits_digest, run_tree_setup
from .wire import (
    ENTRY_BYTES,
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    SHARE_FIELDS,
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
    full_sum: ParamVector
    void: bool = False


@dataclass
class _PeerEnd:
    """One end of a masking pair, as its owner sees it."""

    peer: int
    sign: int  # sign the owner applies; the peer applies the negative
    rand_pub: int  # peer's mask pub ** r, handed to the owner
    kind: str


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

    def begin_round(self, n_users: int, rng: Random, model_len: int) -> ServerCommitMsg:
        self.n_users = n_users
        self.model_len = model_len
        self.rng = rng
        self.server_rand = rng.randbytes(RAND_BYTES)
        self._share_pubs: list[bytes | None] = [None] * n_users
        self._mask_pubs: list[bytes | None] = [None] * n_users
        self._user_rands: list[bytes | None] = [None] * n_users
        self._rand_commits: list[bytes | None] = [None] * n_users
        self._uploads: dict[int, np.ndarray] = {}
        self._dropped: set[int] = set()
        # share leaf -> sender -> entry bodies of its SHARE bundle
        self._share_inbox: dict[int, dict[int, bytes]] = {}
        # (owner, secret type) -> holder's evaluation point -> share bytes
        self._collected: dict[tuple[int, int], dict[int, bytes]] = {}
        # (owner, secret type) -> holders asked for it this round
        self._asked: dict[tuple[int, int], set[int]] = {}
        # holder -> (owner, secret type) of each target of its latest request
        self._sent: dict[int, list[tuple[int, int]]] = {}
        self._leaf_sums: dict[int, np.ndarray] = {}
        self.setup: TreeSetup | None = None
        return ServerCommitMsg(commit_random(self.server_rand))

    def receive_advert(self, user: int, msg: AdvertMsg) -> None:
        """File a user's keys and randomness commitment; a key whose value k
        is outside 1 < k < p - 1 (RFC 7919, section 5.1) is blamed on the
        user.  Each key is ``element_bytes`` long by the ADVERT layout.

        No key is raised to q to test that it lies in the order-q subgroup:
        p is a safe prime, so 1 and p - 1 are the only elements of order at
        most 2, and any other key leaks at most its quadratic character.
        ``pow(k, q, p)`` would cost 23 us per fast64 key, about 0.09 s per
        round of 2000 users."""
        top = self.group.p - 1
        for name, key in (("share", msg.share_pub), ("mask", msg.mask_pub)):
            if not 1 < int.from_bytes(key, "big") < top:
                raise ProtocolAbort(
                    f"user {user} advertised a {name} key k outside 1 < k < p - 1", blamed=f"user:{user}"
                )
        self._share_pubs[user] = msg.share_pub
        self._mask_pubs[user] = msg.mask_pub
        self._rand_commits[user] = msg.rand_commit

    def commit_tree(self) -> TreeCommitMsg:
        """Bind the advertised randomness commitments by N and their digest,
        once all keys are in and before any opening; the tree shape is
        public, and each user's ``verify_reveal`` replays the grouping
        under its own copy."""
        if any(p is None for p in self._share_pubs):
            raise ProtocolAbort("missing advertisements", blamed="server")
        return TreeCommitMsg(self.n_users, commits_digest(self._rand_commits))  # type: ignore[arg-type]

    def receive_open(self, user: int, msg: RandOpenMsg) -> None:
        if commit_random(msg.user_rand) != self._rand_commits[user]:
            raise ProtocolAbort(f"user {user} opened a different randomness", blamed=f"user:{user}")
        self._user_rands[user] = msg.user_rand

    def finish_setup(self) -> None:
        """Derive both assignments, evaluation points, and the pair plan,
        each pair signed +1 at the end ranked first in the mask order, as
        Bonawitz et al. (CCS 2017) sign a pair by the order of its ends."""
        self.setup = run_tree_setup(
            self.tree,
            self.server_rand,
            self._share_pubs,  # type: ignore[arg-type]
            self._mask_pubs,  # type: ignore[arg-type]
            self._user_rands,  # type: ignore[arg-type]
        )
        n = self.n_users
        # unused: the 16 bytes once drawn in begin_round and 8 per user once
        # drawn as random per-user names; drawing them leaves every later draw
        # (blinding factors), and with it the masks and flagged leaves, unchanged
        self.rng.randbytes(16 + 8 * n)
        # each user's evaluation point: its 1-based place in its share leaf
        self._point = [0] * n
        for members in self.setup.share_assignment.members:
            for i, u in enumerate(members, 1):
                self._point[u] = i

        # each user's rank in the mask order, which sorts by (identity, index)
        rank = {u: i for i, u in enumerate(u for leaf in self.setup.mask_assignment.members for u in leaf)}
        pubs = [int.from_bytes(pub, "big") for pub in self._mask_pubs]
        pairs = build_peer_sets(self.setup.mask_assignment)
        rs = [self.group.random_exponent(self.rng) for _ in pairs]
        # one pair's r blinds v's key for u, then u's key for v
        blinded = randomize_pubs(
            self.group,
            [pub for u, v, _ in pairs for pub in (pubs[v], pubs[u])],
            [r for r in rs for _ in range(2)],
        )
        self._ends: list[list[_PeerEnd]] = [[] for _ in range(n)]
        for i, (u, v, kind) in enumerate(pairs):
            sign = 1 if rank[u] < rank[v] else -1
            self._ends[u].append(_PeerEnd(v, sign, blinded[2 * i], kind))
            self._ends[v].append(_PeerEnd(u, -sign, blinded[2 * i + 1], kind))
        self.counters.key_randomizations_server += len(blinded)

    def peer_list_for(self, user: int) -> PeerListMsg:
        handles = tuple(
            PeerHandle(self.group.encode(end.rand_pub), end.sign, end.kind)
            for end in self._ends[user]
        )
        share_asn = self.setup.share_assignment
        leaf_size = len(share_asn.members[share_asn.leaf_of[user]])
        return PeerListMsg(own_point=self._point[user], leaf_size=leaf_size, peers=handles)

    def route_share(self, sender: int, msg: ShareMsg) -> list[tuple[int, ShareMsg]]:
        """Check one sender's SHARE bundle and hold it; once every member of
        the sender's share leaf has sent, re-slice the leaf's bundles into
        one per member and return them with their recipients.

        A bundle is one 25-byte body of key share (8) and seed share (17)
        per entry, whose position gives its recipient (see ``wire``; its
        decoder rejects bytes that are not whole entries).  It must be the
        sender's first, one entry for every other member of its share leaf;
        any other is blamed on the sender.  The relay moves entry bodies by
        position and never decodes a share, but the shares are plaintext:
        the server could read them until ROADMAP item 7 encrypts each entry
        body.
        """
        share_asn = self.setup.share_assignment
        leaf = share_asn.leaf_of[sender]
        members = share_asn.members[leaf]
        inbox = self._share_inbox.setdefault(leaf, {})
        w = ENTRY_BYTES
        mates = len(members) - 1
        fault = None
        if len(msg.bodies) != mates * w:
            fault = f"sent {len(msg.bodies) // w} share entries for its {mates} share recipients"
        elif sender in inbox:
            fault = "sent a second share bundle"
        if fault is not None:
            raise ProtocolAbort(f"user {sender} {fault}", blamed=f"user:{sender}")
        inbox[sender] = msg.bodies
        if len(inbox) < len(members):
            return []
        # owner i's bundle skips i, so recipient j is entry j - 1 of the
        # bundles of owners before it and entry j of those after it
        rows = [inbox[owner] for owner in members]
        out = []
        for j, recipient in enumerate(members):
            before, after = (j - 1) * w, j * w
            bodies = [row[before:after] for row in rows[:j]] + [row[after : after + w] for row in rows[j + 1 :]]
            out.append((recipient, ShareMsg(b"".join(bodies))))
        return out

    # -- upload and dropout ----------------------------------------------------

    def receive_upload(self, user: int, msg: MaskedUploadMsg) -> None:
        if user in self._dropped:
            return  # late upload from a dropped user is discarded
        try:
            vector = msg.vector(self.spec)
        except WireError as exc:
            raise ProtocolAbort(f"user {user} sent a malformed upload: {exc}", blamed=f"user:{user}") from exc
        if len(vector) != self.model_len:
            raise ProtocolAbort(
                f"user {user} uploaded {len(vector)} words, not {self.model_len}", blamed=f"user:{user}"
            )
        self._uploads[user] = vector

    def mark_dropout(self, user: int) -> None:
        self._dropped.add(user)
        self._uploads.pop(user, None)

    @property
    def online_users(self) -> list[int]:
        return sorted(self._uploads)

    # -- unmask ------------------------------------------------------------------

    def _requests(self, owners: dict[int, int], *, forced: bool = False) -> dict[int, UnmaskRequestMsg]:
        """Ask for each owner's secret of the given type from as many new
        holders as it is short of t filed rows.

        The holders are the online members of the owner's share leaf in
        leaf order, cyclically from just after the owner, skipping any
        already asked for that secret this round.  So a first call asks t
        holders per secret, and a later one asks one new holder per
        missing row while any is left.  Each target names its owner by
        the owner's point, and the server keeps each holder's targets to
        read its response.  With ``forced``, each request marks its
        targets as force-dropped."""
        members_of = self.setup.share_assignment.members
        leaf_of = self.setup.share_assignment.leaf_of
        t, point, uploads = self.tree.share_threshold, self._point, self._uploads
        targets: dict[int, list[tuple[int, int]]] = {}
        self._sent = targets
        for owner, stype in owners.items():
            store = self._collected.setdefault((owner, stype), {})
            asked = self._asked.setdefault((owner, stype), set())
            need = t - len(store)
            members = members_of[leaf_of[owner]]
            n, at = len(members), point[owner]
            for step in range(n):
                if need <= 0:
                    break
                holder = members[(at + step) % n]
                if holder in uploads and holder not in asked:
                    asked.add(holder)
                    targets.setdefault(holder, []).append((owner, stype))
                    need -= 1
        return {
            holder: UnmaskRequestMsg(tuple((point[owner], stype) for owner, stype in pairs), forced)
            for holder, pairs in targets.items()
        }

    def unmask_requests(self) -> dict[int, UnmaskRequestMsg]:
        """Per-user requests: self-seed shares for online users, mask-key
        shares for dropped ones, t holders per secret from the owner's
        share subgroup.  Call again after the responses: the next requests
        re-ask for the secrets still short of t rows, and none are left
        once every secret has t rows or no holder to ask."""
        owners = dict.fromkeys(self._uploads, SECRET_SELF_SEED)
        owners.update(dict.fromkeys(self._dropped, SECRET_MASK_KEY))
        return self._requests(owners)

    def receive_unmask(self, user: int, msg: UnmaskResponseMsg) -> None:
        """File the shares the user released, each at its own evaluation
        point, under the targets of the request last sent it: the response
        holds one slot per target in the request's order, each of its
        target's width in ``SHARE_FIELDS``.

        A released share at or above its field's prime aborts the round
        blamed on the user.  A wrong share inside the field is filed: it
        cannot be told from an honest one without verifiable shares."""
        point = self._point[user]
        for (owner, stype), (released, share) in zip(self._sent[user], msg.slots, strict=True):
            if not released:
                continue
            if int.from_bytes(share, "big") >= SHARE_FIELDS[stype][0]:
                raise ProtocolAbort(f"user {user} released a share outside its field", blamed=f"user:{user}")
            self._collected[(owner, stype)][point] = share

    def _reconstruct(self, owner: int, secret_type: int) -> int:
        """The secret from its first t filed rows, interpolated in its own
        field (``SHARE_FIELDS``)."""
        store = self._collected.get((owner, secret_type), {})
        t = self.tree.share_threshold
        if len(store) < t:
            raise UnrecoverableRoundError(
                f"only {len(store)} shares for user {owner} secret type {secret_type}"
            )
        use = sorted(store)[:t]
        prime = SHARE_FIELDS[secret_type][0]
        secret = reconstruct_secret(use, [int.from_bytes(store[i], "big") for i in use], prime)
        self.counters.shares_reconstructed += 1
        return secret

    def recover_dropout(self, users: list[int], m: int) -> None:
        """Reconstruct each dropped user's mask key and cancel every mask an
        online peer applied with it from that peer's leaf sum.  A pair is
        cancelled only from its dropped end while the other end is online,
        so no pair is cancelled twice.  The seeds of all those pairs are
        derived in one batch; each uses only the reconstructed key of its
        dropped end and the blinded key the server handed that end.  It
        runs on the pre-upload dropouts, then on the online members of
        excluded leaves; the two are disjoint, so no key is rebuilt twice.

        The masks are expanded with ``add_masks``, one batch per (leaf,
        kind), its rows signed by the dropped end (the peer applied the
        negative), into a copy of the uint64 leaf sum that then replaces
        it: aggregates alias the old sums."""
        ends: list[_PeerEnd] = []
        keys: list[int] = []
        for user in users:
            secret = self._reconstruct(user, SECRET_MASK_KEY)
            for end in self._ends[user]:
                if end.peer in self._uploads:  # else neither side uploaded; nothing to cancel
                    ends.append(end)
                    keys.append(secret)
        seeds = derive_shared_seeds(self.group, [end.rand_pub for end in ends], keys)
        leaf_of = self.setup.mask_assignment.leaf_of
        # leaf -> kind -> (plus seeds, minus seeds)
        batches: dict[int, dict[str, tuple[list[bytes], list[bytes]]]] = {}
        for end, seed in zip(ends, seeds):
            kinds = batches.setdefault(leaf_of[end.peer], {})
            kinds.setdefault(end.kind, ([], []))[end.sign == -1].append(seed)
        wordmask = np.uint64(self.spec.word_mask)
        for leaf, kinds in batches.items():
            acc = self._leaf_sums[leaf].copy()
            for kind, (plus, minus) in kinds.items():
                add_masks(acc, plus + minus, len(plus), self.spec, None if kind == "intra" else self.inter_mask_bits)
            acc &= wordmask
            self._leaf_sums[leaf] = acc
        self.counters.prg_server += len(ends)
        self.counters.mask_cancellations += len(ends)

    def aggregate_subgroups(self) -> list[SubgroupAggregate]:
        """Per-leaf survivor sums with self masks removed, dropout masks
        cancelled, and only the high segments exposed.

        Each online user's self seed is reconstructed, and each leaf's self
        masks are removed as one ``add_masks`` batch, summed in the ring's
        native word, from the leaf's uint64 sum, which is reduced mod 2^w
        once."""
        mask_asn = self.setup.mask_assignment
        m = self.model_len
        self_seeds = {}
        for user in self.online_users:
            seed_int = self._reconstruct(user, SECRET_SELF_SEED)
            if seed_int >> 8 * SELF_SEED_BYTES:  # a wrong share; whose needs ROADMAP item 10
                raise UnrecoverableRoundError(f"user {user} self seed reconstructs outside {SELF_SEED_BYTES} bytes")
            self_seeds[user] = seed_int.to_bytes(SELF_SEED_BYTES, "big")

        # the sums are fresh, so they are updated in place, wrapping mod
        # 2^64 until one reduction: no aggregate aliases them yet
        wordmask = np.uint64(self.spec.word_mask)
        for leaf, members in enumerate(mask_asn.members):
            online = [u for u in members if u in self_seeds]
            acc = self._leaf_sums[leaf] = np.zeros(m, dtype=np.uint64)
            for u in online:
                acc += self._uploads[u]
            add_masks(acc, [self_seeds[u] for u in online], 0, self.spec)
            acc &= wordmask
        self.counters.prg_server += len(self_seeds)

        self.recover_dropout(sorted(self._dropped), m)

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

    def _online_in(self, leaves: set[int]) -> list[int]:
        """Online members of the given leaves, leaf by leaf."""
        members = self.setup.mask_assignment.members
        return [u for leaf in sorted(leaves) for u in members[leaf] if u in self._uploads]

    def exclusion_requests(self, flagged: set[int]) -> dict[int, UnmaskRequestMsg]:
        """Ask t holders for the mask-key shares of every online member of
        an excluded leaf, marked force-dropped: ``finalize`` recovers them
        like any dropout and discards their uploads, so recovery does not
        expose any input the server still holds.  Like ``unmask_requests``,
        a further call re-asks for the secrets still short of t rows."""
        owners = dict.fromkeys(self._online_in(self.excluded_leaves(flagged)), SECRET_MASK_KEY)
        return self._requests(owners, forced=True)

    def finalize(self, flagged: set[int], model: ParamVector) -> tuple[ParamVector, int]:
        """Exclude each excluded leaf as a dropout: mark its online members
        dropped and let ``recover_dropout`` cancel the masks they share with
        included leaves.  The total is the included leaf sums plus
        n_i * X_t per excluded leaf; every survivor counts once in the
        returned effective contribution count."""
        excluded = self.excluded_leaves(flagged)
        forced = self._online_in(excluded)
        for user in forced:
            self.mark_dropout(user)
        self.recover_dropout(forced, len(model))
        total = np.zeros(len(model), dtype=np.uint64)
        for agg in self._aggregates:
            if agg.leaf in excluded:
                total += model.values * np.uint64(agg.survivor_count)
            else:
                total += self._leaf_sums[agg.leaf]
        n_eff = sum(agg.survivor_count for agg in self._aggregates)
        return ParamVector(total & np.uint64(self.spec.word_mask), self.spec), n_eff

    def reveal(self) -> RevealMsg:
        """Post-upload opening for client-side verification: the server
        randomness, which opens the SERVER_COMMIT digest alone, and every
        user's keys and randomness from the lists the grouping used."""
        return RevealMsg(self.server_rand, tuple(zip(self._share_pubs, self._mask_pubs, self._user_rands)))
