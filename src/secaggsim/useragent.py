"""Per-user protocol state machine.

A user advertises one-time keys, commits and opens its grouping
randomness, secret-shares its mask key and self-mask seed among an
anonymous recipient list, uploads its masked input, and answers unmask
requests under the release rules.  Users never see identities or
subgroup structure: peers arrive as server-randomized key handles, and
of its share leaf a user learns only the size and its own place, which
is its evaluation point.  A mate's place is the user's only name for it.

Shares travel as bundles relayed by the server (see ``wire``): one from
each user with an entry per mate, and one to each user with an entry per
owner, each entry a 25-byte body, an 8-byte mask-key share and a
17-byte self-seed share, that names no point, as its place in the bundle
gives it.  A user keeps its bundle as bytes, in leaf order, so an
owner's entry sits at (owner point - 1) entry widths, and only slices
out the shares it releases.  The entries are not encrypted, so
the relay can read every share until ROADMAP item 7 encrypts each entry
body.

Every user derives one shared seed per peer handle from its own mask
secret and the handle's blinded key, and keeps the seeds in handle
order: a handle carries no point, so a user cannot tell which of its
masking peers are among its share leaf mates.  ``receive_peer_lists``
runs that step for many agents at once so the simulator can evaluate all
their exponentiations in one batch; it is only an evaluation order, as
each agent's seeds still depend on nothing but its own secret and its
own peer list.

Release rule: within a round, a user never hands the server shares of
both a target's mask key and the same target's self-mask seed.  The only
sanctioned override is a request the server marks forced, whose targets
it excluded after detection (forced dropouts, whose uploads the server
discards); those releases are recorded so a transcript audit can list
every override.  The rule binds each holder alone: the server asks only t
holders per secret, so holders it did not ask for a target's self seed
would still release that target's mask key.  A user answers every
target of a request in its slot, in the request's order: the share it
releases, or a zero-filled refusal.
"""

from __future__ import annotations

from random import Random

from .counters import OpCounters
from .crypto import (
    RAND_BYTES,
    SELF_SEED_BYTES,
    DhGroup,
    KeyPair,
    add_masks,
    commit_random,
    derive_shared_seeds,
    share_secret,
)
from .errors import ProtocolAbort
from .fixedpoint import ParamVector, SegmentSpec, word_dtype
from .orgtree import TreeConfig, TreeSetup, commits_digest, verify_setup
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
    ShareMsg,
    TreeCommitMsg,
    UnmaskRequestMsg,
    UnmaskResponseMsg,
    share_bodies,
    share_part,
)

# Monotone round phases.
PHASE_IDLE = "idle"
PHASE_ADVERTISE = "advertise"
PHASE_COMMIT = "commit"
PHASE_SHARE = "share"
PHASE_UPLOAD = "upload"
PHASE_UNMASK = "unmask"

_ORDER = [PHASE_IDLE, PHASE_ADVERTISE, PHASE_COMMIT, PHASE_SHARE, PHASE_UPLOAD, PHASE_UNMASK]


class UserAgent:
    """One protocol participant; owns its keys and round state.  ``tree``
    is the public shape it was set up for: its t, and the shape
    ``verify_reveal`` replays the grouping under."""

    def __init__(
        self,
        index: int,
        *,
        group: DhGroup,
        spec: SegmentSpec,
        inter_mask_bits: int,
        tree: TreeConfig,
        counters: OpCounters,
    ):
        self.index = index
        self.group = group
        self.spec = spec
        self.inter_mask_bits = inter_mask_bits
        self.tree = tree
        self.counters = counters
        self.phase = PHASE_IDLE
        self._rng: Random | None = None

    # -- phase checks -------------------------------------------------------

    def _advance(self, new: str) -> None:
        """Move to ``new`` from the phase before it in ``_ORDER``; the
        server's messages drive every move, so any other is its fault."""
        if _ORDER.index(new) != _ORDER.index(self.phase) + 1:
            raise ProtocolAbort(f"user {self.index} asked to move {self.phase} -> {new}", blamed="server")
        self.phase = new

    # -- advertise / commit -------------------------------------------------

    def begin_round(self, rng: Random, server_commit: bytes) -> AdvertMsg:
        """Draw fresh per-round secrets and advertise public keys."""
        self.phase = PHASE_IDLE
        self._rng = rng
        self.seen_server_commit = server_commit
        self.mask_keys = KeyPair.generate(self.group, rng)
        self.id_keys = KeyPair.generate(self.group, rng)
        # the PRG keys AES-128, so 16 bytes are all it uses; drawing 32 keeps
        # every later draw (the grouping randomness, then the share
        # polynomials), and with it every pinned report, where it is
        self.self_seed = rng.randbytes(32)[:SELF_SEED_BYTES]
        self.round_rand = rng.randbytes(RAND_BYTES)
        self._peer_handles: tuple[PeerHandle, ...] = ()
        self._pair_seeds: list[bytes] = []  # one per peer handle, in order
        self._share_count = 0  # members of the share leaf, this user included
        self._own_pos = 0  # 0-based place in the share leaf; the evaluation point is one more
        self._held = b""  # entry bodies in leaf order
        self._released: dict[int, int] = {}  # owner point -> bits 1 << released type
        self.forced_releases: list[int] = []  # owner points
        self.seen_tree_commit: TreeCommitMsg | None = None
        self._advance(PHASE_ADVERTISE)
        return AdvertMsg(
            share_pub=self.group.encode(self.id_keys.public),
            mask_pub=self.group.encode(self.mask_keys.public),
            rand_commit=commit_random(self.round_rand),
        )

    def open_rand(self, tree_commit: TreeCommitMsg) -> RandOpenMsg:
        """Open the grouping randomness once the digest of everyone's
        randomness commitments is fixed."""
        self.seen_tree_commit = tree_commit
        self._advance(PHASE_COMMIT)
        return RandOpenMsg(self.round_rand)

    # -- share distribution --------------------------------------------------

    def receive_peer_list(self, msg: PeerListMsg) -> None:
        """Store opaque peer handles and derive one shared seed per peer."""
        receive_peer_lists([self], [msg])

    def distribute_shares(self) -> ShareMsg:
        """Bundle one entry per mate carrying both secrets' shares.

        The mask key, then the self seed, is shared in its own field of
        ``SHARE_FIELDS``, under the same evaluation points.  Evaluation
        point i goes to the leaf's i-th member; the bundle holds the mates'
        entries in leaf order, and the entry at the user's own point is
        retained.
        """
        self._advance(PHASE_SHARE)
        n = self._share_count
        t = self.tree.share_threshold
        if n < t:
            raise ProtocolAbort(
                f"user {self.index} got a share leaf of {n} for threshold {t}",
                blamed="server",
            )
        key_prime, seed_prime = SHARE_FIELDS[SECRET_MASK_KEY][0], SHARE_FIELDS[SECRET_SELF_SEED][0]
        keys = share_secret(self.mask_keys.secret, t, n, self._rng, key_prime)
        seeds = share_secret(int.from_bytes(self.self_seed, "big"), t, n, self._rng, seed_prime)
        self.counters.shares_created += 2 * n
        bodies = share_bodies(zip(keys, seeds))
        self._held = bodies.pop(self._own_pos)
        return ShareMsg(b"".join(bodies))

    def receive_share(self, msg: ShareMsg) -> None:
        """Keep the server's bundle of this user's shares as bytes.

        The bundle holds one entry per mate, in leaf order.  With the
        retained entry spliced in at this user's place, each owner's entry
        sits at (owner point - 1) entry widths, so nothing is decoded before
        it is released.  Anything but one bundle of one entry per mate
        (its decoder takes only whole 25-byte entries), after its own shares
        went out, is the server's fault and is rejected whole.
        """
        w, mates = ENTRY_BYTES, self._share_count - 1
        fault = None
        if self.phase != PHASE_SHARE:
            fault = f"got shares in phase {self.phase}"
        elif len(self._held) != w:
            fault = "got a second share bundle, repeating held share slots"
        elif len(msg.bodies) != mates * w:
            fault = f"got {len(msg.bodies) // w} share entries for {mates} mates"
        if fault is not None:
            raise ProtocolAbort(f"user {self.index} {fault}", blamed="server")
        cut = self._own_pos * w
        self._held = msg.bodies[:cut] + self._held + msg.bodies[cut:]

    # -- masked upload --------------------------------------------------------

    def mask_input(self, x: ParamVector) -> MaskedUploadMsg:
        """Blind the input with the self mask plus every pairwise mask.

        Intra-group masks span the full word; inter-group masks are
        confined to the low ``inter_mask_bits`` bits so the revealable
        high segment of a subgroup aggregate stays meaningful.  Two
        ``add_masks`` calls expand them, one for the self and intra seeds
        and one for the inter seeds, each with its plus rows first.  The
        masks accumulate in the ring's native word (``word_dtype(w)``),
        wrapping mod 2^(8 * width), and are reduced mod 2^w once at the end.
        """
        self._advance(PHASE_UPLOAD)
        if x.spec != self.spec:
            raise ValueError("SegmentSpec mismatch")
        # kind -> (plus seeds, minus seeds); the self mask is added
        seeds = {"intra": ([self.self_seed], []), "inter": ([], [])}
        for handle, seed in zip(self._peer_handles, self._pair_seeds):
            seeds[handle.kind][handle.sign == -1].append(seed)
        y = x.values.astype(word_dtype(self.spec.word_bits))
        for kind, bits in (("intra", None), ("inter", self.inter_mask_bits)):
            plus, minus = seeds[kind]
            add_masks(y, plus + minus, len(plus), self.spec, bits)
            self.counters.prg_by_user[self.index] += len(plus) + len(minus)
        if self.spec.word_bits < 8 * y.itemsize:
            y &= y.dtype.type(self.spec.word_mask)
        return MaskedUploadMsg.from_vector(y, self.spec)

    # -- unmask ----------------------------------------------------------------

    def unmask_response(self, req: UnmaskRequestMsg) -> UnmaskResponseMsg:
        """Answer each requested target under the never-both rule, one slot
        per target in the request's order.

        A request for the complementary type of an already-released target
        is refused, its slot zero-filled, unless the request is forced
        (post-detection exclusion) and asks for the mask key; overrides land
        in ``forced_releases``.  A target is named by its owner's point.  A
        request before this user's share bundle arrived, a target outside
        its share leaf, or a held share at or above its field's prime
        (``SHARE_FIELDS``), which came in a bundle the server relayed,
        aborts the round blamed on the server.
        """
        if self.phase == PHASE_UPLOAD:
            self._advance(PHASE_UNMASK)
        elif self.phase != PHASE_UNMASK:
            raise ProtocolAbort(
                f"unmask request in phase {self.phase}", blamed="server"
            )
        held, done_for = self._held, self._released
        if len(held) != self._share_count * ENTRY_BYTES:
            raise ProtocolAbort(f"user {self.index} got an unmask request before its share bundle", blamed="server")
        slots: list[tuple[bool, bytes]] = []
        for owner, stype in req.targets:
            if not 1 <= owner <= self._share_count:
                raise ProtocolAbort(
                    f"user {self.index} asked for owner point {owner} outside its share leaf", blamed="server"
                )
            share = share_part(held, (owner - 1) * ENTRY_BYTES, stype)
            done = done_for.get(owner, 0)
            other = SECRET_MASK_KEY if stype == SECRET_SELF_SEED else SECRET_SELF_SEED
            if done & (1 << other):
                if req.forced and stype == SECRET_MASK_KEY:
                    self.forced_releases.append(owner)
                else:
                    slots.append((False, bytes(len(share))))
                    continue
            if int.from_bytes(share, "big") >= SHARE_FIELDS[stype][0]:
                raise ProtocolAbort(f"user {self.index} holds a share outside its field", blamed="server")
            done_for[owner] = done | (1 << stype)
            slots.append((True, share))
        return UnmaskResponseMsg(tuple(slots))

    # -- verification -----------------------------------------------------------

    def check_own_record(self, reveal: RevealMsg) -> None:
        """Check that this user's record in the reveal is its own keys and
        randomness; O(1), so every online user runs it on the one REVEAL."""
        records = reveal.user_records
        own = (self.group.encode(self.id_keys.public), self.group.encode(self.mask_keys.public), self.round_rand)
        if self.index >= len(records) or records[self.index] != own:
            raise ProtocolAbort(f"user {self.index} own record altered in the reveal", blamed="server")

    def verify_reveal(self, reveal: RevealMsg, setup: TreeSetup) -> None:
        """Check the post-upload opening against what this user saw.

        The reveal's server randomness must open the SERVER_COMMIT digest
        this user received, and its records must be as many as TREE_COMMIT
        named and hash, through each user's commitment, to TREE_COMMIT's
        commitments digest, so no randomness can change after the openings
        were sent.  This user's own record must be its own keys and
        randomness: a commitment substituted before the digest was taken
        shows up there, at the latest point before any unmask share is
        released, as the grouping it could steer cannot be checked before
        the reveal anyway (see ``orgtree``).  ``verify_setup`` then replays
        the grouping from the revealed records under this user's own
        ``tree`` and compares the replay's share-tree and mask-tree member
        lists with those of ``setup``, the grouping the server used: a
        changed key or randomness reorders the replayed users, and a tree
        with another leaf count cuts them into other leaves.
        A tree of another shape with the same leaf count is not caught: it
        gives the same assignments, and only the inter-group masking pairs,
        which a user cannot see through its opaque handles, differ (ROADMAP
        item 15).  ``setup`` is the one input a user does not hold a copy
        of.
        """
        seen = self.seen_tree_commit
        if seen is None:
            raise ProtocolAbort(f"user {self.index} saw no tree commitment", blamed="server")
        if commit_random(reveal.server_rand) != self.seen_server_commit:  # 32 bytes by the wire layout
            raise ProtocolAbort("server randomness opening failed", blamed="server")
        records = reveal.user_records
        if len(records) != seen.n_users:
            raise ProtocolAbort(
                f"reveal lists {len(records)} users, tree commitment {seen.n_users}", blamed="server"
            )
        if seen.commits_digest != commits_digest([commit_random(rand) for _, _, rand in records]):
            raise ProtocolAbort("revealed randomness does not match the committed digest", blamed="server")
        self.check_own_record(reveal)
        verify_setup(setup, self.tree, reveal.server_rand, records)


def receive_peer_lists(agents: list[UserAgent], msgs: list[PeerListMsg]) -> None:
    """Run ``UserAgent.receive_peer_list`` for every agent with its own
    message, deriving all their seeds in lockstep in one batch.

    Each seed comes from its agent's own mask secret and one handle of its
    own message, exactly as if each agent ran alone; only the evaluation
    order is shared.  All agents must use one group.  A message that
    arrives before the agent's TREE_COMMIT, whose own point is outside 1
    to its share-leaf size, whose share-leaf size is neither floor(N/g)
    nor ceil(N/g) for the N of that TREE_COMMIT and the g leaves of the
    agent's tree (so a server cannot make a user build shares for more
    members than a leaf holds), or with a blinded key k outside
    1 < k < p - 1 (see ``AggServer.receive_advert``), aborts the round
    blamed on the server before any share is built.
    """
    if not agents:
        return
    group = agents[0].group
    if any(agent.group != group for agent in agents):
        raise ValueError("agents of one batch must share a DH group")
    pubs: list[int] = []
    secrets: list[int] = []
    top = group.p - 1
    for agent, msg in zip(agents, msgs, strict=True):
        keys = [int.from_bytes(handle.randomized_pub, "big") for handle in msg.peers]
        seen, tree = agent.seen_tree_commit, agent.tree
        fault = None
        if seen is None:
            fault = "got a peer list before the tree commitment"
        elif not 1 <= msg.own_point <= msg.leaf_size:
            fault = f"got own point {msg.own_point} outside a share leaf of {msg.leaf_size}"
        elif msg.leaf_size not in (seen.n_users // tree.leaf_count, tree.subgroup_size(seen.n_users)):
            fault = f"got a share leaf of {msg.leaf_size} for {seen.n_users} users in {tree.leaf_count} leaves"
        elif not all(1 < k < top for k in keys):
            fault = "got a blinded key outside 1 < k < p - 1"
        if fault is not None:
            raise ProtocolAbort(f"user {agent.index} {fault}", blamed="server")
        agent._own_pos = msg.own_point - 1
        agent._share_count = msg.leaf_size
        agent._peer_handles = msg.peers
        pubs += keys
        secrets += [agent.mask_keys.secret] * len(keys)
    seeds = iter(derive_shared_seeds(group, pubs, secrets))
    for agent, msg in zip(agents, msgs):
        agent._pair_seeds = [next(seeds) for _ in msg.peers]
        agent.counters.key_agreements_by_user[agent.index] += len(msg.peers)
