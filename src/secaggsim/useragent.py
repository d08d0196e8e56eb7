"""Per-user protocol state machine.

A user advertises one-time keys, commits and opens its grouping
randomness, secret-shares its mask key and self-mask seed among an
anonymous recipient list, uploads its masked input, and answers unmask
requests under the release rules.  Users never see identities or
subgroup structure: each masking peer arrives as one PEER_LIST row of a
sign, a kind code and the peer's key blinded by the server, and of its
share leaf a user learns only the size and its own place, which is its
evaluation point.  A mate's place is the user's only name for it.

Shares travel as bundles relayed by the server (see ``wire``): one from
each user with an entry per mate, and one to each user with an entry per
owner, each entry a 25-byte body, an 8-byte mask-key share and a
17-byte self-seed share, that names no point, as its place in the bundle
gives it.  A user keeps its bundle as bytes, in leaf order, so an
owner's entry sits at (owner point - 1) entry widths, and only slices
out the shares it releases.  The entries are not encrypted, so
the relay can read every share until ROADMAP item 7 encrypts each entry
body.

Every user derives one shared seed per peer row from its own mask
secret and the row's blinded key, and keeps its rows, as a structured
array, and the seeds in row order: a row carries no point, so a user
cannot tell which of its masking peers are among its share leaf mates.

Three steps run for many agents at once, so the simulator pays the
per-call overhead of numpy once per round, not once per user:
``begin_rounds`` computes every agent's two public keys in one
``pow_g_many`` batch from the group's fixed-base table,
``receive_peer_lists`` reads and checks every agent's blinded keys in
one array and derives all their pair seeds in one batch, and
``mask_inputs`` expands all their masks in two
grouped ``add_masks`` calls, in chunks of at most ``PRG_BATCH_BYTES``
of keystream.  Each is only an evaluation order: every agent draws from
its own rng in the order it would alone, and its keys, seeds and masks
depend on nothing but its own secrets and its own messages, so each
agent's values are those its one-agent call (``begin_round``,
``receive_peer_list``, ``mask_input``) gives.

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

import numpy as np

from .counters import OpCounters
from .crypto import (
    RAND_BYTES,
    SELF_SEED_BYTES,
    DhGroup,
    KeyPair,
    add_masks,
    commit_random,
    derive_shared_seeds,
    pow_g_many,
    share_secret,
)
from .errors import ProtocolAbort
from .fixedpoint import ParamVector, SegmentSpec, reduce_words, word_dtype
from .orgtree import TreeConfig, TreeSetup, commits_digest, verify_setup
from .wire import (
    ENTRY_BYTES,
    KIND_INTER,
    KIND_INTRA,
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    SHARE_FIELDS,
    AdvertMsg,
    MaskedUploadMsg,
    PeerListMsg,
    RandOpenMsg,
    RevealMsg,
    ShareMsg,
    TreeCommitMsg,
    UnmaskRequestMsg,
    UnmaskResponseMsg,
    peer_row_dtype,
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
        """Draw fresh per-round secrets and advertise public keys.

        This is the one-agent call of ``begin_rounds``, which the simulator
        runs for every user at once: the batch shares only the evaluation
        order of the public keys, so this agent's keys, seed and later
        draws are the same either way."""
        return begin_rounds([self], [rng], [server_commit])[0]

    def _start_round(self, rng: Random, server_commit: bytes) -> tuple[int, int]:
        """Reset the round state and draw this round's secrets from ``rng``:
        the mask secret, the id secret, the self seed, then the grouping
        randomness, which leaves the share polynomials the next draws.
        Returns the two secrets, whose public keys the caller computes."""
        self.phase = PHASE_IDLE
        self._rng = rng
        self.seen_server_commit = server_commit
        mask_secret = self.group.random_exponent(rng)
        id_secret = self.group.random_exponent(rng)
        # the PRG keys AES-128, so 16 bytes are all it uses; drawing 32 keeps
        # every later draw (the grouping randomness, then the share
        # polynomials), and with it every pinned report, where it is
        self.self_seed = rng.randbytes(32)[:SELF_SEED_BYTES]
        self.round_rand = rng.randbytes(RAND_BYTES)
        self._peer_rows = np.empty(0, dtype=peer_row_dtype(self.group.element_bytes))  # PEER_LIST rows
        self._pair_seeds: list[bytes] = []  # one per peer row, in order
        self._share_count = 0  # members of the share leaf, this user included
        self._own_pos = 0  # 0-based place in the share leaf; the evaluation point is one more
        self._held = b""  # entry bodies in leaf order
        self._released: dict[int, int] = {}  # owner point -> bits 1 << released type
        self.forced_releases: list[int] = []  # owner points
        self.seen_tree_commit: TreeCommitMsg | None = None
        return mask_secret, id_secret

    def open_rand(self, tree_commit: TreeCommitMsg) -> RandOpenMsg:
        """Open the grouping randomness once the digest of everyone's
        randomness commitments is fixed."""
        self.seen_tree_commit = tree_commit
        self._advance(PHASE_COMMIT)
        return RandOpenMsg(self.round_rand)

    # -- share distribution --------------------------------------------------

    def receive_peer_list(self, msg: PeerListMsg) -> None:
        """Store the peer rows and derive one shared seed per peer."""
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

        This is the one-agent call of ``mask_inputs``, which describes the
        masks and which the simulator calls on chunks of its users.  A
        batch shares only the evaluation order, in ``prg_expand`` chunks of
        at most ``PRG_BATCH_BYTES``, so this agent's upload is the same
        either way."""
        return mask_inputs([self], [x])[0]

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
        which a user cannot see through its opaque peer rows, differ (ROADMAP
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


def begin_rounds(agents: list[UserAgent], rngs: list[Random], server_commits: list[bytes]) -> list[AdvertMsg]:
    """Run ``UserAgent.begin_round`` for every agent with its own rng and
    SERVER_COMMIT digest, computing all 2N public keys g^x in one
    ``pow_g_many`` batch.

    Each agent first draws all its secrets from its own rng, in the order
    it would alone (``_start_round``), so its keys, self seed, grouping
    randomness and later share polynomials are those it gets alone; only
    the evaluation order of the exponentiations is shared.  All agents
    must use one group.
    """
    if not agents:
        return []
    group = agents[0].group
    if any(agent.group != group for agent in agents):
        raise ValueError("agents of one batch must share a DH group")
    secrets: list[int] = []
    for agent, rng, commit in zip(agents, rngs, server_commits, strict=True):
        secrets += agent._start_round(rng, commit)
    pubs = pow_g_many(group, secrets).tolist()
    adverts = []
    for i, agent in enumerate(agents):
        agent.mask_keys = KeyPair(secrets[2 * i], pubs[2 * i])
        agent.id_keys = KeyPair(secrets[2 * i + 1], pubs[2 * i + 1])
        agent._advance(PHASE_ADVERTISE)
        adverts.append(
            AdvertMsg(
                share_pub=group.encode(agent.id_keys.public),
                mask_pub=group.encode(agent.mask_keys.public),
                rand_commit=commit_random(agent.round_rand),
            )
        )
    return adverts


def receive_peer_lists(agents: list[UserAgent], msgs: list[PeerListMsg]) -> None:
    """Run ``UserAgent.receive_peer_list`` for every agent with its own
    message, deriving all their seeds in lockstep in one batch.

    Each seed comes from its agent's own mask secret and one row of its
    own message, exactly as if each agent ran alone; only the evaluation
    order is shared.  The rows of all messages are joined and read as one
    ``peer_row_dtype`` array, whose keys are range-checked in one pass,
    and each agent keeps its slice.  All agents must use one group.  A
    message that arrives before the agent's TREE_COMMIT, whose own point
    is outside 1 to its share-leaf size, whose share-leaf size is neither
    floor(N/g) nor ceil(N/g) for the N of that TREE_COMMIT and the g
    leaves of the agent's tree (so a server cannot make a user build
    shares for more members than a leaf holds), or with a blinded key k
    outside 1 < k < p - 1 (see ``AggServer.receive_advert``), aborts the
    round blamed on the server before any share is built: the first
    faulty agent in agent order, for its first fault in that order.
    """
    if not agents:
        return
    group = agents[0].group
    if any(agent.group != group for agent in agents):
        raise ValueError("agents of one batch must share a DH group")
    table = np.frombuffer(b"".join([msg.rows for msg in msgs]), dtype=peer_row_dtype(group.element_bytes))
    keys = table["key"].astype(np.uint64)
    start = np.cumsum([0] + [len(msg.rows) // table.itemsize for msg in msgs]).tolist()
    # the agent of the first key k outside 1 < k < p - 1, if any
    bad = np.flatnonzero((keys <= 1) | (keys >= group.p - 1))
    bad_agent = int(np.searchsorted(start, bad[0], side="right")) - 1 if len(bad) else -1
    for i, (agent, msg) in enumerate(zip(agents, msgs, strict=True)):
        seen, tree = agent.seen_tree_commit, agent.tree
        fault = None
        if seen is None:
            fault = "got a peer list before the tree commitment"
        elif not 1 <= msg.own_point <= msg.leaf_size:
            fault = f"got own point {msg.own_point} outside a share leaf of {msg.leaf_size}"
        elif msg.leaf_size not in (seen.n_users // tree.leaf_count, tree.subgroup_size(seen.n_users)):
            fault = f"got a share leaf of {msg.leaf_size} for {seen.n_users} users in {tree.leaf_count} leaves"
        elif i == bad_agent:
            fault = "got a blinded key outside 1 < k < p - 1"
        if fault is not None:
            raise ProtocolAbort(f"user {agent.index} {fault}", blamed="server")
    secrets = np.repeat(np.array([agent.mask_keys.secret for agent in agents], dtype=np.uint64), np.diff(start))
    seeds = derive_shared_seeds(group, keys, secrets)
    for i, (agent, msg) in enumerate(zip(agents, msgs)):
        agent._own_pos = msg.own_point - 1
        agent._share_count = msg.leaf_size
        agent._peer_rows = table[start[i] : start[i + 1]]
        agent._pair_seeds = seeds[start[i] : start[i + 1]]
        agent.counters.key_agreements_by_user[agent.index] += len(agent._pair_seeds)


def mask_inputs(agents: list[UserAgent], xs: list[ParamVector]) -> list[MaskedUploadMsg]:
    """Run ``UserAgent.mask_input`` for every agent with its own input:
    blind each input with its agent's self mask plus every pairwise mask.

    Intra-group masks span the full word; inter-group masks are confined
    to the low ``inter_mask_bits`` bits so the revealable high segment of
    a subgroup aggregate stays meaningful.  Two grouped ``add_masks``
    calls expand the masks of all agents, one for the self and intra
    seeds and one for the inter seeds, one group per agent with its plus
    rows first, in chunks of at most ``PRG_BATCH_BYTES`` of keystream that
    may span agents.  Each agent's masks accumulate in its own vector of
    the ring's native word (``word_dtype(w)``), wrapping mod
    2^(8 * width), and are reduced mod 2^w once at the end; the batch is
    only an evaluation order, so each upload is the one the agent's
    one-agent call gives.  All agents must share a spec and an inter mask
    width.  Inputs are batched by length, so an input of another length
    than the rest, a faulty user's, is masked in a batch of its own and
    the server still sees its length and blames its sender.
    """
    if not agents:
        return []
    spec, inter_bits = agents[0].spec, agents[0].inter_mask_bits
    if any(agent.spec != spec or agent.inter_mask_bits != inter_bits for agent in agents):
        raise ValueError("agents of one batch must share a spec and an inter mask width")
    for agent, x in zip(agents, xs, strict=True):
        agent._advance(PHASE_UPLOAD)
        if x.spec != spec:
            raise ValueError("SegmentSpec mismatch")
    native = word_dtype(spec.word_bits)
    by_length: dict[int, list[int]] = {}
    for i, x in enumerate(xs):
        by_length.setdefault(len(x), []).append(i)
    uploads: list[MaskedUploadMsg | None] = [None] * len(agents)
    for batch in by_length.values():
        accs = [xs[i].values.astype(native) for i in batch]
        intra, inter = [], []
        for i in batch:
            agent = agents[i]
            # kind -> (plus seeds, minus seeds); the self mask is added
            seeds = {KIND_INTRA: ([agent.self_seed], []), KIND_INTER: ([], [])}
            rows = agent._peer_rows
            for sign, kind, seed in zip(rows["sign"].tolist(), rows["kind"].tolist(), agent._pair_seeds):
                seeds[kind][sign == -1].append(seed)
            intra.append(seeds[KIND_INTRA])
            inter.append(seeds[KIND_INTER])
            agent.counters.prg_by_user[agent.index] += 1 + len(agent._pair_seeds)
        add_masks(accs, intra, spec)
        add_masks(accs, inter, spec, inter_bits)
        for i, y in zip(batch, accs):
            uploads[i] = MaskedUploadMsg.from_vector(reduce_words(y, spec), spec)
    return uploads  # type: ignore[return-value]
