"""Oblivious random grouping over a hierarchical tree.

Users are sorted by jointly-randomized identities and partitioned into the
leaves of a d-ary tree of height h.  Two independent assignments are
derived from one protocol run: one tree scopes secret sharing, the other
scopes pairwise masking.  Once the order is fixed no party needs the
identities again, so they stay inside ``run_tree_setup``, whose output is
the two ordered assignments; a masking pair's sign follows its ends'
ranks in the mask order.  Masking peers are the circular neighbors inside
a leaf plus, per tree layer, the users at the same relative position in
the +/-1 (mod d) sibling subtrees, and ``build_peer_sets`` returns each
such pair once.  A tree of height 0 is one leaf; a ring of radius
floor(N/2) over it is the complete graph, so the full-pairwise protocol
(Bonawitz et al., CCS 2017) is the one-leaf tree whose ring covers every
user.

Identity derivation is commitment-ordered so neither the server nor any
user can steer the grouping: the server commits its randomness before
seeing user keys, users commit theirs before any is opened, and each
user's final identity hashes the XOR of everyone else's preliminary
identity, so it is determined by all parties except the user itself.  The
tree shape is public, not committed: a verifying user replays the
grouping under its own ``TreeConfig``, which catches a server that
grouped under another leaf count.  A server that grouped under another
shape with the same leaf count is not caught, as both shapes give the
same share and mask assignments and differ only in the inter-group
masking pairs.

The TREE_COMMIT broadcast carries the N advertised randomness commitments
as one digest (``commits_digest``), not as a list.  After upload the server
reveals every opening; a verifying user recomputes the digest from them
and compares it with the one it received before any opening, so a server
that swaps a user's randomness afterwards, even with a freshly computed
commitment, is caught.  A server that puts a substituted commitment into
the digest in the first place is caught by its victim, which checks that
its own revealed record holds its own keys and randomness.  Doing that
own-record check after upload loses nothing against checking the
inclusion of one's commitment in a list at tree-commit time: the grouping
depends on every opening and on the server randomness, which are opened
only in the reveal, so no user can check the grouping before the reveal
in either design, and the reveal check still aborts the round before any
unmask share is released.

The server keeps no copy of the setup: it reveals its own lists, and
``verify_setup`` replays ``run_tree_setup`` from the revealed records to
compare with the grouping the server used.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ConfigError, ProtocolAbort

_ID_TAG = b"identity-v1"
_FINAL_TAG = b"final-identity-v1"
_COMMITS_TAG = b"rand-commits-v1"


# ---------------------------------------------------------------------------
# tree geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeConfig:
    """Geometry and masking parameters of the grouping tree."""

    height: int  # layers above the leaves; 0 is a single leaf
    degree: int  # children per internal node
    neighbor_radius: int = 1  # intra-group circular radius (kappa)
    share_threshold: int = 2  # t for secret sharing inside a leaf

    def __post_init__(self) -> None:
        if self.height < 0 or self.degree < 2:
            raise ConfigError("tree needs height >= 0 and degree >= 2")
        if self.neighbor_radius < 1:
            raise ConfigError("neighbor radius must be >= 1")
        if self.share_threshold < 2:
            raise ConfigError("share threshold must be >= 2")

    @property
    def leaf_count(self) -> int:
        return self.degree**self.height

    def subgroup_size(self, n_users: int) -> int:
        return -(-n_users // self.leaf_count)

    def validate_for(self, n_users: int) -> None:
        g = self.leaf_count
        if n_users < 2 * g:
            raise ConfigError(f"{n_users} users cannot fill {g} subgroups with >= 2 each")
        smallest = n_users // g
        size = self.subgroup_size(n_users)
        # at size 2*kappa the +kappa and -kappa neighbours are one user
        if size < 2 * self.neighbor_radius:
            raise ConfigError(f"subgroup size {size} < 2*kappa = {2 * self.neighbor_radius}")
        if self.share_threshold > smallest:
            raise ConfigError(
                f"share threshold {self.share_threshold} exceeds smallest subgroup {smallest}"
            )


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def preliminary_identity(server_rand: bytes, pubkey: bytes, user_rand: bytes) -> bytes:
    """Per-user preliminary identity: HASH(R_s || pubkey || R_u)."""
    return hashlib.sha256(_ID_TAG + server_rand + pubkey + user_rand).digest()


def finalize_identities(preliminaries: list[bytes]) -> list[bytes]:
    """Final identity of user u hashes the XOR of all v != u preliminaries.

    Flipping any single user's randomness therefore changes every other
    user's final identity while leaving that user's own unchanged, which
    defeats identity grinding.
    """
    values = [int.from_bytes(p, "big") for p in preliminaries]
    total = 0
    for v in values:
        total ^= v
    return [hashlib.sha256(_FINAL_TAG + (total ^ v).to_bytes(32, "big")).digest() for v in values]


# ---------------------------------------------------------------------------
# assignment and peers
# ---------------------------------------------------------------------------


@dataclass
class Assignment:
    """Users partitioned into leaves, ordered by finalized identity."""

    tree: TreeConfig
    members: list[list[int]]  # leaf -> users in identity order
    leaf_of: list[int]  # user -> leaf index

    @property
    def n_users(self) -> int:
        return len(self.leaf_of)


def assign_subgroups(finalized_ids: list[bytes], tree: TreeConfig) -> Assignment:
    """Sort users by finalized identity and slice into leaves.

    Leaf sizes differ by at most one; the larger leaves come first.  Ties
    on identity (negligible probability) break by user index so the
    assignment is a pure function of its inputs.
    """
    n = len(finalized_ids)
    g = tree.leaf_count
    if n < 2 * g:
        raise ConfigError(f"{n} users is too few for {g} subgroups of >= 2")
    order = sorted(range(n), key=lambda u: (finalized_ids[u], u))
    base, extra = divmod(n, g)
    members: list[list[int]] = []
    pos = 0
    for leaf in range(g):
        size = base + 1 if leaf < extra else base
        members.append(order[pos : pos + size])
        pos += size
    leaf_of = [0] * n
    for leaf, users in enumerate(members):
        for u in users:
            leaf_of[u] = leaf
    return Assignment(tree=tree, members=members, leaf_of=leaf_of)


def _sibling_leaves(leaf: int, layer: int, tree: TreeConfig) -> list[int]:
    """Leaves reached by stepping the layer-th base-d digit by +1 and -1
    (mod d); one leaf when d = 2."""
    stride = tree.degree ** (layer - 1)
    digit = (leaf // stride) % tree.degree
    rest = leaf - digit * stride
    return list(dict.fromkeys(rest + (digit + step) % tree.degree * stride for step in (1, -1)))


def build_peer_sets(assignment: Assignment) -> list[tuple[int, int, str]]:
    """Every masking pair once, as (u, v, kind) with u < v by index: users
    by index, each with its intra peers, then its inter peers, ascending.

    A user's intra peers are its circular neighbors in its own leaf; its
    inter peers are, per layer, the same-rank users in the +/-1 (mod d)
    sibling subtrees.  When a sibling leaf is smaller than the user's
    own, the matching rank wraps modulo the sibling size, so the relation
    is closed under reversal to give every mask both endpoints.
    """
    tree = assignment.tree
    n = assignment.n_users
    intra: list[set[int]] = [set() for _ in range(n)]
    inter: list[set[int]] = [set() for _ in range(n)]

    for users in assignment.members:
        size = len(users)
        for rank, u in enumerate(users):
            for step in range(1, tree.neighbor_radius + 1):
                for v in (users[(rank - step) % size], users[(rank + step) % size]):
                    if v != u:
                        intra[u].add(v)

    for leaf, users in enumerate(assignment.members):
        for layer in range(1, tree.height + 1):
            for sib in _sibling_leaves(leaf, layer, tree):
                sib_users = assignment.members[sib]
                for rank, u in enumerate(users):
                    v = sib_users[rank % len(sib_users)]
                    inter[u].add(v)
                    inter[v].add(u)  # symmetric closure

    # both relations are symmetric, and intra pairs share a leaf while inter
    # pairs never do, so taking each pair at its lower end lists it once
    return [
        (u, v, kind)
        for u in range(n)
        for kind, peers in (("intra", intra[u]), ("inter", inter[u]))
        for v in sorted(peers)
        if v > u
    ]


# ---------------------------------------------------------------------------
# commitment-ordered setup protocol
# ---------------------------------------------------------------------------


def commits_digest(commits: list[bytes]) -> bytes:
    """Digest of the advertised randomness commitments, in user order."""
    return hashlib.sha256(b"".join((_COMMITS_TAG, *commits))).digest()


@dataclass
class TreeSetup:
    """Output of one grouping run: the two ordered assignments.  The
    identities that sort them stay inside ``run_tree_setup``."""

    share_assignment: Assignment
    mask_assignment: Assignment


def run_tree_setup(
    tree: TreeConfig,
    server_rand: bytes,
    share_pubs: list[bytes],
    mask_pubs: list[bytes],
    user_rands: list[bytes],
) -> TreeSetup:
    """Derive both trees' identities from the openings and return the
    assignments they sort into; the identities are not kept.

    Message order (enforced by the caller's phase structure): the server
    commits its randomness; users advertise one-time public keys plus a
    commitment to their randomness; the server broadcasts the digest of
    those commitments; users open their randomness; this function then
    computes the grouping under the public tree shape.  Commitments do
    not feed it: they only bind the inputs, and
    ``verify_setup`` replays this function from the reveal.
    """
    n = len(share_pubs)
    tree.validate_for(n)

    def assign(pubs: list[bytes]) -> Assignment:
        ids = finalize_identities([preliminary_identity(server_rand, pubs[u], user_rands[u]) for u in range(n)])
        return assign_subgroups(ids, tree)

    return TreeSetup(assign(share_pubs), assign(mask_pubs))


def verify_setup(
    setup: TreeSetup, tree: TreeConfig, server_rand: bytes, records: Sequence[tuple[bytes, bytes, bytes]]
) -> None:
    """Replay ``run_tree_setup`` from revealed (share_pub, mask_pub, rand)
    records and compare its two member lists, the only grouping facts any
    party reads, with those of the grouping the server used.

    The caller checks first that the records and ``server_rand`` open what
    was committed, and passes its own copy of the tree shape (see
    ``UserAgent.verify_reveal``); any difference left here is the
    server's, so every mismatch is blamed on it, as is a population too
    small for the tree.
    """
    try:
        replay = run_tree_setup(
            tree, server_rand, [r[0] for r in records], [r[1] for r in records], [r[2] for r in records]
        )
    except ConfigError as exc:
        raise ProtocolAbort(f"revealed population does not fit the tree: {exc}", blamed="server") from exc
    if replay.share_assignment.members != setup.share_assignment.members:
        raise ProtocolAbort("share-tree assignment does not match the reveal", blamed="server")
    if replay.mask_assignment.members != setup.mask_assignment.members:
        raise ProtocolAbort("mask-tree assignment does not match the reveal", blamed="server")
