"""Binary message encodings and the star-topology transport.

Every protocol message is one length-prefixed record::

    tag (1 byte) || payload_length (4 bytes, big endian) || payload

No payload carries a width, a length, a count or an evaluation point
that its receiver already holds.  Every field has the width a protocol
constant or the receiver's own ``SegmentSpec`` or ``DhGroup`` gives it:
W is the group's ``element_bytes``, and a digest, a grouping randomness,
a mask-key share or a self-seed share is 32, 32, 8 or 17 bytes.  So each
record has one fixed layout, which its receiver applies::

    SERVER_COMMIT    digest (32)
    ADVERT           share key (W) || mask key (W) || randomness commitment (32)
    TREE_COMMIT      N (4) || commitments digest (32)
    RAND_OPEN        randomness (32)
    PEER_LIST        own point (4) || share-leaf size (4) || handle rows to the end, each:
                     sign (1) || kind (1) || blinded key (W)
    SHARE_MSG        entry bodies to the end, each:
                     mask-key share (8) || self-seed share (17)
    MASKED_UPLOAD    words to the end
    UNMASK_REQUEST   forced (1) || targets to the end, each:
                     owner point (4) || secret type (1)
    UNMASK_RESPONSE  one slot per target of the request, in its order, each:
                     status (1) || share (8 for a mask key, 17 for a self seed)
    REVEAL           server randomness (32) || records to the end, each:
                     share key (W) || mask key (W) || randomness (32)
    GLOBAL_MODEL     words to the end

The decoders of ADVERT, PEER_LIST and REVEAL take the receiver's group,
and that of UNMASK_RESPONSE the targets of the request it answers; the
vector messages are read at the receiver's w after decoding.  Decoding
raises ``WireError`` for a truncated record, bytes after the record, one
whose tag is not the expected message's, a payload shorter or longer than
its fixed fields, and, in a message of records to the end (a share
bundle's entry bodies included), bytes that are not whole records.  A
round decodes every record from the bytes its receiver got through
``decode_from``, which blames a malformed one on its sender.

A vector element travels as a little endian word of the smallest native
width (1, 2, 4 or 8 bytes) that holds w bits, so 4 bytes at w = 32, and
one >= 2^w raises ``WireError`` at its receiver.  The masked upload and
the global model are nothing but those words; the server knows an
upload's sender from the channel it arrived on.  A Shamir share value is
one big endian element of its secret's field (``SHARE_FIELDS``, see
``crypto``): 8 bytes in the 2^63 + 29 field for a mask key, 17 in the
2^128 + 51 field for a 16-byte self seed.  Each field is the smallest
prime field holding its secret, so a share is as narrow as its secret
allows.  A share value at or above its field's prime is rejected where
it is read: by the holder about to release it and by the server filing
the released share.

A user names a member of its share leaf by the member's 1-based place in
the leaf order, which is also the member's Shamir evaluation point.  A
peer list tells a user its own point and the leaf's size and nothing
else about the leaf; its handle rows run to the end of the payload, so
no count precedes them.  Its handles say only what masking needs: a sign
of +1 or -1 and a kind code of 1 (intra) or 2 (inter).  No handle says
where in the tree the peer sits, so a user cannot match its masking
peers against its share leaf.

Shamir shares travel in bundles, one per sender to the server and one
per recipient from the server (the message layout of Bonawitz et al.,
CCS 2017, section 4).  A bundle is nothing but entry bodies, whose
positions name their other ends: an upload bundle holds one entry per
other member of the owner's share leaf, a download bundle one per other
member of the recipient's, each in leaf order.  So no body carries its
evaluation point: in owner i's upload bundle, entry e, counted from 0,
is at point e + 1 if that is below i and at e + 2 otherwise, and every
entry of a download bundle is at the recipient's own point.  Every body
carries both secrets in ``ENTRY_BYTES``, 25 bytes, and bytes that are
not whole bodies are a malformed bundle from the sender.  The relay
moves bodies by position and never decodes a share, but the shares are
plaintext: it could read every one until ROADMAP item 7 replaces each
body with a ciphertext.
A relay that misroutes or permutes bodies corrupts only its own
reconstructions, like any other wrong share (ROADMAP item 10); item 7's
AEAD, whose associated data binds the owner's point, the recipient's
point and the round, will reject such a body where it is decrypted.

An unmask request names each target by its owner's point, with the
secret type to release, after one byte that marks all its targets
force-dropped: the server excludes a leaf's members in requests of their
own.  An unmask response answers by position, one slot per target in the
request's order, so a slot names neither its owner nor its type, which
the server chose, nor its evaluation point, which is the holder's own.
Status 1 releases the share of one secret, which is what the never-both
rule counts; status 0 refuses it, and its share is zero-filled.  The
server reads a response under the targets it sent that holder, so a
holder cannot release a share it was not asked for, or one twice.

The setup messages carry no nonce and no tree shape, which is public
(see ``orgtree``).  TREE_COMMIT holds the digest of the N advertised
randomness commitments, not a list: no user reads the list before the
openings exist, and a user that later verifies the reveal recomputes the
digest from the revealed openings, which catches a server that changes
any of them (see ``orgtree`` for why checking one's own record then,
rather than one's inclusion earlier, loses nothing).  REVEAL repeats
neither N, which TREE_COMMIT gave and the verifier compares with the
records it got, nor any width; each randomness opens its commitment
alone (see ``crypto``).

Users never address each other directly: the transport only accepts
messages with the server on one end and counts payload bytes per
direction, which is what the communication-cost benchmarks report.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import starmap
from typing import TypeVar

import numpy as np

from .counters import OpCounters
from .crypto import KEY_SHARE_PRIME, RAND_BYTES, SEED_SHARE_PRIME, DhGroup
from .errors import ProtocolAbort, WireError
from .fixedpoint import SegmentSpec, word_dtype

TAG_SERVER_COMMIT = 1
TAG_ADVERT = 2
TAG_TREE_COMMIT = 3
TAG_RAND_OPEN = 4
TAG_PEER_LIST = 5
TAG_SHARE_MSG = 6
TAG_MASKED_UPLOAD = 7
TAG_UNMASK_REQUEST = 8
TAG_UNMASK_RESPONSE = 9
TAG_REVEAL = 10
TAG_GLOBAL_MODEL = 11

SECRET_MASK_KEY = 1  # share of a user's pairwise-mask private key
SECRET_SELF_SEED = 2  # share of a user's per-round self-mask seed

# each secret type's Shamir field and share width (see ``crypto``)
SHARE_FIELDS = {SECRET_MASK_KEY: (KEY_SHARE_PRIME, 8), SECRET_SELF_SEED: (SEED_SHARE_PRIME, 17)}

DIGEST_BYTES = 32  # SHA-256 commitments


def _encode_words(values: np.ndarray, spec: SegmentSpec) -> bytes:
    """Ring elements as ``word_bytes(w)``-byte little endian words; an
    element >= 2^w raises ``ValueError`` rather than being cut to w bits."""
    if values.size and int(values.max()) > spec.word_mask:
        raise ValueError(f"vector element exceeds the {spec.word_bits}-bit ring")
    return values.astype(word_dtype(spec.word_bits), copy=False).tobytes()


def _decode_words(words: bytes, spec: SegmentSpec) -> np.ndarray:
    """Inverse of :func:`_encode_words`: ``WireError`` unless the bytes are
    whole elements, each below 2^w."""
    dtype = word_dtype(spec.word_bits)
    width = dtype.itemsize
    if len(words) % width:
        raise WireError(f"{len(words)} vector bytes are not whole {width}-byte elements")
    values = np.frombuffer(words, dtype=dtype).astype(np.uint64)
    if spec.word_bits < 8 * width and values.size and int(values.max()) > spec.word_mask:
        raise WireError(f"vector element exceeds the {spec.word_bits}-bit ring")
    return values


def encode_record(tag: int, payload: bytes) -> bytes:
    return struct.pack(">BI", tag, len(payload)) + payload


def decode_record(data: bytes) -> tuple[int, bytes]:
    """The tag and payload of exactly one record: ``WireError`` if ``data``
    is shorter or longer than its header says."""
    if len(data) < 5:
        raise WireError("truncated record header")
    tag, n = struct.unpack_from(">BI", data, 0)
    if len(data) != 5 + n:
        raise WireError(f"record of {len(data)} bytes, its header says {5 + n}")
    return tag, data[5:]


def _payload_of(data: bytes, expected_tag: int) -> bytes:
    """Payload of a record that must carry ``expected_tag``."""
    tag, payload = decode_record(data)
    if tag != expected_tag:
        raise WireError(f"expected tag {expected_tag}, got {tag}")
    return payload


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServerCommitMsg:
    digest: bytes

    def to_bytes(self) -> bytes:
        return encode_record(TAG_SERVER_COMMIT, self.digest)

    @staticmethod
    def from_bytes(data: bytes) -> "ServerCommitMsg":
        payload = _payload_of(data, TAG_SERVER_COMMIT)
        if len(payload) != DIGEST_BYTES:
            raise WireError(f"server commitment of {len(payload)} bytes, expected {DIGEST_BYTES}")
        return ServerCommitMsg(payload)


@dataclass(frozen=True)
class AdvertMsg:
    """Per-round key advertisement plus the user's randomness commitment:
    share key (W) || mask key (W) || commitment (32)."""

    share_pub: bytes
    mask_pub: bytes
    rand_commit: bytes

    def to_bytes(self) -> bytes:
        return encode_record(TAG_ADVERT, self.share_pub + self.mask_pub + self.rand_commit)

    @staticmethod
    def from_bytes(data: bytes, group: DhGroup) -> "AdvertMsg":
        payload = _payload_of(data, TAG_ADVERT)
        w = group.element_bytes
        if len(payload) != 2 * w + DIGEST_BYTES:
            raise WireError(f"advert of {len(payload)} bytes, expected {2 * w + DIGEST_BYTES}")
        return AdvertMsg(payload[:w], payload[w : 2 * w], payload[2 * w :])


_TREE_COMMIT = struct.Struct(">I32s")  # N, commits digest


@dataclass(frozen=True)
class TreeCommitMsg:
    """N and a digest of the N advertised randomness commitments
    (``orgtree.commits_digest``), in user order; the shape is public."""

    n_users: int
    commits_digest: bytes

    def to_bytes(self) -> bytes:
        if len(self.commits_digest) != DIGEST_BYTES:
            raise ValueError("the commitments digest must be 32 bytes")  # "32s" would pad or cut it
        payload = _TREE_COMMIT.pack(self.n_users, self.commits_digest)
        return encode_record(TAG_TREE_COMMIT, payload)

    @staticmethod
    def from_bytes(data: bytes) -> "TreeCommitMsg":
        payload = _payload_of(data, TAG_TREE_COMMIT)
        if len(payload) != _TREE_COMMIT.size:
            raise WireError(f"tree commitment of {len(payload)} bytes, expected {_TREE_COMMIT.size}")
        return TreeCommitMsg(*_TREE_COMMIT.unpack(payload))


@dataclass(frozen=True)
class RandOpenMsg:
    """The 32-byte grouping randomness, which alone opens its ADVERT
    commitment."""

    user_rand: bytes

    def to_bytes(self) -> bytes:
        return encode_record(TAG_RAND_OPEN, self.user_rand)

    @staticmethod
    def from_bytes(data: bytes) -> "RandOpenMsg":
        payload = _payload_of(data, TAG_RAND_OPEN)
        if len(payload) != RAND_BYTES:
            raise WireError(f"randomness opening of {len(payload)} bytes, expected {RAND_BYTES}")
        return RandOpenMsg(payload)


@dataclass
class PeerHandle:
    """Opaque view of one masking peer: no identity and no point, only what
    masking needs; a user keeps its pair seeds in handle order.  Not frozen,
    which makes the 24K handles of a 2000-user round about 4x faster to
    build."""

    randomized_pub: bytes
    sign: int  # +1 add the pair mask, -1 subtract it
    kind: str  # "intra" or "inter"


_KIND_CODES = {"intra": 1, "inter": 2}
_KINDS = (None, "intra", "inter")
_PEER_HEAD = struct.Struct(">II")  # own point, share-leaf size
_HANDLE_HEAD = struct.Struct(">bB")  # sign, kind code
_SIGN, _KIND = 0, 1  # offsets of the sign and the kind code in a handle row


@functools.cache  # one per group in use
def _handle_row(width: int) -> struct.Struct:
    """Sign, kind code, blinded key of ``width`` bytes."""
    return struct.Struct(f">bB{width}s")


@dataclass(frozen=True)
class PeerListMsg:
    """The user's own evaluation point, the size of its share leaf, and its
    masking peer handles to the end of the payload, each row sign (1) ||
    kind (1) || blinded key (W) at the receiver's W.

    ``own_point`` is the user's 1-based place in its share leaf's order, and
    a mate's place there is the only name the user has for it.
    """

    own_point: int
    leaf_size: int
    peers: tuple[PeerHandle, ...]

    def to_bytes(self) -> bytes:
        peers, pack = self.peers, _HANDLE_HEAD.pack
        table = b"".join([pack(p.sign, _KIND_CODES[p.kind]) + p.randomized_pub for p in peers])
        head = _PEER_HEAD.pack(self.own_point, self.leaf_size)
        return encode_record(TAG_PEER_LIST, head + table)

    @staticmethod
    def from_bytes(data: bytes, group: DhGroup) -> "PeerListMsg":
        payload = _payload_of(data, TAG_PEER_LIST)
        row = _handle_row(group.element_bytes)
        if len(payload) < _PEER_HEAD.size or (len(payload) - _PEER_HEAD.size) % row.size:
            raise WireError(f"peer list payload of {len(payload)} bytes is not 8 plus whole {row.size}-byte rows")
        own, size = _PEER_HEAD.unpack_from(payload)
        table = payload[_PEER_HEAD.size :]
        signs, kinds = table[_SIGN :: row.size], table[_KIND :: row.size]
        if signs.translate(None, b"\x01\xff") or kinds.translate(None, b"\x01\x02"):
            raise WireError("a peer handle with a sign other than +-1 or a kind code other than 1 or 2")
        rows = row.iter_unpack(table)
        return PeerListMsg(own, size, tuple([PeerHandle(pub, sign, _KINDS[kind]) for sign, kind, pub in rows]))


_KEY_BYTES, _SEED_BYTES = SHARE_FIELDS[SECRET_MASK_KEY][1], SHARE_FIELDS[SECRET_SELF_SEED][1]
_ENTRY_BODY = struct.Struct(f">{_KEY_BYTES}s{_SEED_BYTES}s")  # key share, seed share; the position gives the point
ENTRY_BYTES = _ENTRY_BODY.size  # 25


def share_bodies(shares: Iterable[tuple[int, int]]) -> list[bytes]:
    """One entry body per (key share, seed share) of one owner, in point
    order: 8 + 17 bytes, the two widths of ``SHARE_FIELDS``."""
    pack = _ENTRY_BODY.pack
    return [pack(key.to_bytes(_KEY_BYTES, "big"), seed.to_bytes(_SEED_BYTES, "big")) for key, seed in shares]


def share_part(bodies: bytes, off: int, secret_type: int) -> bytes:
    """The share bytes of one secret in the body at ``off``."""
    if secret_type not in SHARE_FIELDS:
        raise ValueError(f"unknown secret type tag {secret_type}")
    key, seed = _ENTRY_BODY.unpack_from(bodies, off)
    return key if secret_type == SECRET_MASK_KEY else seed


@dataclass(frozen=True)
class ShareMsg:
    """A bundle of Shamir share entries between one user and the server,
    nothing but the bodies, each key share (8) || seed share (17) (see
    ``share_bodies``), one per other member of the user's share leaf in
    leaf order; the receiver reads them as whole entries, each at the
    point its position gives."""

    bodies: bytes

    def to_bytes(self) -> bytes:
        return encode_record(TAG_SHARE_MSG, self.bodies)

    @staticmethod
    def from_bytes(data: bytes) -> "ShareMsg":
        bodies = _payload_of(data, TAG_SHARE_MSG)
        if len(bodies) % ENTRY_BYTES:
            raise WireError(f"{len(bodies)} share bytes are not whole {ENTRY_BYTES}-byte entries")
        return ShareMsg(bodies)


@dataclass(frozen=True)
class MaskedUploadMsg:
    """A user's masked input; the server knows the sender from the channel."""

    words: bytes  # m little endian words of word_bytes(w) bytes each

    @staticmethod
    def from_vector(values: np.ndarray, spec: SegmentSpec) -> "MaskedUploadMsg":
        return MaskedUploadMsg(_encode_words(values, spec))

    def vector(self, spec: SegmentSpec) -> np.ndarray:
        """The uint64 elements, decoded at the width of the receiver's w."""
        return _decode_words(self.words, spec)

    def to_bytes(self) -> bytes:
        return encode_record(TAG_MASKED_UPLOAD, self.words)

    @staticmethod
    def from_bytes(data: bytes) -> "MaskedUploadMsg":
        return MaskedUploadMsg(_payload_of(data, TAG_MASKED_UPLOAD))


_TARGET = struct.Struct(">IB")  # owner point, secret type


@dataclass(frozen=True)
class UnmaskRequestMsg:
    """Targets and which secret type to release for each: forced (1) ||
    targets to the end, each owner point (4) || secret type (1).

    ``forced`` marks every target as one the server excluded after
    detection; an honest user treats them like dropouts when applying its
    release rules.
    """

    targets: tuple[tuple[int, int], ...]  # (owner point, secret type)
    forced: bool = False

    def to_bytes(self) -> bytes:
        targets = b"".join(starmap(_TARGET.pack, self.targets))
        return encode_record(TAG_UNMASK_REQUEST, bytes((self.forced,)) + targets)

    @staticmethod
    def from_bytes(data: bytes) -> "UnmaskRequestMsg":
        payload = _payload_of(data, TAG_UNMASK_REQUEST)
        if not payload or payload[0] > 1:
            raise WireError("an unmask request without a forced flag of 0 or 1")
        raw = payload[1:]
        if len(raw) % _TARGET.size:
            raise WireError(f"{len(raw)} target bytes are not whole {_TARGET.size}-byte targets")
        if raw[4 :: _TARGET.size].translate(None, bytes(SHARE_FIELDS)):  # the type byte of each target
            raise WireError("unknown secret type tag in a target list")
        return UnmaskRequestMsg(tuple(_TARGET.iter_unpack(raw)), payload[0] == 1)


@dataclass(frozen=True)
class UnmaskResponseMsg:
    """One slot per target of the request, in its order: status (1) ||
    share, of its secret type's width in ``SHARE_FIELDS``: 8 bytes for a
    mask key and 17 for a self seed.

    Status 1 releases the share, at the holder's own evaluation point;
    status 0 refuses the target, and its share is zero-filled.  The
    receiver reads the slots under the targets it sent.
    """

    slots: tuple[tuple[bool, bytes], ...]  # (released, share bytes)

    @property
    def shares(self) -> tuple[bytes, ...]:
        """The released shares, in slot order."""
        return tuple(share for released, share in self.slots if released)

    @property
    def refused(self) -> tuple[int, ...]:
        """The positions of the refused slots."""
        return tuple(i for i, (released, _) in enumerate(self.slots) if not released)

    def to_bytes(self) -> bytes:
        slots = [bytes((released,)) + share for released, share in self.slots]
        return encode_record(TAG_UNMASK_RESPONSE, b"".join(slots))

    @staticmethod
    def from_bytes(data: bytes, targets: tuple[tuple[int, int], ...]) -> "UnmaskResponseMsg":
        payload = _payload_of(data, TAG_UNMASK_RESPONSE)
        widths = [SHARE_FIELDS[stype][1] for _, stype in targets]
        if len(payload) != len(widths) + sum(widths):
            raise WireError(f"unmask response of {len(payload)} bytes for {len(widths)} targets")
        slots, off = [], 0
        for width in widths:
            status, share = payload[off], payload[off + 1 : off + 1 + width]
            off += 1 + width
            if status > 1:
                raise WireError(f"unmask slot of status {status}, not 0 or 1")
            if not status and share != bytes(width):
                raise WireError("a refused unmask slot that is not zero-filled")
            slots.append((status == 1, share))
        return UnmaskResponseMsg(tuple(slots))


@functools.cache  # one per group in use
def _reveal_row(width: int) -> struct.Struct:
    """Share key and mask key of ``width`` bytes, randomness."""
    return struct.Struct(f"{width}s{width}s{RAND_BYTES}s")


@dataclass(frozen=True)
class RevealMsg:
    """Post-upload opening, broadcast for client-side verification: the
    32-byte server randomness, then one (share key, mask key, randomness)
    record per user to the end of the payload, each W || W || 32 at the
    receiver's W."""

    server_rand: bytes
    user_records: tuple[tuple[bytes, bytes, bytes], ...]  # (share_pub, mask_pub, rand)

    def to_bytes(self) -> bytes:
        if len(self.server_rand) != RAND_BYTES:
            raise ValueError("the server randomness must be 32 bytes")  # another length would shift every record
        parts = (part for rec in self.user_records for part in rec)
        return encode_record(TAG_REVEAL, b"".join((self.server_rand, *parts)))

    @staticmethod
    def from_bytes(data: bytes, group: DhGroup) -> "RevealMsg":
        payload = _payload_of(data, TAG_REVEAL)
        row = _reveal_row(group.element_bytes)
        if len(payload) < RAND_BYTES or (len(payload) - RAND_BYTES) % row.size:
            raise WireError(f"reveal payload of {len(payload)} bytes is not 32 plus whole {row.size}-byte records")
        return RevealMsg(payload[:RAND_BYTES], tuple(row.iter_unpack(payload[RAND_BYTES:])))


@dataclass(frozen=True)
class GlobalModelMsg:
    words: bytes  # m little endian words of word_bytes(w) bytes each

    @staticmethod
    def from_vector(values: np.ndarray, spec: SegmentSpec) -> "GlobalModelMsg":
        return GlobalModelMsg(_encode_words(values, spec))

    def vector(self, spec: SegmentSpec) -> np.ndarray:
        """The uint64 elements, decoded at the width of the receiver's w."""
        return _decode_words(self.words, spec)

    def to_bytes(self) -> bytes:
        return encode_record(TAG_GLOBAL_MODEL, self.words)

    @staticmethod
    def from_bytes(data: bytes) -> "GlobalModelMsg":
        return GlobalModelMsg(_payload_of(data, TAG_GLOBAL_MODEL))


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

SERVER = "server"

_Msg = TypeVar("_Msg")


def decode_from(sender: str, cls: type[_Msg], data: bytes, *held) -> _Msg:
    """``cls.from_bytes(data, *held)`` for a record that ``sender``
    (``SERVER`` or ``"user:<u>"``) sent, with ``held`` what the receiver
    already holds that the record's layout takes: its group, or for an
    UNMASK_RESPONSE the targets it asked for.  A malformed record aborts
    the round with ``ProtocolAbort`` blamed on the sender."""
    try:
        return cls.from_bytes(data, *held)  # type: ignore[attr-defined]
    except WireError as exc:
        raise ProtocolAbort(f"{sender} sent a malformed {cls.__name__}: {exc}", blamed=sender) from exc


@dataclass
class StarTransport:
    """Relays encoded messages between the server and users only.

    Any user-to-user send raises; the protocol has no such edge.  Byte
    counts accumulate per direction so benchmark reports can attribute
    communication cost to roles.
    """

    counters: OpCounters

    def deliver(self, sender: str, receiver: str, encoded: bytes) -> bytes:
        if sender != SERVER and receiver != SERVER:
            raise AssertionError(f"direct user-to-user message {sender} -> {receiver}")
        if sender == SERVER:
            self.counters.bytes_server_to_user += len(encoded)
        else:
            self.counters.bytes_user_to_server += len(encoded)
        return encoded
