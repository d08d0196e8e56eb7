"""Binary message encodings and the star-topology transport.

Every protocol message is one length-prefixed record::

    tag (1 byte) || payload_length (4 bytes, big endian) || payload

Variable-length payload fields are themselves prefixed with a 4-byte big
endian length.  Vector elements travel as little endian words of the
smallest native width (1, 2, 4 or 8 bytes) that holds w bits, so 4 bytes
at w = 32.  No record carries the width: the receiver decodes a vector
under its own ``SegmentSpec``, and a vector that is not a whole number of
elements, or holds an element >= 2^w, raises ``WireError`` there.  The
masked upload and the global model are nothing but those words; the
server knows an upload's sender from the channel it arrived on.  A
Shamir share value is one big endian field element (see ``crypto``): 33
bytes in the 2^256 + 297 field, which holds every self-seed share and the
mask-key shares of the sim256 and strong2048 groups, and 9 bytes in the
2^64 + 13 field, which holds the mask-key shares of the toy and fast64
groups.  A share value at or above its field's prime is rejected where it
is read: by the holder about to release it and by the server filing the
released row.

A user names a member of its share leaf by the member's 1-based place in
the leaf order, which is also the member's Shamir evaluation point, as
4 bytes.  A peer list tells a user its own point and the leaf's size and
nothing else about the leaf.

Shamir shares travel in bundles, one per sender to the server and one
per recipient from the server (the message layout of Bonawitz et al.,
CCS 2017, section 4).  A bundle is nothing but entry bodies, whose
positions name their other ends: an upload bundle holds one entry per
other member of the owner's share leaf, a download bundle one per other
member of the recipient's, each in leaf order.  Every body is 4 + W + 33
bytes (46 at W = 9, 70 at W = 33)::

    evaluation point (4) || mask-key share (W) || self-seed share (33)

so every entry carries both secrets.  Like a vector, a bundle carries no
width: its receiver reads it at its group's key-share width W, and counts
bytes that are not whole entries as a malformed bundle from the sender.
The relay moves bodies by position and never decodes a share, but the
shares are plaintext: it could read every one until ROADMAP item 7
replaces each body with a ciphertext.

An unmask request names each target by its owner's point, with the
secret type to release, and lists the owners the server excluded::

    target count (4) || targets of: owner point (4) || secret type (1)
    || forced count (4) || forced owner points (4 each)

An unmask response carries released shares as one fixed-width release
table per secret type, one row per released share of one secret, which
is what the never-both rule counts.  A row holds no evaluation point,
as every share a holder releases is at the holder's own point, which the
server knows, and the header keeps only the row counts and the key-share
width W, which the decoder needs and the server checks against its own::

    W (1) || key row count k (4) || seed row count s (4)
    || k key rows of: owner point (4) || share (W)
    || s seed rows of: owner point (4) || share (33)
    || refused count (4) || refused targets of: owner point (4) || secret type (1)

A peer list packs its handles at the one blinded key width W the group
fixes, as the reveal packs its records, with a sign of +1 or -1 and a
kind code of 1 (intra) or 2 (inter) in each row, which is all a user
needs to apply the pair's mask.  No row says where in the tree the peer
sits, so a user cannot match its masking peers against its share leaf::

    own point (4) || share-leaf size (4) || W (2) || handle count n (4)
    || n rows of: sign (1) || kind (1) || W key bytes

The setup messages stay small and carry no nonce and no tree shape,
which is public (see ``orgtree``).  SERVER_COMMIT is a 32-byte digest and
RAND_OPEN the 32-byte randomness it opens, each the whole payload.
TREE_COMMIT is N (4) || the SHA-256 digest of the N advertised randomness
commitments (32), not a list: no user reads the list before the openings
exist, and a user that later verifies the reveal recomputes the digest
from the revealed openings, which catches a server that changes any of
them (see ``orgtree`` for why checking one's own record then, rather
than one's inclusion earlier, loses nothing).  REVEAL is the server
randomness (32) || N (4) || three field widths (2 each) || N records of
share key, mask key and randomness at those widths, as the group fixes
the key width and the protocol the randomness width, which opens its
commitment alone (see ``crypto``); a payload that is not exactly that
header plus N records raises ``WireError``.

Decoding raises ``WireError`` for a truncated record, one whose tag is not
the expected message's, one whose fields overrun the payload, a digest or
randomness that is not 32 bytes, and, in all but the two vector messages
and the share bundle, bytes after the last field.  A round decodes every
record from the bytes its receiver got through ``decode_from``, which
blames a malformed one on its sender.

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
from .crypto import RAND_BYTES
from .errors import ProtocolAbort, WireError
from .fixedpoint import SegmentSpec, word_bytes

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

SHARE_VALUE_BYTES = 33  # one element of the 2^256 + 297 field: every seed share, wide key shares

SECRET_MASK_KEY = 1  # share of a user's pairwise-mask private key
SECRET_SELF_SEED = 2  # share of a user's per-round self-mask seed

_SECRET_TYPES = bytes((SECRET_MASK_KEY, SECRET_SELF_SEED))

DIGEST_BYTES = 32  # SHA-256 commitments


def _pack_bytes(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def _unpack(fmt: str, buf: bytes, off: int) -> tuple:
    """``struct.unpack_from`` with a short read reported as ``WireError``."""
    try:
        return struct.unpack_from(fmt, buf, off)
    except struct.error:
        raise WireError(f"field {fmt!r} overruns the payload at offset {off}") from None


def _take(buf: bytes, off: int, n: int) -> tuple[bytes, int]:
    """The n bytes at ``off``, or ``WireError`` if fewer remain."""
    if off + n > len(buf):
        raise WireError(f"{n}-byte field overruns the payload at offset {off}")
    return buf[off : off + n], off + n


def _unpack_bytes(buf: bytes, off: int) -> tuple[bytes, int]:
    (n,) = _unpack(">I", buf, off)
    return _take(buf, off + 4, n)


def _pack_points(points: tuple[int, ...]) -> bytes:
    return struct.pack(f">I{len(points)}I", len(points), *points)


def _unpack_points(buf: bytes, off: int) -> tuple[tuple[int, ...], int]:
    """A 4-byte count followed by that many 4-byte points."""
    (k,) = _unpack(">I", buf, off)
    raw, end = _take(buf, off + 4, 4 * k)
    return struct.unpack(f">{k}I", raw), end


def _encode_words(values: np.ndarray, spec: SegmentSpec) -> bytes:
    """Ring elements as ``word_bytes(w)``-byte little endian words; an
    element >= 2^w raises ``ValueError`` rather than being cut to w bits."""
    if values.size and int(values.max()) > spec.word_mask:
        raise ValueError(f"vector element exceeds the {spec.word_bits}-bit ring")
    return values.astype(f"<u{word_bytes(spec.word_bits)}").tobytes()


def _decode_words(words: bytes, spec: SegmentSpec) -> np.ndarray:
    """Inverse of :func:`_encode_words`: ``WireError`` unless the bytes are
    whole elements, each below 2^w."""
    width = word_bytes(spec.word_bits)
    if len(words) % width:
        raise WireError(f"{len(words)} vector bytes are not whole {width}-byte elements")
    values = np.frombuffer(words, dtype=f"<u{width}").astype(np.uint64)
    if spec.word_bits < 8 * width and values.size and int(values.max()) > spec.word_mask:
        raise WireError(f"vector element exceeds the {spec.word_bits}-bit ring")
    return values


_TARGET = struct.Struct(">IB")  # owner point, secret type


def _pack_targets(targets: tuple[tuple[int, int], ...]) -> bytes:
    """A 4-byte count followed by that many (owner point, secret type) pairs."""
    return struct.pack(">I", len(targets)) + b"".join(starmap(_TARGET.pack, targets))


def _unpack_targets(buf: bytes, off: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """A 4-byte count followed by that many (owner point, secret type) pairs."""
    (k,) = _unpack(">I", buf, off)
    raw, end = _take(buf, off + 4, _TARGET.size * k)
    if raw[4 :: _TARGET.size].translate(None, _SECRET_TYPES):  # the type byte of each pair
        raise WireError("unknown secret type tag in a target list")
    return tuple(_TARGET.iter_unpack(raw)), end


def _check_end(payload: bytes, end: int) -> None:
    if end != len(payload):
        raise WireError(f"{len(payload) - end} trailing bytes after the last field")


def encode_record(tag: int, payload: bytes) -> bytes:
    return struct.pack(">BI", tag, len(payload)) + payload


def decode_record(data: bytes) -> tuple[int, bytes]:
    if len(data) < 5:
        raise WireError("truncated record header")
    tag, n = struct.unpack_from(">BI", data, 0)
    payload = data[5 : 5 + n]
    if len(payload) != n:
        raise WireError("truncated record")
    return tag, payload


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
    """Per-round key advertisement plus the user's randomness commitment."""

    share_pub: bytes
    mask_pub: bytes
    rand_commit: bytes

    def to_bytes(self) -> bytes:
        payload = _pack_bytes(self.share_pub) + _pack_bytes(self.mask_pub) + self.rand_commit
        return encode_record(TAG_ADVERT, payload)

    @staticmethod
    def from_bytes(data: bytes) -> "AdvertMsg":
        payload = _payload_of(data, TAG_ADVERT)
        share_pub, off = _unpack_bytes(payload, 0)
        mask_pub, off = _unpack_bytes(payload, off)
        if len(payload) - off != DIGEST_BYTES:
            raise WireError(f"randomness commitment of {len(payload) - off} bytes, expected {DIGEST_BYTES}")
        return AdvertMsg(share_pub, mask_pub, payload[off:])


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
_PEER_HEAD = struct.Struct(">IIHI")  # own point, share-leaf size, key width, handle count
_SIGN, _KIND = 0, 1  # offsets of the sign and the kind code in a handle row


@functools.lru_cache(maxsize=16)  # the width comes off the wire, so the cache is bounded
def _handle_row(width: int) -> struct.Struct:
    """Sign, kind code, blinded key of ``width`` bytes."""
    return struct.Struct(f">bB{width}s")


@dataclass(frozen=True)
class PeerListMsg:
    """The user's own evaluation point, the size of its share leaf, and its
    masking peer handles, each row sign (1) || kind (1) || blinded key (W).

    ``own_point`` is the user's 1-based place in its share leaf's order, and
    a mate's place there is the only name the user has for it.
    """

    own_point: int
    leaf_size: int
    peers: tuple[PeerHandle, ...]

    def to_bytes(self) -> bytes:
        peers = self.peers
        widths = {len(p.randomized_pub) for p in peers}
        width = max(widths, default=0)
        if widths - {width}:
            raise ValueError("peer lists need blinded keys of one width")
        pack = _handle_row(width).pack
        table = b"".join([pack(p.sign, _KIND_CODES[p.kind], p.randomized_pub) for p in peers])
        head = _PEER_HEAD.pack(self.own_point, self.leaf_size, width, len(peers))
        return encode_record(TAG_PEER_LIST, head + table)

    @staticmethod
    def from_bytes(data: bytes) -> "PeerListMsg":
        payload = _payload_of(data, TAG_PEER_LIST)
        own, size, width, n = _unpack(_PEER_HEAD.format, payload, 0)
        row = _handle_row(width)
        table, end = _take(payload, _PEER_HEAD.size, n * row.size)
        _check_end(payload, end)
        signs, kinds = table[_SIGN :: row.size], table[_KIND :: row.size]
        if signs.translate(None, b"\x01\xff") or kinds.translate(None, b"\x01\x02"):
            raise WireError("a peer handle with a sign other than +-1 or a kind code other than 1 or 2")
        rows = row.iter_unpack(table)
        return PeerListMsg(own, size, tuple([PeerHandle(pub, sign, _KINDS[kind]) for sign, kind, pub in rows]))


@functools.lru_cache(maxsize=16)  # one per key-share width in use
def _entry_body(key_width: int) -> struct.Struct:
    """Evaluation point, key share of ``key_width`` bytes, seed share."""
    return struct.Struct(f">I{key_width}s{SHARE_VALUE_BYTES}s")


def entry_bytes(key_width: int) -> int:
    """Bytes of one bundle entry body whose key share is ``key_width`` bytes."""
    return 4 + key_width + SHARE_VALUE_BYTES


@functools.lru_cache(maxsize=32)  # one per (key-share width, leaf size) in use
def _entry_points(key_width: int, count: int) -> struct.Struct:
    """The evaluation points of ``count`` entry bodies, skipping their shares."""
    return struct.Struct(">" + f"I{key_width + SHARE_VALUE_BYTES}x" * count)


def entry_points(bodies: bytes, key_width: int) -> tuple[int, ...]:
    """The evaluation point of each entry body in ``bodies``, in order;
    ``bodies`` must hold whole entries, which each receiver checks first."""
    return _entry_points(key_width, len(bodies) // entry_bytes(key_width)).unpack(bodies)


def share_bodies(points: Iterable[tuple[int, int, int]], key_width: int) -> list[bytes]:
    """One entry body per (evaluation point, key share, seed share) of one
    owner, with key shares of ``key_width`` bytes."""
    pack = _entry_body(key_width).pack
    return [
        pack(index, key.to_bytes(key_width, "big"), seed.to_bytes(SHARE_VALUE_BYTES, "big"))
        for index, key, seed in points
    ]


def share_part(bodies: bytes, off: int, secret_type: int, key_width: int) -> bytes:
    """The share bytes of one secret in the body at ``off``;
    ``entry_points`` reads the points."""
    if secret_type not in (SECRET_MASK_KEY, SECRET_SELF_SEED):
        raise ValueError(f"unknown secret type tag {secret_type}")
    _, key, seed = _entry_body(key_width).unpack_from(bodies, off)
    return key if secret_type == SECRET_MASK_KEY else seed


@dataclass(frozen=True)
class ShareMsg:
    """A bundle of Shamir share entries between one user and the server,
    nothing but the bodies, each point (4) || key share (W) || seed share
    (33) (see ``share_bodies``), one per other member of the user's share
    leaf in leaf order; the receiver reads them at its own W."""

    bodies: bytes

    def to_bytes(self) -> bytes:
        return encode_record(TAG_SHARE_MSG, self.bodies)

    @staticmethod
    def from_bytes(data: bytes) -> "ShareMsg":
        return ShareMsg(_payload_of(data, TAG_SHARE_MSG))


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


@dataclass(frozen=True)
class UnmaskRequestMsg:
    """Targets and which secret type to release for each.

    ``forced`` marks targets the server excluded after detection; an honest
    user treats them like dropouts when applying its release rules.
    """

    targets: tuple[tuple[int, int], ...]  # (owner point, secret type)
    forced: tuple[int, ...] = ()  # owner points

    def to_bytes(self) -> bytes:
        return encode_record(TAG_UNMASK_REQUEST, _pack_targets(self.targets) + _pack_points(self.forced))

    @staticmethod
    def from_bytes(data: bytes) -> "UnmaskRequestMsg":
        payload = _payload_of(data, TAG_UNMASK_REQUEST)
        targets, off = _unpack_targets(payload, 0)
        forced, end = _unpack_points(payload, off)
        _check_end(payload, end)
        return UnmaskRequestMsg(targets, forced)


_RELEASE_HEAD = struct.Struct(">BII")  # key-share width, key rows, seed rows

ReleaseRow = tuple[int, bytes]  # (owner point, share bytes)


@functools.lru_cache(maxsize=16)  # the width comes off the wire, so the cache is bounded
def _release_row(width: int) -> struct.Struct:
    """Owner point, share of ``width`` bytes."""
    return struct.Struct(f">I{width}s")


_SEED_ROW = _release_row(SHARE_VALUE_BYTES)


@dataclass(frozen=True)
class UnmaskResponseMsg:
    """Released shares as one release table per secret type, plus the
    refused targets: key-share width W (1) || key row count (4) || seed row
    count (4) || key rows || seed rows || refused targets, each row owner
    point (4) || share (W for keys, 33 for seeds).

    ``keys`` and ``seeds`` hold (owner point, share bytes) rows of mask-key
    shares of ``key_width`` bytes and of self-seed shares of
    ``SHARE_VALUE_BYTES``; every share is at the holder's own evaluation
    point.  ``key_width`` is the holder's group's key-share width, which
    the server checks against its own.
    """

    key_width: int
    keys: tuple[ReleaseRow, ...] = ()
    seeds: tuple[ReleaseRow, ...] = ()
    refused: tuple[tuple[int, int], ...] = ()  # (owner point, refused type)

    @property
    def shares(self) -> tuple[tuple[int, int, bytes], ...]:
        """Every released row as (owner point, secret type, share bytes),
        key rows first."""
        return tuple((owner, SECRET_MASK_KEY, raw) for owner, raw in self.keys) + tuple(
            (owner, SECRET_SELF_SEED, raw) for owner, raw in self.seeds
        )

    def to_bytes(self) -> bytes:
        keys, seeds, width = self.keys, self.seeds, self.key_width
        if not 0 < width < 256:
            raise ValueError("a release table needs a key-share width of 1 to 255 bytes")
        # "s" fields would pad or cut a share of another length
        if any(len(raw) != width for _, raw in keys) or any(len(raw) != SHARE_VALUE_BYTES for _, raw in seeds):
            raise ValueError("release rows need shares of their table's width")
        table = b"".join(starmap(_release_row(width).pack, keys)) + b"".join(starmap(_SEED_ROW.pack, seeds))
        head = _RELEASE_HEAD.pack(width, len(keys), len(seeds))
        return encode_record(TAG_UNMASK_RESPONSE, head + table + _pack_targets(self.refused))

    @staticmethod
    def from_bytes(data: bytes) -> "UnmaskResponseMsg":
        payload = _payload_of(data, TAG_UNMASK_RESPONSE)
        width, k, n = _unpack(_RELEASE_HEAD.format, payload, 0)
        if not width:
            raise WireError("release table with zero-byte key shares")
        key_row = _release_row(width)
        keys, off = _take(payload, _RELEASE_HEAD.size, k * key_row.size)
        seeds, off = _take(payload, off, n * _SEED_ROW.size)
        refused, end = _unpack_targets(payload, off)
        _check_end(payload, end)
        return UnmaskResponseMsg(width, tuple(key_row.iter_unpack(keys)), tuple(_SEED_ROW.iter_unpack(seeds)), refused)


_REVEAL_HEAD = struct.Struct(f">{RAND_BYTES}sIHHH")  # server randomness, N, the three field widths


@dataclass(frozen=True)
class RevealMsg:
    """Post-upload opening, broadcast for client-side verification: the
    32-byte server randomness, then the N (share key, mask key, randomness)
    records after one header giving their three widths, back to back
    without per-field prefixes (see the module docstring)."""

    server_rand: bytes
    user_records: tuple[tuple[bytes, bytes, bytes], ...]  # (share_pub, mask_pub, rand)

    def to_bytes(self) -> bytes:
        records = self.user_records
        widths = tuple(map(len, records[0])) if records else (0, 0, 0)
        if len(self.server_rand) != RAND_BYTES:
            raise ValueError("the server randomness must be 32 bytes")  # "32s" would pad or cut it
        if len(widths) != 3 or any(tuple(map(len, rec)) != widths for rec in records):
            raise ValueError("reveal records must all be three fields of the same widths")
        if records and not sum(widths):
            raise ValueError("reveal records must not be empty")
        head = _REVEAL_HEAD.pack(self.server_rand, len(records), *widths)
        return encode_record(TAG_REVEAL, b"".join((head, *(part for rec in records for part in rec))))

    @staticmethod
    def from_bytes(data: bytes) -> "RevealMsg":
        payload = _payload_of(data, TAG_REVEAL)
        server_rand, n, *widths = _unpack(_REVEAL_HEAD.format, payload, 0)
        off = _REVEAL_HEAD.size
        row = struct.Struct("".join(f"{w}s" for w in widths))
        if n and not row.size:
            raise WireError(f"{n} reveal records of zero width")
        if len(payload) != off + n * row.size:
            raise WireError(f"reveal payload of {len(payload)} bytes does not hold {n} records of {row.size}")
        records = tuple(row.iter_unpack(payload[off:])) if n else ()
        return RevealMsg(server_rand, records)


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


def decode_from(sender: str, cls: type[_Msg], data: bytes) -> _Msg:
    """``cls.from_bytes(data)`` for a record that ``sender`` (``SERVER`` or
    ``"user:<u>"``) sent; a malformed one aborts the round with
    ``ProtocolAbort`` blamed on the sender."""
    try:
        return cls.from_bytes(data)  # type: ignore[attr-defined]
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
