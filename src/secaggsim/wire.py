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
groups.  The key-share width W travels in a header byte, and each
receiver rejects a W other than its group's.  A share value at or above
its field's prime is rejected where it is read: by the holder about to
release it and by the server filing the released row.

Shamir shares travel in bundles, one per sender to the server and one
per recipient from the server (the message layout of Bonawitz et al.,
CCS 2017, section 4).  A bundle is::

    own token (8) || threshold (2) || key-share width W (1) || entry bodies

and carries no other-end tokens: its entries are positional.  An upload
bundle comes from a share owner, whose token it carries, and holds one
entry per recipient in the ``share_recipients`` order the server handed
out, without the owner.  A download bundle goes to one recipient, whose
token it carries, and holds one entry per owner in the recipient's
``share_recipients`` order, without the recipient.  Either way each
entry's position names its other end.  Every body is 4 + W + 33 bytes
(46 at W = 9, 70 at W = 33)::

    evaluation point (4) || mask-key share (W) || self-seed share (33)

so every entry carries both secrets, the entry count is the body bytes
over the body width, and bodies that are not whole entries raise
``WireError``.  The relay moves bodies by position and never decodes a
share, but the shares are plaintext: it could read every one until
ROADMAP item 7 replaces each body with a ciphertext.

An unmask response carries released shares as one fixed-width release
table per secret type, one row per released share of one secret, which
is what the never-both rule counts::

    threshold (2) || key-share width W (1) || key row count k (4) || seed row count s (4)
    || k key rows of: owner token (8) || evaluation point (4) || share (W)
    || s seed rows of: owner token (8) || evaluation point (4) || share (33)
    || refused (owner token, secret type) targets

A peer list packs its handles at the one blinded key width W the group
fixes, as the reveal packs its records, with a sign of +1 or -1 and a
kind code of 1 (intra) or 2 (inter) in each row, which is all a user
needs to apply the pair's mask.  No row says where in the tree the peer
sits or which token it holds, so a user cannot match its masking peers
against its share recipients::

    own token (8) || W (2) || handle count n (4)
    || n rows of: sign (1) || kind (1) || W key bytes
    || recipient count (4) || recipient tokens of 8 bytes

The two verification broadcasts stay small and carry no nonce and no
tree shape, which is public (see ``orgtree``).  TREE_COMMIT is N (4) ||
the SHA-256 digest of the N advertised randomness commitments (32), not
a list: no user reads the list before the openings exist, and a user
that later verifies the reveal recomputes the digest from the revealed
openings, which catches a server that changes any of them (see
``orgtree`` for why checking one's own record then, rather than one's
inclusion earlier, loses nothing).  REVEAL is the server randomness (32)
|| N (4) || three field widths (2 each) || N records of share key, mask
key and randomness at those widths, as the group fixes the key width
and the protocol the randomness width, which opens its commitment alone
(see ``crypto``); a payload that is not exactly that header plus N
records raises ``WireError``.

Decoding raises ``WireError`` for a truncated record, one whose tag is not
the expected message's, one whose fields overrun the payload, a digest
that is not 32 bytes, and, in all but the two vector messages, bytes after
the last field.  A round decodes every record from the bytes its receiver
got through ``decode_from``, which blames a malformed one on its sender.

Users never address each other directly: the transport only accepts
messages with the server on one end and counts payload bytes per
direction, which is what the communication-cost benchmarks report.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Sequence
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

TOKEN_BYTES = 8
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


def _unpack_tokens(buf: bytes, off: int) -> tuple[tuple[bytes, ...], int]:
    """A 4-byte count followed by that many tokens."""
    (k,) = _unpack(">I", buf, off)
    raw, end = _take(buf, off + 4, TOKEN_BYTES * k)
    return struct.unpack(f"{TOKEN_BYTES}s" * k, raw), end


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


_TARGET = struct.Struct(">8sB")  # owner token, secret type


def _pack_targets(targets: tuple[tuple[bytes, int], ...]) -> bytes:
    """A 4-byte count followed by that many (token, secret type) pairs."""
    return struct.pack(">I", len(targets)) + b"".join(starmap(_TARGET.pack, targets))


def _unpack_targets(buf: bytes, off: int) -> tuple[tuple[tuple[bytes, int], ...], int]:
    """A 4-byte count followed by that many (token, secret type) pairs."""
    (k,) = _unpack(">I", buf, off)
    raw, end = _take(buf, off + 4, _TARGET.size * k)
    if raw[TOKEN_BYTES :: _TARGET.size].translate(None, _SECRET_TYPES):
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
    """The grouping randomness, which alone opens its ADVERT commitment."""

    user_rand: bytes

    def to_bytes(self) -> bytes:
        return encode_record(TAG_RAND_OPEN, _pack_bytes(self.user_rand))

    @staticmethod
    def from_bytes(data: bytes) -> "RandOpenMsg":
        payload = _payload_of(data, TAG_RAND_OPEN)
        r, end = _unpack_bytes(payload, 0)
        _check_end(payload, end)
        return RandOpenMsg(r)


@dataclass
class PeerHandle:
    """Opaque view of one masking peer: no identity and no token, only what
    masking needs; a user keeps its pair seeds in handle order.  Not frozen,
    which makes the 24K handles of a 2000-user round about 4x faster to
    build."""

    randomized_pub: bytes
    sign: int  # +1 add the pair mask, -1 subtract it
    kind: str  # "intra" or "inter"


_KIND_CODES = {"intra": 1, "inter": 2}
_KINDS = (None, "intra", "inter")
_PEER_HEAD = struct.Struct(">8sHI")  # own token, key width, handle count
_SIGN, _KIND = 0, 1  # offsets of the sign and the kind code in a handle row


@functools.lru_cache(maxsize=16)  # the width comes off the wire, so the cache is bounded
def _handle_row(width: int) -> struct.Struct:
    """Sign, kind code, blinded key of ``width`` bytes."""
    return struct.Struct(f">bB{width}s")


@dataclass(frozen=True)
class PeerListMsg:
    """Masking peer handles plus opaque share-recipient tokens.

    A handle row is sign (1) || kind (1) || blinded key (W), with no token:
    the user's own round token and its share recipients' are the only
    tokens a peer list carries.  ``share_recipients`` lists the round
    tokens of the user's whole share subgroup in a fixed order (the user
    included); share evaluation points are 1-based positions in that
    order.
    """

    own_token: bytes
    peers: tuple[PeerHandle, ...]
    share_recipients: tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        peers = self.peers
        widths = {len(p.randomized_pub) for p in peers}
        width = max(widths, default=0)
        if len(self.own_token) != TOKEN_BYTES or widths - {width}:
            raise ValueError("peer lists need an 8-byte token and blinded keys of one width")
        pack = _handle_row(width).pack
        table = b"".join([pack(p.sign, _KIND_CODES[p.kind], p.randomized_pub) for p in peers])
        recips = self.share_recipients
        parts = (_PEER_HEAD.pack(self.own_token, width, len(peers)), table, struct.pack(">I", len(recips)), *recips)
        return encode_record(TAG_PEER_LIST, b"".join(parts))

    @staticmethod
    def from_bytes(data: bytes) -> "PeerListMsg":
        payload = _payload_of(data, TAG_PEER_LIST)
        own, width, n = _unpack(_PEER_HEAD.format, payload, 0)
        row = _handle_row(width)
        table, off = _take(payload, _PEER_HEAD.size, n * row.size)
        signs, kinds = table[_SIGN :: row.size], table[_KIND :: row.size]
        if signs.translate(None, b"\x01\xff") or kinds.translate(None, b"\x01\x02"):
            raise WireError("a peer handle with a sign other than +-1 or a kind code other than 1 or 2")
        rows = row.iter_unpack(table)
        peers = tuple([PeerHandle(pub, sign, _KINDS[kind]) for sign, kind, pub in rows])
        recips, end = _unpack_tokens(payload, off)
        _check_end(payload, end)
        return PeerListMsg(own, peers, recips)


_BUNDLE_HEAD = struct.Struct(">8sHB")  # own token, threshold, key-share width


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
    ``bodies`` holds whole entries, as every ``ShareMsg`` does."""
    return _entry_points(key_width, len(bodies) // entry_bytes(key_width)).unpack(bodies)


def share_bodies(points: Sequence[tuple[int, int, int]], key_width: int) -> list[bytes]:
    """One entry body per (evaluation point, key share, seed share) of one
    owner, with key shares of ``key_width`` bytes."""
    pack = _entry_body(key_width).pack
    return [
        pack(index, key.to_bytes(key_width, "big"), seed.to_bytes(SHARE_VALUE_BYTES, "big"))
        for index, key, seed in points
    ]


def share_part(bodies: bytes, off: int, secret_type: int, key_width: int) -> tuple[int, bytes]:
    """Evaluation point and share bytes of one secret in the body at ``off``."""
    if secret_type not in (SECRET_MASK_KEY, SECRET_SELF_SEED):
        raise ValueError(f"unknown secret type tag {secret_type}")
    index, key, seed = _entry_body(key_width).unpack_from(bodies, off)
    return index, key if secret_type == SECRET_MASK_KEY else seed


@dataclass(frozen=True)
class ShareMsg:
    """A bundle of Shamir share entries between one user and the server:
    token (8) || threshold (2) || key-share width W (1) || bodies, each body
    point (4) || key share (W) || seed share (33).

    ``token`` is the user's own: the owner's in an upload bundle, the
    recipient's in a download bundle.  ``bodies`` holds one
    ``entry_bytes(key_width)``-byte body per entry (see ``share_bodies``),
    in that user's ``share_recipients`` order without the user itself.
    """

    token: bytes
    threshold: int
    key_width: int
    bodies: bytes

    def to_bytes(self) -> bytes:
        if len(self.token) != TOKEN_BYTES or not 0 < self.key_width < 256:
            raise ValueError("share bundle needs an 8-byte token and a key-share width of 1 to 255 bytes")
        if len(self.bodies) % entry_bytes(self.key_width):
            raise ValueError("share bundle needs whole entry bodies")
        head = _BUNDLE_HEAD.pack(self.token, self.threshold, self.key_width)
        return encode_record(TAG_SHARE_MSG, head + self.bodies)

    @staticmethod
    def from_bytes(data: bytes) -> "ShareMsg":
        payload = _payload_of(data, TAG_SHARE_MSG)
        token, threshold, key_width = _unpack(_BUNDLE_HEAD.format, payload, 0)
        bodies = payload[_BUNDLE_HEAD.size :]
        if not key_width:
            raise WireError("share bundle with zero-byte key shares")
        if len(bodies) % entry_bytes(key_width):
            raise WireError(f"{len(bodies)} share bundle bytes are not whole entries of {entry_bytes(key_width)}")
        return ShareMsg(token, threshold, key_width, bodies)


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

    targets: tuple[tuple[bytes, int], ...]  # (owner token, secret type)
    forced: tuple[bytes, ...] = ()

    def to_bytes(self) -> bytes:
        parts = (_pack_targets(self.targets), struct.pack(">I", len(self.forced)), *self.forced)
        return encode_record(TAG_UNMASK_REQUEST, b"".join(parts))

    @staticmethod
    def from_bytes(data: bytes) -> "UnmaskRequestMsg":
        payload = _payload_of(data, TAG_UNMASK_REQUEST)
        targets, off = _unpack_targets(payload, 0)
        forced, end = _unpack_tokens(payload, off)
        _check_end(payload, end)
        return UnmaskRequestMsg(targets, forced)


_RELEASE_HEAD = struct.Struct(">HBII")  # threshold, key-share width, key rows, seed rows

ReleaseRow = tuple[bytes, int, bytes]  # (owner token, evaluation point, share bytes)


@functools.lru_cache(maxsize=16)  # the width comes off the wire, so the cache is bounded
def _release_row(width: int) -> struct.Struct:
    """Owner token, evaluation point, share of ``width`` bytes."""
    return struct.Struct(f">8sI{width}s")


_SEED_ROW = _release_row(SHARE_VALUE_BYTES)


@dataclass(frozen=True)
class UnmaskResponseMsg:
    """Released shares as one release table per secret type, plus the
    refused targets: threshold (2) || key-share width W (1) || key row
    count (4) || seed row count (4) || key rows || seed rows || refused
    targets, each row owner token (8) || point (4) || share (W for keys,
    33 for seeds).

    ``keys`` and ``seeds`` hold (owner token, evaluation point, share
    bytes) rows of mask-key shares of ``key_width`` bytes and of self-seed
    shares of ``SHARE_VALUE_BYTES``; ``threshold`` is the holder's t and
    ``key_width`` its group's key-share width, which the server checks
    against its own.
    """

    threshold: int
    key_width: int
    keys: tuple[ReleaseRow, ...] = ()
    seeds: tuple[ReleaseRow, ...] = ()
    refused: tuple[tuple[bytes, int], ...] = ()  # (owner token, refused type)

    @property
    def shares(self) -> tuple[tuple[bytes, int, int, bytes], ...]:
        """Every released row as (owner token, secret type, evaluation
        point, share bytes), key rows first."""
        return tuple((owner, SECRET_MASK_KEY, index, raw) for owner, index, raw in self.keys) + tuple(
            (owner, SECRET_SELF_SEED, index, raw) for owner, index, raw in self.seeds
        )

    def to_bytes(self) -> bytes:
        keys, seeds, width = self.keys, self.seeds, self.key_width
        if not 0 < width < 256:
            raise ValueError("a release table needs a key-share width of 1 to 255 bytes")
        # "s" fields would pad or cut a token or share of another length
        if any(len(owner) != TOKEN_BYTES or len(raw) != width for owner, _, raw in keys) or any(
            len(owner) != TOKEN_BYTES or len(raw) != SHARE_VALUE_BYTES for owner, _, raw in seeds
        ):
            raise ValueError("release rows need 8-byte owner tokens and shares of their table's width")
        table = b"".join(starmap(_release_row(width).pack, keys)) + b"".join(starmap(_SEED_ROW.pack, seeds))
        head = _RELEASE_HEAD.pack(self.threshold, width, len(keys), len(seeds))
        return encode_record(TAG_UNMASK_RESPONSE, head + table + _pack_targets(self.refused))

    @staticmethod
    def from_bytes(data: bytes) -> "UnmaskResponseMsg":
        payload = _payload_of(data, TAG_UNMASK_RESPONSE)
        threshold, width, k, n = _unpack(_RELEASE_HEAD.format, payload, 0)
        if not width:
            raise WireError("release table with zero-byte key shares")
        key_row = _release_row(width)
        keys, off = _take(payload, _RELEASE_HEAD.size, k * key_row.size)
        seeds, off = _take(payload, off, n * _SEED_ROW.size)
        refused, end = _unpack_targets(payload, off)
        _check_end(payload, end)
        return UnmaskResponseMsg(
            threshold, width, tuple(key_row.iter_unpack(keys)), tuple(_SEED_ROW.iter_unpack(seeds)), refused
        )


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
