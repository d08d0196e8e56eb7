"""Binary message encodings and the star-topology transport.

Every protocol message is one length-prefixed record::

    tag (1 byte) || payload_length (4 bytes, big endian) || payload

Variable-length payload fields are themselves prefixed with a 4-byte big
endian length.  Vector elements travel as little endian words of the
smallest native width (1, 2, 4 or 8 bytes) that holds w bits, so 4 bytes
at w = 32.  No record carries the width: the receiver decodes a vector
under its own ``SegmentSpec``, and a vector that is not a whole number of
elements, or holds an element >= 2^w, raises ``WireError`` there.  Shamir
share limbs are 33-byte big endian field elements (the share field is the
257-bit prime 2^256 + 297).

A share record comes in two forms.  A distribution record carries both of
its owner's secrets for one recipient, the mask-key limbs and then the
self-seed limbs under one evaluation point, so a user sends one record per
share recipient.  An unmask release carries exactly one of the two parts,
which is what the never-both rule counts.

The two verification broadcasts stay small.  The tree commitment carries
the N advertised randomness commitments as one SHA-256 digest plus N, not
as a list: no user reads the list before the openings exist, and a user
that later verifies the reveal recomputes the digest from the revealed
openings, which catches a server that changes any of them (see
``orgtree`` for why checking one's own record then, rather than one's
inclusion earlier, loses nothing).  The reveal packs its N user records
at one width given once in a header, because the group fixes the key
width and the protocol the randomness and nonce widths; a payload that is
not exactly that header plus N records raises ``WireError``.

Decoding a truncated record, one whose tag is not the expected message's,
or one whose fields overrun the payload raises ``WireError``.

Users never address each other directly: the transport only accepts
messages with the server on one end and counts payload bytes per
direction, which is what the communication-cost benchmarks report.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .counters import OpCounters
from .errors import WireError
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

SHARE_LIMB_BYTES = 33  # holds one element of the 2^256 + 297 share field

SECRET_MASK_KEY = 1  # share of a user's pairwise-mask private key
SECRET_SELF_SEED = 2  # share of a user's per-round self-mask seed

TOKEN_BYTES = 8


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
    off += 4
    raw, end = _take(buf, off, TOKEN_BYTES * k)
    return tuple(raw[TOKEN_BYTES * i : TOKEN_BYTES * (i + 1)] for i in range(k)), end


def _encode_words(values: np.ndarray, spec: SegmentSpec) -> bytes:
    """Ring elements as ``word_bytes(w)``-byte little endian words; an
    element >= 2^w raises ``ValueError`` rather than being cut to w bits."""
    if values.size and int(values.max()) > spec.max_value:
        raise ValueError(f"vector element exceeds the {spec.word_bits}-bit ring")
    return values.astype(f"<u{word_bytes(spec.word_bits)}").tobytes()


def _decode_words(words: bytes, spec: SegmentSpec) -> np.ndarray:
    """Inverse of :func:`_encode_words`: ``WireError`` unless the bytes are
    whole elements, each below 2^w."""
    width = word_bytes(spec.word_bits)
    if len(words) % width:
        raise WireError(f"{len(words)} vector bytes are not whole {width}-byte elements")
    values = np.frombuffer(words, dtype=f"<u{width}").astype(np.uint64)
    if spec.word_bits < 8 * width and values.size and int(values.max()) > spec.max_value:
        raise WireError(f"vector element exceeds the {spec.word_bits}-bit ring")
    return values


def _pack_targets(targets: tuple[tuple[bytes, int], ...]) -> bytes:
    """A 4-byte count followed by that many (token, secret type) pairs."""
    return b"".join((struct.pack(">I", len(targets)), *(token + bytes((stype,)) for token, stype in targets)))


def _unpack_targets(buf: bytes, off: int) -> tuple[tuple[tuple[bytes, int], ...], int]:
    """A 4-byte count followed by that many (token, secret type) pairs."""
    (k,) = _unpack(">I", buf, off)
    off += 4
    raw, end = _take(buf, off, (TOKEN_BYTES + 1) * k)
    step = TOKEN_BYTES + 1
    return tuple((raw[step * i : step * i + TOKEN_BYTES], raw[step * i + TOKEN_BYTES]) for i in range(k)), end


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
        return AdvertMsg(share_pub, mask_pub, payload[off:])


_TREE_COMMIT = struct.Struct(">32sI32s")  # tree digest, N, commits digest


@dataclass(frozen=True)
class TreeCommitMsg:
    """The committed tree shape plus a digest of the N advertised randomness
    commitments (``orgtree.commits_digest``), in user order."""

    tree_digest: bytes
    n_users: int
    commits_digest: bytes

    def to_bytes(self) -> bytes:
        if len(self.tree_digest) != 32 or len(self.commits_digest) != 32:
            raise ValueError("tree commitment digests must be 32 bytes")  # "32s" would pad or cut them
        payload = _TREE_COMMIT.pack(self.tree_digest, self.n_users, self.commits_digest)
        return encode_record(TAG_TREE_COMMIT, payload)

    @staticmethod
    def from_bytes(data: bytes) -> "TreeCommitMsg":
        payload = _payload_of(data, TAG_TREE_COMMIT)
        if len(payload) != _TREE_COMMIT.size:
            raise WireError(f"tree commitment of {len(payload)} bytes, expected {_TREE_COMMIT.size}")
        return TreeCommitMsg(*_TREE_COMMIT.unpack(payload))


@dataclass(frozen=True)
class RandOpenMsg:
    user_rand: bytes
    nonce: bytes

    def to_bytes(self) -> bytes:
        return encode_record(TAG_RAND_OPEN, _pack_bytes(self.user_rand) + _pack_bytes(self.nonce))

    @staticmethod
    def from_bytes(data: bytes) -> "RandOpenMsg":
        payload = _payload_of(data, TAG_RAND_OPEN)
        r, off = _unpack_bytes(payload, 0)
        nonce, _ = _unpack_bytes(payload, off)
        return RandOpenMsg(r, nonce)


@dataclass(frozen=True)
class PeerHandle:
    """Opaque view of one masking peer: no identity, only what masking needs."""

    token: bytes  # random per-round pair token
    randomized_pub: bytes
    sign: int  # +1 add the pair mask, -1 subtract it
    kind: str  # "intra" or "inter"
    layer: int  # 0 for intra, tree layer for inter

    def pack(self) -> bytes:
        return (
            self.token
            + struct.pack(">bBB", self.sign, 1 if self.kind == "intra" else 2, self.layer)
            + _pack_bytes(self.randomized_pub)
        )

    @staticmethod
    def unpack(buf: bytes, off: int) -> tuple["PeerHandle", int]:
        token, off = _take(buf, off, TOKEN_BYTES)
        sign, kind_code, layer = _unpack(">bBB", buf, off)
        off += 3
        pub, off = _unpack_bytes(buf, off)
        return PeerHandle(token, pub, sign, "intra" if kind_code == 1 else "inter", layer), off


@dataclass(frozen=True)
class PeerListMsg:
    """Masking peer handles plus opaque share-recipient tokens.

    ``share_recipients`` lists the round tokens of the user's whole share
    subgroup in a fixed order (the user included); share evaluation points
    are 1-based positions in that order.
    """

    own_token: bytes
    peers: tuple[PeerHandle, ...]
    share_recipients: tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        payload = self.own_token
        payload += struct.pack(">I", len(self.peers)) + b"".join(p.pack() for p in self.peers)
        payload += struct.pack(">I", len(self.share_recipients)) + b"".join(self.share_recipients)
        return encode_record(TAG_PEER_LIST, payload)

    @staticmethod
    def from_bytes(data: bytes) -> "PeerListMsg":
        payload = _payload_of(data, TAG_PEER_LIST)
        own, off = _take(payload, 0, TOKEN_BYTES)
        (n,) = _unpack(">I", payload, off)
        off += 4
        peers = []
        for _ in range(n):
            handle, off = PeerHandle.unpack(payload, off)
            peers.append(handle)
        recips, _ = _unpack_tokens(payload, off)
        return PeerListMsg(own, tuple(peers), recips)


_SHARE_HEAD = struct.Struct(">IHHH")  # share index, threshold, limb counts
_SHARE_FIXED = 2 * TOKEN_BYTES + _SHARE_HEAD.size


@dataclass(frozen=True)
class ShareMsg:
    """Shamir shares of one owner's secrets for one recipient.

    A distribution record carries both parts, the mask-key limbs and the
    self-seed limbs at the same evaluation point; an unmask release
    carries exactly one of them.
    """

    owner_token: bytes
    recipient_token: bytes
    share_index: int
    threshold: int
    mask_key: tuple[int, ...] = ()
    self_seed: tuple[int, ...] = ()

    def secret_types(self) -> tuple[int, ...]:
        """The secret types this record carries, mask key first."""
        if self.mask_key:
            return (SECRET_MASK_KEY, SECRET_SELF_SEED) if self.self_seed else (SECRET_MASK_KEY,)
        return (SECRET_SELF_SEED,) if self.self_seed else ()

    def part(self, secret_type: int) -> tuple[int, ...]:
        """The limbs of one secret type; empty if this record lacks it."""
        if secret_type == SECRET_MASK_KEY:
            return self.mask_key
        if secret_type == SECRET_SELF_SEED:
            return self.self_seed
        raise ValueError(f"unknown secret type tag {secret_type}")

    @property
    def secret_type(self) -> int:
        """The secret type of a single-type record."""
        types = self.secret_types()
        if len(types) != 1:
            raise ValueError(f"record carries {len(types)} secret types, not one")
        return types[0]

    def to_bytes(self) -> bytes:
        mask_key, self_seed = self.mask_key, self.self_seed
        parts = [
            self.owner_token,
            self.recipient_token,
            _SHARE_HEAD.pack(self.share_index, self.threshold, len(mask_key), len(self_seed)),
        ]
        parts += [limb.to_bytes(SHARE_LIMB_BYTES, "big") for limb in mask_key + self_seed]
        return encode_record(TAG_SHARE_MSG, b"".join(parts))

    @staticmethod
    def from_bytes(data: bytes) -> "ShareMsg":
        payload = _payload_of(data, TAG_SHARE_MSG)
        idx, thr, nkey, nseed = _unpack(_SHARE_HEAD.format, payload, 2 * TOKEN_BYTES)
        if len(payload) != _SHARE_FIXED + SHARE_LIMB_BYTES * (nkey + nseed):
            raise WireError(f"share record of {len(payload)} bytes does not hold {nkey} + {nseed} limbs")
        if nkey + nseed == 0:
            raise WireError("share record carries no secret")
        limbs = tuple(
            int.from_bytes(payload[off : off + SHARE_LIMB_BYTES], "big")
            for off in range(_SHARE_FIXED, len(payload), SHARE_LIMB_BYTES)
        )
        return ShareMsg(
            payload[:TOKEN_BYTES],
            payload[TOKEN_BYTES : 2 * TOKEN_BYTES],
            idx,
            thr,
            limbs[:nkey],
            limbs[nkey:],
        )


@dataclass(frozen=True)
class MaskedUploadMsg:
    token: bytes
    words: bytes  # m little endian words of word_bytes(w) bytes each

    @staticmethod
    def from_vector(token: bytes, values: np.ndarray, spec: SegmentSpec) -> "MaskedUploadMsg":
        return MaskedUploadMsg(token, _encode_words(values, spec))

    def vector(self, spec: SegmentSpec) -> np.ndarray:
        """The uint64 elements, decoded at the width of the receiver's w."""
        return _decode_words(self.words, spec)

    def to_bytes(self) -> bytes:
        return encode_record(TAG_MASKED_UPLOAD, self.token + self.words)

    @staticmethod
    def from_bytes(data: bytes) -> "MaskedUploadMsg":
        payload = _payload_of(data, TAG_MASKED_UPLOAD)
        token, off = _take(payload, 0, TOKEN_BYTES)
        return MaskedUploadMsg(token, payload[off:])


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
        forced, _ = _unpack_tokens(payload, off)
        return UnmaskRequestMsg(targets, forced)


@dataclass(frozen=True)
class UnmaskResponseMsg:
    shares: tuple[ShareMsg, ...]
    refused: tuple[tuple[bytes, int], ...] = ()  # (owner token, refused type)

    def to_bytes(self) -> bytes:
        parts = (
            struct.pack(">I", len(self.shares)),
            *(_pack_bytes(s.to_bytes()) for s in self.shares),
            _pack_targets(self.refused),
        )
        return encode_record(TAG_UNMASK_RESPONSE, b"".join(parts))

    @staticmethod
    def from_bytes(data: bytes) -> "UnmaskResponseMsg":
        payload = _payload_of(data, TAG_UNMASK_RESPONSE)
        (n,) = _unpack(">I", payload, 0)
        off = 4
        shares = []
        for _ in range(n):
            raw, off = _unpack_bytes(payload, off)
            shares.append(ShareMsg.from_bytes(raw))
        refused, _ = _unpack_targets(payload, off)
        return UnmaskResponseMsg(tuple(shares), refused)


_REVEAL_WIDTHS = struct.Struct(">IHHHH")  # N, then the four field widths


@dataclass(frozen=True)
class RevealMsg:
    """Post-upload opening: server randomness, tree shape, and the full
    per-user opening list, broadcast for client-side verification.

    The N records follow one header carrying their four field widths and
    are packed back to back without per-field prefixes: every record has
    the same widths, because the group fixes the key width and the
    protocol the randomness and nonce widths.
    """

    server_rand: bytes
    server_nonce: bytes
    tree_desc: bytes
    tree_nonce: bytes
    user_records: tuple[tuple[bytes, bytes, bytes, bytes], ...]  # (share_pub, mask_pub, rand, nonce)

    def to_bytes(self) -> bytes:
        records = self.user_records
        widths = tuple(map(len, records[0])) if records else (0, 0, 0, 0)
        if len(widths) != 4 or any(tuple(map(len, rec)) != widths for rec in records):
            raise ValueError("reveal records must all be four fields of the same widths")
        if records and not sum(widths):
            raise ValueError("reveal records must not be empty")
        parts = (
            _pack_bytes(self.server_rand),
            _pack_bytes(self.server_nonce),
            _pack_bytes(self.tree_desc),
            _pack_bytes(self.tree_nonce),
            _REVEAL_WIDTHS.pack(len(records), *widths),
            *(part for rec in records for part in rec),
        )
        return encode_record(TAG_REVEAL, b"".join(parts))

    @staticmethod
    def from_bytes(data: bytes) -> "RevealMsg":
        payload = _payload_of(data, TAG_REVEAL)
        server_rand, off = _unpack_bytes(payload, 0)
        server_nonce, off = _unpack_bytes(payload, off)
        tree_desc, off = _unpack_bytes(payload, off)
        tree_nonce, off = _unpack_bytes(payload, off)
        n, w0, w1, w2, w3 = _unpack(_REVEAL_WIDTHS.format, payload, off)
        off += _REVEAL_WIDTHS.size
        width = w0 + w1 + w2 + w3
        if n and not width:
            raise WireError(f"{n} reveal records of zero width")
        if len(payload) != off + n * width:
            raise WireError(f"reveal payload of {len(payload)} bytes does not hold {n} records of {width}")
        a, b, c = w0, w0 + w1, w0 + w1 + w2
        records = tuple(
            (payload[o : o + a], payload[o + a : o + b], payload[o + b : o + c], payload[o + c : o + width])
            for o in (range(off, len(payload), width) if n else ())
        )
        return RevealMsg(server_rand, server_nonce, tree_desc, tree_nonce, records)


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
