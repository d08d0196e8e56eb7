import struct
from random import Random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from secaggsim.aggserver import AggServer
from secaggsim.counters import OpCounters
from secaggsim.crypto import SHARE_PRIME, SIM_GROUP
from secaggsim.errors import ProtocolAbort, WireError
from secaggsim.fixedpoint import SegmentSpec
from secaggsim.orgtree import TreeConfig
from secaggsim.wire import (
    ENTRY_BYTES,
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    SHARE_VALUE_BYTES,
    TAG_GLOBAL_MODEL,
    TAG_MASKED_UPLOAD,
    TAG_RAND_OPEN,
    TAG_REVEAL,
    TAG_SHARE_MSG,
    TAG_TREE_COMMIT,
    TAG_UNMASK_REQUEST,
    TAG_UNMASK_RESPONSE,
    AdvertMsg,
    GlobalModelMsg,
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
    decode_from,
    decode_record,
    encode_record,
    share_bodies,
    share_part,
)

TOK = [bytes([i]) * 8 for i in range(4)]
SPEC32 = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)
SHARE = ShareMsg(TOK[0], 3, b"".join(share_bodies([(2, 5, (1 << 256) + 7), (3, 1, 2)])))


def _share(value: int) -> bytes:
    return value.to_bytes(SHARE_VALUE_BYTES, "big")


# one instance of each of the 11 message types
MESSAGES = [
    ServerCommitMsg(b"\x11" * 32),
    AdvertMsg(b"share-pub", b"mask-pub", b"\x22" * 32),
    TreeCommitMsg(b"\x33" * 32, 2, b"\x44" * 32),
    RandOpenMsg(b"\x66" * 32, b"\x77" * 16),
    PeerListMsg(
        TOK[0],
        (PeerHandle(TOK[1], b"pub-1", 1, "intra"), PeerHandle(TOK[2], b"pub-2", -1, "inter")),
        (TOK[0], TOK[1], TOK[3]),
    ),
    SHARE,
    MaskedUploadMsg.from_vector(np.array([0, 1, 2**32 - 5], dtype=np.uint64), SPEC32),
    UnmaskRequestMsg(((TOK[1], SECRET_SELF_SEED), (TOK[2], SECRET_MASK_KEY)), forced=(TOK[2],)),
    UnmaskResponseMsg(
        3,
        ((TOK[0], SECRET_MASK_KEY, 2, _share(5)), (TOK[2], SECRET_SELF_SEED, 1, _share(9))),
        ((TOK[3], SECRET_MASK_KEY),),
    ),
    RevealMsg(
        b"rs", b"rs-nonce", b"tree:h=2,d=3", b"tree-nonce", ((b"sp", b"mp", b"ru", b"nu-0"), (b"SP", b"MP", b"RU", b"NU-1"))
    ),
    GlobalModelMsg.from_vector(np.array([3, 4], dtype=np.uint64), SPEC32),
]


def _ids(msgs):
    return [type(m).__name__ for m in msgs]


@pytest.mark.parametrize("msg", MESSAGES, ids=_ids(MESSAGES))
def test_roundtrip(msg):
    assert type(msg).from_bytes(msg.to_bytes()) == msg


@pytest.mark.parametrize("msg", MESSAGES, ids=_ids(MESSAGES))
def test_wrong_tag_raises(msg):
    data = msg.to_bytes()
    wrong = data[0] % TAG_GLOBAL_MODEL + 1
    with pytest.raises(WireError):
        type(msg).from_bytes(bytes([wrong]) + data[1:])


@pytest.mark.parametrize("msg", MESSAGES, ids=_ids(MESSAGES))
def test_truncated_raises(msg):
    data = msg.to_bytes()
    for cut in (len(data) - 1, 5 + (len(data) - 5) // 2, 3, 0):
        with pytest.raises(WireError):
            type(msg).from_bytes(data[:cut])


def test_message_types_covered():
    assert len({type(m) for m in MESSAGES}) == 11


def test_decode_record_errors_are_value_errors():
    with pytest.raises(ValueError):
        decode_record(b"\x01\x00")


# -- byte-stable encodings -------------------------------------------------------------

UNMASK_HEX = {
    "UnmaskRequestMsg": "080000002200000002010101010101010102020202020202020201000000010202020202020202",
    "UnmaskResponseMsg": (
        "090000006f00030000000200000000000000000100000002000000000000000000000000000000000000"
        "000000000000000000000000000005020202020202020202000000010000000000000000000000000000"
        "0000000000000000000000000000000000000900000001030303030303030301"
    ),
}


@pytest.mark.parametrize("name", sorted(UNMASK_HEX))
def test_unmask_encodings_unchanged(name):
    (msg,) = [m for m in MESSAGES if type(m).__name__ == name]
    assert msg.to_bytes().hex() == UNMASK_HEX[name]


# -- fixed-width broadcasts ---------------------------------------------------------


def _tree_commit_bytes(n: int) -> bytes:
    spec = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)
    server = AggServer(
        tree=TreeConfig(height=1, degree=2), group=SIM_GROUP, spec=spec, inter_mask_bits=10, counters=OpCounters()
    )
    rng = Random(n)
    server.begin_round(n, rng, 1)
    for u in range(n):
        server.receive_advert(u, AdvertMsg(rng.randbytes(32), rng.randbytes(32), rng.randbytes(32)))
    return server.commit_tree().to_bytes()


def test_tree_commit_length_independent_of_population():
    small, large = _tree_commit_bytes(10), _tree_commit_bytes(1000)
    assert len(small) == len(large) == 5 + 32 + 4 + 32
    assert TreeCommitMsg.from_bytes(large).n_users == 1000
    for short in (TreeCommitMsg(bytes(31), 10, bytes(32)), TreeCommitMsg(bytes(32), 10, bytes(33))):
        with pytest.raises(ValueError):
            short.to_bytes()


def _reveal(records) -> RevealMsg:
    return RevealMsg(b"r" * 32, b"n" * 16, b"tree:h=2,d=3", b"t" * 32, tuple(records))


def test_reveal_length_is_header_plus_fixed_records():
    widths = (8, 8, 32, 16)
    rng = Random(7)
    for n in (0, 1, 7):
        msg = _reveal(tuple(rng.randbytes(w) for w in widths) for _ in range(n))
        data = msg.to_bytes()
        header = 5 + 4 * 4 + 32 + 16 + len(b"tree:h=2,d=3") + 32 + 4 + 2 * 4
        assert len(data) == header + n * sum(widths)
        assert RevealMsg.from_bytes(data) == msg


def test_reveal_unequal_widths_rejected_on_encode():
    good = (b"s" * 8, b"m" * 8, b"r" * 32, b"n" * 16)
    for bad in ((b"s" * 9, b"m" * 7, b"r" * 32, b"n" * 16), (b"s" * 8, b"m" * 8, b"r" * 32, b"n" * 17)):
        with pytest.raises(ValueError):
            _reveal((good, bad)).to_bytes()
    with pytest.raises(ValueError):
        _reveal(((b"", b"", b"", b""),)).to_bytes()


def test_reveal_truncated_or_padded_payload_rejected():
    _, payload = decode_record(_reveal([(b"s" * 8, b"m" * 8, b"r" * 32, b"n" * 16)] * 3).to_bytes())
    for bad in (payload[:-1], payload[:-64], payload + b"\x00", payload + bytes(64)):
        with pytest.raises(WireError):
            RevealMsg.from_bytes(encode_record(TAG_REVEAL, bad))


def test_reveal_zero_width_records_rejected():
    # four empty fields, N = 2^32 - 1 records of width 0: no record fits, none is built
    payload = bytes(16) + b"\xff\xff\xff\xff" + bytes(8)
    with pytest.raises(WireError):
        RevealMsg.from_bytes(encode_record(TAG_REVEAL, payload))


# -- vectors at the width of w -------------------------------------------------------


def _spec(w: int) -> SegmentSpec:
    return SegmentSpec(word_bits=w, frac_bits=2, low_bits=4)


@given(st.sampled_from((8, 16, 32, 64)), st.data())
def test_vector_roundtrip_at_native_width(w, data):
    spec, width = _spec(w), w // 8
    m = data.draw(st.integers(1, 40))
    values = np.array(data.draw(st.lists(st.integers(0, (1 << w) - 1), min_size=m, max_size=m)), dtype=np.uint64)
    upload = MaskedUploadMsg.from_vector(values, spec).to_bytes()
    model = GlobalModelMsg.from_vector(values, spec).to_bytes()
    assert len(upload) == len(model) == 5 + m * width
    assert np.array_equal(MaskedUploadMsg.from_bytes(upload).vector(spec), values)
    assert np.array_equal(GlobalModelMsg.from_bytes(model).vector(spec), values)


@pytest.mark.parametrize("w, width", [(8, 1), (12, 2), (16, 2), (20, 4), (32, 4), (40, 8)])
def test_vector_element_beyond_ring_rejected(w, width):
    spec, wide = _spec(w), np.array([1, 1 << w], dtype=np.uint64)
    with pytest.raises(ValueError):
        MaskedUploadMsg.from_vector(wide, spec)
    with pytest.raises(ValueError):
        GlobalModelMsg.from_vector(wide, spec)
    if w < 8 * width:  # the element fits the native word, so the decoder must catch it
        words = wide.astype(f"<u{width}").tobytes()
        with pytest.raises(WireError):
            MaskedUploadMsg.from_bytes(encode_record(TAG_MASKED_UPLOAD, words)).vector(spec)
        with pytest.raises(WireError):
            GlobalModelMsg.from_bytes(encode_record(TAG_GLOBAL_MODEL, words)).vector(spec)


@pytest.mark.parametrize("w", [16, 20, 32, 64])
def test_vector_partial_element_rejected(w):
    spec = _spec(w)
    words = GlobalModelMsg.from_vector(np.array([7, 9], dtype=np.uint64), spec).words
    for cut in (words[:-1], words + b"\x00"):
        with pytest.raises(WireError):
            MaskedUploadMsg.from_bytes(encode_record(TAG_MASKED_UPLOAD, cut)).vector(spec)
        with pytest.raises(WireError):
            GlobalModelMsg.from_bytes(encode_record(TAG_GLOBAL_MODEL, cut)).vector(spec)


# -- share bundles and release tables ----------------------------------------------

WIDE_KEY = (1 << 256) - 1  # above every short exponent
WIDE_SEED = SHARE_PRIME - 1
WIDE = ShareMsg(TOK[0], 3, share_bodies([(4, WIDE_KEY, WIDE_SEED)])[0])


def test_share_packed_wide_roundtrip():
    data = WIDE.to_bytes()
    assert ENTRY_BYTES == 4 + 2 * SHARE_VALUE_BYTES == 70
    assert len(data) == 5 + 14 + ENTRY_BYTES
    assert ShareMsg.from_bytes(data) == WIDE
    assert share_part(WIDE.bodies, 0, SECRET_MASK_KEY) == (4, _share(WIDE_KEY))
    assert share_part(WIDE.bodies, 0, SECRET_SELF_SEED) == (4, _share(WIDE_SEED))


def test_share_secret_type_single_records_only():
    """A bundle entry carries both secrets; a release row carries one, of a
    known type."""
    _, key = share_part(WIDE.bodies, 0, SECRET_MASK_KEY)
    assert int.from_bytes(key, "big") == WIDE_KEY
    with pytest.raises(ValueError):
        share_part(WIDE.bodies, 0, 3)
    resp = UnmaskResponseMsg(3, ((TOK[0], SECRET_MASK_KEY, 4, key), (TOK[0], SECRET_SELF_SEED, 4, _share(WIDE_SEED))))
    assert UnmaskResponseMsg.from_bytes(resp.to_bytes()) == resp
    with pytest.raises(WireError):
        UnmaskResponseMsg.from_bytes(UnmaskResponseMsg(3, ((TOK[0], 3, 4, key),)).to_bytes())
    for short in (key[1:], key + key):  # a row holds exactly one share
        with pytest.raises(ValueError):
            UnmaskResponseMsg(3, ((TOK[0], SECRET_MASK_KEY, 4, short),)).to_bytes()


def _bundle_payload(entries: int, body_bytes: int, count: int | None = None) -> bytes:
    """A bundle of ``entries`` zero bodies of ``body_bytes`` each, whose
    header claims ``count`` entries (``entries`` by default)."""
    head = TOK[0] + struct.pack(">HI", 2, entries if count is None else count)
    return head + bytes(body_bytes) * entries


def test_share_record_without_secret_rejected():
    """A bundle must be exactly its claimed count of 70-byte bodies: an
    entry that holds only its point or one of the two shares, or is a byte
    off, is not a body."""
    assert ShareMsg.from_bytes(encode_record(TAG_SHARE_MSG, _bundle_payload(2, ENTRY_BYTES))).bodies == bytes(140)
    for entries, body_bytes, count in ((2, 4, None), (2, 37, None), (1, 69, None), (1, 71, None), (2, 70, 1), (0, 0, 1)):
        with pytest.raises(WireError):
            ShareMsg.from_bytes(encode_record(TAG_SHARE_MSG, _bundle_payload(entries, body_bytes, count)))
    with pytest.raises(ValueError):
        ShareMsg(TOK[0], 2, bytes(ENTRY_BYTES + 1)).to_bytes()


_value = st.integers(0, SHARE_PRIME - 1)
_index = st.integers(1, 2**32 - 1)


@given(st.lists(st.tuples(_index, _value, _value), max_size=40))
@example([(2**32 - 1, SHARE_PRIME - 1, 0)])
def test_bundle_roundtrip(points):
    """Bundles (one layout for both directions) round-trip: 0 to many
    entries of any two field elements, indices up to 2^32 - 1."""
    msg = ShareMsg(TOK[1], 2, b"".join(share_bodies(points)))
    data_bytes = msg.to_bytes()
    assert len(data_bytes) == 5 + 14 + len(points) * ENTRY_BYTES
    decoded = ShareMsg.from_bytes(data_bytes)
    assert decoded == msg
    for j, (index, key, seed) in enumerate(points):
        off = j * ENTRY_BYTES
        assert share_part(decoded.bodies, off, SECRET_MASK_KEY) == (index, _share(key))
        assert share_part(decoded.bodies, off, SECRET_SELF_SEED) == (index, _share(seed))


_row = st.tuples(
    st.binary(min_size=8, max_size=8),
    st.sampled_from((SECRET_MASK_KEY, SECRET_SELF_SEED)),
    _index,
    _value.map(_share),
)


@given(st.lists(_row, max_size=40), st.lists(st.tuples(st.binary(min_size=8, max_size=8), st.sampled_from((1, 2)))))
@example([(TOK[0], SECRET_SELF_SEED, 2**32 - 1, _share(1))], [])
@example([], [])
def test_release_table_roundtrip(rows, refused):
    msg = UnmaskResponseMsg(3, tuple(rows), tuple(refused))
    data = msg.to_bytes()
    assert len(data) == 5 + 6 + len(rows) * (13 + SHARE_VALUE_BYTES) + 4 + 9 * len(refused)
    assert UnmaskResponseMsg.from_bytes(data) == msg


# every type but the two vector messages, whose words are checked under the receiver's spec
STRICT_FORMATS = [m for m in MESSAGES if not isinstance(m, (MaskedUploadMsg, GlobalModelMsg))]
# the first peer handle's sign and kind code: (offset in the payload, invalid values)
_HANDLE_FIELDS = ((8 + 2 + 4 + 8, (0, 2, 0x80)), (8 + 2 + 4 + 9, (0, 3, 7)))


@pytest.mark.parametrize("msg", STRICT_FORMATS, ids=_ids(STRICT_FORMATS))
def test_new_formats_reject_trailing_and_overrun(msg):
    """A trailing byte or any cut is rejected, which also holds digests to
    32 bytes; a peer list rejects a sign other than +-1 and a kind code
    other than 1 or 2."""
    tag, payload = decode_record(msg.to_bytes())
    with pytest.raises(WireError):
        type(msg).from_bytes(encode_record(tag, payload + b"\x00"))
    for cut in range(len(payload)):
        with pytest.raises(WireError):
            type(msg).from_bytes(encode_record(tag, payload[:cut]))
    for off, values in _HANDLE_FIELDS if isinstance(msg, PeerListMsg) else ():
        for value in values:
            with pytest.raises(WireError):
                PeerListMsg.from_bytes(encode_record(tag, payload[:off] + bytes([value]) + payload[off + 1 :]))


def test_counts_that_overrun_the_payload_rejected():
    with pytest.raises(WireError):  # 2^32 - 1 entries claimed, none present
        ShareMsg.from_bytes(encode_record(TAG_SHARE_MSG, TOK[0] + struct.pack(">HI", 2, 2**32 - 1)))
    with pytest.raises(WireError):  # 2^32 - 1 rows claimed, none present
        UnmaskResponseMsg.from_bytes(encode_record(TAG_UNMASK_RESPONSE, struct.pack(">HI", 2, 2**32 - 1)))
    with pytest.raises(WireError):  # a row one byte short of its share
        UnmaskResponseMsg.from_bytes(encode_record(TAG_UNMASK_RESPONSE, struct.pack(">HI", 2, 1) + bytes(45)))
    unknown_type = struct.pack(">I", 1) + TOK[0] + b"\x03" + bytes(4)
    with pytest.raises(WireError):  # an unknown secret type in a request
        UnmaskRequestMsg.from_bytes(encode_record(TAG_UNMASK_REQUEST, unknown_type))


def test_decode_from_blames_the_sender():
    assert decode_from("user:4", ShareMsg, WIDE.to_bytes()) == WIDE
    for sender in ("server", "user:4"):
        with pytest.raises(ProtocolAbort) as exc:
            decode_from(sender, ShareMsg, WIDE.to_bytes()[:-1])
        assert exc.value.blamed == sender


# -- field parsers inside a well-framed record ------------------------------------------


def test_short_fixed_field_raises_wire_error():
    with pytest.raises(WireError):
        TreeCommitMsg.from_bytes(encode_record(TAG_TREE_COMMIT, bytes(10)))


def test_overstated_length_prefix_raises_wire_error():
    # a prefix claiming 9 bytes with only 3 left, in the first and in the last field
    for payload in (b"\x00\x00\x00\x09abc", b"\x00\x00\x00\x01r\x00\x00\x00\x09abc"):
        with pytest.raises(WireError):
            RandOpenMsg.from_bytes(encode_record(TAG_RAND_OPEN, payload))


DECODERS = {m.to_bytes()[0]: type(m) for m in MESSAGES}


def _decodes_or_wire_error(tag: int, payload: bytes) -> None:
    cls = DECODERS[tag]
    try:
        msg = cls.from_bytes(encode_record(tag, payload))
    except WireError:
        return
    assert isinstance(msg, cls)


@given(st.sampled_from(sorted(DECODERS)), st.binary(max_size=200))
def test_fuzz_arbitrary_payloads(tag, payload):
    """Any payload framed under any tag decodes or raises WireError."""
    _decodes_or_wire_error(tag, payload)


@given(st.sampled_from(MESSAGES), st.data())
def test_fuzz_mutated_payloads(msg, data):
    """Valid payloads with one byte changed, cut or inserted decode or raise
    WireError; mutating count and length fields reaches the inner parsers."""
    tag, payload = decode_record(msg.to_bytes())
    pos = data.draw(st.integers(0, len(payload)))
    byte = bytes([data.draw(st.integers(0, 255))])
    edit = data.draw(st.sampled_from(("replace", "cut", "insert")))
    if edit == "replace":
        payload = payload[:pos] + byte + payload[pos + 1 :]
    elif edit == "cut":
        payload = payload[:pos]
    else:
        payload = payload[:pos] + byte + payload[pos:]
    _decodes_or_wire_error(tag, payload)
