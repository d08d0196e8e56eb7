import struct
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secaggsim.aggserver import AggServer
from secaggsim.counters import OpCounters
from secaggsim.crypto import SIM_GROUP
from secaggsim.errors import WireError
from secaggsim.fixedpoint import SegmentSpec
from secaggsim.orgtree import TreeConfig
from secaggsim.wire import (
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    SHARE_LIMB_BYTES,
    TAG_GLOBAL_MODEL,
    TAG_MASKED_UPLOAD,
    TAG_RAND_OPEN,
    TAG_REVEAL,
    TAG_SHARE_MSG,
    TAG_TREE_COMMIT,
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
    decode_record,
    encode_record,
)

TOK = [bytes([i]) * 8 for i in range(4)]
SPEC32 = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)
SHARE = ShareMsg(TOK[0], TOK[1], 2, 3, (5, (1 << 263) + 7), (11,))

# one instance of each of the 11 message types
MESSAGES = [
    ServerCommitMsg(b"\x11" * 32),
    AdvertMsg(b"share-pub", b"mask-pub", b"\x22" * 32),
    TreeCommitMsg(b"\x33" * 32, 2, b"\x44" * 32),
    RandOpenMsg(b"\x66" * 32, b"\x77" * 16),
    PeerListMsg(
        TOK[0],
        (PeerHandle(TOK[1], b"pub-1", 1, "intra", 0), PeerHandle(TOK[2], b"pub-2", -1, "inter", 2)),
        (TOK[0], TOK[1], TOK[3]),
    ),
    SHARE,
    MaskedUploadMsg.from_vector(TOK[2], np.array([0, 1, 2**32 - 5], dtype=np.uint64), SPEC32),
    UnmaskRequestMsg(((TOK[1], SECRET_SELF_SEED), (TOK[2], SECRET_MASK_KEY)), forced=(TOK[2],)),
    UnmaskResponseMsg((ShareMsg(TOK[0], TOK[1], 2, 3, (5,)), ShareMsg(TOK[2], TOK[1], 1, 3, (), (9,))), ((TOK[3], SECRET_MASK_KEY),)),
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
        "09000000990000000200000040060000003b000000000000000001010101010101010000000200030001"
        "000000000000000000000000000000000000000000000000000000000000000000000500000040060000"
        "003b02020202020202020101010101010101000000010003000000010000000000000000000000000000"
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
    upload = MaskedUploadMsg.from_vector(TOK[1], values, spec).to_bytes()
    model = GlobalModelMsg.from_vector(values, spec).to_bytes()
    assert len(upload) == 5 + 8 + m * width
    assert len(model) == 5 + m * width
    decoded = MaskedUploadMsg.from_bytes(upload)
    assert decoded.token == TOK[1]
    assert np.array_equal(decoded.vector(spec), values)
    assert np.array_equal(GlobalModelMsg.from_bytes(model).vector(spec), values)


@pytest.mark.parametrize("w, width", [(8, 1), (12, 2), (16, 2), (20, 4), (32, 4), (40, 8)])
def test_vector_element_beyond_ring_rejected(w, width):
    spec, wide = _spec(w), np.array([1, 1 << w], dtype=np.uint64)
    with pytest.raises(ValueError):
        MaskedUploadMsg.from_vector(TOK[1], wide, spec)
    with pytest.raises(ValueError):
        GlobalModelMsg.from_vector(wide, spec)
    if w < 8 * width:  # the element fits the native word, so the decoder must catch it
        words = wide.astype(f"<u{width}").tobytes()
        with pytest.raises(WireError):
            MaskedUploadMsg.from_bytes(encode_record(TAG_MASKED_UPLOAD, TOK[1] + words)).vector(spec)
        with pytest.raises(WireError):
            GlobalModelMsg.from_bytes(encode_record(TAG_GLOBAL_MODEL, words)).vector(spec)


@pytest.mark.parametrize("w", [16, 20, 32, 64])
def test_vector_partial_element_rejected(w):
    spec = _spec(w)
    words = GlobalModelMsg.from_vector(np.array([7, 9], dtype=np.uint64), spec).words
    for cut in (words[:-1], words + b"\x00"):
        with pytest.raises(WireError):
            MaskedUploadMsg.from_bytes(encode_record(TAG_MASKED_UPLOAD, TOK[1] + cut)).vector(spec)
        with pytest.raises(WireError):
            GlobalModelMsg.from_bytes(encode_record(TAG_GLOBAL_MODEL, cut)).vector(spec)


# -- packed share records --------------------------------------------------------

WIDE = ShareMsg(TOK[0], TOK[1], 4, 3, tuple((1 << 256) - 1 - i for i in range(8)), ((1 << 256) + 296,))


def test_share_packed_wide_roundtrip():
    data = WIDE.to_bytes()
    assert len(data) == 5 + 2 * 8 + 10 + SHARE_LIMB_BYTES * 9
    assert ShareMsg.from_bytes(data) == WIDE
    assert WIDE.secret_types() == (SECRET_MASK_KEY, SECRET_SELF_SEED)


def test_share_secret_type_single_records_only():
    assert ShareMsg(TOK[0], TOK[1], 4, 3, WIDE.mask_key).secret_type == SECRET_MASK_KEY
    assert ShareMsg(TOK[0], TOK[1], 4, 3, (), WIDE.self_seed).secret_type == SECRET_SELF_SEED
    with pytest.raises(ValueError):
        WIDE.secret_type


def _share_payload(nkey: int, nseed: int, limbs: int) -> bytes:
    return TOK[0] + TOK[1] + struct.pack(">IHHH", 1, 2, nkey, nseed) + bytes(SHARE_LIMB_BYTES * limbs)


def test_share_limb_counts_must_match_payload():
    assert ShareMsg.from_bytes(encode_record(TAG_SHARE_MSG, _share_payload(1, 1, 2))).mask_key == (0,)
    for nkey, nseed, limbs in ((2, 1, 2), (1, 0, 2), (1, 1, 3), (8, 1, 8)):
        with pytest.raises(WireError):
            ShareMsg.from_bytes(encode_record(TAG_SHARE_MSG, _share_payload(nkey, nseed, limbs)))


def test_share_record_without_secret_rejected():
    with pytest.raises(WireError):
        ShareMsg.from_bytes(encode_record(TAG_SHARE_MSG, _share_payload(0, 0, 0)))


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
