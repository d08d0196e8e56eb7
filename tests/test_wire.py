import struct
from random import Random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_inputs, run_plain_round

from secaggsim.aggserver import AggServer
from secaggsim.counters import OpCounters
from secaggsim.crypto import FAST_GROUP, RAND_BYTES, SHARE_PRIME, SHARE_PRIME_64, SIM_GROUP
from secaggsim.errors import ProtocolAbort, WireError
from secaggsim.fixedpoint import SegmentSpec
from secaggsim.orgtree import TreeConfig
from secaggsim.useragent import UserAgent
from secaggsim.wire import (
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    SERVER,
    SHARE_VALUE_BYTES,
    TAG_ADVERT,
    TAG_GLOBAL_MODEL,
    TAG_MASKED_UPLOAD,
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
    entry_bytes,
    entry_points,
    share_bodies,
    share_part,
)

SPEC32 = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)
KEY64 = 9  # bytes of a mask-key share in the 2^64 + 13 field
SHARE = ShareMsg(b"".join(share_bodies([(2, 5, (1 << 256) + 7), (3, (1 << 64) + 1, 2)], KEY64)))


def _share(value: int, width: int = SHARE_VALUE_BYTES) -> bytes:
    return value.to_bytes(width, "big")


# one instance of each of the 11 message types
MESSAGES = [
    ServerCommitMsg(b"\x11" * 32),
    AdvertMsg(b"share-pub", b"mask-pub", b"\x22" * 32),
    TreeCommitMsg(2, b"\x44" * 32),
    RandOpenMsg(b"\x66" * 32),
    PeerListMsg(1, 3, (PeerHandle(b"pub-1", 1, "intra"), PeerHandle(b"pub-2", -1, "inter"))),
    SHARE,
    MaskedUploadMsg.from_vector(np.array([0, 1, 2**32 - 5], dtype=np.uint64), SPEC32),
    UnmaskRequestMsg(((2, SECRET_SELF_SEED), (3, SECRET_MASK_KEY)), forced=(3,)),
    UnmaskResponseMsg(KEY64, keys=((1, _share(5, KEY64)),), seeds=((3, _share(9)),), refused=((4, SECRET_MASK_KEY),)),
    RevealMsg(b"\x55" * 32, ((b"sp", b"mp", b"ru-0"), (b"SP", b"MP", b"RU-1"))),
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
    "UnmaskRequestMsg": "0800000016" "00000002" "0000000202" "0000000301" "00000001" "00000003",
    "UnmaskResponseMsg": (
        "0900000044" "09" "00000001" "00000001" "00000001" "000000000000000005" "00000003" + "00" * 32 + "09"
        "00000001" "0000000401"
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

    def key() -> bytes:  # a group element, as ``receive_advert`` checks
        return SIM_GROUP.encode(rng.randrange(SIM_GROUP.p))

    for u in range(n):
        server.receive_advert(u, AdvertMsg(key(), key(), rng.randbytes(32)))
    return server.commit_tree().to_bytes()


def test_tree_commit_length_independent_of_population():
    """TREE_COMMIT is N (4) || commitments digest (32) at any N; the old
    layout, which led with a 32-byte tree digest, no longer decodes."""
    small, large = _tree_commit_bytes(10), _tree_commit_bytes(1000)
    assert len(small) == len(large) == 5 + 4 + 32
    assert TreeCommitMsg.from_bytes(large).n_users == 1000
    for bad in (TreeCommitMsg(10, bytes(31)), TreeCommitMsg(10, bytes(33))):
        with pytest.raises(ValueError):
            bad.to_bytes()
    old = encode_record(TAG_TREE_COMMIT, bytes(32) + struct.pack(">I", 10) + bytes(32))
    assert len(old) == 73
    with pytest.raises(WireError):
        TreeCommitMsg.from_bytes(old)


def _reveal(records) -> RevealMsg:
    return RevealMsg(b"r" * 32, tuple(records))


def test_reveal_length_is_header_plus_fixed_records():
    widths = (8, 8, 32)
    rng = Random(7)
    for n in (0, 1, 7):
        msg = _reveal(tuple(rng.randbytes(w) for w in widths) for _ in range(n))
        data = msg.to_bytes()
        assert len(data) == 5 + 32 + 4 + 2 * 3 + n * sum(widths)
        assert RevealMsg.from_bytes(data) == msg


def test_fast64_reveal_records_are_two_keys_and_the_randomness():
    """A fast64 round reveals (share key, mask key, randomness) per user and
    no nonce: 2 * element_bytes + 32 = 48 bytes a record."""
    n, width = 16, 2 * FAST_GROUP.element_bytes + RAND_BYTES
    _, server, _, _ = run_plain_round(
        n, TreeConfig(height=1, degree=2), SPEC32, random_inputs(n, 4, SPEC32, seed=3), seed=3, group=FAST_GROUP
    )
    msg = server.reveal()
    assert width == 48
    assert {tuple(map(len, rec)) for rec in msg.user_records} == {(8, 8, 32)}
    assert len(msg.to_bytes()) == 5 + 32 + 4 + 2 * 3 + n * width
    assert RevealMsg.from_bytes(msg.to_bytes()) == msg


def test_reveal_unequal_widths_rejected_on_encode():
    good = (b"s" * 8, b"m" * 8, b"r" * 32)
    for bad in ((b"s" * 9, b"m" * 7, b"r" * 32), (b"s" * 8, b"m" * 8, b"r" * 33), good + (b"n" * 16,)):
        with pytest.raises(ValueError):
            _reveal((good, bad)).to_bytes()
    with pytest.raises(ValueError):
        _reveal(((b"", b"", b""),)).to_bytes()


def test_reveal_server_rand_not_32_bytes_rejected_on_encode():
    record = (b"s" * 8, b"m" * 8, b"r" * 32)
    for rand in (b"", bytes(16), bytes(31), bytes(33)):
        with pytest.raises(ValueError):
            RevealMsg(rand, (record,)).to_bytes()


def test_reveal_truncated_or_padded_payload_rejected():
    _, payload = decode_record(_reveal([(b"s" * 8, b"m" * 8, b"r" * 32)] * 3).to_bytes())
    for bad in (payload[:-1], payload[:-48], payload + b"\x00", payload + bytes(48)):
        with pytest.raises(WireError):
            RevealMsg.from_bytes(encode_record(TAG_REVEAL, bad))


def test_reveal_zero_width_records_rejected():
    # the server randomness, N = 2^32 - 1 records of width 0: no record fits, none is built
    payload = bytes(32) + b"\xff\xff\xff\xff" + bytes(6)
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
WIDE = ShareMsg(share_bodies([(4, WIDE_KEY, WIDE_SEED)], SHARE_VALUE_BYTES)[0])
NARROW_KEY = SHARE_PRIME_64 - 1  # the largest element of the 2^64 + 13 field
NARROW = ShareMsg(share_bodies([(4, NARROW_KEY, WIDE_SEED)], KEY64)[0])


def test_share_packed_wide_roundtrip():
    """A body is point (4) || key share (W) || seed share (33): 70 bytes
    with sim256 and strong2048 key shares, 46 with toy and fast64 ones,
    with no header."""
    assert entry_bytes(SHARE_VALUE_BYTES) == 4 + 2 * SHARE_VALUE_BYTES == 70
    assert entry_bytes(KEY64) == 4 + KEY64 + SHARE_VALUE_BYTES == 46
    for msg, key, width in ((WIDE, WIDE_KEY, SHARE_VALUE_BYTES), (NARROW, NARROW_KEY, KEY64)):
        data = msg.to_bytes()
        assert len(data) == 5 + entry_bytes(width)
        assert ShareMsg.from_bytes(data) == msg
        assert entry_points(msg.bodies, width) == (4,)
        assert share_part(msg.bodies, 0, SECRET_MASK_KEY, width) == _share(key, width)
        assert share_part(msg.bodies, 0, SECRET_SELF_SEED, width) == _share(WIDE_SEED)


def test_share_secret_type_single_records_only():
    """A bundle entry carries both secrets; a release row carries one, and
    its table names its type."""
    key = share_part(NARROW.bodies, 0, SECRET_MASK_KEY, KEY64)
    assert int.from_bytes(key, "big") == NARROW_KEY
    with pytest.raises(ValueError):
        share_part(NARROW.bodies, 0, 3, KEY64)
    resp = UnmaskResponseMsg(KEY64, keys=((4, key),), seeds=((4, _share(WIDE_SEED)),))
    assert UnmaskResponseMsg.from_bytes(resp.to_bytes()) == resp
    assert resp.shares == ((4, SECRET_MASK_KEY, key), (4, SECRET_SELF_SEED, _share(WIDE_SEED)))
    for short in (key[1:], key + key, _share(NARROW_KEY)):  # a row holds exactly one share of its table's width
        with pytest.raises(ValueError):
            UnmaskResponseMsg(KEY64, keys=((4, short),)).to_bytes()
    with pytest.raises(ValueError):
        UnmaskResponseMsg(KEY64, seeds=((4, key),)).to_bytes()


def test_share_record_without_secret_rejected():
    """A bundle carries no width, so it decodes as any bytes, and its
    receiver reads whole bodies of 4 + W + 33 bytes at its group's W: an
    entry that holds only its point or one of the two shares, or is a byte
    off, is not a body, and the bundle is rejected whole, blamed on the
    server that sent it."""
    for group, bad in ((FAST_GROUP, (4, 13, 37, 45, 47, 70)), (SIM_GROUP, (4, 37, 46, 69, 71))):
        agent = UserAgent(
            0, group=group, spec=SPEC32, inter_mask_bits=10, tree=TreeConfig(height=0, degree=2), counters=OpCounters()
        )
        agent.begin_round(Random(0), bytes(32))
        agent.open_rand(TreeCommitMsg(2, bytes(32)))  # the one leaf holds both users
        agent.receive_peer_list(PeerListMsg(1, 2, ()))
        agent.distribute_shares()
        for size in bad:
            msg = decode_from(SERVER, ShareMsg, encode_record(TAG_SHARE_MSG, bytes(size)))
            assert msg.bodies == bytes(size)
            with pytest.raises(ProtocolAbort, match="malformed ShareMsg") as exc:
                agent.receive_share(msg)
            assert exc.value.blamed == "server"
        agent.receive_share(ShareMsg(share_bodies([(1, 2, 3)], group.key_share_bytes)[0]))


_value = st.integers(0, SHARE_PRIME - 1)
_index = st.integers(1, 2**32 - 1)
# a key-share width with the elements of its field
_key_field = st.sampled_from(((KEY64, SHARE_PRIME_64), (SHARE_VALUE_BYTES, SHARE_PRIME)))


@st.composite
def _bundles(draw):
    width, prime = draw(_key_field)
    return width, draw(st.lists(st.tuples(_index, st.integers(0, prime - 1), _value), max_size=40))


@given(_bundles())
@example((KEY64, [(2**32 - 1, SHARE_PRIME_64 - 1, SHARE_PRIME - 1)]))
@example((SHARE_VALUE_BYTES, [(2**32 - 1, SHARE_PRIME - 1, 0)]))
def test_bundle_roundtrip(bundle):
    """Bundles (one layout for both directions) round-trip at both key-share
    widths: 0 to many entries of a key share and a seed share, indices up
    to 2^32 - 1."""
    width, points = bundle
    msg = ShareMsg(b"".join(share_bodies(points, width)))
    data_bytes = msg.to_bytes()
    assert len(data_bytes) == 5 + len(points) * (4 + width + SHARE_VALUE_BYTES)
    decoded = ShareMsg.from_bytes(data_bytes)
    assert decoded == msg
    assert entry_points(decoded.bodies, width) == tuple(index for index, _, _ in points)
    for j, (_, key, seed) in enumerate(points):
        off = j * entry_bytes(width)
        assert share_part(decoded.bodies, off, SECRET_MASK_KEY, width) == _share(key, width)
        assert share_part(decoded.bodies, off, SECRET_SELF_SEED, width) == _share(seed)


_owner = st.integers(0, 2**32 - 1)


@st.composite
def _release_tables(draw):
    width, prime = draw(_key_field)
    keys = draw(st.lists(st.tuples(_owner, st.integers(0, prime - 1).map(lambda v: _share(v, width))), max_size=20))
    seeds = draw(st.lists(st.tuples(_owner, _value.map(_share)), max_size=20))
    return width, tuple(keys), tuple(seeds)


@given(_release_tables(), st.lists(st.tuples(_owner, st.sampled_from((1, 2)))))
@example((KEY64, (), ((2**32 - 1, _share(1)),)), [])
@example((SHARE_VALUE_BYTES, ((2**32 - 1, _share(1)),), ()), [])
@example((KEY64, (), ()), [])
def test_release_table_roundtrip(table, refused):
    """Release tables round-trip at both key-share widths: a key table of
    (4 + W)-byte rows, a seed table of 37-byte rows, then the refusals."""
    width, keys, seeds = table
    msg = UnmaskResponseMsg(width, keys, seeds, tuple(refused))
    data = msg.to_bytes()
    assert len(data) == 5 + 1 + 4 + len(keys) * (4 + width) + 4 + len(seeds) * 37 + 4 + 5 * len(refused)
    assert UnmaskResponseMsg.from_bytes(data) == msg


# every type but the two vector messages and the share bundle, which carry no
# width: their words and entries are checked under the receiver's spec or group
STRICT_FORMATS = [m for m in MESSAGES if not isinstance(m, (MaskedUploadMsg, GlobalModelMsg, ShareMsg))]
# the first peer handle's sign and kind code: (offset in the payload, invalid values)
_HANDLE_FIELDS = ((4 + 4 + 2 + 4, (0, 2, 0x80)), (4 + 4 + 2 + 4 + 1, (0, 3, 7)))


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
    tables = (
        struct.pack(">BII", KEY64, 2**32 - 1, 0),  # 2^32 - 1 key rows claimed, none present
        struct.pack(">BII", KEY64, 0, 2**32 - 1),  # 2^32 - 1 seed rows claimed, none present
        struct.pack(">BII", KEY64, 1, 0) + bytes(4 + KEY64 - 1),  # a key row one byte short of its share
        struct.pack(">BII", KEY64, 0, 1) + bytes(36),  # a seed row one byte short of its share
        struct.pack(">BIII", 0, 0, 0, 0),  # zero-byte key shares
    )
    for payload in tables:
        with pytest.raises(WireError):
            UnmaskResponseMsg.from_bytes(encode_record(TAG_UNMASK_RESPONSE, payload))
    unknown_type = struct.pack(">IIB", 1, 1, 3) + bytes(4)
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
    # a prefix claiming 9 bytes with only 3 left, in a first and in a later field
    with pytest.raises(WireError):
        AdvertMsg.from_bytes(encode_record(TAG_ADVERT, b"\x00\x00\x00\x09abc"))
    with pytest.raises(WireError):
        AdvertMsg.from_bytes(encode_record(TAG_ADVERT, b"\x00\x00\x00\x01s\x00\x00\x00\x09abc"))


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
