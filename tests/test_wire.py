import functools
import struct
from collections import defaultdict
from random import Random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import build_round, random_inputs, run_plain_round

from secaggsim.aggserver import AggServer
from secaggsim.counters import OpCounters
from secaggsim.crypto import FAST_GROUP, KEY_SHARE_PRIME, RAND_BYTES, SEED_SHARE_PRIME, TOY_GROUP
from secaggsim.errors import ProtocolAbort, WireError
from secaggsim.fixedpoint import SegmentSpec, zeros
from secaggsim.orgtree import TreeConfig
from secaggsim.simulation import execute_round
from secaggsim.useragent import UserAgent
from secaggsim.wire import (
    ENTRY_BYTES,
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    SERVER,
    SHARE_FIELDS,
    TAG_ADVERT,
    TAG_GLOBAL_MODEL,
    TAG_MASKED_UPLOAD,
    TAG_PEER_LIST,
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

SPEC32 = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)
KEY_BYTES = SHARE_FIELDS[SECRET_MASK_KEY][1]  # 8, a share in the 2^63 + 29 field
SEED_BYTES = SHARE_FIELDS[SECRET_SELF_SEED][1]  # 17, a share in the 2^128 + 51 field
SHARE = ShareMsg(b"".join(share_bodies([(5, (1 << 128) + 7), ((1 << 63) + 1, 2)])))
# the groups whose widths a record's layout takes: W = 1 and 8
GROUPS = [TOY_GROUP, FAST_GROUP]
GROUP_IDS = [group.name for group in GROUPS]
# the records whose layout the receiver's group sets; an unmask response's
# also takes the targets of the request it answers
GROUPED = (AdvertMsg, PeerListMsg, RevealMsg)
RESPONSE_TARGETS = ((3, SECRET_SELF_SEED), (4, SECRET_MASK_KEY), (1, SECRET_MASK_KEY))


def _share(value: int, width: int = SEED_BYTES) -> bytes:
    return value.to_bytes(width, "big")


def _held(cls, group=FAST_GROUP) -> tuple:
    """What the receiver of a ``cls`` record holds that the layout takes:
    its group, or for an unmask response ``RESPONSE_TARGETS``."""
    if cls is UnmaskResponseMsg:
        return (RESPONSE_TARGETS,)
    return (group,) if cls in GROUPED else ()


def _decode(cls, data: bytes, group=FAST_GROUP):
    return cls.from_bytes(data, *_held(cls, group))


def _key(value: int) -> bytes:
    return FAST_GROUP.encode(value)


# one instance of each of the 11 message types, at fast64's widths
MESSAGES = [
    ServerCommitMsg(b"\x11" * 32),
    AdvertMsg(_key(5), _key(7), b"\x22" * 32),
    TreeCommitMsg(2, b"\x44" * 32),
    RandOpenMsg(b"\x66" * 32),
    PeerListMsg(1, 3, (PeerHandle(_key(11), 1, "intra"), PeerHandle(_key(13), -1, "inter"))),
    SHARE,
    MaskedUploadMsg.from_vector(np.array([0, 1, 2**32 - 5], dtype=np.uint64), SPEC32),
    UnmaskRequestMsg(((2, SECRET_SELF_SEED), (3, SECRET_MASK_KEY)), forced=True),
    UnmaskResponseMsg(((True, _share(9)), (False, bytes(KEY_BYTES)), (True, _share(5, KEY_BYTES)))),  # RESPONSE_TARGETS
    RevealMsg(b"\x55" * 32, ((_key(2), _key(3), b"r" * 32), (_key(4), _key(5), b"R" * 32))),
    GlobalModelMsg.from_vector(np.array([3, 4], dtype=np.uint64), SPEC32),
]


def _ids(msgs):
    return [type(m).__name__ for m in msgs]


@pytest.mark.parametrize("msg", MESSAGES, ids=_ids(MESSAGES))
def test_roundtrip(msg):
    assert _decode(type(msg), msg.to_bytes()) == msg


@pytest.mark.parametrize("msg", MESSAGES, ids=_ids(MESSAGES))
def test_wrong_tag_raises(msg):
    data = msg.to_bytes()
    wrong = data[0] % TAG_GLOBAL_MODEL + 1
    with pytest.raises(WireError):
        _decode(type(msg), bytes([wrong]) + data[1:])


@pytest.mark.parametrize("msg", MESSAGES, ids=_ids(MESSAGES))
def test_truncated_raises(msg):
    data = msg.to_bytes()
    for cut in (len(data) - 1, 5 + (len(data) - 5) // 2, 3, 0):
        with pytest.raises(WireError):
            _decode(type(msg), data[:cut])


def test_message_types_covered():
    assert len({type(m) for m in MESSAGES}) == 11


def test_decode_record_errors_are_value_errors():
    with pytest.raises(ValueError):
        decode_record(b"\x01\x00")


@pytest.mark.parametrize("msg", MESSAGES, ids=_ids(MESSAGES))
def test_bytes_after_the_record_rejected(msg):
    """A record is exactly its header and the payload length the header
    gives: a byte after it is malformed, blamed on its sender, not ignored."""
    data = msg.to_bytes()
    for extra in (b"\x00", b"junk"):
        with pytest.raises(WireError, match="its header says"):
            _decode(type(msg), data + extra)
    with pytest.raises(ProtocolAbort) as exc:
        decode_from("user:4", type(msg), data + b"\x00", *_held(type(msg)))
    assert exc.value.blamed == "user:4"


# -- byte-stable encodings -------------------------------------------------------------

UNMASK_HEX = {
    "UnmaskRequestMsg": "080000000b" "01" "0000000202" "0000000301",
    "UnmaskResponseMsg": "0900000024" "01" + "00" * 16 + "09" "00" + "00" * 8 + "01" "0000000000000005",
}


@pytest.mark.parametrize("name", sorted(UNMASK_HEX))
def test_unmask_encodings_unchanged(name):
    (msg,) = [m for m in MESSAGES if type(m).__name__ == name]
    assert msg.to_bytes().hex() == UNMASK_HEX[name]


# entries and handle rows run to the end of the payload, after no count
# and with no evaluation point
POSITIONAL_HEX = {
    "PeerListMsg": "050000001c" "00000001" "00000003" "0101" "000000000000000b" "ff02" "000000000000000d",
    "ShareMsg": "0600000032"
    + "0000000000000005" + "01" + "00" * 15 + "07"
    + "8000000000000001" + "00" * 16 + "02",
}


@pytest.mark.parametrize("name", sorted(POSITIONAL_HEX))
def test_positional_encodings_unchanged(name):
    (msg,) = [m for m in MESSAGES if type(m).__name__ == name]
    assert msg.to_bytes().hex() == POSITIONAL_HEX[name]


# -- fixed-width broadcasts ---------------------------------------------------------


def _tree_commit_bytes(n: int) -> bytes:
    spec = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)
    server = AggServer(
        tree=TreeConfig(height=1, degree=2), group=FAST_GROUP, spec=spec, inter_mask_bits=10, counters=OpCounters()
    )
    rng = Random(n)
    server.begin_round(n, rng, 1)

    def key() -> bytes:  # a group element, as ``receive_advert`` checks
        return FAST_GROUP.encode(rng.randrange(FAST_GROUP.p))

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


# -- fixed layouts, at each group's widths ---------------------------------------------


@functools.cache
def _round_records(group) -> dict[int, list[bytes]]:
    """Every record of a 16-user round under ``group`` with user 2
    dropped, so that mask-key rows are released too, by tag."""
    server, users, transport, _ = build_round(16, TreeConfig(height=1, degree=2, share_threshold=2), SPEC32, group=group)
    records = defaultdict(list)
    deliver = transport.deliver

    def recording(sender, receiver, encoded):
        records[encoded[0]].append(encoded)
        return deliver(sender, receiver, encoded)

    transport.deliver = recording
    inputs = random_inputs(16, 4, SPEC32, seed=3)
    del inputs[2]
    execute_round(
        server=server, users=users, transport=transport, model=zeros(4, SPEC32), inputs=inputs,
        round_seed=(3, 0), pre_drop={2},
    )
    return records


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_advert_length_is_fixed_layout(group):
    """ADVERT is share key (W) || mask key (W) || commitment (32) at the
    group's W with no length prefix, so a payload a byte short or long, or
    without its share key, is not an advert."""
    w = group.element_bytes
    for data in _round_records(group)[TAG_ADVERT]:
        assert len(data) == 5 + 2 * w + 32
        assert AdvertMsg.from_bytes(data, group).to_bytes() == data
        _, payload = decode_record(data)
        for bad in (payload[:-1], payload + b"\x00", payload[w:]):
            with pytest.raises(WireError):
                AdvertMsg.from_bytes(encode_record(TAG_ADVERT, bad), group)


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_peer_list_length_is_fixed_layout(group):
    """PEER_LIST is own point (4) || share-leaf size (4) and one sign (1)
    || kind (1) || blinded key (W) row per handle to the end, at the
    group's W, with no count and no key width; bytes past whole rows are
    malformed."""
    w = group.element_bytes
    for data in _round_records(group)[TAG_PEER_LIST]:
        msg = PeerListMsg.from_bytes(data, group)
        assert msg.peers and {len(p.randomized_pub) for p in msg.peers} == {w}
        assert len(data) == 5 + 8 + len(msg.peers) * (2 + w)
        assert msg.to_bytes() == data
        _, payload = decode_record(data)
        for bad in (payload[:7], payload[:-1], payload + b"\x01"):
            with pytest.raises(WireError):
                PeerListMsg.from_bytes(encode_record(TAG_PEER_LIST, bad), group)


def _width(stype: int) -> int:
    """Bytes of one share of ``stype``: 8 for a mask key, 17 for a self seed."""
    return SHARE_FIELDS[stype][1]


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_release_table_length_is_fixed_layout(group):
    """An UNMASK_REQUEST is forced (1) || 5 bytes a target, and its
    UNMASK_RESPONSE one status (1) || share slot per target in its order,
    the share 8 bytes for a mask key and 17 for a self seed, with no owner
    point, count, width or refusal list."""
    records = _round_records(group)
    pairs = list(zip(records[TAG_UNMASK_REQUEST], records[TAG_UNMASK_RESPONSE], strict=True))
    types = set()
    for sent, data in pairs:
        req = UnmaskRequestMsg.from_bytes(sent)
        assert len(sent) == 5 + 1 + 5 * len(req.targets)
        msg = UnmaskResponseMsg.from_bytes(data, req.targets)
        assert len(data) == 5 + sum(1 + _width(stype) for _, stype in req.targets)
        assert msg.to_bytes() == data
        types |= {stype for _, stype in req.targets}
    assert types == {SECRET_MASK_KEY, SECRET_SELF_SEED}


def test_reveal_length_is_header_plus_fixed_records():
    """REVEAL is a header of the server randomness (32) and one share key
    (W) || mask key (W) || randomness (32) record per user to the end, at
    each group's W, with no N, no widths and no nonce: 34 bytes a record at
    toy and 48 at fast64.  A round's own reveal of its 16 users
    and records drawn at random both take that length."""
    rng = Random(7)
    for group in GROUPS:
        w = group.element_bytes
        row = 2 * w + RAND_BYTES
        (data,) = set(_round_records(group)[TAG_REVEAL])
        assert len(data) == 5 + 32 + 16 * row
        assert RevealMsg.from_bytes(data, group).to_bytes() == data
        for n in (0, 1, 7):
            records = tuple((rng.randbytes(w), rng.randbytes(w), rng.randbytes(32)) for _ in range(n))
            msg = RevealMsg(b"r" * 32, records)
            assert len(msg.to_bytes()) == 5 + 32 + n * row
            assert RevealMsg.from_bytes(msg.to_bytes(), group) == msg


def test_fast64_reveal_records_are_two_keys_and_the_randomness():
    """A fast64 round reveals (share key, mask key, randomness) per user and
    no nonce: 2 * element_bytes + 32 = 48 bytes a record, after the 32-byte
    server randomness and nothing else."""
    n, width = 16, 2 * FAST_GROUP.element_bytes + RAND_BYTES
    _, server, _, _ = run_plain_round(
        n, TreeConfig(height=1, degree=2), SPEC32, random_inputs(n, 4, SPEC32, seed=3), seed=3
    )
    msg = server.reveal()
    assert width == 48
    assert {tuple(map(len, rec)) for rec in msg.user_records} == {(8, 8, 32)}
    assert len(msg.to_bytes()) == 5 + 32 + n * width
    assert RevealMsg.from_bytes(msg.to_bytes(), FAST_GROUP) == msg


def test_reveal_server_rand_not_32_bytes_rejected_on_encode():
    record = (b"s" * 8, b"m" * 8, b"r" * 32)
    for rand in (b"", bytes(16), bytes(31), bytes(33)):
        with pytest.raises(ValueError):
            RevealMsg(rand, (record,)).to_bytes()


def test_reveal_truncated_or_padded_payload_rejected():
    """A fast64 reveal is read as 48-byte records after the randomness, so a
    payload that is not whole records is rejected; one whole record fewer
    or more decodes, and the verifier compares the count with the N of its
    TREE_COMMIT."""
    record = (b"s" * 8, b"m" * 8, b"r" * 32)
    _, payload = decode_record(RevealMsg(b"r" * 32, (record,) * 3).to_bytes())
    for bad in (payload[:-1], payload[:31], payload + b"\x00", payload + bytes(47)):
        with pytest.raises(WireError):
            RevealMsg.from_bytes(encode_record(TAG_REVEAL, bad), FAST_GROUP)
    for n, cut in ((2, payload[:-48]), (4, payload + payload[-48:])):
        assert len(RevealMsg.from_bytes(encode_record(TAG_REVEAL, cut), FAST_GROUP).user_records) == n


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

KEY_MAX = KEY_SHARE_PRIME - 1  # the largest element of each field
SEED_MAX = SEED_SHARE_PRIME - 1
ENTRY = ShareMsg(share_bodies([(KEY_MAX, SEED_MAX)])[0])


def test_share_packed_wide_roundtrip():
    """A body is key share (8) || seed share (17), 25 bytes with no header
    and no evaluation point, and holds the largest element of each field."""
    assert (KEY_BYTES, SEED_BYTES) == (8, 17)
    assert ENTRY_BYTES == KEY_BYTES + SEED_BYTES == 25
    data = ENTRY.to_bytes()
    assert len(data) == 5 + ENTRY_BYTES
    assert ShareMsg.from_bytes(data) == ENTRY
    assert share_part(ENTRY.bodies, 0, SECRET_MASK_KEY) == _share(KEY_MAX, KEY_BYTES)
    assert share_part(ENTRY.bodies, 0, SECRET_SELF_SEED) == _share(SEED_MAX)


def test_share_secret_type_single_records_only():
    """A bundle entry carries both secrets; a response slot carries one,
    and the target it answers names its type.  A slot holds exactly one
    share of its target's width: a server cannot read a response whose key
    slot holds another width, or whose seed slot holds a key share."""
    key = share_part(ENTRY.bodies, 0, SECRET_MASK_KEY)
    assert int.from_bytes(key, "big") == KEY_MAX
    with pytest.raises(ValueError):
        share_part(ENTRY.bodies, 0, 3)
    both = ((4, SECRET_MASK_KEY), (4, SECRET_SELF_SEED))
    resp = UnmaskResponseMsg(((True, key), (True, _share(SEED_MAX))))
    assert UnmaskResponseMsg.from_bytes(resp.to_bytes(), both) == resp
    assert resp.shares == (key, _share(SEED_MAX))
    for short in (key[1:], key + key, _share(KEY_MAX)):
        with pytest.raises(WireError):
            UnmaskResponseMsg.from_bytes(UnmaskResponseMsg(((True, short),)).to_bytes(), both[:1])
    with pytest.raises(WireError):
        UnmaskResponseMsg.from_bytes(UnmaskResponseMsg(((True, key),)).to_bytes(), both[1:])


def test_share_record_without_secret_rejected():
    """A bundle carries no width, so its decoder reads whole bodies of
    8 + 17 bytes: an entry that holds only one of the two shares, or is a
    byte off, or the 34-byte body of a 17-byte key share, or the 42-byte
    body of 9- and 33-byte shares, is not a body, and the bundle is
    rejected whole, blamed on the server that sent it, before its receiver
    keeps any of it."""
    agent = UserAgent(
        0, group=FAST_GROUP, spec=SPEC32, inter_mask_bits=10, tree=TreeConfig(height=0, degree=2), counters=OpCounters()
    )
    agent.begin_round(Random(0), bytes(32))
    agent.open_rand(TreeCommitMsg(2, bytes(32)))  # the one leaf holds both users
    agent.receive_peer_list(PeerListMsg(1, 2, ()))
    agent.distribute_shares()
    for size in (8, 17, 24, 26, 33, 34, 35, 42):
        with pytest.raises(ProtocolAbort, match=f"malformed ShareMsg: {size} share bytes are not whole 25") as exc:
            decode_from(SERVER, ShareMsg, encode_record(TAG_SHARE_MSG, bytes(size)))
        assert exc.value.blamed == "server"
    agent.receive_share(decode_from(SERVER, ShareMsg, ShareMsg(share_bodies([(2, 3)])[0]).to_bytes()))


_value = st.integers(0, SEED_SHARE_PRIME - 1)


@given(st.lists(st.tuples(st.integers(0, KEY_SHARE_PRIME - 1), _value), max_size=40))
@example([(KEY_SHARE_PRIME - 1, SEED_SHARE_PRIME - 1)])
@example([])
def test_bundle_roundtrip(shares):
    """Bundles (one layout for both directions) round-trip: 0 to many
    entries of a key share and a seed share, in order."""
    msg = ShareMsg(b"".join(share_bodies(shares)))
    data_bytes = msg.to_bytes()
    assert len(data_bytes) == 5 + len(shares) * ENTRY_BYTES
    decoded = ShareMsg.from_bytes(data_bytes)
    assert decoded == msg
    for j, (key, seed) in enumerate(shares):
        off = j * ENTRY_BYTES
        assert share_part(decoded.bodies, off, SECRET_MASK_KEY) == _share(key, KEY_BYTES)
        assert share_part(decoded.bodies, off, SECRET_SELF_SEED) == _share(seed)


_owner = st.integers(0, 2**32 - 1)


@st.composite
def _slots(draw):
    """Slots of mixed secret types and statuses: (owner point, secret
    type, released, share value), each share below its field."""
    stypes = draw(st.lists(st.sampled_from((SECRET_MASK_KEY, SECRET_SELF_SEED)), max_size=20))
    prime = {stype: field for stype, (field, _) in SHARE_FIELDS.items()}
    return [(draw(_owner), stype, draw(st.booleans()), draw(st.integers(0, prime[stype] - 1))) for stype in stypes]


@given(_slots())
@example([])
@example([(2**32 - 1, SECRET_MASK_KEY, True, KEY_SHARE_PRIME - 1)])
@example([(1, SECRET_MASK_KEY, False, 0), (1, SECRET_SELF_SEED, True, 0)])
def test_release_table_roundtrip(slots):
    """Unmask responses round-trip over mixed secret types and statuses:
    one status (1) || share slot per target of the request, 8 bytes for a
    mask key and 17 for a self seed, a refused share zero-filled; the
    request is forced (1) || 5 bytes a target."""
    targets = tuple((owner, stype) for owner, stype, _, _ in slots)
    msg = UnmaskResponseMsg(tuple((ok, _share(value if ok else 0, _width(stype))) for _, stype, ok, value in slots))
    data = msg.to_bytes()
    assert len(data) == 5 + sum(1 + _width(stype) for _, stype in targets)
    assert UnmaskResponseMsg.from_bytes(data, targets) == msg
    assert msg.shares == tuple(_share(v, _width(stype)) for _, stype, ok, v in slots if ok)
    assert msg.refused == tuple(i for i, (*_, ok, _) in enumerate(slots) if not ok)
    for forced in (False, True):
        req = UnmaskRequestMsg(targets, forced)
        assert len(req.to_bytes()) == 5 + 1 + 5 * len(targets)
        assert UnmaskRequestMsg.from_bytes(req.to_bytes()) == req


# every type but the two vector messages and the share bundle, which are
# words and entries to the end, checked under the receiver's spec or group
STRICT_FORMATS = [m for m in MESSAGES if not isinstance(m, (MaskedUploadMsg, GlobalModelMsg, ShareMsg))]
# the first peer handle's sign and kind code: (offset in the payload, invalid values)
_HANDLE_FIELDS = ((4 + 4, (0, 2, 0x80)), (4 + 4 + 1, (0, 3, 7)))
_HANDLE_ROW = 2 + FAST_GROUP.element_bytes
_REVEAL_ROW = 2 * FAST_GROUP.element_bytes + RAND_BYTES


@pytest.mark.parametrize("msg", STRICT_FORMATS, ids=_ids(STRICT_FORMATS))
def test_new_formats_reject_trailing_and_overrun(msg):
    """A trailing byte or any cut is rejected, which also holds digests to
    32 bytes, except that a reveal cut after a whole record, a peer list
    cut after a whole handle row, or a request cut after a whole target,
    is one of fewer; a peer list rejects a sign other than +-1 and a kind
    code other than 1 or 2."""
    tag, payload = decode_record(msg.to_bytes())
    with pytest.raises(WireError):
        _decode(type(msg), encode_record(tag, payload + b"\x00"))
    for cut in range(len(payload)):
        if isinstance(msg, RevealMsg) and cut >= RAND_BYTES and not (cut - RAND_BYTES) % _REVEAL_ROW:
            assert len(_decode(RevealMsg, encode_record(tag, payload[:cut])).user_records) == cut // _REVEAL_ROW
            continue
        if isinstance(msg, PeerListMsg) and cut >= 8 and not (cut - 8) % _HANDLE_ROW:
            assert len(_decode(PeerListMsg, encode_record(tag, payload[:cut])).peers) == (cut - 8) // _HANDLE_ROW
            continue
        if isinstance(msg, UnmaskRequestMsg) and cut and not (cut - 1) % 5:
            assert len(_decode(UnmaskRequestMsg, encode_record(tag, payload[:cut])).targets) == cut // 5
            continue
        with pytest.raises(WireError):
            _decode(type(msg), encode_record(tag, payload[:cut]))
    for off, values in _HANDLE_FIELDS if isinstance(msg, PeerListMsg) else ():
        for value in values:
            with pytest.raises(WireError):
                _decode(PeerListMsg, encode_record(tag, payload[:off] + bytes([value]) + payload[off + 1 :]))


def _decodes(cls, tag: int, payload: bytes) -> bool:
    """Whether ``payload`` framed under ``tag`` decodes as ``cls`` rather
    than raising ``WireError``."""
    try:
        _decode(cls, encode_record(tag, payload))
    except WireError:
        return False
    return True


def test_unmask_records_off_their_layout_rejected():
    """A response is read under the targets of its request: one a byte or
    a slot short or long, a slot whose status is not 0 or 1, or a refused
    slot whose share is not zero-filled is malformed, as is an empty reply
    to a non-empty request.  A request is a forced flag of 0 or 1 and whole
    targets of a known secret type."""
    key, seed = RESPONSE_TARGETS[1], RESPONSE_TARGETS[0]
    (resp,) = [m for m in MESSAGES if isinstance(m, UnmaskResponseMsg)]
    _, payload = decode_record(resp.to_bytes())  # seed released, key refused, key released
    head, slot = 1 + SEED_BYTES, 1 + KEY_BYTES  # the seed slot, then each key slot
    bad = {
        "one_byte_short": payload[:-1],
        "one_byte_long": payload + b"\x00",
        "slot_short": payload[:-slot],
        "slot_long": payload + payload[-slot:],
        "empty": b"",
        "status_2": payload[:head] + b"\x02" + payload[head + 1 :],
        "status_ff": b"\xff" + payload[1:],
        "refusal_filled": payload[: head + 1] + b"\x01" + payload[head + 2 :],
        "refusal_filled_last": payload[: head + slot - 1] + b"\x01" + payload[head + slot :],
    }
    assert not [name for name, cut in bad.items() if _decodes(UnmaskResponseMsg, TAG_UNMASK_RESPONSE, cut)]
    assert _decode(UnmaskResponseMsg, encode_record(TAG_UNMASK_RESPONSE, payload)).refused == (1,)
    first = UnmaskResponseMsg.from_bytes(encode_record(TAG_UNMASK_RESPONSE, payload[:head]), (seed,))
    assert first.shares == (_share(9),)
    assert UnmaskResponseMsg.from_bytes(encode_record(TAG_UNMASK_RESPONSE, b""), ()).slots == ()
    with pytest.raises(WireError):  # a seed slot read as a key slot
        UnmaskResponseMsg.from_bytes(encode_record(TAG_UNMASK_RESPONSE, payload[:head]), (key,))
    requests = {
        "no_flag": b"",
        "flag_2": b"\x02" + bytes(5),
        "partial_target": b"\x00" + bytes(4),
        "target_and_a_byte": b"\x00" + bytes(4) + b"\x01\x00",
        "unknown_type": b"\x00" + struct.pack(">IB", 1, 3),
        "zero_type": b"\x01" + struct.pack(">IB", 1, 1) + struct.pack(">IB", 2, 0),
    }
    assert not [name for name, body in requests.items() if _decodes(UnmaskRequestMsg, TAG_UNMASK_REQUEST, body)]


def test_decode_from_blames_the_sender():
    """``decode_from`` hands the receiver's group to the records whose
    layout takes it, and blames a record off that layout on its sender."""
    assert decode_from("user:4", ShareMsg, ENTRY.to_bytes()) == ENTRY
    advert = MESSAGES[1]
    assert decode_from("user:4", AdvertMsg, advert.to_bytes(), FAST_GROUP) == advert
    for sender in ("server", "user:4"):
        with pytest.raises(ProtocolAbort) as exc:
            decode_from(sender, ShareMsg, ENTRY.to_bytes()[:-1])
        assert exc.value.blamed == sender
        with pytest.raises(ProtocolAbort) as exc:
            decode_from(sender, AdvertMsg, advert.to_bytes(), TOY_GROUP)  # 48 bytes, not 34
        assert exc.value.blamed == sender


# -- field parsers inside a well-framed record ------------------------------------------


def test_short_fixed_field_raises_wire_error():
    with pytest.raises(WireError):
        TreeCommitMsg.from_bytes(encode_record(TAG_TREE_COMMIT, bytes(10)))


DECODERS = {m.to_bytes()[0]: type(m) for m in MESSAGES}


def _decodes_or_wire_error(tag: int, payload: bytes) -> None:
    """Decode ``payload`` under ``tag`` at each group's widths."""
    cls = DECODERS[tag]
    for group in GROUPS:
        try:
            msg = _decode(cls, encode_record(tag, payload), group)
        except WireError:
            continue
        assert isinstance(msg, cls)


@given(st.sampled_from(sorted(DECODERS)), st.binary(max_size=200))
def test_fuzz_arbitrary_payloads(tag, payload):
    """Any payload framed under any tag decodes or raises WireError, under
    every group."""
    _decodes_or_wire_error(tag, payload)


@given(st.sampled_from(MESSAGES), st.data())
def test_fuzz_mutated_payloads(msg, data):
    """Valid payloads with one byte changed, cut or inserted decode or raise
    WireError under every group; a changed sign, kind, status or type
    byte reaches the checks inside a well-framed payload."""
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
