import numpy as np
import pytest

from secaggsim.errors import WireError
from secaggsim.wire import (
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    TAG_GLOBAL_MODEL,
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
)

TOK = [bytes([i]) * 8 for i in range(4)]
SHARE = ShareMsg(TOK[0], TOK[1], SECRET_MASK_KEY, 2, 3, (5, (1 << 520) + 7))

# one instance of each of the 11 message types
MESSAGES = [
    ServerCommitMsg(b"\x11" * 32),
    AdvertMsg(b"share-pub", b"mask-pub", b"\x22" * 32),
    TreeCommitMsg(b"\x33" * 32, (b"\x44" * 32, b"\x55" * 32)),
    RandOpenMsg(b"\x66" * 32, b"\x77" * 16),
    PeerListMsg(
        TOK[0],
        (PeerHandle(TOK[1], b"pub-1", 1, "intra", 0), PeerHandle(TOK[2], b"pub-2", -1, "inter", 2)),
        (TOK[0], TOK[1], TOK[3]),
    ),
    SHARE,
    MaskedUploadMsg.from_vector(TOK[2], np.array([0, 1, 2**63 + 5], dtype=np.uint64)),
    UnmaskRequestMsg(((TOK[1], SECRET_SELF_SEED), (TOK[2], SECRET_MASK_KEY)), forced=(TOK[2],)),
    UnmaskResponseMsg((SHARE, ShareMsg(TOK[2], TOK[1], SECRET_SELF_SEED, 1, 3, (9,))), ((TOK[3], SECRET_MASK_KEY),)),
    RevealMsg(b"rs", b"rs-nonce", b"tree:h=2,d=3", b"tree-nonce", ((b"sp", b"mp", b"ru", b"nu"),)),
    GlobalModelMsg.from_vector(np.array([3, 4], dtype=np.uint64)),
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
