import hashlib
import itertools
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import strategies as st
from scipy import stats

from secaggsim import crypto
from secaggsim.crypto import (
    FAST_GROUP,
    KEY_SHARE_PRIME,
    POW_BATCH_MIN,
    POW_G_BATCH_MIN,
    SEED_SHARE_PRIME,
    SELF_SEED_BYTES,
    TOY_GROUP,
    add_masks,
    commit_random,
    derive_shared_seed,
    derive_shared_seeds,
    pow_g_many,
    pow_many,
    prg_expand,
    randomize_pub,
    randomize_pubs,
    reconstruct_secret,
    share_secret,
)
from secaggsim.fixedpoint import SegmentSpec, word_dtype
from secaggsim.wire import SECRET_MASK_KEY, SECRET_SELF_SEED, SHARE_FIELDS

SPEC = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)


# -- commitments -------------------------------------------------------------


def test_commit_random_binds_every_bit():
    rng = Random(1)
    value = rng.randbytes(32)
    digest = commit_random(value)
    assert commit_random(value) == digest
    assert digest == hashlib.sha256(b"rand-commit-v1" + value).digest()  # its own domain tag
    for bit in (0, 7, 100, 255):
        flipped = bytearray(value)
        flipped[bit // 8] ^= 1 << bit % 8
        assert commit_random(bytes(flipped)) != digest


def test_commit_random_needs_32_bytes():
    commit_random(bytes(33))
    for short in (b"", bytes(16), bytes(31)):
        with pytest.raises(ValueError):
            commit_random(short)


def test_commit_collision_scan():
    rng = Random(0)
    seen = set()
    for _ in range(10_000):
        digest = commit_random(rng.randbytes(32))
        assert digest not in seen
        seen.add(digest)


# -- randomized key exchange ----------------------------------------------------


def test_randomize_pub_toy_example():
    # p=23, g=3: secrets 4 and 3, randomizer 2, both sides derive g^(4*3*2)
    g, p = TOY_GROUP.g, TOY_GROUP.p
    pub_u = pow(g, 4, p)
    pub_v = pow(g, 3, p)
    assert (pub_u, pub_v) == (12, 4)
    ru = randomize_pub(TOY_GROUP, pub_v, 2)  # handed to u
    rv = randomize_pub(TOY_GROUP, pub_u, 2)  # handed to v
    shared_u = pow(ru, 4, p)
    shared_v = pow(rv, 3, p)
    assert shared_u == shared_v == pow(g, 4 * 3 * 2, p) == 9


def test_randomize_pub_identity_and_zero():
    pub = pow(TOY_GROUP.g, 5, TOY_GROUP.p)
    assert randomize_pub(TOY_GROUP, pub, 1) == pub
    with pytest.raises(ValueError):
        randomize_pub(TOY_GROUP, pub, 0)


def test_randomize_pub_distinct_r_exhaustive():
    # in the toy group, different randomizers give different blinded keys
    pub = pow(TOY_GROUP.g, 2, TOY_GROUP.p)
    outs = [randomize_pub(TOY_GROUP, pub, r) for r in range(1, TOY_GROUP.order)]
    assert len(set(outs)) == len(outs)


def test_shared_seed_agreement_exhaustive_toy():
    for a, b, r in itertools.product(range(1, TOY_GROUP.order), repeat=3):
        pub_a = pow(TOY_GROUP.g, a, TOY_GROUP.p)
        pub_b = pow(TOY_GROUP.g, b, TOY_GROUP.p)
        seed_a = derive_shared_seed(TOY_GROUP, randomize_pub(TOY_GROUP, pub_b, r), a)
        seed_b = derive_shared_seed(TOY_GROUP, randomize_pub(TOY_GROUP, pub_a, r), b)
        assert seed_a == seed_b


@pytest.mark.parametrize("group", [TOY_GROUP, FAST_GROUP], ids=lambda g: g.name)
def test_random_exponent_draws_below_order_and_2_256(group):
    """Exponents are uniform in [1, q), drawn exactly as
    ``randrange(1, q)``; both groups' q is below 2^63, so every exponent is
    below the key share field (``test_mask_key_field_holds_every_exponent``)."""
    assert group.order < 1 << 63
    a, b = Random(5), Random(5)
    assert [group.random_exponent(a) for _ in range(50)] == [b.randrange(1, group.order) for _ in range(50)]


@pytest.mark.parametrize("group", [FAST_GROUP], ids=lambda g: g.name)
def test_shared_seed_agreement_random(group):
    rng = Random(1)
    for _ in range(3):
        a, b = group.random_exponent(rng), group.random_exponent(rng)
        pub_a, pub_b = pow_g_many(group, [a, b]).tolist()
        r = group.random_exponent(rng)
        seed_a = derive_shared_seed(group, randomize_pub(group, pub_b, r), a)
        seed_b = derive_shared_seed(group, randomize_pub(group, pub_a, r), b)
        assert seed_a == seed_b


# -- batched exponentiation ---------------------------------------------------------

_POW_MODULI = [23, FAST_GROUP.p, 2**61 - 1, 2**64 - 59]
_BATCH_SIZES = [1, POW_BATCH_MIN - 1, POW_BATCH_MIN, POW_BATCH_MIN + 45]


@st.composite
def _pow_batches(draw):
    """(p, bases, exps) whose head hypothesis picks from edge values and
    whose tail is seeded filler up to a batch size on either side of the
    kernel threshold."""
    p = draw(st.sampled_from(_POW_MODULI))
    q = (p - 1) // 2
    base = st.one_of(st.sampled_from([0, 1, p - 1, p, p + 1, 2 * p - 1]), st.integers(0, 4 * p))
    exp = st.one_of(st.sampled_from([0, 1, q - 1, q, p - 1, 2**64 - 1]), st.integers(0, 2**64 - 1))
    n = draw(st.sampled_from(_BATCH_SIZES))
    head = draw(st.lists(st.tuples(base, exp), max_size=min(n, 8)))
    rng = Random(draw(st.integers(0, 2**32)))
    pairs = head + [(rng.randrange(2 * p), rng.getrandbits(64)) for _ in range(n - len(head))]
    return p, [b for b, _ in pairs], [e for _, e in pairs]


@settings(max_examples=40)
@given(_pow_batches())
def test_pow_many_matches_builtin_pow(batch):
    p, bases, exps = batch
    assert pow_many(p, bases, exps).tolist() == [pow(b, e, p) for b, e in zip(bases, exps)]


@pytest.mark.parametrize("bad", [-1, -(2**70), 2**64, 2**200])
def test_pow_many_out_of_range_exponent_falls_back(bad, monkeypatch):
    """An exponent outside [0, 2^64) sends the whole batch to builtin pow,
    which also gives a negative exponent its modular-inverse meaning."""

    def kernel(*_):
        raise AssertionError("the batch kernel ran")

    monkeypatch.setattr(crypto, "_pow_montgomery", kernel)
    rng = Random(5)
    p = FAST_GROUP.p
    bases = [rng.randrange(2, p) for _ in range(POW_BATCH_MIN + 3)]
    exps = [rng.getrandbits(64) for _ in bases]
    exps[POW_BATCH_MIN // 2] = bad
    assert pow_many(p, bases, exps).tolist() == [pow(b, e, p) for b, e in zip(bases, exps)]


def test_pow_many_rejects_unpaired_lists():
    with pytest.raises(ValueError):
        pow_many(FAST_GROUP.p, [2, 3], [1])


@pytest.mark.parametrize("where", [0, POW_BATCH_MIN // 2, POW_BATCH_MIN])
@pytest.mark.parametrize("bad_r", [0, FAST_GROUP.order, FAST_GROUP.order + 1])
def test_randomize_pubs_rejects_bad_r_at_any_position(where, bad_r):
    rng = Random(6)
    pubs = pow_g_many(FAST_GROUP, [FAST_GROUP.random_exponent(rng) for _ in range(POW_BATCH_MIN + 1)]).tolist()
    rs = [FAST_GROUP.random_exponent(rng) for _ in pubs]
    assert randomize_pubs(FAST_GROUP, pubs, rs).tolist() == [randomize_pub(FAST_GROUP, x, r) for x, r in zip(pubs, rs)]
    rs[where] = bad_r
    with pytest.raises(ValueError):
        randomize_pubs(FAST_GROUP, pubs, rs)


def test_derive_shared_seeds_match_one_at_a_time():
    rng = Random(8)
    pubs = pow_g_many(FAST_GROUP, [FAST_GROUP.random_exponent(rng) for _ in range(POW_BATCH_MIN)]).tolist()
    secrets = [FAST_GROUP.random_exponent(rng) for _ in pubs]
    one_by_one = [derive_shared_seed(FAST_GROUP, x, s) for x, s in zip(pubs, secrets)]
    assert derive_shared_seeds(FAST_GROUP, pubs, secrets) == one_by_one
    as_words = [np.array(values, dtype=np.uint64) for values in (pubs, secrets)]
    assert derive_shared_seeds(FAST_GROUP, *as_words) == one_by_one


@pytest.mark.parametrize("group", [TOY_GROUP, FAST_GROUP], ids=lambda g: g.name)
def test_derive_shared_seeds_hash_the_encoded_shared_value(group):
    """Each seed is SHA-256 over its tag and the shared value's W-byte
    big endian encoding, at W = 1 and 8, on the batch path and off it."""
    rng = Random(9)
    for n in (3, POW_BATCH_MIN):
        pubs = [rng.randrange(2, group.p - 1) for _ in range(n)]
        secrets = [group.random_exponent(rng) for _ in pubs]
        expect = [
            hashlib.sha256(b"shared-seed-v1" + group.encode(pow(x, s, group.p))).digest() for x, s in zip(pubs, secrets)
        ]
        assert derive_shared_seeds(group, pubs, secrets) == expect


_G_EDGES = [0, 1, 2, 2**63 - 1]  # with q - 1 of each group


@pytest.mark.parametrize("group", [TOY_GROUP, FAST_GROUP], ids=lambda g: g.name)
def test_pow_g_many_matches_builtin_pow(group, monkeypatch):
    """The fixed-base path equals builtin ``pow(g, e, p)`` at exponents 0, 1,
    2, q - 1, 2^63 - 1 and random ones below 2^64, each edge in batches on
    both sides of ``POW_G_BATCH_MIN``; exactly the batches of at least that
    size take the table, which is built once per group.  An exponent
    outside [0, 2^64) sends its batch to builtin ``pow``."""
    crypto._fixed_base_table.cache_clear()
    took = []
    fixed_base = crypto._pow_fixed_base

    def counted(p, table, exps):
        took.append(len(exps))
        return fixed_base(p, table, exps)

    monkeypatch.setattr(crypto, "_pow_fixed_base", counted)
    rng = Random(group.p)
    g, p = group.g, group.p
    sizes = [1, 5, POW_G_BATCH_MIN - 1, POW_G_BATCH_MIN, 486]
    for n in sizes:
        for edge in [*_G_EDGES, group.order - 1]:
            exps = [rng.getrandbits(64) for _ in range(n - 1)]
            exps.insert(rng.randrange(n), edge)
            assert pow_g_many(group, exps).tolist() == [pow(g, e, p) for e in exps]
            assert pow_g_many(group, np.array(exps, dtype=np.uint64)).tolist() == [pow(g, e, p) for e in exps]
    assert took == [n for n in sizes if n >= POW_G_BATCH_MIN for _ in range(2 * (len(_G_EDGES) + 1))]
    assert crypto._fixed_base_table.cache_info().misses == 1
    took.clear()
    exps = [rng.getrandbits(64) for _ in range(POW_G_BATCH_MIN)]
    exps[3] = -1
    assert pow_g_many(group, exps).tolist() == [pow(g, e, p) for e in exps]
    assert not took


# -- PRG expansion ----------------------------------------------------------------


def test_prg_deterministic_and_length():
    a = prg_expand([b"seed"], 100, SPEC)
    b = prg_expand([b"seed"], 100, SPEC)
    assert isinstance(a, np.ndarray) and a.dtype == np.uint32  # the w = 32 ring's native word
    assert np.array_equal(a, b)
    assert a.shape == (1, 100)
    assert int(a.max()) <= SPEC.word_mask


def test_prg_mask_bits():
    v = prg_expand([b"seed"], 1000, SPEC, mask_bits=10)
    assert v.dtype == np.uint16 and int(v.max()) < 1 << 10
    z = prg_expand([b"seed"], 5, SPEC, mask_bits=0)
    assert z.dtype == np.uint8 and z.shape == (1, 5) and int(z.max()) == 0
    with pytest.raises(ValueError):
        prg_expand([b"seed"], 0, SPEC)


def _ctr_reference(seed: bytes, m: int, bits: int) -> np.ndarray:
    """AES-128-CTR keystream through the generic cipher interface, starting
    at counter block 0^96 || 2 as GCM does, read as one little endian word
    of the smallest native width (1, 2, 4 or 8 bytes) per element."""
    width = next(b for b in (1, 2, 4, 8) if bits <= 8 * b)
    key = hashlib.sha256(b"mask-prg-v1" + seed).digest()[:16]
    enc = Cipher(algorithms.AES(key), modes.CTR(bytes(12) + (2).to_bytes(4, "big"))).encryptor()
    stream = enc.update(bytes(width * m)) + enc.finalize()
    return np.frombuffer(stream, dtype=f"<u{width}").astype(np.uint64) & np.uint64((1 << bits) - 1)


PRG_SEEDS = [b"", b"seed", bytes(range(32)), b"\xff" * 32]


@pytest.mark.parametrize("seed", PRG_SEEDS)
@pytest.mark.parametrize("m", [1, 24, 330, 20_000])
def test_prg_known_answer_aes_ctr(seed, m):
    """Every width: 8-, 4-, 2- and 1-byte draws, both as the full word of a
    ring of that width and as a mask confined to that many low bits.  The
    four seeds are one batch per call, rotated to start at ``seed``, so
    across the four cases each seed is checked at every row."""
    at = PRG_SEEDS.index(seed)
    batch = PRG_SEEDS[at:] + PRG_SEEDS[:at]
    wide = SegmentSpec(word_bits=64, frac_bits=16, low_bits=32)
    for bits in (64, 32, 13, 10, 7, 4):
        narrow = SegmentSpec(word_bits=bits, frac_bits=1, low_bits=2)
        for rows in (prg_expand(batch, m, narrow), prg_expand(batch, m, wide, mask_bits=bits)):
            assert rows.shape == (4, m) and rows.dtype == word_dtype(bits), bits
            for s, row in zip(batch, rows):
                assert np.array_equal(row, _ctr_reference(s, m, bits)), bits


@pytest.mark.parametrize("bits", [None, 10, 0])
def test_prg_empty_batch(bits):
    rows = prg_expand([], 24, SPEC, mask_bits=bits)
    assert rows.shape == (0, 24) and rows.dtype == word_dtype(SPEC.word_bits if bits is None else bits)


# one (plus count, minus count) per group: mixed, empty, all plus, all
# minus, mixed again; 11 rows in all, so chunks of two rows cut the
# first group and the last across chunk boundaries
ADD_MASKS_GROUPS = [(2, 1), (0, 0), (3, 0), (0, 2), (1, 2)]


@pytest.mark.parametrize("budget_rows", [1, 2, None], ids=["one_row", "two_rows", "unsplit"])
@pytest.mark.parametrize("bits", [None, 10])
def test_add_masks_split_by_budget_equals_unsplit(monkeypatch, budget_rows, bits):
    """``add_masks`` fills at most ``PRG_BATCH_BYTES``, keystream and GCM
    tag, per ``prg_expand`` call, and a chunk may span groups.  A budget of
    one or two rows, whose chunks cut groups, and plus rows from minus
    rows, mid-chunk, gives each accumulator what its group gives alone:
    its plus rows minus its minus rows, mod 2^w, whatever the draw width
    (rings of 8, 16, 32 and 64 bits draw 1-, 2-, 4- and 8-byte words; a
    10-bit mask draws 2 bytes into each wider ring).  One accumulator is
    uint64, as the server's leaf sums are."""
    m = 33
    widths = (8, 16, 32, 64) if bits is None else (16, 32, 64)
    for w in widths:
        spec = SegmentSpec(word_bits=w, frac_bits=2, low_bits=4)
        groups, expect = [], []
        for g, (n_plus, n_minus) in enumerate(ADD_MASKS_GROUPS):
            plus = [bytes([w, g, i]) * 5 for i in range(n_plus)]
            minus = [bytes([w, g, 100 + i]) * 5 for i in range(n_minus)]
            groups.append((plus, minus))
            ref = np.full(m, 7, dtype=np.uint64)
            for seeds, sign in ((plus, 1), (minus, -1)):
                for row in prg_expand(seeds, m, spec, mask_bits=bits).astype(np.uint64):
                    ref = ref + row if sign == 1 else ref - row
            expect.append(ref & np.uint64(spec.word_mask))
        sizes = []
        expand = crypto.prg_expand

        def counting(batch, *args, **kwargs):
            sizes.append(len(batch))
            return expand(batch, *args, **kwargs)

        monkeypatch.setattr(crypto, "prg_expand", counting)
        if budget_rows is not None:
            row = prg_expand([b"row"], m, spec, mask_bits=bits)[0].nbytes
            monkeypatch.setattr(crypto, "PRG_BATCH_BYTES", budget_rows * row + 16)
        accs = [np.full(m, 7, dtype=word_dtype(w)) for _ in ADD_MASKS_GROUPS[:-1]]
        accs.append(np.full(m, 7, dtype=np.uint64))
        add_masks(accs, groups, spec, bits)
        monkeypatch.undo()
        for acc, ref in zip(accs, expect):
            assert np.array_equal(acc & np.uint64(spec.word_mask), ref), w
        assert sizes == {1: [1] * 11, 2: [2] * 5 + [1], None: [11]}[budget_rows], w


def test_add_masks_rejects_mismatched_accumulators():
    with pytest.raises(ValueError, match="one accumulator per group"):
        add_masks([np.zeros(4, dtype=np.uint32)], [([b"a"], []), ([b"b"], [])], SPEC)
    with pytest.raises(ValueError, match="one length"):
        add_masks([np.zeros(4, dtype=np.uint32), np.zeros(5, dtype=np.uint32)], [([b"a"], []), ([], [b"b"])], SPEC)


def test_prg_avalanche():
    base = bytearray(b"some-seed-material-0")
    flipped = bytearray(base)
    flipped[0] ^= 1
    a = prg_expand([bytes(base)], 1000, SPEC)[0]
    b = prg_expand([bytes(flipped)], 1000, SPEC)[0]
    assert np.mean(a != b) >= 0.99


def test_prg_uniformity_chi_square():
    v = prg_expand([b"uniformity"], 100_000, SPEC)[0]
    counts, _ = np.histogram(v.astype(np.float64), bins=64, range=(0, float(1 << SPEC.word_bits)))
    assert stats.chisquare(counts).pvalue > 0.01


# -- Shamir sharing -----------------------------------------------------------------


class _Coefficients:
    """An rng stand-in whose ``randrange`` hands out fixed coefficients."""

    def __init__(self, *coeffs: int):
        self.coeffs = iter(coeffs)

    def randrange(self, bound: int) -> int:
        return next(self.coeffs)


def test_share_hand_polynomial_oracle():
    # polynomial 42 + 5x over GF(257): shares at x=1..3, reconstruct from two
    p = 257
    values = share_secret(42, 2, 3, _Coefficients(5), prime=p)
    assert values == [47, 52, 57]
    assert reconstruct_secret([1, 3], [47, 57], p) == 42
    assert reconstruct_secret([1, 2, 3], values, p) == 42  # superset of the threshold
    # 42 + 5x + 250x^2 reduces mod 257 at every point: 40, 24, 251, 207
    values = share_secret(42, 3, 4, _Coefficients(5, 250), prime=p)
    assert values == [40, 24, 251, 207]
    assert reconstruct_secret([2, 3, 4], values[1:], p) == 42
    assert reconstruct_secret([4, 2, 3], [207, 24, 251], p) == 42  # in any order


def test_share_threshold_errors():
    rng = Random(0)
    a, b, _ = share_secret(42, 2, 3, rng, prime=257)
    for points, values in (
        ([1, 1], [a, a]),  # a repeated point
        ([0, 1], [42, a]),  # the secret's own point
        ([1, 257], [a, b]),  # a point outside the field
        ([1, 2], [a]),  # fewer values than points
        ([1, 2], [a, b, b]),  # more values than points
    ):
        with pytest.raises(ValueError):
            reconstruct_secret(points, values, 257)
    with pytest.raises(ValueError):
        share_secret(1, 1, 3, rng, 257)  # t must exceed 1
    with pytest.raises(ValueError):
        share_secret(1, 4, 3, rng, 257)  # t > n


def test_reconstruct_rejects_threshold_below_two():
    # one share of a real 3-of-5 sharing "reconstructs" to its own value
    # as a threshold-1 sharing would, not to the secret
    first = share_secret(123456789, 3, 5, Random(3), SEED_SHARE_PRIME)[0]
    for points, values in (([1], [first]), ([], [])):
        with pytest.raises(ValueError):
            reconstruct_secret(points, values, SEED_SHARE_PRIME)


def _reconstruct_any_t(secret: int, t: int, n: int, rng: Random, prime: int) -> int:
    """The secret back from t of its n shares, picked at random, at their points."""
    values = share_secret(secret, t, n, rng, prime)
    points = rng.sample(range(1, n + 1), t)
    return reconstruct_secret(points, [values[x - 1] for x in points], prime)


@given(
    st.integers(2, 12),
    st.integers(0, KEY_SHARE_PRIME - 1),  # inside both fields
    st.integers(0, 2**32),
    st.sampled_from((SEED_SHARE_PRIME, KEY_SHARE_PRIME)),
)
def test_share_reconstruct_grid(n, secret, seed, prime):
    rng = Random(seed)
    assert _reconstruct_any_t(secret, rng.randint(2, n), n, rng, prime) == secret


def test_share_reconstruct_wide_grid():
    rng = Random(7)
    for n in (16, 32, 64):
        for prime in (SEED_SHARE_PRIME, KEY_SHARE_PRIME):
            secret = rng.randrange(prime)
            assert _reconstruct_any_t(secret, rng.randint(2, n), n, rng, prime) == secret


def test_share_secret_outside_field_rejected():
    rng = Random(9)
    for secret, prime in ((-1, SEED_SHARE_PRIME), (SEED_SHARE_PRIME,) * 2, (KEY_SHARE_PRIME,) * 2):
        with pytest.raises(ValueError):
            share_secret(secret, 3, 5, rng, prime)
    for prime in (SEED_SHARE_PRIME, KEY_SHARE_PRIME):
        values = share_secret(prime - 1, 3, 5, rng, prime)
        assert reconstruct_secret([2, 3, 4], values[1:4], prime) == prime - 1


def test_seed_share_prime_is_smallest_above_2_128():
    """2^128 + 51 holds every 16-byte self seed in 17-byte shares."""
    sympy = pytest.importorskip("sympy")
    assert SEED_SHARE_PRIME == (1 << 128) + 51
    assert sympy.nextprime(1 << 128) == SEED_SHARE_PRIME
    assert SEED_SHARE_PRIME > 1 << (8 * SELF_SEED_BYTES)
    assert SHARE_FIELDS[SECRET_SELF_SEED] == (SEED_SHARE_PRIME, 17)


def test_key_share_prime_is_smallest_above_2_63():
    """2^63 + 29 holds every exponent of both groups in 8-byte shares."""
    sympy = pytest.importorskip("sympy")
    assert KEY_SHARE_PRIME == (1 << 63) + 29
    assert sympy.nextprime(1 << 63) == KEY_SHARE_PRIME
    assert SHARE_FIELDS[SECRET_MASK_KEY] == (KEY_SHARE_PRIME, 8)


@pytest.mark.parametrize("group", [TOY_GROUP, FAST_GROUP], ids=lambda g: g.name)
def test_mask_key_field_holds_every_exponent(group):
    """Every mask key is shared in 2^63 + 29 with 8-byte shares
    (``SHARE_FIELDS``), the field above every exponent either group draws:
    a group whose q exceeds the field fails here, not in a round.  Its
    largest exponent and a drawn key reconstruct from any t shares there."""
    prime, width = SHARE_FIELDS[SECRET_MASK_KEY]
    assert (prime, width) == (KEY_SHARE_PRIME, 8)
    assert group.order < prime
    largest = group.order - 1
    rng = Random(13)
    for key in (largest, group.random_exponent(rng)):
        values = share_secret(key, 3, 6, rng, prime)
        assert all(v.bit_length() <= 8 * width for v in values)
        points = rng.sample(range(1, 7), 3)
        assert reconstruct_secret(points, [values[x - 1] for x in points], prime) == key


def test_share_hiding_distribution():
    # with t-1 = 1 share, the share value is uniform over re-randomized polys
    rng = Random(11)
    p = 257
    values = [share_secret(123, 2, 3, rng, prime=p)[0] for _ in range(20_000)]
    counts = np.bincount(values, minlength=p)
    assert stats.chisquare(counts).pvalue > 0.01
