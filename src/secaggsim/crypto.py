"""Cryptographic building blocks: commitments, randomized Diffie-Hellman,
AES-128-CTR mask expansion, and Shamir threshold secret sharing.

There is one commitment primitive, ``commit_random``: SHA-256 over a tag
and at least 32 uniform bytes, with no nonce, as such a value hides
itself (Blum's coin flipping by telephone, 1981).  The setup commits only
32-byte grouping randomness, the server's and each user's.

Everything here is deterministic given its inputs; randomness is always
injected by the caller (a seeded ``random.Random`` or raw bytes), so whole
simulator runs replay bit-identically.  There are two Diffie-Hellman
groups: a tiny one for exhaustive tests and a 64-bit safe prime for every
simulation run.  None of this code attempts side-channel hardening.

A Shamir share (Shamir, CACM 22(11), 1979) is nothing but a field
element: the sharing polynomial's value at its evaluation point.
``share_secret`` returns the values at points 1..n in order, and
``reconstruct_secret`` interpolates at 0 over exactly the points it is
handed.  The threshold t and the field belong to the caller, which
passes both in and gets only values back.  Each secret is shared in the
smallest prime field that holds it, so a share is one byte wider than
the secret at most: ``SEED_SHARE_PRIME``, 2^128 + 51, holds a 16-byte
self-mask seed, which is all the 128-bit AES key of ``prg_expand`` can
use, and ``KEY_SHARE_PRIME``, 2^63 + 29, holds every exponent of both
groups, whose q is below 2^63 (``wire.SHARE_FIELDS`` names the field of
each shared secret).

Masks are expanded in batches.  ``prg_expand`` turns a list of seeds
into one row of m words per seed: each seed's AES-128-CTR keystream is
encrypted into one buffer per call, and the rows come back as a view of
it in the smallest native word (1, 2, 4 or 8 bytes) that holds the mask's
bits, never widened to 64 bits.  ``add_masks`` adds one batch's plus rows
and subtracts its minus rows into an accumulator, summing the rows in the
ring's native word, which wraps mod a multiple of 2^w and so keeps every
sum exact mod 2^w.  It hands ``prg_expand`` batches whose buffer fits in
``PRG_BATCH_BYTES``, so even the one-leaf baseline, which recovers N
masks of m words in one batch, never holds an N * m buffer.

A round makes tens of thousands of Diffie-Hellman exponentiations
(blinding every pair's keys, each user's seed derivations, and dropout
recovery), so ``pow_many`` evaluates a whole batch in one numpy pass.  It
runs when the modulus is odd and below 2^64, every exponent is in
[0, 2^64), and the batch holds at least ``POW_BATCH_MIN`` elements;
anything else goes to builtin ``pow`` one element at a time, so small
batches, the toy group and any out-of-range exponent compute exactly
what ``pow`` computes.  The batch path works in Montgomery form with
R = 2^64: numpy has no 128-bit integers, but a 64 x 64 -> 128-bit product
can be assembled from four 32 x 32-bit products in uint64, and Montgomery
reduction needs only such products, wrapping 64-bit arithmetic and one
conditional add, no division.  Results equal ``pow``'s bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from random import Random

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .fixedpoint import SegmentSpec, word_bytes, word_dtype

_RAND_COMMIT_TAG = b"rand-commit-v1"
_PRG_TAG = b"mask-prg-v1"
_SEED_TAG = b"shared-seed-v1"

_ZERO_NONCE = bytes(12)

RAND_BYTES = 32  # grouping randomness, the server's and each user's; the least ``commit_random`` takes


# ---------------------------------------------------------------------------
# hash commitments
# ---------------------------------------------------------------------------


def commit_random(value: bytes) -> bytes:
    """The digest committing to a uniformly random value of >= 32 bytes."""
    if len(value) < RAND_BYTES:
        raise ValueError(f"a value committed without a nonce must be >= {RAND_BYTES} bytes")
    return hashlib.sha256(_RAND_COMMIT_TAG + value).digest()


# ---------------------------------------------------------------------------
# Diffie-Hellman in a prime-order subgroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DhGroup:
    """Multiplicative group mod a safe prime p, generator of the order-q
    subgroup where q = (p - 1) / 2."""

    name: str
    p: int
    g: int

    @property
    def order(self) -> int:
        return (self.p - 1) // 2

    @cached_property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def encode(self, element: int) -> bytes:
        return int(element).to_bytes(self.element_bytes, "big")

    def random_exponent(self, rng: Random) -> int:
        """A uniform exponent in [1, q)."""
        return rng.randrange(1, self.order)


# Tiny group for exhaustive oracles: 3 generates the order-11 subgroup mod 23.
TOY_GROUP = DhGroup("toy", p=23, g=3)

# 64-bit safe prime for every simulation run: key size is irrelevant to the
# statistics under study (detection rates, exactness, costs).
FAST_GROUP = DhGroup("fast64", p=0xE1CD298CDA85D84B, g=4)


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: int

    @staticmethod
    def generate(group: DhGroup, rng: Random) -> "KeyPair":
        s = group.random_exponent(rng)
        return KeyPair(secret=s, public=pow(group.g, s, group.p))


# ---------------------------------------------------------------------------
# batched modular exponentiation
# ---------------------------------------------------------------------------

# Smallest batch the numpy pass takes.  With a 64-bit modulus and 63-bit
# exponents on a 2-core x86-64 host it breaks even with one builtin ``pow``
# per element near 170 elements, and is 1.5x faster at 256, 5x at 2,430
# and 7x at 24,060; 256 keeps batches near break-even on builtin ``pow``.
POW_BATCH_MIN = 256

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_WINDOW_BITS = 4


class _Montgomery:
    """Montgomery products mod an odd p < 2^64, R = 2^64, over uint64
    arrays of one length, in preallocated scratch arrays.

    Operands must be below p.  A product's 128-bit value hi * 2^64 + lo is
    assembled from 32-bit halves; ``_reduce`` then subtracts m * p, with
    m = lo * p^-1 mod 2^64, so the low words cancel exactly and the result
    hi - high(m * p) lies in (-p, p): one conditional add of p finishes it,
    and no intermediate exceeds 64 bits even for p above 2^63.
    """

    def __init__(self, p: int, n: int):
        self.p = np.uint64(p)
        self.p_lo = np.uint64(p & 0xFFFFFFFF)
        self.p_hi = np.uint64(p >> 32)
        self.p_inv = np.uint64(pow(p, -1, 1 << 64))
        self.r_mod_p = pow(2, 64, p)  # 1 in Montgomery form
        self.r2_mod_p = pow(2, 128, p)  # converts into Montgomery form
        self.a0, self.a1, self.b0, self.b1, self.x, self.y, self.z, self.w, self.hi, self.lo = (
            np.empty(n, dtype=np.uint64) for _ in range(10)
        )
        self.borrow = np.empty(n, dtype=bool)

    def _reduce(self, out: np.ndarray) -> None:
        """out = (hi * 2^64 + lo) / 2^64 mod p, for a product of operands < p."""
        x, y, z, w, lo = self.x, self.y, self.z, self.w, self.lo
        lo *= self.p_inv  # m
        np.bitwise_and(lo, _LOW32, out=w)  # m's low half
        lo >>= _SHIFT32  # m's high half
        np.multiply(w, self.p_lo, out=x)
        x >>= _SHIFT32
        np.multiply(w, self.p_hi, out=y)
        np.multiply(lo, self.p_lo, out=z)
        lo *= self.p_hi
        self._add_high_words(lo, x, y, z)  # lo = high(m * p)
        np.less(self.hi, lo, out=self.borrow)
        np.subtract(self.hi, lo, out=out)
        np.add(out, self.p, out=out, where=self.borrow)

    def _add_high_words(self, hi: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
        """hi += the carries of a product whose partial products are
        x = p00 >> 32, y = p01 and z = p10 (hi holds p11)."""
        w = self.w
        np.bitwise_and(y, _LOW32, out=w)
        x += w
        np.bitwise_and(z, _LOW32, out=w)
        x += w
        x >>= _SHIFT32
        y >>= _SHIFT32
        z >>= _SHIFT32
        hi += y
        hi += z
        hi += x

    def mul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """out = a * b / R mod p; out may alias a or b."""
        a0, a1, b0, b1, x, y, z = self.a0, self.a1, self.b0, self.b1, self.x, self.y, self.z
        np.bitwise_and(a, _LOW32, out=a0)
        np.right_shift(a, _SHIFT32, out=a1)
        np.bitwise_and(b, _LOW32, out=b0)
        np.right_shift(b, _SHIFT32, out=b1)
        np.multiply(a, b, out=self.lo)  # the low word wraps to exactly a * b mod 2^64
        np.multiply(a0, b0, out=x)
        x >>= _SHIFT32
        np.multiply(a0, b1, out=y)
        np.multiply(a1, b0, out=z)
        np.multiply(a1, b1, out=self.hi)
        self._add_high_words(self.hi, x, y, z)
        self._reduce(out)

    def square(self, a: np.ndarray, out: np.ndarray) -> None:
        """out = a * a / R mod p, sharing the two equal cross products."""
        a0, a1, x, y, w, hi = self.a0, self.a1, self.x, self.y, self.w, self.hi
        np.bitwise_and(a, _LOW32, out=a0)
        np.right_shift(a, _SHIFT32, out=a1)
        np.multiply(a, a, out=self.lo)
        np.multiply(a0, a0, out=x)
        x >>= _SHIFT32
        np.multiply(a0, a1, out=y)
        np.multiply(a1, a1, out=hi)
        np.bitwise_and(y, _LOW32, out=w)
        x += w
        x += w
        x >>= _SHIFT32
        y >>= _SHIFT32
        hi += y
        hi += y
        hi += x
        self._reduce(out)


def _pow_montgomery(p: int, bases: np.ndarray, exps: np.ndarray) -> list[int]:
    """bases[i] ** exps[i] mod p for bases < p, with a fixed 4-bit window:
    row j of a table holds every element's j-th power, and each window
    squares four times, then multiplies every element by the table entry
    its own exponent's window picks."""
    n = len(bases)
    mont = _Montgomery(p, n)
    width = 1 << _WINDOW_BITS
    table = np.empty((width, n), dtype=np.uint64)
    table[0] = mont.r_mod_p
    mont.mul(bases, np.full(n, mont.r2_mod_p, dtype=np.uint64), table[1])
    for j in range(2, width):
        mont.mul(table[j - 1], table[1], table[j])
    flat = table.reshape(-1)
    columns = np.arange(n, dtype=np.uint64)
    windows = (int(exps.max()).bit_length() + _WINDOW_BITS - 1) // _WINDOW_BITS
    acc = np.full(n, mont.r_mod_p, dtype=np.uint64)
    pick = np.empty(n, dtype=np.uint64)
    entry = np.empty(n, dtype=np.uint64)
    for k in reversed(range(windows)):
        if k != windows - 1:
            for _ in range(_WINDOW_BITS):
                mont.square(acc, acc)
        np.right_shift(exps, np.uint64(_WINDOW_BITS * k), out=pick)
        pick &= np.uint64(width - 1)
        pick *= np.uint64(n)
        pick += columns
        np.take(flat, pick, out=entry)
        mont.mul(acc, entry, acc)
    mont.mul(acc, np.ones(n, dtype=np.uint64), acc)  # out of Montgomery form
    return acc.tolist()


def pow_many(p: int, bases: list[int], exps: list[int]) -> list[int]:
    """``[pow(b, e, p) for b, e in zip(bases, exps)]``, in one numpy pass
    when the batch qualifies (see the module docstring)."""
    if len(bases) != len(exps):
        raise ValueError("need one exponent per base")
    if len(bases) >= POW_BATCH_MIN and 1 < p < 1 << 64 and p & 1:
        try:
            e = np.array(exps, dtype=np.uint64)
        except OverflowError:  # an exponent outside [0, 2^64)
            pass
        else:
            return _pow_montgomery(p, np.array([b % p for b in bases], dtype=np.uint64), e)
    return [pow(b, e, p) for b, e in zip(bases, exps)]


def randomize_pubs(group: DhGroup, pubs: list[int], rs: list[int]) -> list[int]:
    """Blind public keys: pubs[i]^rs[i].  Used by the server so peers cannot
    recognize each other's long-term keys.  Every r must lie in
    [1, group order); r = 0 would hand out the identity element, whose
    derived seed anyone can compute."""
    if not all(1 <= r < group.order for r in rs):
        raise ValueError("randomizer must be in [1, group order)")
    return pow_many(group.p, pubs, rs)


def randomize_pub(group: DhGroup, pub: int, r: int) -> int:
    """One key's ``randomize_pubs``."""
    return randomize_pubs(group, [pub], [r])[0]


def derive_shared_seeds(group: DhGroup, randomized_peer_pubs: list[int], own_secrets: list[int]) -> list[bytes]:
    """Seed bytes from the blinded exchange: both peers of a pair, given the
    other's randomized public key, derive hash(g^(a*b*r)) identically.
    Element i uses ``own_secrets[i]`` with ``randomized_peer_pubs[i]``."""
    encode = group.encode
    return [
        hashlib.sha256(_SEED_TAG + encode(shared)).digest()
        for shared in pow_many(group.p, randomized_peer_pubs, own_secrets)
    ]


def derive_shared_seed(group: DhGroup, randomized_peer_pub: int, own_secret: int) -> bytes:
    """One pair's ``derive_shared_seeds``."""
    return derive_shared_seeds(group, [randomized_peer_pub], [own_secret])[0]


# ---------------------------------------------------------------------------
# PRG expansion of seeds into mask rows
# ---------------------------------------------------------------------------


# Largest buffer, keystream and GCM tag, of one ``prg_expand`` call made
# by ``add_masks``.  4 MiB holds a 243-user, m = 20,000 leaf of 27
# four-byte rows (2.2 MB) in one batch, and bounds the one-leaf
# baseline's N * m-word recoveries.
PRG_BATCH_BYTES = 4 << 20


def prg_expand(seeds: list[bytes], m: int, spec: SegmentSpec, mask_bits: int | None = None) -> np.ndarray:
    """The masks of a batch of seeds: a (len(seeds), m) array whose row i
    is seeds[i]'s m elements, uniform in [0, 2^bits).

    ``bits`` is w, or ``mask_bits`` when given: ``mask_bits`` confines the
    mask to the lowest bits, which is how inter-group masks leave the
    revealable segment untouched.  Each element takes the next
    ``word_bytes(bits)`` keystream bytes, the smallest native word (1, 2, 4
    or 8 bytes) that holds ``bits``, read little endian and cut to its low
    ``bits``, which keeps it uniform.  So a w = 32 mask draws 4 bytes per
    element and a 10-bit inter mask 2.  The rows come back in that word,
    ``word_dtype(bits)``, not widened.

    A seed is expanded with AES-128-CTR under the key
    ``SHA-256(_PRG_TAG || seed)[:16]``, as one AES-GCM encryption of zero
    bytes under the all-zero 96-bit nonce: GCM encrypts with plain CTR
    starting at counter block 0^96 || 2, and the one-shot call costs far
    less setup than a streaming CTR cipher object.  Every row is encrypted
    into one buffer, each row's 16-byte GCM tag overwritten by the next
    row, and the result is a view of that buffer.  Reusing the fixed nonce
    is safe here because the key is the seed's own PRG key and the
    plaintext is always zero: the output is the keystream itself, so every
    party expanding one seed with the same ``bits`` gets the same stream,
    which is exactly the PRG contract.  Nothing else is ever encrypted
    under a mask key.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    bits = spec.word_bits if mask_bits is None else mask_bits
    if not (0 <= bits <= spec.word_bits):
        raise ValueError("mask_bits out of range")
    dtype = word_dtype(bits)
    if bits == 0:
        return np.zeros((len(seeds), m), dtype=dtype)
    row = dtype.itemsize * m
    buf = np.empty(len(seeds) * row + 16, dtype=np.uint8)  # 16: the last row's GCM tag
    out = memoryview(buf)
    zeros = bytes(row)
    for i, seed in enumerate(seeds):
        key = hashlib.sha256(_PRG_TAG + seed).digest()[:16]
        AESGCM(key).encrypt_into(_ZERO_NONCE, zeros, None, out[i * row : (i + 1) * row + 16])
    words = buf[: len(seeds) * row].view(dtype).reshape(len(seeds), m)
    if bits < 8 * dtype.itemsize:
        words &= dtype.type((1 << bits) - 1)
    return words


def add_masks(acc: np.ndarray, seeds: list[bytes], plus: int, spec: SegmentSpec, mask_bits: int | None = None) -> None:
    """acc += the masks of ``seeds[:plus]`` - the masks of ``seeds[plus:]``,
    in place, wrapping in acc's word; exact mod 2^w when that word is the
    ring's native word or wider.

    The seeds go to ``prg_expand`` in batches whose buffer fits in
    ``PRG_BATCH_BYTES`` (one row at least), and each batch's
    plus and minus rows are summed in the ring's native word before they
    meet acc."""
    m = len(acc)
    native = word_dtype(spec.word_bits)
    row = word_bytes(spec.word_bits if mask_bits is None else mask_bits) * m
    step = max(1, (PRG_BATCH_BYTES - 16) // row)  # 16: the GCM tag after the last row
    for start in range(0, len(seeds), step):
        rows = prg_expand(seeds[start : start + step], m, spec, mask_bits)
        cut = min(max(plus - start, 0), len(rows))
        if cut:
            acc += rows[:cut].sum(axis=0, dtype=native)
        if cut < len(rows):
            acc -= rows[cut:].sum(axis=0, dtype=native)


# ---------------------------------------------------------------------------
# Shamir t-out-of-n secret sharing
# ---------------------------------------------------------------------------

# The two share fields (see the module docstring), each the smallest
# prime above a power of two: 2^128 + 51 holds any 16-byte self-mask seed
# in 17-byte shares, and 2^63 + 29 any exponent of a group whose q is
# below 2^63 in 8-byte shares.  A group with a larger q needs a wider key
# field.
SEED_SHARE_PRIME = (1 << 128) + 51
KEY_SHARE_PRIME = (1 << 63) + 29

SELF_SEED_BYTES = 16  # a user's per-round self-mask seed; ``prg_expand``'s AES-128 key keeps no more


def share_secret(secret: int, t: int, n: int, rng: Random, prime: int) -> list[int]:
    """Split a secret, an element of the field mod ``prime``, into n shares,
    any t of which reconstruct it; entry i is the value at point i + 1."""
    if not (1 < t <= n):
        raise ValueError("need 1 < t <= n")
    if n >= prime:
        raise ValueError("n must be smaller than the field prime")
    if not 0 <= secret < prime:
        raise ValueError("secret outside the share field")
    poly = [secret] + [rng.randrange(prime) for _ in range(t - 1)]
    # Horner's rule at every point at once, one pass per coefficient; the
    # points are small, so reducing only in the last pass grows each value
    # by a few bits per pass only
    points = range(1, n + 1)
    values = [poly[-1]] * n
    for c in reversed(poly[1:-1]):
        values = [v * x + c for v, x in zip(values, points)]
    return [(v * x + secret) % prime for v, x in zip(values, points)]


def reconstruct_secret(points: list[int], values: list[int], prime: int) -> int:
    """Lagrange interpolation at 0 of the polynomial through
    (points[i], values[i]) in the field mod ``prime``: the secret, when
    the points are at least as many as its sharing's threshold."""
    if len(points) < 2:
        raise ValueError(f"need at least 2 points, got {len(points)}")
    if len(values) != len(points):
        raise ValueError(f"{len(values)} values for {len(points)} points")
    if len(set(points)) != len(points) or not all(0 < x < prime for x in points):
        raise ValueError("points must be distinct and in [1, prime)")
    acc = 0
    for xi, yi in zip(points, values):
        num, den = 1, 1
        for xj in points:
            if xj != xi:
                num = num * -xj % prime
                den = den * (xi - xj) % prime
        acc = (acc + yi * num * pow(den, -1, prime)) % prime
    return acc
