"""Cryptographic building blocks: commitments, randomized Diffie-Hellman,
AES-128-CTR mask expansion, and Shamir threshold secret sharing.

Everything here is deterministic given its inputs; randomness is always
injected by the caller (a seeded ``random.Random`` or raw bytes), so whole
simulator runs replay bit-identically.  The Diffie-Hellman group is a
configuration parameter: a tiny group for exhaustive tests, a 256-bit safe
prime for simulation runs, and a 2048-bit safe prime when realistic key
sizes matter.  None of this code attempts side-channel hardening.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from random import Random

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .fixedpoint import ParamVector, SegmentSpec, word_bytes

_COMMIT_TAG = b"commit-v1"
_PRG_TAG = b"mask-prg-v1"
_SEED_TAG = b"shared-seed-v1"

_ZERO_NONCE = bytes(12)

MIN_NONCE_BYTES = 16


class InsufficientSharesError(ValueError):
    """Fewer than threshold shares were supplied to reconstruct."""


# ---------------------------------------------------------------------------
# hash commitments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Commitment:
    digest: bytes


def commit(payload: bytes, nonce: bytes) -> Commitment:
    """Commit to payload under a random nonce of at least 16 bytes."""
    if len(nonce) < MIN_NONCE_BYTES:
        raise ValueError(f"nonce must be >= {MIN_NONCE_BYTES} bytes")
    return Commitment(hashlib.sha256(_COMMIT_TAG + payload + nonce).digest())


def verify_commitment(c: Commitment, payload: bytes, nonce: bytes) -> bool:
    """True iff (payload, nonce) opens c.  Never raises on mismatch."""
    if len(nonce) < MIN_NONCE_BYTES:
        return False
    expect = hashlib.sha256(_COMMIT_TAG + payload + nonce).digest()
    return hmac.compare_digest(expect, c.digest)


# ---------------------------------------------------------------------------
# Diffie-Hellman in a configurable prime-order subgroup
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

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def encode(self, element: int) -> bytes:
        return int(element).to_bytes(self.element_bytes, "big")

    def random_exponent(self, rng: Random) -> int:
        return rng.randrange(1, self.order)


# Tiny group for exhaustive oracles: 3 generates the order-11 subgroup mod 23.
TOY_GROUP = DhGroup("toy", p=23, g=3)

# 64-bit safe prime for throughput-bound simulation runs where key size is
# irrelevant to the statistic under study (detection rates, exactness).
FAST_GROUP = DhGroup("fast64", p=0xE1CD298CDA85D84B, g=4)

# Deterministically searched 256-bit safe prime (q = (p-1)/2 prime, g = 2^2).
SIM_GROUP = DhGroup(
    "sim256",
    p=0x932F909E1BB9FD48F36111080252229CB5BC2C4618EA7343E0473784A55AC1CB,
    g=4,
)

# 2048-bit safe prime (OpenSSL DH parameter generation), generator 2.
STRONG_GROUP = DhGroup(
    "strong2048",
    p=int(
        "0xd6c5620aa00aefcd04b1e438c572c459bf3b833cc77d6ceaad3bd9835226ecff"
        "78efc5c89d3235f4a663f71c59ebba6ab46e1a16ae1406672695f0c037ea5287"
        "a9408de157e7e8832b6c13562b3f4607403aed11c6e9d0c89fd8b69b0a4a1dd5"
        "e9f0cc65a7ab4323b16ed0eed4197753d1336c2ca432167b66b31a29a0fdacbc"
        "2f0b413534e04bafa89bcac9f078fb0432fe19418cfabf05bd923033b208c963"
        "dc0f2b895c7984ae8cad836c3dcec42ddaf4da12832bd2a635c82ea6988483ff"
        "069e1b847f98339ed6e49b10a76c870a931f020c9330b5691f79a36cd17560a6"
        "2a6f0ec26891dfb7b0c2cb145da5eae155b265d90e770d4c60191bf160141edf",
        16,
    ),
    g=2,
)

GROUPS = {g.name: g for g in (TOY_GROUP, FAST_GROUP, SIM_GROUP, STRONG_GROUP)}


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: int

    @staticmethod
    def generate(group: DhGroup, rng: Random) -> "KeyPair":
        s = group.random_exponent(rng)
        return KeyPair(secret=s, public=pow(group.g, s, group.p))


def randomize_pub(group: DhGroup, pub: int, r: int) -> int:
    """Blind a public key: pub^r.  Used by the server so peers cannot
    recognize each other's long-term keys.  r = 0 is rejected."""
    if not (1 <= r < group.order):
        raise ValueError("randomizer must be in [1, group order)")
    return pow(pub, r, group.p)


def derive_shared_seed(group: DhGroup, randomized_peer_pub: int, own_secret: int) -> bytes:
    """Seed bytes from the blinded exchange: both peers of a pair, given the
    other's randomized public key, derive hash(g^(a*b*r)) identically."""
    shared = pow(randomized_peer_pub, own_secret, group.p)
    return hashlib.sha256(_SEED_TAG + group.encode(shared)).digest()


# ---------------------------------------------------------------------------
# PRG expansion of a seed into a mask vector
# ---------------------------------------------------------------------------


def prg_expand(seed: bytes, m: int, spec: SegmentSpec, mask_bits: int | None = None) -> ParamVector:
    """Deterministic stream of m elements uniform in [0, 2^w).

    The seed is expanded with AES-128-CTR under the key
    ``SHA-256(_PRG_TAG || seed)[:16]``.  Each element takes the next
    ``word_bytes(bits)`` keystream bytes, the smallest native word (1, 2, 4
    or 8 bytes) that holds the ``bits`` it keeps, read little endian;
    truncating a uniform word to its low ``bits`` keeps it uniform.  ``bits``
    is w, or ``mask_bits`` when given: ``mask_bits`` confines the mask to
    the lowest bits, which is how inter-group masks leave the revealable
    segment untouched.  So a w = 32 mask draws 4 bytes per element and a
    10-bit inter mask 2.

    The keystream comes from one AES-GCM encryption of that many zero bytes
    under the all-zero 96-bit nonce with the 16-byte tag dropped: GCM
    encrypts with plain CTR starting at counter block 0^96 || 2, and the
    one-shot call costs far less setup than a streaming CTR cipher object.
    Reusing the fixed nonce is safe here because the key is the seed's own
    PRG key and the plaintext is always zero: the output is the keystream
    itself, so every party expanding one seed with the same ``bits`` gets
    the same stream, which is exactly the PRG contract.  Nothing else is
    ever encrypted under a mask key.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    bits = spec.word_bits if mask_bits is None else mask_bits
    if not (0 <= bits <= spec.word_bits):
        raise ValueError("mask_bits out of range")
    if bits == 0:
        return ParamVector(np.zeros(m, dtype=np.uint64), spec)
    width = word_bytes(bits)
    key = hashlib.sha256(_PRG_TAG + seed).digest()[:16]
    stream = AESGCM(key).encrypt(_ZERO_NONCE, bytes(width * m), None)
    # count=m drops the GCM tag; astype copies into an owned, writable array
    words = np.frombuffer(stream, dtype=f"<u{width}", count=m).astype(np.uint64)
    if bits < 8 * width:
        words &= np.uint64((1 << bits) - 1)
    return ParamVector(words, spec)


# ---------------------------------------------------------------------------
# Shamir t-out-of-n secret sharing
# ---------------------------------------------------------------------------

# Field prime for shares: 2^256 + 297, the smallest prime above 2^256.
# Every secret the protocol shares in the common groups is at most 256 bits
# wide (a self-mask seed, or a fast64/sim256 exponent), so the smallest
# field that holds any 256-bit value keeps each of them in one limb of 33
# bytes; a wider field would only add bytes and multiply width.  Wider
# secrets (strong2048 exponents) split into 256-bit limbs.
SHARE_PRIME = (1 << 256) + 297
LIMB_BITS = 256


@dataclass(frozen=True)
class Share:
    index: int  # nonzero evaluation point
    values: tuple[int, ...]  # one field element per limb
    threshold: int
    prime: int = SHARE_PRIME


def _eval_poly(coeffs: list[int], x: int, p: int) -> int:
    # evaluation points are small, so Horner's rule without intermediate
    # reductions grows the accumulator by a few bits per step only
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc % p


def _limbs_of(secret: int) -> list[int]:
    if secret < 0:
        raise ValueError("secret must be nonnegative")
    if secret == 0:
        return [0]
    limbs = []
    while secret:
        limbs.append(secret & ((1 << LIMB_BITS) - 1))
        secret >>= LIMB_BITS
    return limbs


def limb_count(secret: int) -> int:
    """Number of field elements ``share_secret`` splits ``secret`` into."""
    return len(_limbs_of(secret))


def _limbs_join(limbs: list[int]) -> int:
    acc = 0
    for limb in reversed(limbs):
        acc = (acc << LIMB_BITS) | limb
    return acc


def share_secret(
    secret: int | tuple[int, ...], t: int, n: int, rng: Random, prime: int = SHARE_PRIME
) -> list[Share]:
    """Split a secret into n shares, any t of which reconstruct it.

    Secrets wider than one field element are split into 256-bit limbs that
    are shared independently under the same evaluation points.  A tuple of
    secrets is shared in one call under the same points: each share's
    ``values`` lists the first secret's limbs, then the next one's, and
    ``limb_count`` of each secret says where one ends.
    """
    if not (1 < t <= n):
        raise ValueError("need 1 < t <= n")
    if n >= prime:
        raise ValueError("n must be smaller than the field prime")
    secrets = secret if isinstance(secret, tuple) else (secret,)
    columns = []  # one polynomial per limb, evaluated at every point
    for limb in [limb for s in secrets for limb in _limbs_of(s)]:
        if limb >= prime:
            raise ValueError("limb exceeds field prime")
        poly = [limb] + [rng.randrange(prime) for _ in range(t - 1)]
        columns.append([_eval_poly(poly, i, prime) for i in range(1, n + 1)])
    return [Share(index=i, values=vals, threshold=t, prime=prime) for i, vals in enumerate(zip(*columns), 1)]


def reconstruct_secret(shares: list[Share]) -> int:
    """Lagrange interpolation at 0 from at least threshold distinct shares."""
    if not shares:
        raise InsufficientSharesError("no shares supplied")
    t = shares[0].threshold
    if t < 2:
        raise ValueError(f"threshold {t} is below 2")
    p = shares[0].prime
    nlimbs = len(shares[0].values)
    for s in shares:
        if s.threshold != t or s.prime != p or len(s.values) != nlimbs:
            raise ValueError("incompatible shares")
    if len({s.index for s in shares}) != len(shares):
        raise ValueError("duplicate share indices")
    if len(shares) < t:
        raise InsufficientSharesError(f"need {t} shares, got {len(shares)}")
    use = shares[:t]
    limbs = []
    for limb_i in range(nlimbs):
        acc = 0
        for i, si in enumerate(use):
            num, den = 1, 1
            for j, sj in enumerate(use):
                if i == j:
                    continue
                num = (num * (-sj.index)) % p
                den = (den * (si.index - sj.index)) % p
            lag = num * pow(den, -1, p) % p
            acc = (acc + si.values[limb_i] * lag) % p
        limbs.append(acc)
    return _limbs_join(limbs)
