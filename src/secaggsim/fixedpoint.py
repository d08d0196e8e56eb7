"""Fixed-point quantization and modular vector arithmetic.

Model parameters are embedded in the ring Z_{2^w} as unsigned w-bit words
with ``frac_bits`` of fixed-point fraction.  Negative reals use the two's
complement embedding, so all aggregation is plain unsigned modular
arithmetic.  Each word splits at bit ``low_bits`` into a low segment
(masked) and a high segment (revealable per subgroup after aggregation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


class SaturationError(ValueError):
    """A real value fell outside the representable fixed-point range."""


@dataclass(frozen=True)
class SegmentSpec:
    """Bit layout of one ring element.

    word_bits w: total bits per element; the ring modulus is 2^w.
    frac_bits q: fixed-point fractional bits (resolution 2^-q).
    low_bits  k: the low (masked) segment is bits [0, k), the high
                 (revealable) segment is bits [k, w).
    """

    word_bits: int = 32
    frac_bits: int = 8
    low_bits: int = 16

    def __post_init__(self) -> None:
        if not (0 < self.frac_bits < self.low_bits < self.word_bits <= 64):
            raise ConfigError(
                f"need 0 < frac_bits < low_bits < word_bits <= 64, got "
                f"q={self.frac_bits} k={self.low_bits} w={self.word_bits}"
            )

    @property
    def word_mask(self) -> int:
        """Largest ring element (all w bits set), and the mask that reduces mod 2^w."""
        return (1 << self.word_bits) - 1

    @property
    def high_bits(self) -> int:
        return self.word_bits - self.low_bits

    @property
    def low_mask(self) -> int:
        """Bit mask keeping the low segment: ones at [0, k), zeros at [k, w)."""
        return (1 << self.low_bits) - 1

    @property
    def scale(self) -> float:
        return float(1 << self.frac_bits)


def word_bytes(bits: int) -> int:
    """Bytes of the smallest native unsigned word (1, 2, 4 or 8) that holds
    ``bits`` bits; the width of a w-bit element on the wire and of a
    ``bits``-bit mask draw."""
    for width in (1, 2, 4, 8):
        if bits <= 8 * width:
            return width
    raise ValueError(f"{bits} bits do not fit in a 64-bit word")


def word_dtype(bits: int) -> np.dtype:
    """The little endian unsigned numpy dtype of ``word_bytes(bits)`` bytes:
    a ring's native word for bits = w, which wraps mod 2^(8 * width) and so
    keeps every sum exact mod 2^w."""
    return np.dtype(f"<u{word_bytes(bits)}")


def reduce_words(acc: np.ndarray, spec: SegmentSpec) -> np.ndarray:
    """``acc`` mod 2^w, in place, and returned.  An unsigned accumulator of
    the ring's native word or wider wraps mod 2^(8 * itemsize), so its sums
    are exact mod 2^w and only the bits above w need clearing; a word of
    exactly w bits has none and is left as it is."""
    if spec.word_bits < 8 * acc.itemsize:
        acc &= acc.dtype.type(spec.word_mask)
    return acc


@dataclass(frozen=True)
class ParamVector:
    """A length-m vector of ring elements under a shared SegmentSpec.

    Construction coerces the dtype but does not scan the elements: every
    element is below 2^w because vectors enter the program only through
    the boundaries that reduce or check them (``from_ints`` and
    ``quantize_vector`` reduce mod 2^w, the wire decoders reject an
    element >= 2^w), and the ring operations reduce their results.
    """

    values: np.ndarray  # dtype uint64, every element < 2^w
    spec: SegmentSpec

    def __post_init__(self) -> None:
        if self.values.dtype != np.uint64:
            object.__setattr__(self, "values", self.values.astype(np.uint64))

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamVector):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.values, other.values)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.spec)


def zeros(m: int, spec: SegmentSpec) -> ParamVector:
    return ParamVector(np.zeros(m, dtype=np.uint64), spec)


def from_ints(ints, spec: SegmentSpec) -> ParamVector:
    """Ring elements from Python integers, each reduced mod 2^w."""
    arr = np.array([int(v) & spec.word_mask for v in ints], dtype=np.uint64)
    return ParamVector(arr, spec)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def quantize_vector(values, spec: SegmentSpec) -> ParamVector:
    """Map reals to the ring: round(value * 2^q) mod 2^w, two's complement.

    Raises SaturationError when any scaled value does not fit in w bits,
    NaN and the infinities included: the range check is written so that a
    NaN, which compares false with everything, fails it.
    """
    arr = np.asarray(values, dtype=np.float64)
    scaled = np.rint(arr * spec.scale)
    half = float(1 << (spec.word_bits - 1))
    if scaled.size and not (scaled.max() < half and scaled.min() >= -half):
        raise SaturationError("vector overflows fixed-point range")
    return ParamVector(reduce_words(scaled.astype(np.int64).view(np.uint64), spec), spec)


def dequantize_vector(x: ParamVector) -> np.ndarray:
    return signed_values(x) / x.spec.scale


def signed_values(x: ParamVector) -> np.ndarray:
    """Two's complement decode of each element to float64."""
    spec = x.spec
    half = np.uint64(1 << (spec.word_bits - 1))
    vals = x.values.astype(np.float64)
    wrap = x.values >= half
    return np.where(wrap, vals - float(1 << spec.word_bits), vals)


# ---------------------------------------------------------------------------
# modular vector algebra
# ---------------------------------------------------------------------------


def _check_compat(a: ParamVector, b: ParamVector) -> None:
    if a.spec != b.spec:
        raise ValueError("SegmentSpec mismatch")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def vec_add_mod(a: ParamVector, b: ParamVector) -> ParamVector:
    """Element-wise (a + b) mod 2^w."""
    _check_compat(a, b)
    return ParamVector(reduce_words(a.values + b.values, a.spec), a.spec)


def vec_sub_mod(a: ParamVector, b: ParamVector) -> ParamVector:
    """Element-wise (a - b) mod 2^w; inverse of :func:`vec_add_mod`."""
    _check_compat(a, b)
    return ParamVector(reduce_words(a.values - b.values, a.spec), a.spec)


# ---------------------------------------------------------------------------
# bit segments
# ---------------------------------------------------------------------------


def split_segments(x: ParamVector) -> tuple[ParamVector, ParamVector]:
    """Split each element into (high, low): high = x >> k, low = x mod 2^k."""
    spec = x.spec
    high = x.values >> np.uint64(spec.low_bits)
    low = x.values & np.uint64(spec.low_mask)
    return ParamVector(high, spec), ParamVector(low, spec)


def combine_segments(high: ParamVector, low: ParamVector) -> ParamVector:
    _check_compat(high, low)
    spec = high.spec
    out = (high.values << np.uint64(spec.low_bits)) | (low.values & np.uint64(spec.low_mask))
    return ParamVector(reduce_words(out, spec), spec)


def apply_partial_mask(x: ParamVector, mask: ParamVector, sign: int) -> ParamVector:
    """Segment-local masking: low' = (low(x) +/- low(mask)) mod 2^k, high kept.

    The high segment of x is preserved bit-exactly; no carry crosses the
    segment boundary.  sign is +1 or -1.
    """
    _check_compat(x, mask)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    spec = x.spec
    lm = np.uint64(spec.low_mask)
    low = x.values & lm
    mlow = mask.values & lm
    new_low = (low + mlow if sign == 1 else low - mlow) & lm
    out = (x.values & ~lm) | new_low
    return ParamVector(out, spec)


def circular_high_diff(a: ParamVector, b: ParamVector) -> np.ndarray:
    """Signed circular difference of high words, mod 2^(w-k).

    Returns per-element high(a) - high(b) wrapped into
    [-2^(w-k-1), 2^(w-k-1)), which is the correct deviation measure when
    ring values may straddle the two's complement wrap point.
    """
    _check_compat(a, b)
    k = np.uint64(a.spec.low_bits)
    return high_word_diff(a.values >> k, b.values >> k, a.spec)


def high_word_diff(ha: np.ndarray, hb: np.ndarray, spec: SegmentSpec) -> np.ndarray:
    """Signed circular difference ha - hb of two uint64 arrays of high
    words, wrapped into [-2^(w-k-1), 2^(w-k-1)) as float64."""
    diff = ((ha - hb) & np.uint64((1 << spec.high_bits) - 1)).astype(np.float64)
    half = float(1 << (spec.high_bits - 1))
    return np.where(diff >= half, diff - float(1 << spec.high_bits), diff)
