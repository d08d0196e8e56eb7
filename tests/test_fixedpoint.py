import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secaggsim.fixedpoint import (
    ParamVector,
    SaturationError,
    SegmentSpec,
    apply_partial_mask,
    circular_high_diff,
    combine_segments,
    dequantize_vector,
    from_ints,
    quantize_vector,
    split_segments,
    vec_add_mod,
    vec_sub_mod,
)

SPEC16 = SegmentSpec(word_bits=16, frac_bits=4, low_bits=8)
SPEC8 = SegmentSpec(word_bits=8, frac_bits=2, low_bits=4)


def test_spec_invariants():
    with pytest.raises(ValueError):
        SegmentSpec(word_bits=16, frac_bits=8, low_bits=8)  # q == k
    with pytest.raises(ValueError):
        SegmentSpec(word_bits=70, frac_bits=8, low_bits=16)  # w > 64
    spec = SegmentSpec(32, 8, 16)
    assert spec.low_mask == 0xFFFF
    assert spec.word_mask == 2**32 - 1
    # keep-low mask has exactly bits [0, k) set and [k, w) clear
    assert spec.low_mask & (1 << spec.low_bits) == 0
    assert bin(spec.low_mask).count("1") == spec.low_bits


def test_quantize_examples():
    spec = SegmentSpec(32, 8, 16)
    assert quantize_vector([1.5, 0.0], spec).values.tolist() == [384, 0]  # 1.5 * 256
    assert quantize_vector([-1.0], SegmentSpec(16, 8, 12)).values.tolist() == [65280]  # two's complement
    assert quantize_vector([], spec).values.tolist() == []


def test_quantize_saturation():
    spec = SegmentSpec(16, 8, 12)
    with pytest.raises(SaturationError):
        quantize_vector([200.0], spec)  # 200*256 > 2^15
    with pytest.raises(SaturationError):
        quantize_vector([0.0, -200.0], spec)


@given(st.floats(min_value=-100.0, max_value=100.0))
def test_quantize_round_trip(value):
    spec = SegmentSpec(32, 8, 16)
    err = abs(dequantize_vector(quantize_vector([value], spec))[0] - value)
    assert err <= 2.0 ** (-spec.frac_bits - 1) + 1e-12


def test_vec_add_mod_examples():
    assert vec_add_mod(from_ints([200], SPEC8), from_ints([100], SPEC8)).values[0] == 44
    a = from_ints([1, 2, 3], SPEC8)
    zero = from_ints([0, 0, 0], SPEC8)
    assert vec_add_mod(a, zero) == a


def test_vec_add_mismatch():
    a = from_ints([1], SPEC8)
    b = from_ints([1, 2], SPEC8)
    with pytest.raises(ValueError):
        vec_add_mod(a, b)
    with pytest.raises(ValueError):
        vec_add_mod(from_ints([1], SPEC8), from_ints([1], SPEC16))


@given(st.integers(0, 2**31))
def test_add_sub_inverse(seed):
    rng = np.random.default_rng(seed)
    spec = SegmentSpec(32, 8, 16)
    a = ParamVector(rng.integers(0, 2**32, 16, dtype=np.uint64), spec)
    b = ParamVector(rng.integers(0, 2**32, 16, dtype=np.uint64), spec)
    assert vec_sub_mod(vec_add_mod(a, b), b) == a


def test_add_sub_inverse_bulk():
    # direct integer-arithmetic oracle over many random vectors
    rng = np.random.default_rng(0)
    spec = SegmentSpec(32, 8, 16)
    mod = 1 << spec.word_bits
    for _ in range(1000):
        a = [int(v) for v in rng.integers(0, mod, 4)]
        b = [int(v) for v in rng.integers(0, mod, 4)]
        got = vec_sub_mod(vec_add_mod(from_ints(a, spec), from_ints(b, spec)), from_ints(b, spec))
        assert [int(v) for v in got.values] == [x % mod for x in a]


def test_split_segments_examples():
    high, low = split_segments(from_ints([0x1234], SPEC16))
    assert (int(high.values[0]), int(low.values[0])) == (0x12, 0x34)
    high, low = split_segments(from_ints([0], SPEC16))
    assert (int(high.values[0]), int(low.values[0])) == (0, 0)


@given(st.integers(0, 2**31))
def test_split_recombine(seed):
    rng = np.random.default_rng(seed)
    spec = SegmentSpec(32, 8, 16)
    x = ParamVector(rng.integers(0, 2**32, 8, dtype=np.uint64), spec)
    high, low = split_segments(x)
    assert combine_segments(high, low) == x


def test_apply_partial_mask_examples():
    x = from_ints([0x1234], SPEC16)
    mask = from_ints([0xABCD], SPEC16)
    out = apply_partial_mask(x, mask, 1)
    assert int(out.values[0]) == 0x1201  # (0x34 + 0xCD) mod 256, high byte kept
    zero = from_ints([0], SPEC16)
    assert apply_partial_mask(x, zero, 1) == x


@given(st.integers(0, 2**31))
def test_apply_partial_mask_inverse_and_high(seed):
    rng = np.random.default_rng(seed)
    spec = SegmentSpec(32, 8, 16)
    x = ParamVector(rng.integers(0, 2**32, 8, dtype=np.uint64), spec)
    mask = ParamVector(rng.integers(0, 2**32, 8, dtype=np.uint64), spec)
    masked = apply_partial_mask(x, mask, 1)
    # high segment preserved bit-exactly
    assert np.array_equal(masked.values >> np.uint64(16), x.values >> np.uint64(16))
    assert apply_partial_mask(masked, mask, -1) == x


def test_apply_partial_mask_bad_sign():
    x = from_ints([1], SPEC16)
    with pytest.raises(ValueError):
        apply_partial_mask(x, x, 0)


def test_dequantize_vector_signed():
    spec = SegmentSpec(16, 8, 12)
    v = quantize_vector([-1.0, 1.5, 0.0], spec)
    assert np.allclose(dequantize_vector(v), [-1.0, 1.5, 0.0])


def test_circular_high_diff_wraps():
    spec = SegmentSpec(16, 4, 8)
    a = from_ints([0x0100], spec)  # high word 1
    b = from_ints([0xFF00], spec)  # high word 255 == -1 circularly
    diff = circular_high_diff(a, b)
    assert diff[0] == 2.0  # 1 - (-1)
