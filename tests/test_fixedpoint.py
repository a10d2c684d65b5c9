from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from spikecodec.dictionary import DictionaryConfig, build_dictionary
from spikecodec.encoder import (
    EncoderConfig,
    Segment,
    _correlate_fixed_direct,
    _kernel_supports,
    encode_segment,
)
from spikecodec.errors import DimensionMismatch, InvalidConfig
from spikecodec.fixedpoint import (
    FixedFormat,
    FixedValue,
    SaturationStats,
    dequantize,
    fixed_dot,
    macc,
    parse_format,
    quantize,
    quantize_array,
    rescale_half_even_array,
)
from spikecodec.pipeline import make_audio_clip

FMT = FixedFormat(total_bits=34, frac_bits=24)


def test_quantize_zero_and_one():
    assert quantize(0.0, FMT).raw == 0
    assert quantize(1.0, FMT).raw == 2**24
    assert dequantize(quantize(1.0, FMT)) == 1.0


def test_round_trip_error_within_half_lsb():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2.0, 2.0, 100_000)
    half_lsb = 2.0**-25
    raw = quantize_array(xs, FMT)
    err = np.abs(raw / 2.0**24 - xs)
    assert np.max(err) <= half_lsb


def test_ties_round_to_even():
    lsb = 2.0**-24
    assert quantize(1.5 * lsb, FMT).raw == 2
    assert quantize(2.5 * lsb, FMT).raw == 2
    assert quantize(-1.5 * lsb, FMT).raw == -2
    assert quantize(0.5 * lsb, FMT).raw == 0


def test_macc_zero_operand_keeps_accumulator():
    acc = quantize(0.73, FMT)
    out = macc(acc, quantize(0.0, FMT), quantize(0.9, FMT))
    assert out.raw == acc.raw


def test_macc_one_times_one():
    one = quantize(1.0, FMT)
    out = macc(FixedValue(0, FMT), one, one)
    assert dequantize(out) == 1.0


def test_macc_requires_matching_formats():
    with pytest.raises(DimensionMismatch):
        macc(FixedValue(0, FMT), FixedValue(0, FMT), FixedValue(0, FixedFormat(16, 8)))


def test_dot_product_error_bounded_by_exact_rational_oracle():
    rng = np.random.default_rng(1)
    for trial in range(5):
        a = rng.uniform(-1.0, 1.0, 64)
        b = rng.uniform(-1.0, 1.0, 64)
        fa = [quantize(x, FMT) for x in a]
        fb = [quantize(x, FMT) for x in b]
        acc = FixedValue(0, FMT)
        for va, vb in zip(fa, fb):
            acc = macc(acc, va, vb)
        exact = sum(
            Fraction(va.raw, 2**24) * Fraction(vb.raw, 2**24)
            for va, vb in zip(fa, fb)
        )
        err = abs(Fraction(acc.raw, 2**24) - exact)
        assert err <= Fraction(64, 2**25)


def test_saturation_clamps_and_counts():
    fmt = FixedFormat(total_bits=10, frac_bits=4)
    stats = SaturationStats()
    big = FixedValue(fmt.raw_max, fmt)
    out = macc(big, quantize(1.0, fmt, stats), quantize(1.0, fmt, stats), stats)
    assert out.raw == fmt.raw_max
    assert stats.saturations == 1


def test_wrap_mode_wraps_modulo_word():
    fmt = FixedFormat(total_bits=10, frac_bits=4, overflow="wrap")
    out = macc(FixedValue(fmt.raw_max, fmt), quantize(1.0, fmt), quantize(1.0, fmt))
    span = 1 << 10
    expected = (fmt.raw_max + 16 - fmt.raw_min) % span + fmt.raw_min
    assert out.raw == expected


def test_quantize_array_matches_scalar_including_ties():
    lsb = 2.0**-24
    values = np.array([0.0, 1.0, -1.0, 0.5 * lsb, 1.5 * lsb, 2.5 * lsb, -1.5 * lsb, 0.3])
    raw = quantize_array(values, FMT)
    for v, r in zip(values, raw):
        assert quantize(float(v), FMT).raw == r


def test_fixed_dot_matches_scalar_macc_chain():
    rng = np.random.default_rng(2)
    # small word so per-step saturation actually triggers
    fmt = FixedFormat(total_bits=12, frac_bits=4)
    for trial in range(20):
        a = quantize_array(rng.uniform(-8, 8, 32), fmt)
        b = quantize_array(rng.uniform(-8, 8, 32), fmt)
        acc = FixedValue(0, fmt)
        for ai, bi in zip(a.tolist(), b.tolist()):
            acc = macc(acc, FixedValue(ai, fmt), FixedValue(bi, fmt))
        assert fixed_dot(a, b, fmt) == acc.raw


def test_fixed_dot_headroom_fallback_matches_scalar():
    # operands big enough that int64 products would overflow the fast path
    fmt = FixedFormat(total_bits=64, frac_bits=32)
    a = np.array([(1 << 40) + 12345, -(1 << 41) + 7, 1 << 39], dtype=np.int64)
    b = np.array([(1 << 40) - 999, (1 << 38) + 3, -(1 << 40)], dtype=np.int64)
    acc = FixedValue(0, fmt)
    for ai, bi in zip(a.tolist(), b.tolist()):
        acc = macc(acc, FixedValue(ai, fmt), FixedValue(bi, fmt))
    assert fixed_dot(a, b, fmt) == acc.raw


def _round_half_even_oracle(p, frac_bits):
    quot, rem = divmod(p, 1 << frac_bits)
    half = 1 << (frac_bits - 1)
    if rem > half or (rem == half and quot % 2 == 1):
        quot += 1
    return quot


def test_rescale_half_even_array_matches_python_divmod():
    rng = np.random.default_rng(3)
    # exact halves of both parities and signs, and the edges of the
    # documented |p| < 2**62 range
    halves = [q * (1 << 24) + (1 << 23) for q in range(-6, 6)]
    edges = [(1 << 62) - 1, -(1 << 62) + 1]
    products = np.concatenate(
        [rng.integers(-(1 << 40), 1 << 40, 1000), np.array(halves + edges)]
    )
    out = rescale_half_even_array(products, 24)
    for p, q in zip(products.tolist(), out.tolist()):
        assert q == _round_half_even_oracle(p, 24)


@given(st.integers(-(1 << 62) + 1, (1 << 62) - 1), st.integers(1, 40))
def test_rescale_half_even_array_property(p, frac_bits):
    out = rescale_half_even_array(np.array([p], dtype=np.int64), frac_bits)
    assert int(out[0]) == _round_half_even_oracle(p, frac_bits)


def _fixed_surface_oracle(resid_raw, kernels_raw, fmt, stats):
    """Entry (m, j): fixed_dot of kernel m with the residual read at
    tau = j - W/2 (zero outside the segment), windows built by index
    arithmetic."""
    w = len(resid_raw)
    kernel_len = kernels_raw.shape[1]
    surface = np.zeros((len(kernels_raw), w + 1), dtype=np.int64)
    for j in range(w + 1):
        idx = j - w // 2 + np.arange(kernel_len)
        inside = (idx >= 0) & (idx < w)
        window = np.where(inside, resid_raw[np.clip(idx, 0, w - 1)], 0)
        for m, krow in enumerate(kernels_raw):
            surface[m, j] = fixed_dot(window, krow, fmt, stats)
    return surface


@pytest.mark.parametrize(
    "width, fmt, scale, overflow_counted",
    [
        (256, FMT, 1.0, False),  # real-scale input
        (128, FMT, 400.0, True),  # saturating rows take the exact fallback
        (256, FixedFormat(20, 10, "wrap"), 300.0, True),
        (64, FixedFormat(48, 36), 1.0, False),  # int64 headroom too short
    ],
)
def test_fixed_direct_surface_matches_scalar_oracle(
    width, fmt, scale, overflow_counted
):
    d = build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=width))
    x = scale * make_audio_clip(width, seed=5)
    # an all-zero kernel row has an empty support
    kernels_raw = np.vstack(
        [quantize_array(d.kernels, fmt), np.zeros((1, width), np.int64)]
    )
    resid_raw = quantize_array(x, fmt)
    supports = _kernel_supports(kernels_raw)
    stats, oracle_stats = SaturationStats(), SaturationStats()
    surface = _correlate_fixed_direct(resid_raw, kernels_raw, supports, fmt, stats)
    oracle = _fixed_surface_oracle(resid_raw, kernels_raw, fmt, oracle_stats)
    assert np.array_equal(surface, oracle)
    assert (stats.saturations, stats.wraps) == (
        oracle_stats.saturations, oracle_stats.wraps
    )
    assert (stats.saturations + stats.wraps > 0) == overflow_counted
    if fmt.total_bits == 48:
        rmax = int(np.max(np.abs(resid_raw)))
        assert any(
            rmax * kmax >= (1 << 62) // (hi - lo)
            for lo, hi, kmax, _ in supports if kmax
        )


def test_fixed_mode_encoding_matches_float_on_margin_separated_signal(small_dict):
    from spikecodec.encoder import shift_kernel

    x = 2.0 * shift_kernel(small_dict.kernels[6], -30, 256) + 0.4 * shift_kernel(
        small_dict.kernels[2], -100, 256
    )
    cfg_float = EncoderConfig(max_codes=2, width=256)
    cfg_fixed = EncoderConfig(max_codes=2, width=256, arithmetic="fixed",
                              fixed_format=FMT)
    a = encode_segment(Segment(x.copy()), small_dict, cfg=cfg_float)
    b = encode_segment(Segment(x.copy()), small_dict, cfg=cfg_fixed)
    assert [(c.m, c.tau) for c in a] == [(c.m, c.tau) for c in b]
    for ca, cb in zip(a, b):
        assert abs(ca.s - cb.s) < 64 * 2.0**-24


def test_nonfinite_inputs_never_raise():
    stats = SaturationStats()
    assert quantize(float("nan"), FMT, stats).raw == 0
    assert quantize(float("inf"), FMT, stats).raw == FMT.raw_max
    assert quantize(float("-inf"), FMT, stats).raw == FMT.raw_min
    assert stats.saturations == 2
    raw = quantize_array(np.array([np.nan, np.inf, -np.inf, 1.0]), FMT)
    assert raw.tolist() == [0, FMT.raw_max, FMT.raw_min, 2**24]


def test_raw_range_enforced():
    with pytest.raises(InvalidConfig):
        FixedValue(raw=1 << 40, fmt=FMT)


def test_format_validation_and_parsing():
    with pytest.raises(InvalidConfig):
        FixedFormat(total_bits=8, frac_bits=8)
    with pytest.raises(InvalidConfig):
        FixedFormat(total_bits=70, frac_bits=8)
    fmt = parse_format("34:24")
    assert (fmt.total_bits, fmt.frac_bits) == (34, 24)
    with pytest.raises(InvalidConfig):
        parse_format("34-24")
    with pytest.raises(InvalidConfig):
        parse_format("8:9")
