import functools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikecodec import encoder, fixedpoint
from spikecodec.dictionary import (
    Dictionary,
    DictionaryConfig,
    build_dictionary,
    default_fft_len,
    kernel_spectra,
)
from spikecodec.encoder import (
    EncoderConfig,
    Segment,
    _correlate_fixed_direct,
    _fixed_tables,
    _kernel_supports,
    _rmax_limit,
    correlate_direct,
    encode_segment,
    select_code,
    shift_kernel,
)
from spikecodec.errors import DimensionMismatch, InvalidConfig, LengthTooSmall
from spikecodec.fixedpoint import (
    FixedFormat,
    FixedValue,
    SaturationStats,
    dequantize,
    dequantize_array,
    fixed_dot,
    macc,
    parse_format,
    quantize,
    quantize_array,
    rescale_half_even_array,
)
from spikecodec.pipeline import make_audio_clip

from conftest import column_zero_dictionary, spectral_surface

FMT = FixedFormat(total_bits=34, frac_bits=24)
# every (B, F, policy) FixedFormat accepts: 0 < F < B <= 53, B + F <= 62
ACCEPTED_FORMATS = [FixedFormat(b, f, overflow) for b in range(2, 54)
                    for f in range(1, min(b, 63 - b)) for overflow in ("saturate", "wrap")]
# formats int64 cannot hold exactly, which earlier versions ran on Python
# ints; a test row that names one checks that it is rejected
REJECTED_FORMATS = {"48:36", "52:40", "62:58", "63:59", "64:60", "64:60-wrap"}


def _accepted_format(name):
    """The FixedFormat that "B:F" or "B:F-wrap" names, or None for a name
    in REJECTED_FORMATS, once FixedFormat is seen to reject it."""
    total, frac = map(int, name.removesuffix("-wrap").split(":"))
    overflow = "wrap" if name.endswith("-wrap") else "saturate"
    if name not in REJECTED_FORMATS:
        return FixedFormat(total, frac, overflow)
    with pytest.raises(InvalidConfig, match="total_bits <= 53 and total_bits"):
        FixedFormat(total, frac, overflow)
    return None


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
    # every accepted format and policy: under wrap a value past the word
    # wraps whole, however far it lies (600.0 at 20:10 is -434176, not
    # raw_min), 1.7e308 times 2^F is inf, and 2^B and its multiples wrap
    # to zero but still count
    rng = np.random.default_rng(4)
    for fmt in ACCEPTED_FORMATS:
        edge = (fmt.raw_max + 1) / fmt.scale
        values = np.concatenate([
            [600.0, 1000.3, -700.2, 1e300, -1e300, 1.7e308, -1.7e308,
             np.inf, -np.inf, np.nan],
            edge * np.array([1.0, -1.0, 2.0, -2.0, 3.5, 2.0**60]),
            (edge + np.array([-1.5, -0.5, 0.5, 1.5]) * fmt.lsb) * [[1.0], [-1.0]],
            rng.choice([-1, 1], 16) * edge * 10.0 ** rng.uniform(-2, 290, 16),
        ], axis=None)
        stats, scalar_stats = SaturationStats(), SaturationStats()
        raw = quantize_array(values, fmt, stats)
        assert raw.tolist() == [quantize(v, fmt, scalar_stats).raw for v in values]
        assert stats == scalar_stats
    assert quantize_array(np.array([600.0]), FixedFormat(20, 10, "wrap"))[0] == -434176


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
    # operands big enough that int64 products would overflow the fast path:
    # at 53:9, the widest word, raw_min squared is 2**104
    fmt = FixedFormat(total_bits=53, frac_bits=9)
    for a, b in [
        ([(1 << 40) + 12345, -(1 << 41) + 7, 1 << 39],
         [(1 << 40) - 999, (1 << 38) + 3, -(1 << 40)]),
        ([fmt.raw_min, 1], [fmt.raw_min, 0]),
    ]:
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
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
        (64, FixedFormat(53, 9), 1.0, False),  # the widest word
        (64, FixedFormat(40, 22), 1e6, True),  # B + F = 62: |r k| up to 2**61
    ],
)
def test_fixed_direct_surface_matches_scalar_oracle(
    width, fmt, scale, overflow_counted
):
    d = build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=width))
    # an all-zero kernel row has an empty support
    d = replace(d, kernels=np.vstack([d.kernels, np.zeros((1, width))]))
    resid_raw = quantize_array(scale * make_audio_clip(width, seed=5), fmt)
    for select in ("abs", "signed"):
        stats = _check_screened_pick(d, resid_raw, fmt, select)
        assert (stats.saturations + stats.wraps > 0) == overflow_counted


@pytest.mark.parametrize("fmt, taps", [
    (FixedFormat(31, 30), [-1.0]),  # raw_min, |k| = 2**F: the tap limit
    (FixedFormat(53, 9), [1 / 16] * 256),  # unit norm, sum |k| = 2**13
], ids=["31:30-minimum", "53:9-boxcar"])
def test_fixed_direct_encodes_kernels_at_the_tap_limit_exactly(fmt, taps):
    # a 0.5-scaled shifted copy of kernel 0 encodes to that one code, and
    # the residual is then exactly zero; kernel 1 is a decoy
    width = 512
    kernels = np.zeros((2, width))
    kernels[0, 256 : 256 + len(taps)] = taps
    kernels[1, 300] = 0.5
    d = Dictionary(kernels, np.array([1.0, 2.0]), DictionaryConfig(
        num_kernels=2, kernel_len=width))
    cfg = EncoderConfig(max_codes=4, width=width, arithmetic="fixed", fixed_format=fmt)
    x = 0.5 * shift_kernel(kernels[0], -100, width)
    codes = encode_segment(Segment(x), d, None, cfg, SaturationStats())
    assert codes.tolist() == [(0, 0, -100, 0.5)]


def test_fixed_point_rejects_a_kernel_tap_past_one():
    # int64 holds every product r k only while |k| <= 1.0 (2^F raw), as it
    # is for unit-norm kernels; the float datapath takes any kernel
    width = 64
    kernels = np.zeros((2, width))
    kernels[:, 40] = [-1.0, 1.5]
    d = Dictionary(kernels, np.array([1.0, 2.0]), DictionaryConfig(
        num_kernels=2, kernel_len=width))
    x = shift_kernel(kernels[0], -8, width)
    cfg = EncoderConfig(max_codes=2, width=width, arithmetic="fixed", fixed_format=FMT)
    with pytest.raises(InvalidConfig, match="magnitude at most 1.0, got 1.5"):
        encode_segment(Segment(x), d, None, cfg)
    assert len(encode_segment(Segment(x), d, None, replace(cfg, arithmetic="float")))
    d = replace(d, kernels=kernels[:1])
    assert encode_segment(Segment(x), d, None, cfg).tolist() == [(0, 0, -8, 1.0)]


@pytest.mark.parametrize("name", [
    "64:60", "64:60-wrap", "63:59", "62:58", "34:24", "20:10-wrap", "53:9", "40:22",
    "40:22-wrap",
])
def test_fixed_subtract_equals_exact_integer_arithmetic(name):
    # r - round(s k / 2^F) before the overflow policy, with the word's ends
    # in r and s: |s k| reaches 2**(B - 1 + F), 2**61 at 53:9 and 40:22
    fmt = _accepted_format(name)
    if fmt is None:
        return
    width = 128
    d = build_dictionary(DictionaryConfig(num_kernels=6, kernel_len=width))
    cfg = EncoderConfig(max_codes=4, width=width, arithmetic="fixed", fixed_format=fmt)
    stats = SaturationStats()
    resid_raw, correlate, subtract = encoder._fixed_datapath(
        Segment(7.9 * np.sin(0.3 * np.arange(width))), d, None, cfg, stats)
    kept, values = correlate(resid_raw)
    m, tau, s = select_code(values, cfg.select, kept)
    s_raw = int(s * fmt.scale)
    kernels_raw = _fixed_tables(d, fmt, width)[0]
    extremes = np.resize(np.array([fmt.raw_max, fmt.raw_min, 0, 1]), width)
    for resid in (resid_raw, extremes):
        for m, tau, s_raw in [(m, tau, s_raw), (2, -17, fmt.raw_max), (4, 30, fmt.raw_min)]:
            before, exact_stats = (stats.saturations, stats.wraps), SaturationStats()
            got = subtract(resid, m, tau, s_raw / fmt.scale)
            shifted = shift_kernel(kernels_raw[m], tau, width).tolist()
            exact = [fixedpoint._apply_overflow(r - round(Fraction(s_raw * k, fmt.scale)),
                                                fmt, exact_stats)
                     for r, k in zip(resid.tolist(), shifted)]
            assert got.tolist() == exact
            assert (stats.saturations - before[0], stats.wraps - before[1]) == (
                exact_stats.saturations, exact_stats.wraps)


def _word_test(rmax, n, kabs, fmt):
    """The no-overflow test of a kernel row with n support columns and
    sum |k| = kabs: the bound on every running sum fits the word."""
    return kabs > 0 and ((rmax * kabs) >> fmt.frac_bits) + n <= fmt.raw_max


@settings(max_examples=200, deadline=None)
@given(fmt=st.sampled_from(ACCEPTED_FORMATS), data=st.data())
def test_rmax_limit_selects_the_rows_the_word_test_selects(fmt, data):
    # kernel taps |k| <= 2^F, as `_fixed_tables` requires, and max |r| over
    # the whole word: every limit is below 2**62 with no cap
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    length = data.draw(st.integers(1, 300))
    kernels_raw = np.zeros((6, length), np.int64)
    kernels_raw[1, -1] = 1
    for krow in kernels_raw[2:]:  # row 0 stays all zero
        lo = int(rng.integers(length))
        hi = int(rng.integers(lo + 1, length + 1))
        taps = rng.integers(-fmt.scale, fmt.scale + 1, hi - lo)
        krow[lo:hi] = taps >> rng.integers(fmt.frac_bits + 1)
        krow[lo] = krow[hi - 1] = 1  # the support's ends are nonzero
    supports = _kernel_supports(kernels_raw, fmt)
    reference = []  # (lo, hi, kabs) as exact ints, row by row
    for krow in kernels_raw:
        nonzero = np.flatnonzero(krow)
        lo, hi = (int(nonzero[0]), int(nonzero[-1]) + 1) if len(nonzero) else (0, 0)
        reference.append((lo, hi, sum(abs(int(k)) for k in krow[lo:hi])))
    assert [tuple(map(int, row)) for row in zip(*supports[:3])] == reference
    limits = supports.rmax_limit.tolist()
    assert max(limits) < 1 << 62
    rmaxes = {0, 1, -fmt.raw_min, data.draw(st.integers(0, -fmt.raw_min))}
    rmaxes |= {r + d for r in limits for d in (0, 1) if 0 <= r + d}
    for rmax in rmaxes:
        assert (rmax <= supports.rmax_limit).tolist() == [
            _word_test(rmax, hi - lo, kabs, fmt) for lo, hi, kabs in reference
        ]
    # one row of exact ints, drawn directly: n taps of at most 2^F
    n = data.draw(st.integers(1, 1 << 20))
    kabs = data.draw(st.integers(1, n * fmt.scale))
    limit = _rmax_limit(n, kabs, fmt)
    assert limit < 1 << 62
    for rmax in (0, limit, limit + 1, data.draw(st.integers(0, -fmt.raw_min))):
        if rmax >= 0:
            assert (rmax <= limit) == _word_test(rmax, n, kabs, fmt)
    # the largest limit of any accepted format and nonzero row
    assert _rmax_limit(1, 1, FixedFormat(53, 9)) == (1 << 61) - (1 << 9) - 1


@functools.cache
def _screen_setup(width):
    return build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=width))


SCREEN_FORMATS = {
    "34:24": FMT, "28:16": FixedFormat(28, 16), "20:10-wrap": FixedFormat(20, 10, "wrap")
}


def _screen_residual(d, fmt, kind, rng, w=None):
    """A float residual of one stimulus `kind` and width `w` (by default the
    kernel length), scaled to the format's range."""
    w, full_scale = w or d.kernel_len, 2.0 ** (fmt.total_bits - fmt.frac_bits - 1)
    if kind == "zero":
        return np.zeros(w)
    if kind == "noise":
        return 10.0 ** rng.uniform(-4, 0) * full_scale * rng.standard_normal(w)
    if kind == "saturating":
        return 0.8 * full_scale * make_audio_clip(w, seed=int(rng.integers(1000)))
    # negative shifts keep the whole kernel in the window (onset at W/2)
    (m1, m2) = rng.choice(d.num_kernels, 2, replace=False)
    t1, t2 = rng.integers(-(w // 2), 1, 2)
    a = 10.0 ** rng.uniform(-3, 0) * full_scale
    u = shift_kernel(d.kernels[m1], t1, w)
    if kind == "kernel":  # quantizes to one shifted kernel
        return a * u
    # near-tie: a second kernel whose peak correlation is the first one's
    # give or take W/2 LSB, about the screen's slack
    v = shift_kernel(d.kernels[m2], t2, w)
    cu, cv = correlate_direct(u, d), correlate_direct(v, d)
    j1, j2 = t1 + w // 2, t2 + w // 2
    eps = rng.uniform(-1, 1) * (w // 2) * fmt.lsb
    b = (a * (cu[m1, j1] - cu[m2, j2]) + eps) / (cv[m2, j2] - cv[m1, j1])
    return a * u + b * v


@settings(max_examples=150, deadline=None)
@given(width=st.sampled_from([64, 128]),
       select=st.sampled_from(["abs", "signed"]),
       fmt=st.sampled_from(list(SCREEN_FORMATS)),
       kind=st.sampled_from(["kernel", "near-tie", "noise", "saturating", "zero"]),
       seed=st.integers(0, 2**32 - 1))
# without the (hi - lo) / 2 rounding term in the slack, the screen drops
# the exact winner of this near-tie
@example(width=64, select="abs", fmt="20:10-wrap", kind="near-tie", seed=33)
def test_screened_pick_equals_full_surface_pick(width, select, fmt, kind, seed):
    d, fmt = _screen_setup(width), SCREEN_FORMATS[fmt]
    x = _screen_residual(d, fmt, kind, np.random.default_rng(seed))
    _check_screened_pick(d, quantize_array(x, fmt), fmt, select)


def test_screened_signed_pick_of_a_surface_without_positive_entries():
    # non-negative kernels against a negative residual: the signed pick is a
    # zero entry, and screened-out entries must not be filled with one
    d = _screen_setup(64)
    d = replace(d, kernels=np.abs(d.kernels))
    x = -0.1 - np.abs(make_audio_clip(64, seed=2))
    _check_screened_pick(d, quantize_array(x, FMT), FMT, "signed")


def _top_reach_row(resid_raw, table):
    """The row of largest reach 2^F B_m + slack over all rows, from the
    magnitudes of the zero-padded residual's rfft (the screen's rotation
    leaves them alone)."""
    rmax = int(np.max(np.abs(resid_raw)))
    sdict = table.sdict
    mags = np.abs(np.fft.rfft(resid_raw.astype(np.float64), sdict.fft_len))
    return int(np.argmax(sdict.bound @ mags + table.slack + rmax * table.float_slack))


@pytest.mark.parametrize("fmt", list(SCREEN_FORMATS))
@pytest.mark.parametrize("select", ["abs", "signed"])
@pytest.mark.parametrize("over", [0, 1])
def test_screened_pick_at_the_top_rows_rmax_limit(fmt, select, over):
    # max |r| at the top-reach row's limit keeps that row bounded, its
    # entries gathered exactly; one raw unit above, it is loose, scanned by
    # column, and the next row by reach is transformed first
    d, fmt = _screen_setup(64), SCREEN_FORMATS[fmt]
    _, _, supports, table = _fixed_tables(d, fmt, 64)
    x = shift_kernel(d.kernels[5], -20, 64) + 0.2 * make_audio_clip(64, seed=11)
    shape = x / np.max(np.abs(x))  # rint(shape * R) peaks at exactly R
    top = _top_reach_row(quantize_array(shape, fmt), table)
    limit = int(supports.rmax_limit[top])
    resid_raw = np.rint(shape * (limit + over)).astype(np.int64)
    assert int(np.max(np.abs(resid_raw))) == limit + over
    assert _top_reach_row(resid_raw, table) == top
    _check_screened_pick(d, resid_raw, fmt, select)


@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("fmt", list(SCREEN_FORMATS))
@pytest.mark.parametrize("select", ["abs", "signed"])
@pytest.mark.parametrize("kind", ["kernel", "noise", "saturating", "zero"])
def test_screened_pick_at_the_smallest_widths(width, fmt, select, kind):
    # W=2 gives a 3-point FFT, the only odd length; W=4 a 6-point one
    d, fmt = _screen_setup(width), SCREEN_FORMATS[fmt]
    for seed in range(4):
        x = _screen_residual(d, fmt, kind, np.random.default_rng(seed))
        _check_screened_pick(d, quantize_array(x, fmt), fmt, select)


@pytest.mark.parametrize("fmt", list(SCREEN_FORMATS))
@pytest.mark.parametrize("select", ["abs", "signed"])
@pytest.mark.parametrize("kind", ["kernel", "near-tie", "noise", "saturating", "zero"])
def test_screened_pick_on_kernels_nonzero_from_column_zero(fmt, select, kind):
    # L = 60 at W = 100: the common support starts at column 0, left of W/2
    d, fmt = column_zero_dictionary(), SCREEN_FORMATS[fmt]
    for seed in range(3):
        x = _screen_residual(d, fmt, kind, np.random.default_rng(seed), 100)
        _check_screened_pick(d, quantize_array(x, fmt), fmt, select)


def _check_screened_pick(d, resid_raw, fmt, select):
    """The screened correlation against `_fixed_surface_oracle`, with no
    call of the scalar `macc`; returns its overflow counts."""
    width = len(resid_raw)
    kernels_raw, _, supports, table = _fixed_tables(d, fmt, width)
    stats, oracle_stats, macc_calls = SaturationStats(), SaturationStats(), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixedpoint, "macc", lambda *a: macc_calls.append(1) or macc(*a))
        rows, values = _correlate_fixed_direct(
            resid_raw, kernels_raw, supports, fmt, stats, table, select
        )
    oracle = _fixed_surface_oracle(resid_raw, kernels_raw, fmt, oracle_stats)
    assert np.all(np.diff(rows) > 0)
    # every row that may overflow is computed and returned in full
    loose = np.flatnonzero(int(np.max(np.abs(resid_raw))) > supports.rmax_limit)
    assert np.all(np.isin(loose, rows))
    assert np.array_equal(values[np.searchsorted(rows, loose)], oracle[loose])

    def pick(values, rows=None):  # (m, tau, raw s)
        m, tau, _ = select_code(dequantize_array(values, fmt), select, rows)
        k = m if rows is None else int(np.searchsorted(rows, m))
        return m, tau, int(values[k, tau + width // 2])

    assert pick(values, rows) == pick(oracle)
    assert (stats.saturations, stats.wraps) == (
        oracle_stats.saturations, oracle_stats.wraps
    )
    # an entry left inexact ranks below the pick, and so does every entry
    # of a row left out
    rank = np.abs if select == "abs" else np.positive
    inexact = values[values != oracle[rows]]
    assert np.all(rank(inexact) < rank(pick(oracle)[2]))
    assert np.all(rank(np.delete(oracle, rows, axis=0)) < rank(pick(oracle)[2]))
    assert not macc_calls
    return stats


@pytest.mark.parametrize("width", [64, 512])
@pytest.mark.parametrize("kind", ["noise", "kernel", "saturating"])
def test_fft_screen_error_is_far_inside_the_slack(width, kind):
    # the slack's float term 1e-9 rmax sum|k| / 2^F was set for the gemm;
    # the FFT's rounding (about u log2 n |r|_2 |k|_1) must fit in it too
    d = _screen_setup(width)
    for fmt in SCREEN_FORMATS.values():
        kernels_raw = quantize_array(d.kernels, fmt)
        supports = _kernel_supports(kernels_raw, fmt)
        nonzero = supports.kabs > 0
        dequantized = replace(d, kernels=dequantize_array(kernels_raw, fmt))
        sdict = kernel_spectra(dequantized, signal_len=width)
        rng = np.random.default_rng(width)
        for _ in range(3):
            resid_raw = quantize_array(_screen_residual(d, fmt, kind, rng), fmt)
            r = dequantize_array(resid_raw, fmt)
            c_gemm, c_fft = correlate_direct(r, dequantized), spectral_surface(r, sdict)
            error = fmt.scale * np.max(np.abs(c_fft - c_gemm), axis=1)
            rmax = int(np.max(np.abs(resid_raw)))
            float_term = 1e-9 * rmax * supports.kabs / fmt.scale
            assert np.all(error[nonzero] < 1e-3 * float_term[nonzero])


def test_screen_fits_kernels_nonzero_from_column_zero(monkeypatch):
    # `default_fft_len` assumes kernels nonzero on [L/2, L): at W=100 it
    # gives 128 points for L=60, but these kernels need 150 (192)
    width, length = 100, 60
    d = column_zero_dictionary()
    assert d.support == (0, length)
    with pytest.raises(LengthTooSmall):
        kernel_spectra(d, default_fft_len(width, length), width)
    _check_pursuit_against_oracle(monkeypatch, d, make_audio_clip(2 * width, seed=60),
                                  width, FMT)


@pytest.mark.parametrize("fmt, width", [
    *((fmt, width) for width in (64, 128) for fmt in [*SCREEN_FORMATS, "48:36"]),
    ("52:40", 64), ("64:60", 64), ("53:9", 64), ("40:22", 64),
])
@pytest.mark.parametrize("kind", ["clip", "saturating"])
def test_screened_pursuit_equals_the_scalar_oracle_pursuit(monkeypatch, width, fmt,
                                                           kind):
    # the widest word (53:9) and B + F = 62 (40:22), where |r k| reaches 2**61
    fmt = _accepted_format(fmt)
    if fmt is None:
        return
    d = _screen_setup(width)
    x = (make_audio_clip(width, seed=width) if kind == "clip" else
         _screen_residual(d, fmt, kind, np.random.default_rng(width)))
    # past int64 headroom the oracle's every entry is a scalar MAC chain
    codes = 4 if fmt.total_bits > 34 else 8
    overflows = _check_pursuit_against_oracle(monkeypatch, d, x, width, fmt, codes)
    assert (overflows > 0) == (kind == "saturating")


def _check_pursuit_against_oracle(monkeypatch, d, x, width, fmt, max_codes=8):
    """Encodes x, segment by segment, with the screened correlation and
    then with `_fixed_surface_oracle`'s full surface in its place: codes,
    raw s and overflow counts must be equal. Returns the overflow count."""

    def encode():
        stats, codes = SaturationStats(), []
        cfg = EncoderConfig(max_codes=max_codes, width=width, arithmetic="fixed",
                            fixed_format=fmt)
        for i in range(len(x) // width):
            seg = Segment(x[i * width : (i + 1) * width], i)
            codes.append(encode_segment(seg, d, None, cfg, stats).tobytes())
        return codes, (stats.saturations, stats.wraps)

    screened = encode()
    monkeypatch.setattr(  # the oracle's full surface, every row
        encoder, "_correlate_fixed_direct",
        lambda resid_raw, kernels_raw, supports, fmt, stats, *_: (
            np.arange(len(kernels_raw)),
            _fixed_surface_oracle(resid_raw, kernels_raw, fmt, stats)),
    )
    assert encode() == screened
    return sum(screened[1])


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
    # int64 must hold every raw value as an exact float and every product
    # of a raw value and a kernel tap: B <= 53 and B + F <= 62
    for total, frac in ((54, 4), (32, 31), (48, 36)):
        with pytest.raises(InvalidConfig, match="total_bits <= 53 and total_bits "
                                                r"\+ frac_bits <= 62"):
            FixedFormat(total, frac)
    assert FixedFormat(53, 9).raw_min == -(1 << 52)
    assert FixedFormat(40, 22).raw_max == (1 << 39) - 1
    fmt = parse_format("34:24")
    assert (fmt.total_bits, fmt.frac_bits) == (34, 24)
    with pytest.raises(InvalidConfig):
        parse_format("34-24")
    with pytest.raises(InvalidConfig):
        parse_format("8:9")
    # the message echoes the flag's own TOTAL:FRAC order
    with pytest.raises(InvalidConfig, match="TOTAL:FRAC 34:40"):
        parse_format("34:40")
