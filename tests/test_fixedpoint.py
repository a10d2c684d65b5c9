import functools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikecodec import encoder, fixedpoint
from spikecodec.dictionary import (
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
    correlate_spectral,
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

from conftest import column_zero_dictionary

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
    width, fmt, scale, overflow_counted, monkeypatch
):
    d = build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=width))
    x = scale * make_audio_clip(width, seed=5)
    # an all-zero kernel row has an empty support
    kernels_raw = np.vstack(
        [quantize_array(d.kernels, fmt), np.zeros((1, width), np.int64)]
    )
    resid_raw = quantize_array(x, fmt)
    supports = _kernel_supports(kernels_raw, fmt)
    stats, oracle_stats = SaturationStats(), SaturationStats()
    macc_calls = []
    with monkeypatch.context() as patch:
        patch.setattr(fixedpoint, "macc", lambda *a: macc_calls.append(1) or macc(*a))
        surface = _correlate_fixed_direct(resid_raw, kernels_raw, supports, fmt, stats)
    oracle = _fixed_surface_oracle(resid_raw, kernels_raw, fmt, oracle_stats)
    assert np.array_equal(surface, oracle)
    assert (stats.saturations, stats.wraps) == (
        oracle_stats.saturations, oracle_stats.wraps
    )
    assert (stats.saturations + stats.wraps > 0) == overflow_counted
    if overflow_counted:  # overflowing rows take the column scan, not the scalar chain
        assert not macc_calls
    if fmt.total_bits == 48:
        rmax = int(np.max(np.abs(resid_raw)))
        assert any(
            rmax * int(kmax) >= (1 << 62) // int(hi - lo)
            for lo, hi, kmax in zip(supports.lo, supports.hi, supports.kmax) if kmax
        )


def _two_part_test(rmax, lo, hi, kmax, kabs, fmt):
    """The no-overflow test of a kernel row as one expression: int64 holds
    the products, and the bound on every running sum fits the word."""
    return kmax > 0 and (rmax * kmax < (1 << 62) // (hi - lo)) and (
        ((rmax * kabs) >> fmt.frac_bits) + (hi - lo) <= fmt.raw_max
    )


@settings(max_examples=200, deadline=None)
@given(total_bits=st.integers(8, 62), data=st.data())
def test_rmax_limit_selects_the_rows_the_two_part_test_selects(total_bits, data):
    fmt = FixedFormat(total_bits, data.draw(st.integers(1, total_bits - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    length = data.draw(st.integers(1, 300))
    kernels_raw = np.zeros((6, length), np.int64)
    for krow in kernels_raw[1:]:  # row 0 stays all zero
        lo = int(rng.integers(length))
        hi = int(rng.integers(lo + 1, length + 1))
        krow[lo:hi] = rng.integers(-(1 << 40), 1 << 40, hi - lo) >> rng.integers(41)
        krow[lo] = krow[hi - 1] = 1  # the support's ends are nonzero
    supports = _kernel_supports(kernels_raw, fmt)
    reference = []  # (lo, hi, kmax, kabs) as exact ints, row by row
    for krow in kernels_raw:
        nonzero = np.flatnonzero(krow)
        lo, hi = (int(nonzero[0]), int(nonzero[-1]) + 1) if len(nonzero) else (0, 0)
        mags = [abs(int(k)) for k in krow[lo:hi]]
        reference.append((lo, hi, max(mags, default=0), sum(mags)))
    assert [tuple(map(int, row)) for row in zip(*supports[:4])] == reference
    limits = supports.rmax_limit.tolist()
    rmaxes = {0, 1, data.draw(st.integers(0, 1 << 62))}
    rmaxes |= {r + d for r in limits for d in (0, 1) if r + d >= 0}
    for rmax in rmaxes:
        assert (rmax <= supports.rmax_limit).tolist() == [
            _two_part_test(rmax, *row, fmt) for row in reference
        ]
    # one row of exact ints, drawn directly
    n = data.draw(st.integers(1, 1 << 20))
    kmax = data.draw(st.integers(1, 1 << 62))
    kabs = data.draw(st.integers(kmax, n * kmax))
    limit = _rmax_limit(n, kmax, kabs, fmt)
    for rmax in (0, limit, limit + 1, data.draw(st.integers(0, 1 << 62))):
        if rmax >= 0:
            assert (rmax <= limit) == _two_part_test(rmax, 0, n, kmax, kabs, fmt)


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
    _, _, supports, table = _fixed_tables(d, fmt, 64, "direct")
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
    width = len(resid_raw)
    kernels_raw, _, supports, table = _fixed_tables(d, fmt, width, "direct")
    screen = (table, select)
    stats, oracle_stats = SaturationStats(), SaturationStats()
    rows, values = _correlate_fixed_direct(
        resid_raw, kernels_raw, supports, fmt, stats, screen
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


@pytest.mark.parametrize("width", [64, 512])
@pytest.mark.parametrize("kind", ["noise", "kernel", "saturating"])
def test_fft_screen_error_is_far_inside_the_slack(width, kind):
    # the slack's float term 1e-9 rmax sum|k| / 2^F was set for the gemm;
    # the FFT's rounding (about u log2 n |r|_2 |k|_1) must fit in it too
    d = _screen_setup(width)
    for fmt in SCREEN_FORMATS.values():
        kernels_raw = quantize_array(d.kernels, fmt)
        supports = _kernel_supports(kernels_raw, fmt)
        nonzero = supports.kmax > 0
        dequantized = replace(d, kernels=dequantize_array(kernels_raw, fmt))
        sdict = kernel_spectra(dequantized, signal_len=width)
        rng = np.random.default_rng(width)
        for _ in range(3):
            resid_raw = quantize_array(_screen_residual(d, fmt, kind, rng), fmt)
            r = dequantize_array(resid_raw, fmt)
            c_gemm, c_fft = correlate_direct(r, dequantized), correlate_spectral(r, sdict)
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
    x = make_audio_clip(2 * width, seed=60)

    def encode():
        stats, codes = SaturationStats(), []
        for i in range(2):
            seg = Segment(x[i * width : (i + 1) * width], i)
            cfg = EncoderConfig(max_codes=8, width=width, arithmetic="fixed",
                                fixed_format=FMT)
            codes.append(encode_segment(seg, d, None, cfg, stats).tobytes())
        return codes, (stats.saturations, stats.wraps)

    screened = encode()
    full = encoder._correlate_fixed_direct
    monkeypatch.setattr(  # the full exact surface, every row
        encoder, "_correlate_fixed_direct",
        lambda *a: (np.arange(5), full(*a[:5])),
    )
    assert encode() == screened


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
    # the message echoes the flag's own TOTAL:FRAC order
    with pytest.raises(InvalidConfig, match="TOTAL:FRAC 34:40"):
        parse_format("34:40")
