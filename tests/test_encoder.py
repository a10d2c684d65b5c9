import functools
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from spikecodec import encoder
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
    _residual_windows,
    correlate_direct,
    correlate_spectral,
    encode_segment,
    select_code,
    shift_kernel,
    subtract_component,
)
from spikecodec.errors import InvalidConfig, NumericError
from spikecodec.fixedpoint import (
    FixedFormat,
    SaturationStats,
    dequantize_array,
    quantize_array,
)
from spikecodec.pipeline import make_audio_clip, segment_stream

from conftest import max_in_support_shift, spectral_surface


def brute_force_correlation(residual, kernels, width):
    """Triple-loop oracle: values[m][j] = sum_t residual[t] * kernel[t - tau_j]."""
    num_kernels, kernel_len = kernels.shape
    out = np.zeros((num_kernels, width + 1))
    for m in range(num_kernels):
        for j, tau in enumerate(range(-(width // 2), width // 2 + 1)):
            acc = 0.0
            for t in range(width):
                u = t - tau
                if 0 <= u < kernel_len:
                    acc += residual[t] * kernels[m, u]
            out[m, j] = acc
    return out


# ----- shift_kernel -----

def test_shift_zero_is_identity(small_dict):
    k = small_dict.kernels[4]
    assert np.array_equal(shift_kernel(k, 0, 256), k)


def test_shift_pads_and_truncates_other_lengths():
    kernel = np.arange(1.0, 6.0)  # length 5
    out = shift_kernel(kernel, 0, 8)
    assert np.array_equal(out, [1, 2, 3, 4, 5, 0, 0, 0])
    out = shift_kernel(np.arange(1.0, 11.0), 0, 4)
    assert np.array_equal(out, [1, 2, 3, 4])


def test_half_width_shift_translates_front_loaded_kernel():
    width = 64
    rng = np.random.default_rng(1)
    kernel = np.zeros(width)
    kernel[: width // 2] = rng.standard_normal(width // 2)
    out = shift_kernel(kernel, width // 2, width)
    assert np.array_equal(out[width // 2 :], kernel[: width // 2])
    assert np.all(out[: width // 2] == 0.0)


def test_shift_matches_index_arithmetic_oracle():
    width, tau = 40, 13
    rng = np.random.default_rng(2)
    kernel = rng.standard_normal(25)
    out = shift_kernel(kernel, tau, width)
    for t in range(width):
        expected = kernel[t - tau] if 0 <= t - tau < len(kernel) else 0.0
        assert out[t] == expected


def test_shift_out_of_range_raises():
    with pytest.raises(NumericError, match="exceeds"):
        shift_kernel(np.ones(8), 5, 8)


# ----- correlation backends -----

def test_zero_residual_gives_zero_surface(small_dict, small_sdict):
    seg = np.zeros(256)
    assert not np.any(correlate_direct(seg, small_dict))
    assert np.max(np.abs(spectral_surface(seg, small_sdict))) < 1e-12


def test_autocorrelation_peak_is_unit_and_global_max(small_dict):
    seg = small_dict.kernels[3].copy()
    surface = correlate_direct(seg, small_dict)
    assert abs(surface[3, 0 + 256 // 2] - 1.0) < 1e-9
    assert np.max(np.abs(surface)) <= 1.0 + 1e-9
    m, j = np.unravel_index(np.argmax(np.abs(surface)), surface.shape)
    assert (m, j - 128) == (3, 0)


def test_direct_matches_triple_loop_oracle():
    width = 32
    d = build_dictionary(
        DictionaryConfig(num_kernels=4, freq_lo=100.0, freq_hi=4000.0, kernel_len=width)
    )
    rng = np.random.default_rng(3)
    residual = rng.standard_normal(width)
    surface = correlate_direct(residual, d)
    oracle = brute_force_correlation(residual, d.kernels, width)
    assert surface.shape == (4, width + 1)
    assert np.max(np.abs(surface - oracle)) < 1e-9


def _naive_windows(samples, lo, hi):
    """Row j, column c - lo: samples[j - W/2 + c] for c in [lo, hi), zero
    where that index leaves the window."""
    w = len(samples)
    t = np.arange(w + 1)[:, None] - w // 2 + np.arange(lo, hi)[None, :]
    inside = (0 <= t) & (t < w)
    out = np.zeros(t.shape, samples.dtype)
    out[inside] = samples[t[inside]]
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("lo, hi", [
    (32, 64), (32, 100), (40, 40),  # lo >= W/2: the gammatone layout
    (5, 32), (0, 64), (10, 57), (0, 128),  # lo < W/2 <= hi
    (3, 20), (0, 32), (7, 7), (0, 0),  # hi <= W/2, and lo == hi
])
def test_residual_windows_match_zero_padded_slices(lo, hi, dtype):
    # the bounds are W=64's; W=2 and W=4 (which the fixed-point screen
    # reaches) take them scaled, with the same layouts
    for w in (2, 4, 64):
        lo_w, hi_w = lo * w // 64, hi * w // 64
        rng = np.random.default_rng(lo * 131 + hi)
        samples = rng.integers(-99, 99, w).astype(dtype)
        windows = _residual_windows(samples, lo_w, hi_w)
        assert windows.shape == (w + 1, hi_w - lo_w) and windows.dtype == dtype
        assert np.array_equal(windows, _naive_windows(samples, lo_w, hi_w))
        # a view of a copy whose rows share memory: writing through it must fail
        assert not np.shares_memory(windows, samples)
        assert not windows.flags.writeable
        with pytest.raises(ValueError):
            windows[0, ...] = 1


@pytest.mark.parametrize("width, kernel_len", [
    (256, 512), (256, 256), (256, 128), (2048, 4096), (64, 32),
])
def test_correlate_direct_equals_per_entry_dot(width, kernel_len):
    # library kernels longer and shorter than W: the support sits at or past
    # W/2 (lo >= W/2) or ends by it (hi <= W/2)
    d = build_dictionary(DictionaryConfig(num_kernels=6, kernel_len=kernel_len))
    rng = np.random.default_rng(width + kernel_len)
    _check_direct_against_dot(rng.standard_normal(width), d)


def test_correlate_direct_equals_per_entry_dot_across_w_half():
    # random kernels nonzero from column 0: lo < W/2 <= hi
    rng = np.random.default_rng(8)
    kernels = rng.standard_normal((5, 100))
    kernels[:, 90:] = 0.0
    d = Dictionary(kernels, np.arange(1.0, 6.0), DictionaryConfig(num_kernels=5))
    assert d.support == (0, 90)
    _check_direct_against_dot(rng.standard_normal(128), d)


def _check_direct_against_dot(residual, d):
    surface = correlate_direct(residual, d)
    w = len(residual)
    assert surface.shape == (d.num_kernels, w + 1)
    assert surface.dtype == np.float64 and surface.flags.c_contiguous
    windows = _naive_windows(residual, 0, d.kernel_len)
    reference = np.array([[np.dot(row, k) for row in windows] for k in d.kernels])
    scale = np.linalg.norm(residual) * np.linalg.norm(d.kernels, axis=1)[:, None]
    assert np.all(np.abs(surface - reference) <= 1e-12 * scale)


def _untrimmed_correlation(residual, kernels):
    """Every kernel column multiplied, zeros included: row j of the residual
    padded with W/2 zeros in front and L behind, times each kernel."""
    w, length = len(residual), kernels.shape[1]
    padded = np.concatenate([np.zeros(w // 2), residual, np.zeros(length)])
    return (sliding_window_view(padded, length)[: w + 1] @ kernels.T).T


@functools.cache
def _dequantized_20_10():
    """Gammatones above 1 kHz through 20:10: quantization zeroes the tails,
    so the support ends before the buffer does."""
    d = build_dictionary(DictionaryConfig(num_kernels=8, freq_lo=1000.0,
                                          kernel_len=512))
    fmt = FixedFormat(20, 10, "wrap")
    return replace(d, kernels=dequantize_array(quantize_array(d.kernels, fmt), fmt))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(["dequantized-20:10", "random"]), data=st.data())
def test_support_trimmed_correlation_matches_untrimmed(case, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if case == "random":  # any support, kernels shorter or longer than W
        width = 2 * data.draw(st.integers(1, 40), label="half width")
        length = data.draw(st.integers(1, 2 * width), label="kernel length")
        lo = data.draw(st.integers(0, length - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, length), label="hi")
        kernels = np.zeros((3, length))
        kernels[:, lo:hi] = rng.standard_normal((3, hi - lo))
        d = Dictionary(kernels, np.array([100.0, 200.0, 300.0]),
                       DictionaryConfig(num_kernels=3, kernel_len=length))
        assert d.support == (lo, hi)
    else:
        d = _dequantized_20_10()
        width = d.kernel_len
        assert d.support[0] == width // 2 and d.support[1] < width
    residual = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(width)
    trimmed = correlate_direct(residual, d)
    full = _untrimmed_correlation(residual, d.kernels)
    assert np.max(np.abs(trimmed - full)) <= 1e-12 * np.max(np.abs(full))
    assert np.argmax(np.abs(trimmed)) == np.argmax(np.abs(full))


def test_direct_float_matches_spectral_at_reference_width(full_dict, full_sdict):
    # the trimmed product has a shorter inner dimension at W=2048, which
    # BLAS blocks differently: s may move in its last bits, never the pick
    x = make_audio_clip(2048, seed=0)
    direct, spectral = (
        encode_segment(Segment(x), full_dict, full_sdict, EncoderConfig(backend=b))
        for b in ("direct", "spectral")
    )
    assert len(direct) == 16
    assert np.array_equal(direct.m, spectral.m)
    assert np.array_equal(direct.tau, spectral.tau)
    assert np.all(np.abs(direct.s - spectral.s) <= 1e-12 * np.abs(spectral.s))


def test_spectral_matches_direct(small_dict, small_sdict):
    rng = np.random.default_rng(4)
    for _ in range(5):
        seg = rng.standard_normal(256)
        a = correlate_direct(seg, small_dict)
        b = spectral_surface(seg, small_sdict)
        assert np.max(np.abs(a - b)) < 1e-6


@pytest.mark.parametrize("kernel_len", [64, 400, 191],
                         ids=["shorter", "longer", "odd"])
def test_spectral_matches_direct_when_kernel_len_differs_from_width(kernel_len):
    # with L == W a wrong rotation or lag slice of the FFT buffer can cancel
    # out; other kernel lengths move the kernel's onset off the window centre
    width = 256
    d = build_dictionary(DictionaryConfig(num_kernels=6, kernel_len=kernel_len))
    fft_len = default_fft_len(width, kernel_len)
    sdict = kernel_spectra(d, fft_len, signal_len=width)
    rng = np.random.default_rng(kernel_len)
    for _ in range(3):
        seg = rng.standard_normal(width)
        a = correlate_direct(seg, d)
        b = spectral_surface(seg, sdict)
        assert b.shape == (6, width + 1)
        assert np.max(np.abs(a - b)) < 1e-12


def test_spectral_matches_direct_at_lag_window_bound():
    # W + L - 1 = 759 fits in 1024 points, but the kernel index t - tau
    # reaches 3W/2 and wraps onto the kernel there; the lag window needs 1536
    width, kernel_len = 720, 40
    d = build_dictionary(DictionaryConfig(num_kernels=6, kernel_len=kernel_len))
    fft_len = default_fft_len(width, kernel_len)
    assert fft_len == 1536
    sdict = kernel_spectra(d, fft_len, signal_len=width)
    rng = np.random.default_rng(720)
    for _ in range(3):
        seg = rng.standard_normal(width)
        a = correlate_direct(seg, d)
        b = spectral_surface(seg, sdict)
        assert np.max(np.abs(a - b)) < 1e-12
    with pytest.raises(NumericError, match="below lag-window bound"):
        kernel_spectra(d, 1024, signal_len=width)


@functools.cache
def _prune_setup(width):
    d = build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=width))
    return d, kernel_spectra(d, default_fft_len(width, width), signal_len=width)


@settings(max_examples=400, deadline=None)
@given(width=st.sampled_from([64, 128, 256]),
       select=st.sampled_from(["abs", "signed"]),
       kind=st.sampled_from(["kernel", "mixture", "noise", "zero"]),
       seed=st.integers(0, 2**32 - 1))
# an unclipped shifted kernel attains the row bound at its own (m, tau);
# without the 1 + 1e-9 margin, rounding prunes the pick's row in these
@example(width=64, select="abs", kind="kernel", seed=8)
@example(width=128, select="abs", kind="kernel", seed=4)
@example(width=256, select="signed", kind="kernel", seed=27)
@example(width=128, select="abs", kind="zero", seed=0)
@example(width=128, select="signed", kind="zero", seed=0)
def test_pruned_pick_equals_full_surface_pick(width, select, kind, seed):
    d, sdict = _prune_setup(width)
    rng = np.random.default_rng(seed)
    x = np.zeros(width)
    if kind == "noise":
        x = 10.0 ** rng.uniform(-300, 300) * rng.standard_normal(width)
    for _ in range({"kernel": 1, "mixture": 3}.get(kind, 0)):
        m = int(rng.integers(d.num_kernels))
        # negative shifts keep the whole kernel in the window (onset at W/2)
        tau = int(rng.integers(-(width // 2), 1))
        x += rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]) * shift_kernel(
            d.kernels[m], tau, width)
    full = spectral_surface(x, sdict)
    rows, kept = correlate_spectral(x, sdict, select, {})
    assert np.all(np.diff(rows) > 0)

    def pick(values, rows=None):  # (m, tau, s bytes)
        m, tau, _ = select_code(values, select, rows)
        k = m if rows is None else int(np.searchsorted(rows, m))
        return m, tau, values[k, tau + width // 2].tobytes()

    assert pick(kept, rows) == pick(full)
    # kept rows are transformed exactly as in the full surface
    assert full[rows].tobytes() == kept.tobytes()


@functools.cache
def _twin_setup(width):
    """`_prune_setup`'s bank with each odd kernel its even neighbour one
    sample earlier: the two rows hold the same lags one shift apart, equal
    up to rounding, so their maxima tie or miss by an ulp either way."""
    d, _ = _prune_setup(width)
    kernels = d.kernels.copy()
    kernels[1::2] = [shift_kernel(k, -1, width) for k in kernels[0::2]]
    d = replace(d, kernels=kernels)
    return d, kernel_spectra(d, signal_len=width)


def _atoms(d, rng, width, count):
    """`count` atoms of neighbouring kernels at nearby shifts, any of them
    clipped at the window edge (tau > 0)."""
    x, m0, tau0 = np.zeros(width), rng.integers(d.num_kernels), rng.integers(
        -(width // 2), width // 2 + 1)
    for _ in range(count):
        m = int(np.clip(m0 + rng.integers(-1, 2), 0, d.num_kernels - 1))
        tau = int(np.clip(tau0 + rng.integers(-8, 9), -(width // 2), width // 2))
        x += rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]) * shift_kernel(
            d.kernels[m], tau, width)
    return x


@settings(max_examples=300, deadline=None)
@given(width=st.sampled_from([64, 128, 256]),
       select=st.sampled_from(["abs", "signed"]),
       kind=st.sampled_from(["pursuit", "regrow", "zeroed", "twins"]),
       exponent=st.one_of(st.just(0.0), st.floats(-323.0, 308.25)),
       seed=st.integers(0, 2**32 - 1))
# each example fails without one term of the ceiling: the 1e-9 terms; the
# n * tiny of the bounds (rounding below the smallest normal float is
# absolute, and today's rule fails too); the fallback to B from a NaN
# ceiling; and D
@example(width=128, select="abs", kind="twins", exponent=0.0, seed=0)
@example(width=128, select="abs", kind="pursuit", exponent=-322.0, seed=5)
@example(width=128, select="abs", kind="regrow", exponent=308.0, seed=1)
@example(width=64, select="signed", kind="zeroed", exponent=0.0, seed=2)
def test_carried_ceiling_keeps_the_full_surface_pick(width, select, kind, exponent,
                                                      seed):
    # a k=16 pursuit whose every call carries the row ceilings to the next:
    # each pick equals the full surface's and today's (no carry), and the
    # kept rows' bytes equal the full surface's
    d, sdict = (_twin_setup if kind == "twins" else _prune_setup)(width)
    rng = np.random.default_rng(seed)
    x = _atoms(d, rng, width, 3)
    if x.any():  # peak 10^exponent
        x = x / np.abs(x).max() * 10.0 ** exponent
    carry = {}

    def pick(values, rows=None):  # (m, tau, s, s as bytes)
        m, tau, s = select_code(values, select, rows)
        k = m if rows is None else int(np.searchsorted(rows, m))
        return m, tau, s, values[k, tau + width // 2].tobytes()

    with np.errstate(all="ignore"):
        for i in range(16):
            if kind == "zeroed" and i in (4, 5):  # to zero, then somewhere else
                x = np.zeros(width) if i == 4 else _atoms(d, rng, width, 2)
            full = spectral_surface(x, sdict)
            today = pick(*correlate_spectral(x, sdict, select, {})[::-1])
            rows, kept = correlate_spectral(x, sdict, select, carry)
            expected, got = pick(full), pick(kept, rows)
            if not math.isfinite(expected[2]):
                # encode_segment's NumericError, naming today's pick; the
                # pursuit goes on from a finite residual
                assert repr(got[:3]) == repr(today[:3])
                assert not math.isfinite(got[2])
                x = _atoms(d, rng, width, 3)
                continue
            assert got == expected == today
            assert full[rows].tobytes() == kept.tobytes()
            m, tau, s, _ = expected
            if kind == "twins":  # the pick grows by its own D: only the 1e-9
                # terms cover the rounding of its two maxima
                x = x + 10.0 ** rng.uniform(-15, -8) * s * shift_kernel(
                    d.kernels[m], tau, width)
                continue
            x = subtract_component(x, m, tau, s, d)
            if kind == "regrow" and rng.random() < 0.5:  # some rows grow
                x += _atoms(d, rng, width, 1) * (10.0 ** exponent / 40)


def test_spectral_finds_shifted_kernel(small_dict, small_sdict):
    tau = 17
    kernel = small_dict.kernels[7]  # highest center: shortest support
    shifted = shift_kernel(kernel, tau, 256)
    assert abs(np.linalg.norm(shifted) - 1.0) < 1e-9  # shift stayed in support
    surface = spectral_surface(shifted, small_sdict)
    m, j = np.unravel_index(np.argmax(np.abs(surface)), surface.shape)
    assert (m, j - 128) == (7, tau)


# ----- select_code -----

def test_select_single_nonzero_entry():
    width = 256
    values = np.zeros((8, width + 1))
    values[7, width // 2 + 100] = 0.5
    assert select_code(values) == (7, 100, 0.5)


def test_select_tie_breaks_to_smallest_kernel():
    width = 64
    values = np.zeros((6, width + 1))
    values[2, width // 2] = 0.4
    values[5, width // 2] = -0.4
    assert select_code(values) == (2, 0, 0.4)


def test_select_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    for _ in range(25):
        values = rng.standard_normal((4, 33))
        for mode in ("abs", "signed"):
            code = select_code(values, select=mode)
            best = None
            for m in range(4):
                for j in range(33):
                    key = abs(values[m, j]) if mode == "abs" else values[m, j]
                    if best is None or key > best[0]:
                        best = (key, m, j - 16, values[m, j])
            assert code == best[1:]


def test_select_over_kept_rows_keeps_the_tie_rule():
    # kept rows 1, 3, 7 (row 5 pruned): rows 3 and 7 tie at |0.8|, and row 3
    # holds it twice; the pick is row 3 at its most negative shift
    width = 64
    values = np.zeros((3, width + 1))
    values[0, 0] = 0.5
    values[1, width // 2 + 5] = 0.8
    values[1, width // 2 - 20] = -0.8
    values[2, 0] = 0.8
    assert select_code(values, "abs", np.array([1, 3, 7])) == (3, -20, -0.8)
    assert select_code(values, "signed", np.array([1, 3, 7])) == (3, 5, 0.8)


@pytest.mark.parametrize("fmt", [None, FixedFormat(34, 24)])
def test_pruned_surface_keeps_tied_rows_and_drops_small_ones(fmt):
    # kernels 3 and 7 are equal, so their rows are equal to the bit; kernel 5
    # is too small to reach the bar and is pruned. In fixed point the rows
    # come from the screen that both backends run
    width = 128
    d, _ = _prune_setup(width)
    kernels = d.kernels.copy()
    kernels[7] = kernels[3]
    kernels[5] *= 1e-3
    d = replace(d, kernels=kernels)
    sdict = kernel_spectra(d, default_fft_len(width, width), signal_len=width)
    x = 2.0 * shift_kernel(kernels[3], -10, width)
    rows, values = correlate_spectral(x, sdict, "abs", {})
    if fmt is not None:
        cfg = EncoderConfig(width=width, arithmetic="fixed", fixed_format=fmt)
        resid_raw, correlate, _ = encoder._fixed_datapath(Segment(x), d, None, cfg, None)
        rows, values = correlate(resid_raw)  # values dequantized
    assert 3 in rows and 7 in rows and 5 not in rows
    k3, k7 = np.searchsorted(rows, [3, 7])
    assert values[k3].tobytes() == values[k7].tobytes()
    assert select_code(values, "abs", rows)[:2] == (3, -10)


def test_signed_pruning_keeps_every_row_when_all_values_are_negative():
    # positive kernels over the whole window and a negative residual: every
    # entry is negative, so the signed bar is too and no bound falls below it
    width = 64
    rng = np.random.default_rng(0)
    kernels = 0.1 + rng.uniform(size=(6, width))
    d = Dictionary(kernels, np.arange(1.0, 7.0), DictionaryConfig(
        num_kernels=6, kernel_len=width))
    sdict = kernel_spectra(d, default_fft_len(width, width), signal_len=width)
    x = -0.1 - rng.uniform(size=width)
    assert np.all(spectral_surface(x, sdict) < 0)
    rows, values = correlate_spectral(x, sdict, "signed", {})
    assert rows.tolist() == list(range(6))
    assert np.all(values < 0)


# ----- subtract_component -----

def test_exact_cancellation(small_dict):
    seg = 2.0 * small_dict.kernels[5]
    out = subtract_component(seg, 5, 0, 2.0, small_dict)
    assert np.linalg.norm(out) < 1e-9


def test_zero_intensity_leaves_residual_bitwise(small_dict):
    rng = np.random.default_rng(6)
    samples = rng.standard_normal(256)
    out = subtract_component(samples.copy(), 1, 9, 0.0, small_dict)
    assert np.array_equal(out, samples)


def test_energy_bookkeeping_for_full_support_codes(small_dict):
    # s = <r, kernel> at tau=0 implies ||new||^2 = ||old||^2 - s^2 (unit atoms)
    rng = np.random.default_rng(7)
    for m in range(4):
        samples = rng.standard_normal(256)
        s = float(np.dot(samples, small_dict.kernels[m]))
        out = subtract_component(samples, m, 0, s, small_dict)
        expected = np.sum(samples**2) - s**2
        assert abs(np.sum(out**2) - expected) < 1e-6 * expected


def test_kernel_index_out_of_range(small_dict):
    with pytest.raises(NumericError, match="kernel index 99 out of range"):
        subtract_component(np.zeros(256), 99, 0, 1.0, small_dict)


# ----- encode_segment -----

def test_zero_segment_encodes_to_nothing(small_dict):
    cfg = EncoderConfig(max_codes=8, halt_threshold=1e-9, width=256)
    out = encode_segment(Segment(np.zeros(256)), small_dict, cfg=cfg)
    assert len(out) == 0


@pytest.mark.parametrize("backend", ["direct", "spectral"])
@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_silent_segment_halts_at_threshold_zero(
    small_dict, small_sdict, backend, arithmetic
):
    # a zero pick leaves the residual unchanged: spending the budget on
    # repeats of it would be wasted correlations
    cfg = EncoderConfig(max_codes=8, width=256, backend=backend,
                        arithmetic=arithmetic)
    out = encode_segment(Segment(np.zeros(256)), small_dict, small_sdict, cfg)
    assert len(out) == 0


def test_single_kernel_recovery_halts_after_one_code(full_dict):
    x = 3.0 * shift_kernel(full_dict.kernels[9], -40, 2048)
    cfg = EncoderConfig(max_codes=4, halt_threshold=1e-6, width=2048)
    out = encode_segment(Segment(x), full_dict, cfg=cfg)
    assert len(out) == 1
    code = out[0]
    assert (code.m, code.tau) == (9, -40)
    assert abs(code.s - 3.0) < 1e-6 * 3.0
    residual = x - code.s * shift_kernel(full_dict.kernels[code.m], code.tau, 2048)
    assert np.sum(residual**2) < 1e-10 * np.sum(x**2)


def test_every_code_is_argmax_of_recorrelated_residual():
    width = 64
    d = build_dictionary(
        DictionaryConfig(num_kernels=4, freq_lo=200.0, freq_hi=6000.0, kernel_len=width)
    )
    rng = np.random.default_rng(8)
    residual = rng.standard_normal(width)
    cfg = EncoderConfig(max_codes=16, halt_threshold=0.0, width=width)
    out = encode_segment(Segment(residual.copy()), d, cfg=cfg)
    assert len(out) == 16
    for code in out:
        oracle = brute_force_correlation(residual, d.kernels, width)
        flat = np.argmax(np.abs(oracle))
        m, j = np.unravel_index(flat, oracle.shape)
        assert (code.m, code.tau) == (m, j - width // 2)
        assert abs(code.s - oracle[m, j]) < 1e-9
        residual = residual - code.s * shift_kernel(d.kernels[code.m], code.tau, width)


def test_halting_threshold_respected(small_dict):
    rng = np.random.default_rng(9)
    threshold = 2.0
    cfg = EncoderConfig(max_codes=32, halt_threshold=threshold, width=256)
    out = encode_segment(Segment(rng.standard_normal(256)), small_dict, cfg=cfg)
    assert all(abs(c.s) >= threshold for c in out)
    assert 0 < len(out) < 32  # halts once peaks drop below the threshold


@pytest.mark.parametrize("backend", ["direct", "spectral"])
@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_residual_energy_decreases_every_step(
    small_dict, small_sdict, backend, arithmetic
):
    rng = np.random.default_rng(10)
    x = rng.standard_normal(256)
    cfg = EncoderConfig(
        max_codes=12,
        halt_threshold=1e-3,
        width=256,
        backend=backend,
        arithmetic=arithmetic,
    )
    out = encode_segment(Segment(x.copy()), small_dict, small_sdict, cfg)
    assert len(out) > 0
    residual = x.copy()
    energy = np.sum(residual**2)
    for code in out:
        residual = residual - code.s * shift_kernel(
            small_dict.kernels[code.m], code.tau, 256
        )
        new_energy = np.sum(residual**2)
        assert new_energy < energy
        energy = new_energy


def test_backend_equivalence_on_random_segments(small_dict, small_sdict):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(256)
        cfg_d = EncoderConfig(max_codes=8, width=256, backend="direct")
        cfg_s = EncoderConfig(max_codes=8, width=256, backend="spectral")
        a = encode_segment(Segment(x.copy()), small_dict, cfg=cfg_d)
        b = encode_segment(Segment(x.copy()), small_dict, small_sdict, cfg_s)
        assert [(c.m, c.tau) for c in a] == [(c.m, c.tau) for c in b]
        for ca, cb in zip(a, b):
            assert abs(abs(ca.s) - abs(cb.s)) <= 1e-6 * abs(ca.s)


def _encoder_digest(width, scale, cfg, num_kernels=8, segments=4):
    """sha256 over (segment, m, tau, s as float64 bytes) of every code of a
    seeded clip, then the saturation and wrap counts."""
    d = build_dictionary(DictionaryConfig(num_kernels=num_kernels, kernel_len=width))
    sdict = kernel_spectra(d, default_fft_len(width, width), signal_len=width)
    stats = SaturationStats()
    digest = hashlib.sha256()
    x = scale * make_audio_clip(segments * width, seed=3)
    for seg in segment_stream(x, width):
        for c in encode_segment(seg, d, sdict, cfg, stats):
            digest.update(np.array([c.segment_index, c.m, c.tau]).tobytes())
            digest.update(np.float64(c.s).tobytes())
    digest.update(np.array([stats.saturations, stats.wraps]).tobytes())
    return digest.hexdigest()[:16], stats.saturations + stats.wraps


FIXED_34_24 = FixedFormat(34, 24)


@pytest.mark.parametrize("width, scale, cfg_kwargs, digest, overflows", [
    (128, 1.0, dict(backend="direct"), "75e3a18503a272fa", 0),
    # the direct float GEMM at the stream-dense width and under signed
    (256, 1.0, dict(backend="direct"), "3b0dd70407766792", 0),
    (128, 1.0, dict(backend="direct", select="signed"), "1d3edefd1d623940", 0),
    (128, 1.0, dict(backend="spectral"), "438e8437669143a2", 0),
    (128, 1.0, dict(backend="direct", arithmetic="fixed",
                    fixed_format=FIXED_34_24), "73ac9f87b8bb8eeb", 0),
    (128, 1.0, dict(backend="spectral", arithmetic="fixed",
                    fixed_format=FIXED_34_24), "73ac9f87b8bb8eeb", 0),
    (128, 400.0, dict(backend="direct", arithmetic="fixed",
                      fixed_format=FIXED_34_24), "2ccd9de581c64fa0", 1698),
    (128, 300.0, dict(backend="direct", arithmetic="fixed",
                      fixed_format=FixedFormat(20, 10, "wrap")),
     "264a3f2b5c27991d", 380),
    (128, 1.0, dict(backend="spectral", arithmetic="fixed",
                    fixed_format=FIXED_34_24, select="signed"),
     "bb35f747c53cc18d", 0),
    # the direct fixed screen under the signed rule, and at W=512
    (128, 1.0, dict(backend="direct", arithmetic="fixed",
                    fixed_format=FIXED_34_24, select="signed"),
     "bb35f747c53cc18d", 0),
    (512, 1.0, dict(backend="direct", arithmetic="fixed",
                    fixed_format=FIXED_34_24), "0ab9ab4b77762115", 0),
    # the screen under overflow: a screened-out row must not change a count
    (128, 400.0, dict(backend="spectral", arithmetic="fixed",
                      fixed_format=FIXED_34_24), "2ccd9de581c64fa0", 1698),
    (128, 300.0, dict(backend="spectral", arithmetic="fixed",
                      fixed_format=FixedFormat(20, 10, "wrap")),
     "264a3f2b5c27991d", 380),
    (512, 400.0, dict(backend="spectral", arithmetic="fixed",
                      fixed_format=FIXED_34_24, select="signed"),
     "12ed7ad5657dd3e3", 17646),
], ids=["direct-float", "direct-float-W256", "direct-float-signed",
        "spectral-float", "direct-34:24", "spectral-34:24",
        "direct-34:24-saturating", "direct-20:10-wrap", "spectral-34:24-signed",
        "direct-34:24-signed", "direct-34:24-W512",
        "spectral-34:24-saturating", "spectral-20:10-wrap",
        "spectral-34:24-signed-saturating"])
def test_encoder_output_pinned_per_mode(width, scale, cfg_kwargs, digest,
                                        overflows):
    # a refactor of the pursuit loop or a datapath must keep every mode's
    # codes and overflow counts bit for bit: they become the event bytes
    cfg = EncoderConfig(max_codes=4, width=width, **cfg_kwargs)
    for cfg in _with_direct_twin(cfg):
        assert _encoder_digest(width, scale, cfg) == (digest, overflows)


def _with_direct_twin(cfg):
    """`cfg`, and for fixed spectral `cfg` on the direct backend too: in
    fixed point both backends run one datapath, so they share a pin."""
    if cfg.arithmetic == "float" or cfg.backend == "direct":
        return [cfg]
    return [cfg, replace(cfg, backend="direct")]


@pytest.mark.parametrize("cfg_kwargs, digest", [
    (dict(), "052124ab7b045d3a"),
    (dict(arithmetic="fixed", fixed_format=FIXED_34_24), "6d0bb76101ab9b9e"),
], ids=["spectral-float", "spectral-34:24"])
def test_encoder_output_pinned_at_the_reference_point(cfg_kwargs, digest):
    # W=2048, 40 kernels, k=16 on 3 segments: the spectral rows above stop
    # at W=512, 8 kernels and k=4, where few iterations carry row ceilings
    cfg = EncoderConfig(max_codes=16, width=2048, backend="spectral", **cfg_kwargs)
    for cfg in _with_direct_twin(cfg):
        assert _encoder_digest(2048, 1.0, cfg, num_kernels=40, segments=3) == (
            digest, 0)


def test_exact_recovery_across_in_support_shifts(full_dict):
    rng = np.random.default_rng(11)
    cfg = EncoderConfig(max_codes=2, halt_threshold=1e-6, width=2048)
    for _ in range(5):
        m = int(rng.integers(40))
        hi = max_in_support_shift(full_dict.kernels[m])
        tau = int(rng.integers(-1024, hi + 1))
        s = float(rng.uniform(0.5, 4.0)) * float(rng.choice([-1.0, 1.0]))
        x = s * shift_kernel(full_dict.kernels[m], tau, 2048)
        out = encode_segment(Segment(x), full_dict, cfg=cfg)
        code = out[0]
        assert (code.m, code.tau) == (m, tau)
        assert abs(code.s - s) < 1e-6 * abs(s)


@pytest.mark.parametrize("arithmetic", ["float", "fixed"])
def test_spectral_without_sdict_reads_the_dictionarys_spectra(
    small_dict, small_sdict, arithmetic
):
    # the encoder sizes the spectra from the kernels' support: for the
    # gammatone layout that is `default_fft_len`, so the codes are the same
    cfg = EncoderConfig(max_codes=8, width=256, backend="spectral",
                        arithmetic=arithmetic)
    x = make_audio_clip(3 * 256, seed=9)
    for seg in segment_stream(x, 256):
        assert (encode_segment(seg, small_dict, cfg=cfg).tobytes()
                == encode_segment(seg, small_dict, small_sdict, cfg).tobytes())


def test_segment_width_must_match_config(small_dict):
    with pytest.raises(NumericError, match="segment width 128 != config width 256"):
        encode_segment(
            Segment(np.zeros(128)), small_dict, cfg=EncoderConfig(width=256)
        )


def test_odd_width_rejected(small_dict):
    # tau = j - W/2 column labelling is only well defined for even W
    with pytest.raises(InvalidConfig):
        EncoderConfig(width=255).validate()
    with pytest.raises(NumericError, match="correlation needs an even width, got 255"):
        correlate_direct(np.zeros(255), small_dict)
