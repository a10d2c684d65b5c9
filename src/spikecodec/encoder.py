"""Greedy matching-pursuit encoder.

Per segment: correlate the residual against every kernel at every shift in
[-W/2, +W/2], pick the dominant (kernel, shift) pair, subtract its scaled
contribution, and repeat until the code budget is exhausted or the picked
intensity is zero or falls below the halting threshold.

Two correlation backends give the same picks: `correlate_direct`
(time-domain multiply-accumulate, the whole surface) and
`correlate_spectral` (real FFT of the residual, multiply with the kernel
spectra, inverse real FFT, on the rows that can hold the pick). Arithmetic
runs in float64 or, for hardware-faithful emulation, in the fixed-point
format from :mod:`spikecodec.fixedpoint`; there both backends run one
datapath, an FFT screen and an exact gather, so they give the same codes.

Boundary policy: kernels shifted partially out of the window are truncated
(zero outside, no renormalization), the behaviour of a shift register with a
fixed read window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dictionary import (
    Dictionary,
    SpectralDictionary,
    _lag_window_bound,
    kernel_spectra,
)
from .errors import InvalidConfig, NumericError
from .fixedpoint import (
    FixedFormat,
    SaturationStats,
    apply_overflow_array,
    dequantize_array,
    quantize_array,
    rescale_half_even_array,
)


@dataclass
class Segment:
    """One fixed-width slice of the input signal (or a residual of it)."""

    samples: np.ndarray
    segment_index: int = 0
    width: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise NumericError("segment samples must be one-dimensional")
        if self.width is None:
            self.width = len(self.samples)
        if len(self.samples) != self.width:
            raise NumericError(
                f"segment has {len(self.samples)} samples, expected {self.width}"
            )


# one matching-pursuit result per row: segment, kernel index, shift, signed
# intensity; encode_segment returns one segment's codes as an np.recarray
CODE_DTYPE = np.dtype([
    ("segment_index", np.int64), ("m", np.int64), ("tau", np.int64), ("s", np.float64)
])


@dataclass(frozen=True)
class EncoderConfig:
    max_codes: int = 16  # the per-segment spike budget k
    halt_threshold: float = 0.0
    backend: str = "direct"  # or "spectral"
    arithmetic: str = "float"  # or "fixed"
    fixed_format: FixedFormat = FixedFormat()
    select: str = "abs"  # or "signed": raw-maximum comparator mimicry
    width: int = 2048

    def validate(self) -> None:
        if self.max_codes < 0:
            raise InvalidConfig("max_codes must be >= 0")
        if not math.isfinite(self.halt_threshold) or self.halt_threshold < 0:
            raise InvalidConfig(
                f"halt_threshold must be finite and >= 0, got {self.halt_threshold}"
            )
        if self.backend not in ("direct", "spectral"):
            raise InvalidConfig(f"unknown backend {self.backend!r}")
        if self.arithmetic not in ("float", "fixed"):
            raise InvalidConfig(f"unknown arithmetic {self.arithmetic!r}")
        if self.select not in ("abs", "signed"):
            raise InvalidConfig(f"unknown select rule {self.select!r}")
        # the +/- W/2 shift range and the W+1 surface columns need even W
        if self.width < 2 or self.width % 2:
            raise InvalidConfig(f"width must be even and >= 2, got {self.width}")


def _residual_windows(samples: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row j: the residual over [j - W/2 + lo, j - W/2 + hi), zero outside, for
    j = 0..W; a read-only view of one zero-padded copy, whose rows share its
    memory. numpy checks that the view fits the copy: row W ends at
    (lo - W/2)+ + W + hi - lo, and the copy is (W/2 - lo)+ + W + (hi - W/2)+ long."""
    w = len(samples)
    if w % 2:
        raise NumericError(f"correlation needs an even width, got {w}")
    padded = np.concatenate([np.zeros(max(0, w // 2 - lo), samples.dtype), samples,
                             np.zeros(max(0, hi - w // 2), samples.dtype)])
    windows = np.ndarray((w + 1, hi - lo), padded.dtype, padded,
                         max(0, lo - w // 2) * padded.itemsize, padded.strides * 2)
    windows.flags.writeable = False
    return windows


def correlate_direct(residual: np.ndarray, dictionary: Dictionary) -> np.ndarray:
    """Time-domain correlation of the residual against all shifted kernels:
    values[m, j] = correlation with kernel m at shift tau = j - W/2, shape
    (num_kernels, W + 1), by one kernel-major GEMM on the support columns."""
    lo, hi = dictionary.support
    windows = np.ascontiguousarray(_residual_windows(residual, lo, hi))
    return dictionary.kernels[:, lo:hi] @ windows.T


_TINY = np.finfo(np.float64).tiny  # below it, a float op's rounding is absolute


def _lag_transform(residual: np.ndarray, sdict: SpectralDictionary):
    """The conjugate rfft of the residual, rotated in one length-n buffer so
    that lag tau lands in bin W/2 - tau, and `transform(rows)`: those rows'
    W + 1 lags, an irfft of its products with the kernels' rfft bins."""
    w, n = len(residual), sdict.fft_len
    spectra = sdict.spectra[:, : n // 2 + 1]
    rotated = np.zeros(n)
    rotated[: w // 2], rotated[n - w // 2 :] = residual[w // 2 :], residual[: w // 2]
    spectrum = np.conj(np.fft.rfft(rotated))

    def transform(rows):
        return np.fft.irfft(spectrum * spectra[rows], n, axis=-1)[..., w::-1]

    return spectrum, transform


def correlate_spectral(
    residual: np.ndarray, sdict: SpectralDictionary, select: str, carry: dict
) -> tuple[np.ndarray, np.ndarray]:
    """FFT backend: the rows of `correlate_direct`'s surface that can hold
    or tie the `select` rule's pick, as `(rows, values)`: their ascending
    indices and those rows alone. |row m| <= B_m (below; its n * tiny
    covers the rounding below the smallest normal float, which is
    absolute); the row of largest B_m, transformed once, sets the bar, and
    rows with B_m >= bar are kept.

    `carry`, a dict that one pursuit hands to each of its calls (empty at
    the first), also bounds row m by C_m + D_m + 1e-9 (B'_m + B_m). C_m is
    its max |lag| at the previous call (spectrum R', bounds B') if it was
    transformed, else the bound it was dropped with; D_m, the row bound of
    R - R', bounds the change of the lags, which are linear in the
    spectrum; the 1e-9 terms cover both irffts' rounding. A NaN sum leaves B_m."""
    w, n = len(residual), sdict.fft_len
    bound = _lag_window_bound(w, *sdict.support)
    if w % 2 or n < bound:
        raise NumericError(f"correlation needs an even width (got {w}) and "
                           f"fft_len {n} at or above the lag-window bound {bound}")
    spectrum, transform = _lag_transform(residual, sdict)
    magnitudes = np.zeros((len(spectrum), 2))  # |R| and |R - R'|
    np.abs(spectrum, out=magnitudes[:, 0])
    if carry:
        np.abs(spectrum - carry["spectrum"], out=magnitudes[:, 1])
    row_bounds, moved = (sdict.bound @ magnitudes + n * _TINY).T  # B_m and D_m
    bounds = row_bounds
    if carry:  # fmin: a NaN ceiling leaves B_m
        bounds = np.fmin(bounds, carry["ceilings"] + moved
                         + 1e-9 * (carry["bounds"] + row_bounds))
    top = int(np.argmax(bounds))
    top_lags = transform(top)
    keep = bounds >= np.max(np.abs(top_lags) if select == "abs" else top_lags)
    keep[top] = True  # bar <= B_top: kept, and not transformed again
    rows = np.flatnonzero(keep)
    at = int(np.searchsorted(rows, top))
    rest = transform(rows[rows != top])  # the other kept rows, transformed once
    lags = np.concatenate([rest[:at], top_lags[None], rest[at:]])
    ceilings = bounds.copy()  # max |lag| of a kept row, else its bound
    ceilings[rows] = np.abs(lags).max(axis=1)
    carry.update(spectrum=spectrum, bounds=row_bounds, ceilings=ceilings)
    return rows, lags


def select_code(
    values: np.ndarray, select: str = "abs", rows: np.ndarray | None = None
) -> tuple[int, int, float]:
    """Pick the dominant entry of a correlation surface as (m, tau, s).

    Ties break to the smallest kernel index, then the most negative shift
    (argmax scans in C order), mirroring a sequential comparator that only
    updates on strict improvement. `select="abs"` ranks by magnitude and
    keeps the sign in `s`; `select="signed"` ranks by raw value. With
    `rows`, `values` holds only those ascending kernel rows (the pruned
    spectral surface) and the pick's row is mapped back through them.
    """
    ranked = np.abs(values) if select == "abs" else values
    k, j = divmod(int(ranked.argmax()), ranked.shape[1])
    m = k if rows is None else rows[k]
    return int(m), int(j) - (values.shape[1] - 1) // 2, float(values[k, j])


def shift_kernel(kernel: np.ndarray, tau: int, width: int) -> np.ndarray:
    """out[t] = kernel[t - tau], zero where undefined.

    Samples shifted past either edge of the width-wide window are discarded
    (logical shift with zero fill).
    """
    if abs(tau) > width // 2:
        raise NumericError(f"|tau| = {abs(tau)} exceeds {width // 2}")
    kernel = np.asarray(kernel)
    out = np.zeros(width, dtype=kernel.dtype)
    dst_lo = max(0, tau)
    dst_hi = min(width, tau + len(kernel))
    if dst_hi > dst_lo:
        out[dst_lo:dst_hi] = kernel[dst_lo - tau : dst_hi - tau]
    return out


def subtract_component(
    residual: np.ndarray, m: int, tau: int, s: float, dictionary: Dictionary
) -> np.ndarray:
    """New residual = residual - s * shift_kernel(kernel m, tau)."""
    if not (0 <= m < dictionary.num_kernels):
        raise NumericError(f"kernel index {m} out of range")
    return residual - s * shift_kernel(dictionary.kernels[m], tau, len(residual))


def encode_segment(
    segment: Segment,
    dictionary: Dictionary,
    sdict: SpectralDictionary | None = None,
    cfg: EncoderConfig = EncoderConfig(),
    stats: SaturationStats | None = None,
) -> np.recarray:
    """Run the matching-pursuit loop on one segment; returns its codes as a
    CODE_DTYPE record array in emission order.

    Emits at most `cfg.max_codes` codes, stopping early when the picked
    intensity magnitude drops below `cfg.halt_threshold` or is zero: a zero
    code leaves the residual unchanged, so every later pick would repeat it.
    Pure function of its inputs; distinct segments can be encoded
    concurrently. The float spectral backend reads `sdict`, by default the
    kernels' own spectra at the smallest length their support allows
    (`kernel_spectra`, built once per dictionary and width); fixed point
    reads its own tables. Raises NumericError, naming the segment, when a
    pick is not finite.
    """
    cfg.validate()
    if segment.width != cfg.width:
        raise NumericError(
            f"segment width {segment.width} != config width {cfg.width}")
    datapath = _fixed_datapath if cfg.arithmetic == "fixed" else _float_datapath
    residual, correlate, subtract = datapath(segment, dictionary, sdict, cfg, stats)
    rows = []
    # inf or nan is the NumericError below, not a warning (errstate is per thread)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_codes):
            # kept: the rows `values` holds (None: all)
            kept, values = correlate(residual)
            m, tau, s = select_code(values, cfg.select, kept)
            if not math.isfinite(s):
                raise NumericError(f"segment {segment.segment_index}: picked intensity "
                                   f"{s} at kernel {m}, shift {tau} is not finite")
            if s == 0 or abs(s) < cfg.halt_threshold:
                break
            rows.append((segment.segment_index, m, tau, s))
            residual = subtract(residual, m, tau, s)
    return np.array(rows, CODE_DTYPE).view(np.recarray)


def _float_datapath(segment, dictionary, sdict, cfg, stats):
    """float64 residual. The public functions are looked up per call, so a
    wrapper installed on them (a tracer) sees every call."""
    if cfg.backend == "spectral" and sdict is None:
        sdict = dictionary.table(("spectra", cfg.width), lambda: kernel_spectra(
            dictionary, signal_len=cfg.width))
    carry = {}  # the spectral row ceilings, this segment's own

    def correlate(residual: np.ndarray):
        if cfg.backend == "direct":
            return None, correlate_direct(residual, dictionary)
        return correlate_spectral(residual, sdict, cfg.select, carry)

    def subtract(residual: np.ndarray, m: int, tau: int, s: float):
        return subtract_component(residual, m, tau, s, dictionary)

    return segment.samples, correlate, subtract


# ----- fixed-point datapath -----

class _Supports(NamedTuple):
    """Per raw kernel row: nonzero support [lo, hi), sum |k|, and the
    largest max |r| for which no running sum of the row can leave the word
    (`_rmax_limit`)."""

    lo: np.ndarray
    hi: np.ndarray
    kabs: np.ndarray
    rmax_limit: np.ndarray


class _Screen(NamedTuple):
    """What the fixed screen reads of a dictionary under one format and
    width (`_fixed_tables`); per kernel row unless noted."""

    sdict: SpectralDictionary  # the dequantized kernels', with their support
    slack: np.ndarray  # the slack's fixed part, (hi - lo) / 2 + 1
    float_slack: np.ndarray  # its float term per unit of max |r|, 1e-9 sum |k| / 2^F
    kernels: np.ndarray  # the raw kernels over their common support


def _rmax_limit(n: int, kabs: int, fmt: FixedFormat) -> int:
    """Largest max |r| for which no running sum of a kernel row with n
    support columns and sum |k| = kabs can leave the word, in exact ints:
    ((rmax * kabs) >> F) + n <= raw_max, which bounds every running sum
    since |round(p / 2**F)| <= (|p| >> F) + 1. Below 2**(B - 1 + F) <= 2**61;
    -1 for an all-zero row."""
    if kabs == 0:
        return -1
    return (((fmt.raw_max - n + 1) << fmt.frac_bits) - 1) // kabs


def _kernel_supports(kernels_raw: np.ndarray, fmt: FixedFormat) -> _Supports:
    """`_Supports` of the raw kernels; (0, 0, 0, -1) for an all-zero row."""
    mag = np.abs(kernels_raw)
    nonzero = mag > 0
    lo = np.argmax(nonzero, axis=1)
    last = mag.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    hi = np.where(nonzero.any(axis=1), last, 0)
    kabs = mag.sum(axis=1)
    limit = [_rmax_limit(int(b - a), int(s), fmt) for a, b, s in zip(lo, hi, kabs)]
    return _Supports(lo, hi, kabs, np.array(limit, np.int64))


def _summed_entries(resid_raw, lo, hi, kernels, ms, js, frac_bits):
    """Exact entries (ms[i], js[i]) of rows whose running sums cannot leave
    the word, so that their terms sum in any order: entry (m, j) sums the
    products of kernels[m], the kernel over columns [lo, hi), with row j of
    `_residual_windows`, in chunks of about 2**20 products."""
    windows = _residual_windows(resid_raw, lo, hi)
    out = np.empty(len(ms), np.int64)
    step = (1 << 20) // (hi - lo) + 1
    for i in range(0, len(ms), step):
        chunk = slice(i, i + step)
        products = windows[js[chunk]] * kernels[ms[chunk]]
        out[chunk] = np.add.reduce(rescale_half_even_array(products, frac_bits), 1)
    return out


def _correlate_fixed_direct(
    resid_raw: np.ndarray, kernels_raw: np.ndarray, supports: _Supports,
    fmt: FixedFormat, stats: SaturationStats | None, table: _Screen, select: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point correlation (raw int64), per-term round-to-even rescale,
    ascending-index accumulation, per-step overflow policy; returns
    `(rows, values)` like `correlate_spectral`: the ascending
    rows that can hold or tie the pick, and those rows, exact wherever the
    pick can be. `table` is the dictionary's `_Screen`.

    Each kernel is multiplied over its nonzero support only (`supports`
    from `_kernel_supports`); terms outside it are exact zeros, which leave
    the accumulator and the overflow counts unchanged. A row is bounded
    when max |r| <= its `rmax_limit`: none of its running sums can leave
    the word, so its entries are plain sums (`_summed_entries`). Every
    other (loose) row is computed in full with the overflow policy applied
    at every step, by a column scan over `_residual_windows`, and returned.
    int64 holds every product, |r k| <= 2**61 (`_fixed_tables`), and every
    acc + term. Both backends run it in fixed point, so they give the same
    integers.
    """
    w, num = len(resid_raw), len(kernels_raw)
    rmax = int(np.abs(resid_raw).max())
    if rmax == 0:
        return np.arange(num), np.zeros((num, w + 1), np.int64)
    loose = (rmax > supports.rmax_limit).nonzero()[0]
    loose_values = np.zeros((len(loose), w + 1), np.int64)
    if len(loose):
        windows = _residual_windows(resid_raw, 0, kernels_raw.shape[1])
    for i, m in enumerate(loose):  # a column scan, all shifts at once
        span = slice(supports.lo[m], supports.hi[m])
        products = windows[:, span] * kernels_raw[m, span]
        for term in rescale_half_even_array(products, fmt.frac_bits).T:
            loose_values[i] = apply_overflow_array(loose_values[i] + term, fmt, stats)
    if len(loose) == num:
        return loose, loose_values
    # Screen with 2^F c, c the float correlation of the dequantized operands
    # (the FFT of the raw residual): an exact entry E of a bounded row has
    # |E - 2^F c| <= slack, for hi - lo terms rounded by at most 1/2 each,
    # the float error (under 1e-9 rmax kabs / 2^F) and 1 for this test's own
    # rounding. `sure` is a rank the pick reaches; a row whose reach
    # 2^F B_m + slack, or an entry whose rank + slack, is below it cannot win.
    rank = np.abs if select == "abs" else np.positive
    spectrum, transform = _lag_transform(resid_raw, table.sdict)
    slack = table.slack + rmax * table.float_slack
    reach = table.sdict.bound @ np.abs(spectrum) + slack
    reach[loose] = -np.inf
    top = int(reach.argmax())
    sure = max(rank(transform(top)).max() - slack[top],
               rank(loose_values).max(initial=fmt.raw_min))
    screened = (reach >= sure).nonzero()[0]
    upper, margin = rank(transform(screened)), slack[screened]
    sure = (upper.max(axis=1) - margin).max(initial=sure)
    at, js = np.divmod((upper >= (sure - margin)[:, None]).ravel().nonzero()[0], w + 1)
    ms = screened[at]
    held = np.zeros(num, bool)
    held[ms] = held[loose] = True
    rows = held.nonzero()[0]
    # the rest rank below the pick: bounded entries exceed raw_min, and
    # with abs an entry is left out only below a pick >= sure > 0
    values = np.full((len(rows), w + 1), 0 if select == "abs" else fmt.raw_min,
                     np.int64)
    values[rows.searchsorted(loose)] = loose_values
    values[rows.searchsorted(ms), js] = _summed_entries(
        resid_raw, *table.sdict.support, table.kernels, ms, js, fmt.frac_bits)
    return rows, values


def _fixed_tables(dictionary: Dictionary, fmt: FixedFormat, width: int) -> tuple:
    """What the fixed datapath reads of a dictionary under one format and
    width: the raw kernels, the (saturations, wraps) of quantizing them,
    their `_Supports` and their `_Screen`. Raises InvalidConfig unless every
    raw tap |k| <= 2**F, as unit-norm kernels' are: then every product
    r k or s k is at most 2**(B - 1 + F) <= 2**61 in magnitude."""
    counts = SaturationStats()
    kernels_raw = quantize_array(dictionary.kernels, fmt, counts)
    if np.abs(kernels_raw).max(initial=0) > fmt.scale:
        raise InvalidConfig(f"fixed point needs kernel taps of magnitude at "
                            f"most 1.0, got {np.abs(dictionary.kernels).max()}")
    kernels_raw.flags.writeable = False
    overflows = (counts.saturations, counts.wraps)
    supports = _kernel_supports(kernels_raw, fmt)
    dequantized = replace(dictionary, kernels=dequantize_array(kernels_raw, fmt))
    lo, hi = dequantized.support
    return kernels_raw, overflows, supports, _Screen(
        kernel_spectra(dequantized, signal_len=width),
        (supports.hi - supports.lo) / 2 + 1, 1e-9 * supports.kabs / fmt.scale,
        kernels_raw[:, lo:hi])


def _fixed_datapath(segment, dictionary, _sdict, cfg, stats):
    """Raw int64 residual and surface, the same under either backend;
    select_code ranks the dequantized copy. The kernel tables are built once
    per dictionary (`Dictionary.table`); their quantization overflows count
    once per segment, as if requantized."""
    fmt = cfg.fixed_format
    kernels_raw, overflows, supports, screen_table = dictionary.table(
        ("fixed", fmt, cfg.width), lambda: _fixed_tables(dictionary, fmt, cfg.width))
    if stats is not None:
        stats.saturations += overflows[0]
        stats.wraps += overflows[1]

    def correlate(resid_raw: np.ndarray):
        rows, surface_raw = _correlate_fixed_direct(
            resid_raw, kernels_raw, supports, fmt, stats, screen_table, cfg.select)
        return rows, dequantize_array(surface_raw, fmt)

    def subtract(resid_raw: np.ndarray, m: int, tau: int, s: float):
        # s is the dequantized raw pick, exact: s 2^F gives it back
        shifted = shift_kernel(kernels_raw[m], tau, segment.width)
        scaled = rescale_half_even_array(int(s * fmt.scale) * shifted, fmt.frac_bits)
        return apply_overflow_array(resid_raw - scaled, fmt, stats)

    return quantize_array(segment.samples, fmt, stats), correlate, subtract
