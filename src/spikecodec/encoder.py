"""Greedy matching-pursuit encoder.

Per segment: correlate the residual against every kernel at every shift in
[-W/2, +W/2], pick the dominant (kernel, shift) pair, subtract its scaled
contribution, and repeat until the code budget is exhausted or the picked
intensity is zero or falls below the halting threshold.

Two correlation backends produce the same surface: `correlate_direct`
(time-domain multiply-accumulate) and `correlate_spectral` (real FFT of the
residual, multiply with the kernel spectra, inverse real FFT). Arithmetic
runs in float64 or, for hardware-faithful emulation, in the fixed-point
format from :mod:`spikecodec.fixedpoint`.

Boundary policy: kernels shifted partially out of the window are truncated
(zero outside, no renormalization), the behaviour of a shift register with a
fixed read window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dictionary import Dictionary, SpectralDictionary, _lag_window_bound
from .errors import DimensionMismatch, InvalidConfig, ShiftOutOfRange
from .fixedpoint import (
    FixedFormat,
    SaturationStats,
    _round_half_even,
    apply_overflow_array,
    dequantize_array,
    fixed_dot,
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
            raise DimensionMismatch("segment samples must be one-dimensional")
        if self.width is None:
            self.width = len(self.samples)
        if len(self.samples) != self.width:
            raise DimensionMismatch(
                f"segment has {len(self.samples)} samples, expected {self.width}"
            )


@dataclass(frozen=True)
class Code:
    """One matching-pursuit result: kernel index, shift, signed intensity."""

    m: int
    tau: int
    s: float
    segment_index: int = 0


@dataclass
class CodeSet:
    codes: list[Code] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.codes)


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


@dataclass
class CorrelationSurface:
    """values[m, j] = correlation of the residual with kernel m at shift
    tau = j - W/2; shape (num_kernels, W + 1)."""

    values: np.ndarray

    @property
    def width(self) -> int:
        return self.values.shape[1] - 1

    def at(self, m: int, tau: int) -> float:
        return float(self.values[m, tau + self.width // 2])


def _residual_windows(samples: np.ndarray, kernel_len: int) -> np.ndarray:
    """Rows j = residual slice [tau_j, tau_j + kernel_len), zero outside,
    for tau_j = j - W//2, j = 0..W. Zero-copy strided view."""
    w = len(samples)
    if w % 2:
        raise DimensionMismatch(f"correlation needs an even width, got {w}")
    half = w // 2
    padded = np.concatenate(
        [np.zeros(half, samples.dtype), samples, np.zeros(kernel_len, samples.dtype)]
    )
    return sliding_window_view(padded, kernel_len)[: w + 1]


def correlate_direct(residual: Segment, dictionary: Dictionary) -> CorrelationSurface:
    """Time-domain correlation of the residual against all shifted kernels."""
    windows = _residual_windows(residual.samples, dictionary.kernel_len)
    values = windows @ dictionary.kernels.T  # (W+1, num_kernels)
    return CorrelationSurface(values=np.ascontiguousarray(values.T))


def correlate_spectral(
    residual: Segment, sdict: SpectralDictionary, prune: str | None = None
) -> CorrelationSurface:
    """FFT backend; identical contract to `correlate_direct`.

    With `prune` set to a select rule, rows that can neither hold nor tie
    that rule's pick are left zero, so `select_code` returns the same code:
    |row m| <= B_m = sum_k w_k |K_m[k]| |R[k]| with irfft's weights w (1/n
    at DC and Nyquist, 2/n elsewhere; 1 + 1e-9 covers rounding), the row of
    largest B_m sets the best value, and rows with B_m >= best are kept."""
    w = residual.width
    if w % 2:
        raise DimensionMismatch(f"correlation needs an even width, got {w}")
    n, r = sdict.fft_len, residual.samples
    bound = _lag_window_bound(w, *sdict.support)
    if n < bound:
        raise DimensionMismatch(f"fft_len {n} below lag-window bound {bound}")
    # residual rotated to start at bin n - W/2: lag tau lands in bin W/2 - tau
    rotated = np.concatenate([r[w // 2 :], np.zeros(n - w), r[: w // 2]])
    spectrum = np.conj(np.fft.rfft(rotated))
    kernels = sdict.spectra[:, : n // 2 + 1]
    rows = slice(None)
    if prune is not None:
        weights = np.full(n // 2 + 1, 2.0 / n)
        # DC and Nyquist; for odd n there is no Nyquist bin and both are bin 0
        weights[0] = weights[n // 2 * (1 - n % 2)] = 1.0 / n
        bounds = (1 + 1e-9) * (sdict.magnitudes @ (weights * np.abs(spectrum)))
        top = np.fft.irfft(spectrum * kernels[np.argmax(bounds)], n)[w::-1]
        best = np.max(np.abs(top) if prune == "abs" else top)
        rows = np.flatnonzero(bounds >= best)
    values = np.zeros((sdict.num_kernels, w + 1))
    values[rows] = np.fft.irfft(spectrum * kernels[rows], n, axis=1)[:, w::-1]
    return CorrelationSurface(values=values)


def select_code(
    surface: CorrelationSurface, select: str = "abs", segment_index: int = 0
) -> Code:
    """Pick the dominant surface entry.

    Ties break to the smallest kernel index, then the most negative shift
    (argmax scans in C order), mirroring a sequential comparator that only
    updates on strict improvement. `select="abs"` ranks by magnitude and
    keeps the sign in `s`; `select="signed"` ranks by raw value.
    """
    ranked = np.abs(surface.values) if select == "abs" else surface.values
    m, j = np.unravel_index(int(np.argmax(ranked)), ranked.shape)
    return Code(
        m=int(m),
        tau=int(j) - surface.width // 2,
        s=float(surface.values[m, j]),
        segment_index=segment_index,
    )


def shift_kernel(kernel: np.ndarray, tau: int, width: int) -> np.ndarray:
    """out[t] = kernel[t - tau], zero where undefined.

    Samples shifted past either edge of the width-wide window are discarded
    (logical shift with zero fill).
    """
    if abs(tau) > width // 2:
        raise ShiftOutOfRange(f"|tau| = {abs(tau)} exceeds {width // 2}")
    kernel = np.asarray(kernel)
    out = np.zeros(width, dtype=kernel.dtype)
    dst_lo = max(0, tau)
    dst_hi = min(width, tau + len(kernel))
    if dst_hi > dst_lo:
        out[dst_lo:dst_hi] = kernel[dst_lo - tau : dst_hi - tau]
    return out


def subtract_component(
    residual: Segment, code: Code, dictionary: Dictionary
) -> Segment:
    """New residual = residual - s * shift_kernel(kernel m, tau)."""
    if not (0 <= code.m < dictionary.num_kernels):
        raise DimensionMismatch(f"kernel index {code.m} out of range")
    shifted = shift_kernel(dictionary.kernels[code.m], code.tau, residual.width)
    return Segment(
        samples=residual.samples - code.s * shifted,
        segment_index=residual.segment_index,
        width=residual.width,
    )


def encode_segment(
    segment: Segment,
    dictionary: Dictionary,
    sdict: SpectralDictionary | None = None,
    cfg: EncoderConfig = EncoderConfig(),
    stats: SaturationStats | None = None,
) -> CodeSet:
    """Run the matching-pursuit loop on one segment.

    Emits at most `cfg.max_codes` codes, stopping early when the picked
    intensity magnitude drops below `cfg.halt_threshold` or is zero: a zero
    code leaves the residual unchanged, so every later pick would repeat it.
    Pure function of its inputs; distinct segments can be encoded
    concurrently.
    """
    cfg.validate()
    if segment.width != cfg.width:
        raise DimensionMismatch(
            f"segment width {segment.width} != config width {cfg.width}"
        )
    if cfg.backend == "spectral" and sdict is None:
        raise InvalidConfig("spectral backend requires a SpectralDictionary")
    datapath = _fixed_datapath if cfg.arithmetic == "fixed" else _float_datapath
    residual, correlate, subtract = datapath(segment, dictionary, sdict, cfg, stats)
    codes: list[Code] = []
    for _ in range(cfg.max_codes):
        native, surface = correlate(residual)
        code = select_code(surface, cfg.select, segment.segment_index)
        if code.s == 0 or abs(code.s) < cfg.halt_threshold:
            break
        codes.append(code)
        residual = subtract(residual, code, native)
    return CodeSet(codes=codes)


def _float_datapath(segment, dictionary, sdict, cfg, stats):
    """float64 residual. The public functions are looked up per call, so a
    wrapper installed on them (a tracer) sees every call."""

    def correlate(residual: Segment):
        if cfg.backend == "direct":
            surface = correlate_direct(residual, dictionary)
        else:
            surface = correlate_spectral(residual, sdict, cfg.select)
        return surface, surface

    def subtract(residual: Segment, code: Code, _surface) -> Segment:
        return subtract_component(residual, code, dictionary)

    return segment, correlate, subtract


# ----- fixed-point datapath -----

def _kernel_supports(kernels_raw: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Per kernel: its nonzero support [lo, hi), max |k| and sum |k|, as
    Python ints; (0, 0, 0, 0) for an all-zero kernel."""
    supports = []
    for krow in kernels_raw:
        nonzero = np.flatnonzero(krow)
        if len(nonzero) == 0:
            supports.append((0, 0, 0, 0))
            continue
        lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
        mag = np.abs(krow[lo:hi])
        supports.append((lo, hi, int(mag.max()), int(mag.sum())))
    return supports


def _correlate_fixed_direct(
    resid_raw: np.ndarray,
    kernels_raw: np.ndarray,
    supports: list[tuple[int, int, int, int]],
    fmt: FixedFormat,
    stats: SaturationStats | None,
) -> np.ndarray:
    """Fixed-point correlation surface (raw int64), per-term round-to-even
    rescale, ascending-index accumulation, per-step overflow policy.

    Each kernel is multiplied over its nonzero support only (`supports`
    from `_kernel_supports`); terms outside it are exact zeros, which leave
    the accumulator and the overflow counts unchanged.
    """
    w = len(resid_raw)
    windows = _residual_windows(resid_raw, kernels_raw.shape[1])
    rmax = int(np.max(np.abs(resid_raw)))
    surface = np.zeros((kernels_raw.shape[0], w + 1), dtype=np.int64)
    if rmax == 0:
        return surface
    for m, (lo, hi, kmax, kabs) in enumerate(supports):
        if kmax == 0:
            continue
        rows = windows[:, lo:hi]
        krow = kernels_raw[m, lo:hi]
        if rmax * kmax >= (1 << 62) // (hi - lo):
            # not enough int64 headroom: exact scalar path
            surface[m] = [fixed_dot(row, krow, fmt, stats) for row in rows]
            continue
        terms = rescale_half_even_array(rows * krow, fmt.frac_bits)
        # |round(p / 2**f)| <= (|p| >> f) + 1 bounds every running sum of
        # this kernel by the left side below: within it nothing saturates
        # or wraps, and the order of the sum is free
        if ((rmax * kabs) >> fmt.frac_bits) + (hi - lo) <= fmt.raw_max:
            surface[m] = terms.sum(axis=1)
            continue
        running = np.cumsum(terms, axis=1)
        row = running[:, -1]
        over = (running.max(axis=1) > fmt.raw_max) | (
            running.min(axis=1) < fmt.raw_min
        )
        for j in np.flatnonzero(over):
            row[j] = fixed_dot(rows[j], krow, fmt, stats)
        surface[m] = row
    return surface


def _fixed_datapath(segment, dictionary, sdict, cfg, stats):
    """Raw int64 residual and surface; select_code ranks the dequantized copy."""
    fmt = cfg.fixed_format
    kernels_raw = quantize_array(dictionary.kernels, fmt, stats)
    supports = _kernel_supports(kernels_raw)

    def correlate(resid_raw: np.ndarray):
        if cfg.backend == "direct":
            surface_raw = _correlate_fixed_direct(
                resid_raw, kernels_raw, supports, fmt, stats
            )
        else:
            # FFT stage runs in float; the stored surface is requantized to
            # the datapath width, as a wide-word FFT core would deliver it
            float_residual = Segment(dequantize_array(resid_raw, fmt))
            float_surface = correlate_spectral(float_residual, sdict)
            surface_raw = quantize_array(float_surface.values, fmt, stats)
        return surface_raw, CorrelationSurface(dequantize_array(surface_raw, fmt))

    def subtract(resid_raw: np.ndarray, code: Code, surface_raw: np.ndarray):
        # the raw pick, not code.s requantized: inexact past 53 bits
        s_raw = int(surface_raw[code.m, code.tau + segment.width // 2])
        shifted = shift_kernel(kernels_raw[code.m], code.tau, segment.width)
        kmax = int(np.max(np.abs(shifted)))
        if abs(s_raw) * max(kmax, 1) >= (1 << 62):
            # int64 headroom exhausted: exact per-sample rescale
            scaled = np.array(
                [_round_half_even(s_raw * int(k), fmt.frac_bits) for k in shifted],
                dtype=np.int64,
            )
        else:
            scaled = rescale_half_even_array(s_raw * shifted, fmt.frac_bits)
        return apply_overflow_array(resid_raw - scaled, fmt, stats)

    return quantize_array(segment.samples, fmt, stats), correlate, subtract
