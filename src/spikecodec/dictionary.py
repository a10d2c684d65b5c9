"""Gammatone kernel dictionary.

Builds the bank of unit-norm gammatone waveforms used as matching-pursuit
atoms, plus their precomputed spectra for the FFT correlation backend.

The impulse response of each kernel is

    g(t) = t^(n-1) * exp(-2*pi*b*ERB(fc)*t) * cos(2*pi*fc*t)

with order n = 4 (`GAMMATONE_ORDER`), bandwidth scale b = 1.019
(`BANDWIDTH_SCALE`) and phase 0, ERB per
Glasberg & Moore (1990), and center frequencies equally spaced on the
ERB-rate scale between ``freq_lo`` and ``freq_hi``.

Each kernel occupies a buffer of ``kernel_len`` samples with its onset at
``kernel_len // 2``. The half-buffer lead-in of zeros means every shift in
[-kernel_len/2, 0] is a pure translation of the stored samples, mirroring a
shift register twice the kernel length addressed around its midpoint.
Waveforms are truncated at the buffer end and L2-normalized afterwards.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidConfig, NumericError

GAMMATONE_ORDER = 4
BANDWIDTH_SCALE = 1.019


def erb_bandwidth(freq_hz):
    """Equivalent rectangular bandwidth (Hz) of an auditory filter at freq_hz."""
    return 24.7 * (4.37 * np.asarray(freq_hz) / 1000.0 + 1.0)


def hz_to_erb_rate(freq_hz):
    """Frequency in Hz -> position on the ERB-rate scale."""
    return 21.4 * np.log10(4.37 * np.asarray(freq_hz) / 1000.0 + 1.0)


def erb_rate_to_hz(rate):
    """Inverse of :func:`hz_to_erb_rate`."""
    return (np.power(10.0, np.asarray(rate) / 21.4) - 1.0) * 1000.0 / 4.37


def erb_space(freq_lo: float, freq_hi: float, count: int) -> np.ndarray:
    """`count` frequencies equally spaced on the ERB-rate scale, inclusive."""
    rates = np.linspace(hz_to_erb_rate(freq_lo), hz_to_erb_rate(freq_hi), count)
    # clip kills the odd half-ulp excursion of the round trip at the endpoints
    return np.clip(erb_rate_to_hz(rates), freq_lo, freq_hi)


@dataclass(frozen=True)
class DictionaryConfig:
    num_kernels: int = 40
    sample_rate: float = 16000.0
    freq_lo: float = 20.0
    freq_hi: float = 8000.0
    kernel_len: int = 2048

    def validate(self) -> None:
        # first: a bad rate would fail the band checks with their message
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise InvalidConfig(
                f"sample_rate must be finite and > 0, got {self.sample_rate}")
        if self.num_kernels < 1:
            raise InvalidConfig(f"num_kernels must be >= 1, got {self.num_kernels}")
        if self.kernel_len < 1:
            raise InvalidConfig(f"kernel_len must be >= 1, got {self.kernel_len}")
        if not (0.0 < self.freq_lo < self.freq_hi):
            raise InvalidConfig(
                f"need 0 < freq_lo < freq_hi, got {self.freq_lo}, {self.freq_hi}"
            )
        # <= not <: the reference operating point puts freq_hi exactly at
        # Nyquist (20 Hz .. 8 kHz at 16 kHz sampling)
        if not self.freq_hi <= self.sample_rate / 2.0:
            raise InvalidConfig(
                f"freq_hi {self.freq_hi} must not exceed Nyquist "
                f"{self.sample_rate / 2.0}"
            )


@dataclass(frozen=True)
class Dictionary:
    """Immutable bank of unit-norm kernels; safe to share across encoders.

    What depends only on the kernels is computed on first use and kept with
    the dictionary (`support`, and the encoder's tables through `table`), so
    the kernels of a hand-built Dictionary must not be written after its
    first use; `build_dictionary` makes them read-only."""

    kernels: np.ndarray  # (num_kernels, kernel_len)
    center_freqs: np.ndarray  # (num_kernels,), Hz, strictly increasing
    config: DictionaryConfig

    @property
    def num_kernels(self) -> int:
        return self.kernels.shape[0]

    @property
    def kernel_len(self) -> int:
        return self.kernels.shape[1]

    @cached_property
    def support(self) -> tuple[int, int]:  # columns [lo, hi) where a kernel is nonzero
        cols = np.flatnonzero(np.any(self.kernels, axis=0))
        return (int(cols[0]), int(cols[-1]) + 1) if len(cols) else (0, 0)

    def __post_init__(self):  # the tables, and the lock their builds take
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_build_lock", threading.Lock())

    def table(self, key, build):
        """The value `build()` gives for `key`, built on the first call with
        that key and kept as long as the dictionary. Threads that race on
        the first use wait for one build; `build` must not call `table`."""
        value = self._tables.get(key)
        if value is None:
            with self._build_lock:
                value = self._tables.get(key)
                if value is None:
                    value = self._tables[key] = build()
        return value


@dataclass(frozen=True)
class SpectralDictionary:
    """Forward DFTs of the zero-padded kernels, for the spectral backend."""

    spectra: np.ndarray  # (num_kernels, fft_len), complex
    fft_len: int
    support: tuple[int, int]  # the Dictionary's support

    @cached_property
    def bound(self) -> np.ndarray:
        """(1 + 1e-9) |spectra| on the rfft bins, times irfft's weight per
        bin (1/n at DC and Nyquist, 2/n elsewhere): row m times |rfft(r)|
        bounds every lag of row m's correlation with r, rounding included."""
        n = self.fft_len
        weights = np.full(n // 2 + 1, 2.0 / n)
        # DC and Nyquist; for odd n there is no Nyquist bin and both are bin 0
        weights[0] = weights[n // 2 * (1 - n % 2)] = 1.0 / n
        return (1 + 1e-9) * np.abs(self.spectra[:, : n // 2 + 1]) * weights


@lru_cache(maxsize=8)
def build_dictionary(config: DictionaryConfig = DictionaryConfig()) -> Dictionary:
    """Construct the kernel bank for `config`, once per config: equal
    configs give the same read-only Dictionary (the 8 most recent are kept).

    Deterministic: equal configs produce bitwise-identical dictionaries.

    Raises
    ------
    InvalidConfig
        If the config violates its invariants or a kernel has zero energy.
    """
    config.validate()
    centers = erb_space(config.freq_lo, config.freq_hi, config.num_kernels)

    onset = config.kernel_len // 2
    n_active = config.kernel_len - onset
    t = (np.arange(n_active) + 1.0) / config.sample_rate

    # one row per kernel; each element is computed as a per-kernel loop would
    fc = centers[:, np.newaxis]
    decay = 2.0 * np.pi * BANDWIDTH_SCALE * erb_bandwidth(fc)
    env = t ** (GAMMATONE_ORDER - 1) * np.exp(-decay * t)
    kernels = np.zeros((config.num_kernels, config.kernel_len))
    kernels[:, onset:] = env * np.cos(2.0 * np.pi * fc * t)

    norms = np.linalg.norm(kernels, axis=1)
    if np.any(norms == 0.0):
        raise InvalidConfig("kernel with zero energy; check kernel_len/frequencies")
    kernels /= norms[:, np.newaxis]

    kernels.flags.writeable = False
    centers.flags.writeable = False
    return Dictionary(kernels=kernels, center_freqs=centers, config=config)


def kernel_spectra(
    dictionary: Dictionary, fft_len: int | None = None, signal_len: int | None = None
) -> SpectralDictionary:
    """Precompute kernel DFTs at `fft_len` bins, which must be 2^a or 3*2^a
    and at least `_lag_window_bound` for the kernels' nonzero columns and the
    segment width `signal_len` (default: the kernel length); by default the
    smallest such length."""
    if signal_len is None:
        signal_len = dictionary.kernel_len
    bound = _lag_window_bound(signal_len, *dictionary.support)
    if fft_len is None:
        fft_len = _fft_len(bound)
    if fft_len < bound:
        raise NumericError(f"fft_len {fft_len} below lag-window bound {bound}")
    base = fft_len // 3 if fft_len % 3 == 0 else fft_len
    if base & (base - 1) != 0:
        raise InvalidConfig(f"fft_len must be 2^a or 3*2^a, got {fft_len}")

    spectra = np.fft.fft(dictionary.kernels, n=fft_len, axis=1)
    spectra.flags.writeable = False
    return SpectralDictionary(spectra, fft_len, dictionary.support)


def _lag_window_bound(width: int, lo: int, hi: int) -> int:
    """Smallest FFT length n with no aliasing on the +/- width/2 lag window
    for kernels nonzero on columns [lo, hi): the kernel index t - tau spans
    [-width/2, 3*width/2) and must not wrap into [lo, hi); n >= hi."""
    return max(hi + width // 2, 3 * width // 2 - lo, hi)


def _fft_len(bound: int) -> int:
    """Smallest 2^a or 3*2^a at or above `bound`."""
    pow2 = 1 << (bound - 1).bit_length()
    return 3 * pow2 // 4 if 3 * pow2 // 4 >= bound else pow2


def default_fft_len(width: int, kernel_len: int) -> int:
    """Smallest 2^a or 3*2^a meeting `_lag_window_bound` for the kernels of
    `build_dictionary`, which are nonzero on [kernel_len/2, kernel_len)."""
    return _fft_len(_lag_window_bound(width, kernel_len // 2, kernel_len))


def dump_dictionary_csv(dictionary: Dictionary, fh) -> None:
    """Write one row per kernel: kernel_index,center_freq_hz,s0,s1,..."""
    cols = ",".join(f"s{i}" for i in range(dictionary.kernel_len))
    fh.write(f"kernel_index,center_freq_hz,{cols}\n")
    for i in range(dictionary.num_kernels):
        samples = ",".join(repr(float(v)) for v in dictionary.kernels[i])
        fh.write(f"{i},{repr(float(dictionary.center_freqs[i]))},{samples}\n")
