"""Two's-complement fixed-point arithmetic emulation.

Models the encoder's hardware datapath: a 34-bit signed word with 24
fractional bits by default, round-to-nearest-even at every rescale, and
saturating (or optionally wrapping) overflow. The helpers work on int64
raw arrays and are used by the encoder's fixed mode: B <= 53 keeps every
raw value an exact float, and B + F <= 62 every raw value times a kernel
tap |k| <= 1.0 within 2^61. The bit-level reference they are checked
against, a scalar chain on exact Python integers, lives in
tests/test_fixedpoint.py.

Accumulation order is ascending sample index throughout, so results are
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig


@dataclass(frozen=True)
class FixedFormat:
    total_bits: int = 34
    frac_bits: int = 24
    overflow: str = "saturate"  # or "wrap"

    def __post_init__(self):
        if not (0 < self.frac_bits < self.total_bits <= 53
                and self.total_bits + self.frac_bits <= 62):
            raise InvalidConfig(
                f"need 0 < frac_bits < total_bits <= 53 and total_bits + frac_bits "
                f"<= 62, got TOTAL:FRAC {self.total_bits}:{self.frac_bits}"
            )
        if self.overflow not in ("saturate", "wrap"):
            raise InvalidConfig(f"unknown overflow policy {self.overflow!r}")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1


@dataclass
class SaturationStats:
    """Overflow events are silent; they are only tallied here."""

    saturations: int = 0
    wraps: int = 0


# ----- helpers on int64 raw arrays -----

def quantize_array(
    x: np.ndarray, fmt: FixedFormat, stats: SaturationStats | None = None
) -> np.ndarray:
    """Round-to-nearest-even of x * 2**frac_bits as int64 raw values, overflow
    per format policy, counted in `stats`. Never raises: NaN quantizes to
    zero; x * 2**frac_bits = +/-inf is raw_max + 1 or raw_min - 1, and so
    saturates, or wraps to the far end. A value past the word stays past it
    on its way into int64, so that `apply_overflow_array` counts it: clipped
    to one step past the word, or, under wrap, moved from |x 2^F| >= 2^B
    into [2^B, 2^(B+1)) with its sign and its residue mod 2^B (np.fmod is
    exact)."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = fmt.raw_min - 1, fmt.raw_max + 1  # exact floats below 2^53
    if fmt.overflow == "saturate":
        # clip first, so that the product cannot overflow: exact scaling by
        # 2^F commutes with the clip and with rint
        scaled = np.rint(np.clip(x, lo / fmt.scale, hi / fmt.scale) * fmt.scale)
        scaled = np.where(np.isnan(scaled), 0.0, scaled)
    else:
        with np.errstate(over="ignore"):  # past the float: inf, then hi or lo
            scaled = np.nan_to_num(np.rint(x * fmt.scale), nan=0.0, posinf=hi, neginf=lo)
        span = 2.0 ** fmt.total_bits
        scaled = np.where(np.abs(scaled) < span, scaled,
                          np.fmod(scaled, span) + np.copysign(span, scaled))
    return apply_overflow_array(scaled.astype(np.int64), fmt, stats)


def dequantize_array(raw: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    # exact: every raw value is below 2**53
    return raw.astype(np.float64) / fmt.scale


def apply_overflow_array(
    raw: np.ndarray, fmt: FixedFormat, stats: SaturationStats | None = None
) -> np.ndarray:
    over = (raw > fmt.raw_max) | (raw < fmt.raw_min)
    if not over.any():
        return raw
    n = int(np.count_nonzero(over))
    if fmt.overflow == "saturate":
        if stats is not None:
            stats.saturations += n
        return np.clip(raw, fmt.raw_min, fmt.raw_max)
    if stats is not None:
        stats.wraps += n
    span = 1 << fmt.total_bits
    return (raw - fmt.raw_min) % span + fmt.raw_min


def rescale_half_even_array(products: np.ndarray, frac_bits: int) -> np.ndarray:
    """Round-to-nearest-even of p / 2**frac_bits over an int64 product array.

    Computes (p + half - 1 + ((p >> f) & 1)) >> f: adding half - 1 rounds
    every remainder above half up, and the quotient's low bit adds the one
    more needed to lift an exact half to the even neighbour. Exact for
    |p| < 2**62, as is every product of a raw value and a kernel tap.
    """
    out = products >> frac_bits  # arithmetic shift == floor division
    out &= 1
    out += (1 << (frac_bits - 1)) - 1
    out += products
    out >>= frac_bits
    return out


def parse_format(text: str) -> FixedFormat:
    """Parse the CLI syntax 'TOTAL:FRAC', e.g. '34:24'."""
    try:
        total, frac = text.split(":")
        total_bits, frac_bits = int(total), int(frac)
    except ValueError:
        raise InvalidConfig(
            f"bad fixed-point format {text!r}, want TOTAL:FRAC"
        ) from None
    return FixedFormat(total_bits=total_bits, frac_bits=frac_bits)
