"""Two's-complement fixed-point arithmetic emulation.

Models the encoder's hardware datapath: a 34-bit signed word with 24
fractional bits by default, round-to-nearest-even at every rescale, and
saturating (or optionally wrapping) overflow. Scalar ops (`quantize`,
`macc`, `fixed_dot`) use exact Python integers and are the bit-level
reference; the `*_array` helpers are their int64 equivalents, used by the
encoder's fixed mode: B <= 53 keeps every raw value an exact float, and
B + F <= 62 every raw value times a kernel tap |k| <= 1.0 within 2^61.

Accumulation order is ascending sample index throughout, so results are
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig


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

    @property
    def lsb(self) -> float:
        return 2.0 ** (-self.frac_bits)


@dataclass(frozen=True)
class FixedValue:
    raw: int
    fmt: FixedFormat

    def __post_init__(self):
        if not self.fmt.raw_min <= self.raw <= self.fmt.raw_max:
            raise InvalidConfig(
                f"raw {self.raw} outside {self.fmt.total_bits}-bit range"
            )


@dataclass
class SaturationStats:
    """Overflow events are silent; they are only tallied here."""

    saturations: int = 0
    wraps: int = 0


def _round_half_even(numer: int, frac_bits: int) -> int:
    """Round-to-nearest-even of numer / 2**frac_bits, exact integer math."""
    q, r = divmod(numer, 1 << frac_bits)
    half = 1 << (frac_bits - 1)
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def _apply_overflow(raw: int, fmt: FixedFormat, stats: SaturationStats | None) -> int:
    if fmt.raw_min <= raw <= fmt.raw_max:
        return raw
    if fmt.overflow == "saturate":
        if stats is not None:
            stats.saturations += 1
        return fmt.raw_max if raw > fmt.raw_max else fmt.raw_min
    if stats is not None:
        stats.wraps += 1
    span = 1 << fmt.total_bits
    return (raw - fmt.raw_min) % span + fmt.raw_min


def quantize(
    x: float, fmt: FixedFormat = FixedFormat(), stats: SaturationStats | None = None
) -> FixedValue:
    """Round-to-nearest-even of x * 2**frac_bits, overflow per format policy.

    Never raises: NaN quantizes to zero; x * 2**frac_bits = +/-inf is
    raw_max + 1 or raw_min - 1, and so saturates, or wraps to the far end.
    """
    x = float(x)
    if x != x:  # NaN
        return FixedValue(raw=0, fmt=fmt)
    scaled = x * fmt.scale  # power-of-two scaling is exact in binary fp
    if scaled == float("inf"):
        raw = _apply_overflow(fmt.raw_max + 1, fmt, stats)
    elif scaled == float("-inf"):
        raw = _apply_overflow(fmt.raw_min - 1, fmt, stats)
    else:
        raw = _apply_overflow(round(scaled), fmt, stats)
    return FixedValue(raw=raw, fmt=fmt)


def dequantize(v: FixedValue) -> float:
    return v.raw / v.fmt.scale


def macc(
    acc: FixedValue,
    a: FixedValue,
    b: FixedValue,
    stats: SaturationStats | None = None,
) -> FixedValue:
    """acc + a*b, product rescaled to frac_bits with round-to-nearest-even.

    All three operands must share one format. Uses exact integer arithmetic;
    overflow of the accumulate follows the format policy.
    """
    if not (acc.fmt == a.fmt == b.fmt):
        raise DimensionMismatch("macc operands must share one FixedFormat")
    term = _round_half_even(a.raw * b.raw, acc.fmt.frac_bits)
    raw = _apply_overflow(acc.raw + term, acc.fmt, stats)
    return FixedValue(raw=raw, fmt=acc.fmt)


# ----- vectorized helpers (int64 raw arrays) -----

def quantize_array(
    x: np.ndarray, fmt: FixedFormat, stats: SaturationStats | None = None
) -> np.ndarray:
    """Vectorized `quantize`: the same raw values, as int64, and counts. A
    value past the word stays past it on its way into int64, so that
    `apply_overflow_array` counts it: clipped to one step past the word, or,
    under wrap, moved from |x 2^F| >= 2^B into [2^B, 2^(B+1)) with its sign
    and its residue mod 2^B (np.fmod is exact)."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = fmt.raw_min - 1, fmt.raw_max + 1  # exact floats below 2^53
    if fmt.overflow == "saturate":
        # clip first, so that the product cannot overflow: exact scaling by
        # 2^F commutes with the clip and with rint
        scaled = np.rint(np.clip(x, lo / fmt.scale, hi / fmt.scale) * fmt.scale)
        scaled = np.where(np.isnan(scaled), 0.0, scaled)
    else:
        with np.errstate(over="ignore"):  # past the float: inf, as in quantize
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
    """Vectorized `_round_half_even` over an int64 product array.

    Computes (p + half - 1 + ((p >> f) & 1)) >> f: adding half - 1 rounds
    every remainder above half up, and the quotient's low bit adds the one
    more needed to lift an exact half to the even neighbour. Exact for
    |p| < 2**62: every product of a raw value and a kernel tap, and
    `fixed_dot`'s products under its headroom test.
    """
    out = products >> frac_bits  # arithmetic shift == floor division
    out &= 1
    out += (1 << (frac_bits - 1)) - 1
    out += products
    out >>= frac_bits
    return out


def fixed_dot(
    a_raw: np.ndarray,
    b_raw: np.ndarray,
    fmt: FixedFormat,
    stats: SaturationStats | None = None,
) -> int:
    """Dot product with per-term rescale and per-step accumulate overflow.

    Fast path: exact int64 products and a cumulative-sum overflow check.
    Falls back to the scalar `macc` chain when int64 headroom is insufficient
    or any running sum leaves the representable range (per-step saturation
    then matters).
    """
    a_raw = np.asarray(a_raw, dtype=np.int64)
    b_raw = np.asarray(b_raw, dtype=np.int64)
    if a_raw.shape != b_raw.shape:
        raise DimensionMismatch("fixed_dot operands must have equal length")
    if a_raw.size == 0:
        return 0
    # not np.abs, which leaves int64's minimum negative
    amax = max(int(a_raw.max()), -int(a_raw.min()))
    bmax = max(int(b_raw.max()), -int(b_raw.min()))
    if amax == 0 or bmax == 0:
        return 0
    if amax * bmax < (1 << 62) // a_raw.size:
        terms = rescale_half_even_array(a_raw * b_raw, fmt.frac_bits)
        running = np.cumsum(terms)
        if fmt.raw_min <= int(running.min()) and int(running.max()) <= fmt.raw_max:
            return int(running[-1])
    acc = FixedValue(0, fmt)
    for ai, bi in zip(a_raw.tolist(), b_raw.tolist()):
        acc = macc(acc, FixedValue(ai, fmt), FixedValue(bi, fmt), stats)
    return acc.raw


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
