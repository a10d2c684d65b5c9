"""Inverse transform: reconstruct a waveform from code sets.

Reconstruction linearly superposes every code's scaled shifted kernel at its
segment offset. By default the raw signed intensities are used; quantized
mode substitutes the intensity-to-place center for each magnitude (keeping
the sign), which exposes the information lost in the spike representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .encoder import shift_kernel
from .errors import CodeOutOfBounds, InvalidConfig, LengthMismatch, NumericError
from .spikecoder import ChannelTable, nearest_level


@dataclass
class ReconstructionReport:
    l2_error: float
    snr_db: float


def _checked_codes(
    codesets: list[np.ndarray],
    dictionary: Dictionary,
    width: int,
    total_len: int,
    quantized: bool,
    table: ChannelTable | None,
    metric: str,
) -> list[tuple]:
    """All codes in segment order as (segment_index, m, tau, s) tuples of
    Python numbers, with s replaced in quantized mode by its channel center
    (keeping the sign). Raises CodeOutOfBounds for a code that does not fit
    the dictionary or the width, or whose segment starts at or past the
    output length; a segment that runs past it is cut there."""
    if quantized and table is None:
        raise InvalidConfig("quantized reconstruction needs a ChannelTable")
    rows = []
    for cs in codesets:
        for seg, m, tau, s in cs.tolist():
            if not (0 <= m < dictionary.num_kernels and abs(tau) <= width // 2
                    and 0 <= seg and seg * width < total_len):
                raise CodeOutOfBounds(
                    f"code {(seg, m, tau, s)} out of range for "
                    f"{dictionary.num_kernels} kernels, W={width}, {total_len} samples"
                )
            if quantized and s != 0.0:
                s = math.copysign(table.centers[nearest_level(s, table, metric)], s)
            rows.append((seg, m, tau, s))
    return rows


def reconstruct(
    codesets: list[np.ndarray],
    dictionary: Dictionary,
    width: int,
    total_len: int,
    quantized: bool = False,
    table: ChannelTable | None = None,
    metric: str = "log",
) -> np.ndarray:
    """Sum s_i * shift_kernel(kernel m_i, tau_i) at each segment offset,
    each cut at `total_len`.

    One code at a time, in segment order: `np.add.at` over all codes gives
    the same sums but is several times slower."""
    try:
        out = np.zeros(total_len)
    except MemoryError:
        raise NumericError(f"cannot allocate {total_len} output samples") from None
    for seg, m, tau, s in _checked_codes(
        codesets, dictionary, width, total_len, quantized, table, metric
    ):
        span = out[seg * width : (seg + 1) * width]
        span += (s * shift_kernel(dictionary.kernels[m], tau, width))[: len(span)]
    return out


def reconstruction_error(x: np.ndarray, x_hat: np.ndarray) -> ReconstructionReport:
    """L2 error and SNR of a reconstruction against the reference signal."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise LengthMismatch(f"length mismatch: {x.shape} vs {x_hat.shape}")
    err = float(np.linalg.norm(x - x_hat))
    ref = float(np.linalg.norm(x))
    if err == 0.0:
        snr = math.inf
    elif ref == 0.0:
        snr = -math.inf
    else:
        snr = 20.0 * math.log10(ref / err)
    return ReconstructionReport(l2_error=err, snr_db=snr)


def error_curve(
    x: np.ndarray,
    codesets: list[np.ndarray],
    dictionary: Dictionary,
    width: int,
    quantized: bool = False,
    table: ChannelTable | None = None,
    metric: str = "log",
) -> list[tuple[int, float]]:
    """L2 error after keeping only the first k codes of every segment,
    for k = 1..max codes per segment. A last segment shorter than `width`
    is compared over its own samples.

    Computed by running the subtractions in emission order, so the curve
    reproduces the encoder's own residual trajectory.
    """
    x = np.asarray(x, dtype=np.float64)
    codes = _checked_codes(
        codesets, dictionary, width, len(x), quantized, table, metric
    )
    # each code's position in its segment: the k-th codes go in together
    rank = [k for cs in codesets for k in range(len(cs))]
    residual = x.copy()
    curve = []
    for k in range(max(rank, default=-1) + 1):
        for (seg, m, tau, s), r in zip(codes, rank):
            if r == k:
                span = residual[seg * width : (seg + 1) * width]
                span -= (s * shift_kernel(dictionary.kernels[m], tau, width))[
                    : len(span)]
        curve.append((k + 1, float(np.linalg.norm(residual))))
    return curve

