"""Inverse transform: reconstruct a waveform from code sets.

Reconstruction linearly superposes every code's scaled shifted kernel at its
segment offset, each scaled by the code's s as given: a quantized decode
reads its codes with `pipeline.codes_from_events(..., quantized=True)`,
whose s is the fired channel's center with the raw sign.
"""

from __future__ import annotations

import numpy as np

from .dictionary import Dictionary, check_memory
from .encoder import CODE_DTYPE
from .errors import InvalidConfig, NumericError


def _checked_codes(codesets, dictionary: Dictionary, width: int, total_len: int):
    """All codes split by segment (`by_segment`). Raises NumericError for
    the first code in list order that does not fit the dictionary or the
    width, or whose segment starts at or past the output length; a segment
    that runs past it is cut there."""
    if width < 2:  # a (codes, 1) sum would run along the code axis
        raise InvalidConfig(f"width must be >= 2, got {width}")
    # a plain array of its own: field reads of a record array run Python code
    codes = np.array(codesets[0] if len(codesets) == 1 else np.concatenate(
        [np.empty(0, CODE_DTYPE), *codesets]))
    # read as unsigned, a value below a field's lower bound exceeds its upper
    u = np.uint64
    wrong = ((codes["segment_index"].view(u) >= -(-total_len // width))
             | (codes["m"].view(u) >= dictionary.num_kernels)
             | ((codes["tau"] + width // 2).view(u) > width // 2 * 2)).nonzero()[0]
    if len(wrong):
        raise NumericError(
            f"code {tuple(codes[wrong[0]].tolist())} out of range for "
            f"{dictionary.num_kernels} kernels, W={width}, {total_len} samples"
        )
    return by_segment(codes)


def by_segment(codes: np.ndarray) -> list[np.ndarray]:
    """`codes` split by segment, in segment order, each segment's codes in
    their order in `codes` (a stable sort)."""
    codes = codes[codes["segment_index"].argsort(kind="stable")]
    seg = codes["segment_index"]
    edges = [0, *((seg[1:] != seg[:-1]).nonzero()[0] + 1).tolist(), len(codes)]
    return [codes[lo:hi] for lo, hi in zip(edges, edges[1:])] if len(codes) else []


def _kernel_bank(dictionary: Dictionary, width: int) -> np.ndarray:
    """[m, W/2 - tau] = shift_kernel(kernel m, tau, width): a read-only view of
    2W-wide windows over one flat zero-padded buffer, row m's from m * pitch.
    The pitch keeps the neighbouring rows' kernels out of row m's windows, so
    that rows share their zeros."""
    kernels, half, (lo, hi) = dictionary.kernels, width // 2, dictionary.support
    hi = min(hi, half + width)  # a window reads a kernel below 3W/2 only
    pitch = max(2 * width - half - lo, half + hi)  # <= 2W: M rows fit the buffer
    flat = np.zeros((len(kernels) - 1) * pitch + 2 * width, kernels.dtype)
    flat[: len(kernels) * pitch].reshape(-1, pitch)[:, half + lo : half + hi] = (
        kernels[:, lo:hi])
    flat.flags.writeable = False  # and so is a view over it
    return np.ndarray((len(kernels), 2 * half + 1, width), flat.dtype, flat, 0,
                      (pitch * flat.itemsize, flat.itemsize, flat.itemsize))


def _atoms(codes: np.ndarray, dictionary: Dictionary, width: int) -> np.ndarray:
    """Row i: s_i * shift_kernel(kernel m_i, tau_i, width), a C-ordered gather."""
    bank = dictionary.table(("bank", width), lambda: _kernel_bank(dictionary, width))
    atoms = bank[codes["m"], width // 2 - codes["tau"]]
    atoms *= codes["s"][:, None]
    return atoms


def reconstruct(
    codesets: list[np.ndarray], dictionary: Dictionary, width: int, total_len: int
) -> np.ndarray:
    """Sum s_i * shift_kernel(kernel m_i, tau_i) at each segment offset,
    each cut at `total_len`. Each sample sums its segment's codes in list
    order from +0.0, as adding one code at a time would: a segment's scaled
    atoms are summed along the code axis, which is not the contiguous one
    (numpy sums that one pairwise), and the sum is added to the zeroed span."""
    check_memory(8 * total_len, f"{total_len} output samples")
    out = np.zeros(total_len)
    for cs in _checked_codes(codesets, dictionary, width, total_len):
        seg = int(cs["segment_index"][0])
        span = out[seg * width : (seg + 1) * width]
        span += _atoms(cs, dictionary, width).sum(axis=0)[: len(span)]
    return out


def error_curve(
    x: np.ndarray, codesets: list[np.ndarray], dictionary: Dictionary, width: int
) -> list[tuple[int, float]]:
    """L2 error after keeping only the first k codes of every segment,
    for k = 1..max codes per segment. A last segment shorter than `width`
    is compared over its own samples.

    Computed by running the subtractions in emission order, one rank (a
    code's position in its segment) at a time across all segments, so the
    curve reproduces the encoder's own residual trajectory.
    """
    x = np.asarray(x, dtype=np.float64)
    segments = _checked_codes(codesets, dictionary, width, len(x))
    residual = np.zeros(-(-len(x) // width) * width)
    residual[: len(x)] = x
    curve = []
    for k in range(max(map(len, segments), default=0)):
        c = np.concatenate([cs[k : k + 1] for cs in segments])  # k-th of each
        residual.reshape(-1, width)[c["segment_index"]] -= _atoms(c, dictionary, width)
        curve.append((k + 1, float(np.linalg.norm(residual[: len(x)]))))
    return curve
