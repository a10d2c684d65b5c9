"""Reference work: a fixed piece of numpy arithmetic, timed between the
benchmark's operations, that puts every timing on one host-speed scale.

The reference host is a VM on shared physical cores. Its speed drifts by up
to 1.5x over minutes as its neighbours load the same cores and caches, and a
run of one workload is slower or faster as a whole. The reference work slows
down with it. A timing multiplied by ``REFERENCE_S[kind] / t_ref``, where
``t_ref`` is the reference work's time just before and just after it, is the
time the same step would have taken on the reference host at the speed it
had when ``REFERENCE_S`` was measured.

Each workload has its own kind of reference work, modelled on the step that
dominates its encode, with the same array shapes. It is then slowed by the
same contention (for cores, cache or memory bandwidth) as the codec. Its
arrays are no larger than the codec's own, so ``peak_rss_mb`` does not move.
The work imports nothing from spikecodec, so a change to the codec cannot
move it.

- ``spectral``: complex FFT correlation of one 2048-sample residual with
  kernel spectra of length 4096, ten at a time (``correlate_spectral`` at
  W=2048 does 40 at a time; ten keep the reference work's arrays small).
- ``fixed``: int64 products of 513 x 512 sliding windows with a kernel row,
  round-half-even rescale, running sums and range checks (the fixed-point
  direct correlation at W=512).
- ``direct``: a Python loop of small steps, each a 257 x 256 window view
  times 40 kernels, an arg-max and a shifted subtraction (one pursuit
  iteration of the float direct backend at W=256).
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# seconds one pass of each kind typically takes on the reference host (2-vCPU
# VM, Intel Xeon at 2.0 GHz, numpy 2.4 with scipy-openblas 0.3.31 on one
# thread); they set the scale of the reported times, not their spread
REFERENCE_S = {"spectral": 0.022, "fixed": 0.026, "direct": 0.013}


def clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU seconds since `start`."""
    wall, cpu = clocks()
    return wall - start[0], cpu - start[1]


def fill(shape: tuple[int, ...], step: float) -> np.ndarray:
    """Fixed data, not numpy.random: loading that module would add its code
    to the memory of the process that is measured."""
    return np.sin(step * np.arange(int(np.prod(shape)))).reshape(shape)


def spectral_pass(reps: int = 24) -> tuple[float, float]:
    spectra = np.fft.fft(fill((10, 2048), 0.37), n=4096, axis=1)
    residual = fill((2048,), 0.11)
    lags = np.arange(-1024, 1025) % 4096
    start = clocks()
    for _ in range(reps):
        spectrum = np.fft.fft(residual, n=4096)
        full = np.fft.ifft(spectrum[np.newaxis, :] * np.conj(spectra), axis=1).real
        surface = np.ascontiguousarray(full[:, lags])
        np.argmax(np.abs(surface))
    return since(start)


def fixed_pass(reps: int = 6) -> tuple[float, float]:
    resid = (fill((512,), 0.23) * (1 << 23)).astype(np.int64)
    kernels = (fill((reps, 512), 0.53) * (1 << 23)).astype(np.int64)
    padded = np.concatenate([np.zeros(256, np.int64), resid, np.zeros(512, np.int64)])
    windows = sliding_window_view(padded, 512)[:513]
    frac, half, limit = 24, 1 << 23, 1 << 33
    start = clocks()
    for krow in kernels:
        products = windows * krow
        q = products >> frac
        r = products & ((1 << frac) - 1)
        terms = q + ((r > half) | ((r == half) & ((q & 1) == 1)))
        running = np.cumsum(terms, axis=1)
        over = (running.max(axis=1) > limit) | (running.min(axis=1) < -limit)
        np.any(over)
    return since(start)


def direct_pass(reps: int = 40) -> tuple[float, float]:
    kernels = fill((40, 256), 0.71)
    resid = fill((256,), 0.29)
    start = clocks()
    for _ in range(reps):
        padded = np.concatenate([np.zeros(128), resid, np.zeros(256)])
        windows = sliding_window_view(padded, 256)[:257]
        values = np.ascontiguousarray((windows @ kernels.T).T)
        m, j = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
        shifted = np.zeros(256)
        lo = max(0, int(j) - 128)
        shifted[lo:] = kernels[int(m)][: 256 - lo]
        resid = resid - 1e-3 * float(values[m, j]) * shifted
    return since(start)


PASSES = {"spectral": spectral_pass, "fixed": fixed_pass, "direct": direct_pass}


class HostSpeed:
    """Scale factors for consecutive timed steps of one workload. Call
    `scale()` after each step: it times the reference work (two passes) and
    returns REFERENCE_S over the mean of the reference times on either side
    of the step, once for wall time and once for CPU time."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.one_pass = PASSES[kind]
        self.one_pass()  # warm caches and the FFT plan
        self.last = self.seconds()

    def seconds(self) -> tuple[float, float]:
        """Wall and CPU time of one pass, each the mean of two passes: the
        codec's steps are timed whole, with any time the host took from
        them, and so is the reference work."""
        (wall1, cpu1), (wall2, cpu2) = self.one_pass(), self.one_pass()
        return (wall1 + wall2) / 2.0, (cpu1 + cpu2) / 2.0

    def scale(self) -> tuple[float, float]:
        """Factors for the wall time and the CPU time of the step just done."""
        now = self.seconds()
        ref = REFERENCE_S[self.kind]
        (wall0, cpu0), (wall1, cpu1) = self.last, now
        self.last = now
        return ref / ((wall0 + wall1) / 2.0), ref / ((cpu0 + cpu1) / 2.0)
