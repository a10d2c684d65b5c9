"""Workload definitions and the seeded input generator.

Every codec flag is pinned here, so a change of a CLI default does not move a
workload. Inputs come from this file's own copy of the clip recipe, so a
change to ``spikecodec.pipeline.make_audio_clip`` does not move them either.
Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned.
"""

from __future__ import annotations

import wave
import zlib
from dataclasses import dataclass

import numpy as np

RATE = 16000
KERNELS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "cli": wav -> CLI encode -> CLI decode; "stream": library loop
    width: int
    k: int
    backend: str
    fixed: str | None  # "B:F" for the fixed-point datapath, None for float64
    files: int  # distinct input files per run; one operation is one file
    file_segments: int  # segments per input file
    parts: int  # recipe clips concatenated into one file
    silent_frac: float  # share of segments set to exact digital silence
    reference: str  # kind of reference work that scales its timings (calibrate.py)
    why: str

    @property
    def file_samples(self) -> int:
        return self.file_segments * self.width

    def codec_flags(self) -> list[str]:
        """The shared CLI flags, every one given explicitly."""
        flags = [
            "--kernels", str(KERNELS), "--fs", str(RATE),
            "--freq-lo", "20", "--freq-hi", "8000",
            "--width", str(self.width), "--k", str(self.k),
            "--threshold", "0", "--backend", self.backend,
            "--select", "abs", "--itp", "log",
        ]
        if self.fixed:
            flags += ["--fixed", self.fixed]
        return flags


WORKLOADS = (
    Workload(
        name="clip-spectral",
        path="cli", width=2048, k=16, backend="spectral", fixed=None,
        files=4, file_segments=10, parts=10, silent_frac=0.0,
        reference="spectral",
        why=(
            "The ROADMAP reference point. correlate_spectral is about 88% of "
            "encode, and 10 segments per file let across-segment parallelism "
            "show. Decode and I/O are under 1%."
        ),
    ),
    Workload(
        name="clip-fixed-direct",
        path="cli", width=512, k=16, backend="direct", fixed="34:24",
        files=6, file_segments=1, parts=1, silent_frac=0.0,
        reference="fixed",
        why=(
            "The only workload where the fixedpoint layer works. The private "
            "fixed direct correlation is about 99.8% of encode; spectral-only "
            "changes should leave it flat."
        ),
    ),
    Workload(
        name="stream-dense",
        path="stream", width=256, k=32, backend="direct", fixed=None,
        files=1, file_segments=128, parts=16, silent_frac=0.25,
        reference="direct",
        why=(
            "Bypasses encode_signal, so it is the control for across-segment "
            "parallelism and gives per-segment latency. Emit, write, parse and "
            "reconstruct are a visible share, and its silent segments show a "
            "zero-residual halt."
        ),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def clip_recipe(rng: np.random.Generator, n: int) -> np.ndarray:
    """Music-like clip: six decaying harmonic tone bursts over a low noise
    floor, scaled to a 0.9 peak."""
    t = np.arange(n) / RATE
    x = 0.01 * rng.standard_normal(n)
    for _ in range(6):
        f0 = rng.uniform(80.0, 1200.0)
        onset = rng.uniform(0.0, 0.8) * n / RATE
        amp = rng.uniform(0.1, 0.5)
        decay = rng.uniform(4.0, 20.0)
        env = np.where(t >= onset, np.exp(-np.maximum(t - onset, 0.0) * decay), 0.0)
        for harmonic in (1, 2, 3):
            x += amp / harmonic * env * np.sin(2 * np.pi * f0 * harmonic * t)
    return 0.9 * x / np.max(np.abs(x))


def make_inputs(w: Workload, seed: int) -> list[np.ndarray]:
    """The run's input files as 16-bit PCM arrays; the same seed gives the
    same arrays."""
    rng = np.random.default_rng([zlib.crc32(w.name.encode()), seed])
    part_len = w.file_samples // w.parts
    files = []
    for _ in range(w.files):
        x = np.concatenate([clip_recipe(rng, part_len) for _ in range(w.parts)])
        silent = rng.choice(
            w.file_segments, size=round(w.silent_frac * w.file_segments), replace=False
        )
        for i in silent:
            x[i * w.width : (i + 1) * w.width] = 0.0
        files.append(np.round(x * 32767.0).astype("<i2"))
    return files


def equivalence_input(seed: int, segments: int = 2) -> np.ndarray:
    """Short input at the clip-spectral operating point for the
    direct-versus-spectral self-check."""
    w = BY_NAME["clip-spectral"]
    rng = np.random.default_rng([zlib.crc32(b"equivalence"), seed])
    x = clip_recipe(rng, segments * w.width)
    return np.round(x * 32767.0).astype("<i2")


def write_wav(path: str, pcm: np.ndarray) -> None:
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(RATE)
        wf.writeframes(pcm.astype("<i2").tobytes())


def snr_parts(pcm: np.ndarray, decoded_f32: str) -> tuple[float, float]:
    """(signal energy, error energy) of a decoded float32 file against the
    wav samples the encoder read (scaled as 16-bit PCM / 32768)."""
    x = pcm.astype(np.float64) / 32768.0
    try:
        y = np.fromfile(decoded_f32, dtype="<f4").astype(np.float64)
    except OSError:  # decode failed and wrote nothing
        return float(np.sum(x * x)), float("inf")
    if y.shape != x.shape:
        return float(np.sum(x * x)), float("inf")
    return float(np.sum(x * x)), float(np.sum((x - y) ** 2))


def snr_db(signal: float, error: float) -> float:
    if error == 0.0:
        return float("inf")
    if error == float("inf") or signal == 0.0:
        return float("-inf")
    return 10.0 * float(np.log10(signal / error))
