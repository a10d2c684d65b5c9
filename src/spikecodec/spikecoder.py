"""Intensity-to-place coding.

Each kernel owns N output channels ("fibres") with fixed center intensities.
A code fires the channel whose center is nearest to the code's intensity
magnitude, so intensity is conveyed by which channel spikes rather than by
an analog value. Event time is the absolute sample position of the shifted
kernel: segment_index * W + W/2 + tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import CODE_DTYPE
from .errors import InvalidCenters, InvalidConfig, ZeroIntensity

# three logarithmically distributed per-kernel center intensities
DEFAULT_CENTERS = (0.0065, 0.4115, 25.8744)


@dataclass(frozen=True)
class ChannelTable:
    centers: tuple[float, ...]
    num_kernels: int

    @property
    def levels(self) -> int:
        return len(self.centers)

    @property
    def total_channels(self) -> int:
        return self.num_kernels * self.levels


# one spike per row, in event-file column order; `raw_intensity` is the signed
# s of the originating code and `channel` is m * N + level
EVENT_DTYPE = np.dtype([
    ("t", np.int64),  # absolute time in samples
    ("channel", np.int64),
    ("m", np.int64),  # kernel index
    ("level", np.int64),  # 0..N-1
    ("magnitude_level_center", np.float64),
    ("raw_intensity", np.float64),
])


def build_channel_table(num_kernels: int) -> ChannelTable:
    """`num_kernels` kernels of `DEFAULT_CENTERS` levels each."""
    if num_kernels < 1:
        raise InvalidCenters(f"need at least one kernel, got {num_kernels}")
    return ChannelTable(centers=DEFAULT_CENTERS, num_kernels=num_kernels)


def nearest_level(intensity, table: ChannelTable, metric: str = "log"):
    """Index of the center nearest |intensity|, per element for an array;
    ties go to the lower level.

    `metric="log"` measures distance between log-magnitudes (the natural
    choice for logarithmically spaced centers); `metric="linear"` compares
    plain differences for low-precision hardware mimicry; any other metric
    raises InvalidConfig.
    """
    if metric not in ("log", "linear"):
        raise InvalidConfig(f"unknown itp metric {metric!r}")
    mag = np.abs(np.asarray(intensity, dtype=np.float64))
    if np.any(mag == 0.0):
        raise ZeroIntensity("zero intensity maps to no spike")
    centers = np.asarray(table.centers)
    if metric == "log":
        dist = np.abs(np.log(mag)[..., None] - np.log(centers))
    else:
        dist = np.abs(mag[..., None] - centers)
    return np.argmin(dist, axis=-1)


def emit_stream(
    codesets: list[np.ndarray], table: ChannelTable, width: int, metric: str = "log"
) -> np.recarray:
    """Serialize per-segment code arrays to a deterministic (t, channel)-ordered
    EVENT_DTYPE record array; codes with equal (t, channel) keep their order.

    Zero-intensity codes emit nothing.
    """
    codes = np.concatenate([np.empty(0, CODE_DTYPE), *codesets])
    codes = codes[codes["s"] != 0.0]
    level = nearest_level(codes["s"], table, metric)
    events = np.empty(len(codes), EVENT_DTYPE).view(np.recarray)
    events.t = codes["segment_index"] * width + width // 2 + codes["tau"]
    events.channel = codes["m"] * table.levels + level
    events.m = codes["m"]
    events.level = level
    events.magnitude_level_center = np.asarray(table.centers)[level]
    events.raw_intensity = codes["s"]
    return events[np.lexsort((events.channel, events.t))]
