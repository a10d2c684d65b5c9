import math

import numpy as np
import pytest

from spikecodec.errors import InvalidConfig, ZeroIntensity
from spikecodec.spikecoder import (
    DEFAULT_CENTERS,
    build_channel_table,
    emit_stream,
    nearest_level,
)

from conftest import codes


def one_event(m, s, table, width):
    """The event of a single code (segment 0, tau 0)."""
    (event,) = emit_stream([codes((0, m, 0, s))], table, width)
    return event


def brute_nearest_log_center(intensity, centers):
    best, best_dist = 0, None
    for level, c in enumerate(centers):
        dist = abs(math.log(abs(intensity)) - math.log(c))
        if best_dist is None or dist < best_dist:
            best, best_dist = level, dist
    return best


def test_default_table_has_120_channels():
    table = build_channel_table(40)
    assert table.total_channels == 120
    assert table.levels == 3


def test_channel_ids_enumerate_kernel_major():
    table = build_channel_table(3)
    assert table.total_channels == 9
    seen = set()
    for m in range(3):
        for level, center in enumerate(DEFAULT_CENTERS):
            event = one_event(m, center, table, width=64)
            assert event.channel == m * 3 + level
            seen.add(event.channel)
    assert seen == set(range(9))


def test_center_intensity_maps_to_its_level():
    table = build_channel_table(40)
    event = one_event(0, 0.4115, table, width=2048)
    assert (event.level, event.channel) == (1, 1)
    assert one_event(0, 0.0065, table, width=2048).level == 0


def test_zero_intensity_raises():
    table = build_channel_table(4)
    with pytest.raises(ZeroIntensity):
        nearest_level(0.0, table)


def test_log_sweep_matches_brute_force_scan():
    table = build_channel_table(40)
    for s in np.logspace(-4, 2, 1000):
        assert nearest_level(s, table) == brute_nearest_log_center(s, DEFAULT_CENTERS)
        assert nearest_level(-s, table) == nearest_level(s, table)


def test_level_never_decreases_with_intensity():
    table = build_channel_table(40)
    levels = [nearest_level(s, table) for s in np.logspace(-5, 3, 500)]
    assert all(b >= a for a, b in zip(levels, levels[1:]))


def test_linear_metric_differs_where_expected():
    table = build_channel_table(40)
    # 0.05: log-nearest is the lowest center, linear-nearest is 0.0065 too;
    # 0.25 sits linearly nearest 0.4115 but check both rules stay consistent
    for s in (0.05, 0.25, 3.0):
        lin = nearest_level(s, table, metric="linear")
        expected = int(np.argmin([abs(s - c) for c in DEFAULT_CENTERS]))
        assert lin == expected


def test_unknown_metric_raises():
    # any metric but "log" used to mean linear without a word
    table = build_channel_table(40)
    for call in (lambda: nearest_level(0.4, table, metric="lgo"),
                 lambda: emit_stream([codes((0, 1, 0, 0.4))], table, 64, "lgo"),
                 lambda: emit_stream([], table, 64, "Log")):
        with pytest.raises(InvalidConfig, match="unknown itp metric"):
            call()


def test_empty_codesets_give_empty_stream():
    table = build_channel_table(40)
    assert len(emit_stream([], table, width=2048)) == 0
    assert len(emit_stream([codes()], table, width=2048)) == 0


def test_single_code_event_time_and_channel():
    table = build_channel_table(40)
    stream = emit_stream(
        [codes((0, 9, -40, 3.0))],
        table,
        width=2048,
    )
    assert len(stream) == 1
    event = stream[0]
    assert event.t == 984  # 0*2048 + 1024 - 40
    assert event.level == brute_nearest_log_center(3.0, DEFAULT_CENTERS) == 1
    assert event.channel == 9 * 3 + 1 == 28


def test_equal_times_ordered_by_channel():
    table = build_channel_table(40)
    stream = emit_stream([codes((0, 5, 0, 1.0), (0, 1, 0, 1.0))], table, width=64)
    assert [e.t for e in stream] == [32, 32]
    assert [e.channel for e in stream] == sorted(e.channel for e in stream)


def test_stream_sorted_and_conserves_nonzero_codes():
    rng = np.random.default_rng(0)
    table = build_channel_table(8)
    codesets = []
    nonzero = 0
    for seg in range(4):
        rows = []
        for _ in range(10):
            s = float(rng.choice([0.0, rng.lognormal()]))
            nonzero += s != 0.0
            rows.append((seg, int(rng.integers(8)), int(rng.integers(-32, 33)), s))
        codesets.append(codes(*rows))
    stream = emit_stream(codesets, table, width=64)
    assert len(stream) == nonzero
    keys = [(e.t, e.channel) for e in stream]
    assert keys == sorted(keys)
    assert all(0 <= e.channel < table.total_channels for e in stream)
    assert all(
        e.channel == e.m * table.levels + e.level for e in stream
    )


def test_emit_stream_matches_per_code_reference():
    # the per-code mapping emit_stream replaced: nearest log center by a
    # scan, t = segment * W + W/2 + tau, then a stable sort on (t, channel)
    rng = np.random.default_rng(1)
    table = build_channel_table(8)
    width = 64
    codesets = [
        codes(*[(seg, int(rng.integers(8)), int(rng.integers(-2, 3)),
                 float(rng.choice([-1.0, 1.0]) * rng.lognormal(0.0, 3.0)))
                for _ in range(12)])
        for seg in range(3)
    ]
    reference = []
    for cs in codesets:
        for seg, m, tau, s in cs.tolist():
            level = brute_nearest_log_center(s, DEFAULT_CENTERS)
            reference.append((seg * width + width // 2 + tau, m * 3 + level, m,
                              level, DEFAULT_CENTERS[level], s))
    reference.sort(key=lambda ev: ev[:2])
    assert emit_stream(codesets, table, width).tolist() == reference
