import hashlib
import io
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from spikecodec.dictionary import (
    Dictionary,
    DictionaryConfig,
    build_dictionary,
    default_fft_len,
    dump_dictionary_csv,
    kernel_spectra,
)
from spikecodec.errors import InvalidConfig, NumericError

from conftest import column_zero_dictionary


def test_reference_config_builds_40_unit_norm_kernels(full_dict):
    assert full_dict.kernels.shape == (40, 2048)
    norms = np.linalg.norm(full_dict.kernels, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    assert np.all(np.diff(full_dict.center_freqs) > 0)
    assert full_dict.center_freqs[0] >= 20.0
    assert full_dict.center_freqs[-1] <= 8000.0


def test_single_kernel_is_normalized():
    d = build_dictionary(
        DictionaryConfig(num_kernels=1, freq_lo=100.0, freq_hi=101.0, kernel_len=512)
    )
    assert abs(np.linalg.norm(d.kernels[0]) - 1.0) < 1e-12


def test_center_freqs_match_independent_erb_rate_oracle():
    # oracle: evaluate the ERB-rate formula directly at 5 equally spaced
    # points and invert it, with no reference to the module under test
    def rate(f):
        return 21.4 * np.log10(1.0 + 4.37 * f / 1000.0)

    def inv(r):
        return (10.0 ** (r / 21.4) - 1.0) * 1000.0 / 4.37

    expected = inv(np.linspace(rate(20.0), rate(3500.0), 5))
    frozen = [
        19.999999999999982,
        260.7475922497017,
        734.4201356402028,
        1666.374122242552,
        3500.0000000000005,
    ]
    assert np.allclose(expected, frozen, rtol=1e-12, atol=0.0)

    d = build_dictionary(
        DictionaryConfig(
            num_kernels=5, sample_rate=8000.0, freq_lo=20.0, freq_hi=3500.0,
            kernel_len=256,
        )
    )
    assert np.allclose(d.center_freqs, expected, rtol=1e-9)


def test_waveform_onset_sits_at_buffer_midpoint(full_dict):
    # the lead-in of zeros is what makes every negative shift a pure
    # translation of the stored samples
    onset = full_dict.config.kernel_len // 2
    assert onset == 1024
    assert not np.any(full_dict.kernels[:, :onset])
    assert np.all(np.any(full_dict.kernels[:, onset : onset + 16] != 0, axis=1))


@pytest.mark.parametrize("cfg, digest", [
    (DictionaryConfig(), "e316858c10ac17b0"),
    (DictionaryConfig(num_kernels=8, kernel_len=256), "80b7c1a9c95a2cb4"),
    (DictionaryConfig(num_kernels=12, sample_rate=22050.0, freq_lo=50.0,
                      freq_hi=11025.0, kernel_len=1000), "fc3606b9a006cba4"),
], ids=["reference", "W256-M8", "22k-L1000"])
def test_kernel_bytes_pinned(cfg, digest):
    # every code and event byte rests on these samples: a faster build must
    # leave each one as it is
    d = build_dictionary(cfg)
    assert hashlib.sha256(d.kernels.tobytes()).hexdigest()[:16] == digest


def test_build_is_deterministic():
    cfg = DictionaryConfig(num_kernels=12, kernel_len=512)
    a = build_dictionary(cfg)
    build_dictionary.cache_clear()
    b = build_dictionary(cfg)  # built again, not the memoized object
    assert a is not b
    assert a.kernels.tobytes() == b.kernels.tobytes()
    assert a.center_freqs.tobytes() == b.center_freqs.tobytes()


def test_build_is_memoized_per_config():
    cfg = DictionaryConfig(num_kernels=12, kernel_len=512)
    d = build_dictionary(cfg)
    assert build_dictionary(DictionaryConfig(num_kernels=12, kernel_len=512)) is d
    assert build_dictionary(DictionaryConfig(num_kernels=13, kernel_len=512)) is not d
    assert build_dictionary(replace(cfg, freq_lo=30.0)) is not d
    for array in (d.kernels, d.center_freqs):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_racing_threads_build_a_table_once():
    # more threads than CPUs, switching every microsecond, all asking for
    # two tables at once: each is built once and every thread gets it
    d = build_dictionary.__wrapped__(DictionaryConfig(num_kernels=4, kernel_len=64))
    builds, results, start = [], [], threading.Barrier(8)

    def build(key):
        builds.append(key)
        time.sleep(0.01)  # a slow first build, so that the others arrive
        return [key]

    def ask(key):
        start.wait(timeout=10)
        results.append((key, d.table(key, lambda: build(key))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i % 2,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(builds) == [0, 1]
    assert len(results) == 8
    assert all(value is d.table(key, list) for key, value in results)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_kernels=0),
        dict(kernel_len=0),
        dict(freq_lo=500.0, freq_hi=100.0),
        dict(freq_lo=0.0),
        dict(freq_hi=9000.0, sample_rate=16000.0),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        build_dictionary(DictionaryConfig(**kwargs))


def _delta_dictionary(length=8):
    kernels = np.zeros((1, length))
    kernels[0, 0] = 1.0
    cfg = DictionaryConfig(num_kernels=1, kernel_len=length)
    return Dictionary(kernels=kernels, center_freqs=np.array([100.0]), config=cfg)


def test_delta_kernel_has_flat_spectrum():
    sd = kernel_spectra(_delta_dictionary(), 16)
    assert np.allclose(np.abs(sd.spectra), 1.0, atol=1e-12)


def test_parseval_for_every_kernel(full_dict):
    # the rfft bins hold the whole energy of a real kernel: every bin but DC
    # and Nyquist stands for itself and its conjugate
    for fft_len in (4096, 3072):
        sd = kernel_spectra(full_dict, fft_len)
        assert sd.spectra.shape == (40, fft_len // 2 + 1)
        weights = np.full(fft_len // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        spectral_energy = np.abs(sd.spectra) ** 2 @ weights / fft_len
        assert np.max(np.abs(spectral_energy - 1.0)) < 1e-9


def test_spectra_match_naive_dft_oracle(full_dict):
    # oracle: explicit transform matrix X[k] = sum_n x[n] e^{-2pi i k n / N}
    # at the first 4096 // 2 + 1 bins, the ones kept
    sd = kernel_spectra(full_dict, 4096)
    n = np.arange(full_dict.kernel_len)
    k = np.arange(4096 // 2 + 1)
    matrix = np.exp(-2j * np.pi * np.outer(n, k) / 4096.0)
    naive = full_dict.kernels @ matrix
    scale = np.max(np.abs(naive))
    assert np.max(np.abs(sd.spectra - naive)) / scale < 1e-9


@pytest.mark.parametrize("width, fft_len", [(128, None), (256, None), (2048, None),
                                            (2048, 4096)])
def test_spectra_rows_are_fft_rows_bit_for_bit(width, fft_len):
    # fft's bins, not rfft's, which differ in the last bits and would move lags
    d = build_dictionary(DictionaryConfig(kernel_len=width))
    sd = kernel_spectra(d, fft_len)
    assert not sd.spectra.flags.writeable
    n = sd.fft_len
    for kernel, row in zip(d.kernels, sd.spectra, strict=True):
        assert row.tobytes() == np.fft.fft(kernel, n)[: n // 2 + 1].tobytes()


@pytest.mark.parametrize("width", [256, 2048])
def test_support_is_the_nonzero_column_range(width):
    # the gammatone buffer opens with W/2 zeros; the delta sits at column 0
    gammatone = build_dictionary(DictionaryConfig(num_kernels=6, kernel_len=width))
    for d, expected in ((gammatone, (width // 2, width)),
                        (_delta_dictionary(width), (0, 1))):
        nonzero = [i for i in range(width) if any(d.kernels[:, i])]
        assert d.support == (nonzero[0], nonzero[-1] + 1) == expected
        assert kernel_spectra(d, default_fft_len(width, width)).support == d.support


def test_fft_len_bounds():
    d = _delta_dictionary(length=256)
    with pytest.raises(NumericError, match="below lag-window bound"):
        kernel_spectra(d, 256)  # below the lag-window bound 3 * 256 / 2
    with pytest.raises(InvalidConfig):
        kernel_spectra(d, 600)  # neither 2^a nor 3 * 2^a
    assert default_fft_len(256, 256) == 384
    assert default_fft_len(2048, 2048) == 3072
    # no length: the smallest 2^a or 3 * 2^a at the bound of the kernels'
    # own support, 384 for the delta and 150 -> 192 for the column-zero bank
    assert kernel_spectra(d).fft_len == 384
    assert kernel_spectra(column_zero_dictionary(), signal_len=100).fft_len == 192


def test_csv_dump_round_trips_one_row(small_dict):
    buf = io.StringIO()
    dump_dictionary_csv(small_dict, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("kernel_index,center_freq_hz,s0,s1,")
    assert len(lines) == 1 + small_dict.num_kernels
    fields = lines[3].split(",")
    assert int(fields[0]) == 2
    assert float(fields[1]) == small_dict.center_freqs[2]
    row = np.array([float(v) for v in fields[2:]])
    assert np.array_equal(row, small_dict.kernels[2])
