import os

import numpy as np
import pytest

import spikecodec
from spikecodec.dictionary import (
    Dictionary,
    DictionaryConfig,
    build_dictionary,
    default_fft_len,
    kernel_spectra,
)
from spikecodec.encoder import CODE_DTYPE, _lag_transform
from spikecodec.evaluate import MlpModel
from spikecodec.spikecoder import EVENT_DTYPE


def codes(*rows):
    """One segment's code array from (segment_index, m, tau, s) rows."""
    return np.array(list(rows), CODE_DTYPE).view(np.recarray)


def spectral_surface(x, sdict):
    """The spectral backend's full (kernels, W + 1) surface of `x`, every
    row transformed: what `correlate_spectral` keeps rows of."""
    return _lag_transform(x, sdict)[1](slice(None))


def column_zero_dictionary():
    """5 seeded unit-norm kernels of length 60, nonzero from column 0 on: at
    W=100 they need 150 FFT points, where `default_fft_len` gives the
    gammatone layout's 128."""
    length, rng = 60, np.random.default_rng(60)
    kernels = rng.standard_normal((5, length)) * np.exp(-np.arange(length) / 15)
    kernels /= np.linalg.norm(kernels, axis=1)[:, None]
    return Dictionary(kernels, np.arange(1.0, 6.0), DictionaryConfig(
        num_kernels=5, kernel_len=length))


def small_mlp(sizes, seed):
    """An MlpModel with the given layer sizes, smaller than `init_mlp`'s
    fixed hidden layers: fan-in-scaled uniform weights, seeded, zero biases."""
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-1 / np.sqrt(a), 1 / np.sqrt(a), (a, b))
               for a, b in zip(sizes, sizes[1:])]
    return MlpModel(weights, [np.zeros(b) for b in sizes[1:]])


def events(*rows):
    """An event array from (t, channel, m, level, magnitude_level_center,
    raw_intensity) rows."""
    return np.array(list(rows), EVENT_DTYPE).view(np.recarray)


@pytest.fixture(scope="session", autouse=True)
def cli_subprocess_imports_this_package():
    """CLI tests run `python -m spikecodec.cli` in a subprocess: give it the
    package these tests import, also when only pytest's `pythonpath` finds
    it."""
    src = os.path.dirname(os.path.dirname(spikecodec.__file__))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def small_dict():
    """8 kernels, W=256: fast enough for exhaustive oracles."""
    return build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=256))


@pytest.fixture(scope="session")
def small_sdict(small_dict):
    return kernel_spectra(small_dict, default_fft_len(256, 256))


@pytest.fixture(scope="session")
def full_dict():
    """The reference operating point: 40 kernels, W=2048, 20 Hz - 8 kHz."""
    return build_dictionary(DictionaryConfig())


@pytest.fixture(scope="session")
def full_sdict(full_dict):
    return kernel_spectra(full_dict, default_fft_len(2048, 2048))


def max_in_support_shift(kernel: np.ndarray, tol: float = 1e-14) -> int:
    """Largest positive shift that discards only negligible stored energy.

    Negative shifts never discard stored samples (the waveform onset sits at
    the buffer midpoint), so the in-support range is [-W//2, this value].
    """
    tail_energy = np.cumsum(kernel[::-1] ** 2)[::-1]
    significant = np.nonzero(tail_energy > tol)[0]
    last = significant[-1] if len(significant) else -1
    return len(kernel) - 1 - int(last)
