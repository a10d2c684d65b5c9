"""Time for a fresh process to be ready to encode: import spikecodec, build
the dictionary and, for the spectral backend, the kernel spectra.

    python3 setup_probe.py WIDTH SPECTRAL(0|1)

Prints the seconds taken. Nothing is imported before the clock starts.
"""

import sys
import time


def main(width: int, spectral: bool) -> float:
    start = time.perf_counter()
    import spikecodec
    from spikecodec.dictionary import default_fft_len, kernel_spectra

    d = spikecodec.build_dictionary(spikecodec.DictionaryConfig(
        num_kernels=40, sample_rate=16000.0, freq_lo=20.0, freq_hi=8000.0,
        kernel_len=width,
    ))
    if spectral:
        kernel_spectra(d, default_fft_len(width, d.kernel_len), signal_len=width)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(int(sys.argv[1]), sys.argv[2] == "1")))
