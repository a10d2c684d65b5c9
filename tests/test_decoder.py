import math

import numpy as np
import pytest

from spikecodec.decoder import (
    error_curve,
    reconstruct,
    reconstruction_error,
)
from spikecodec.encoder import EncoderConfig, Segment, encode_segment, shift_kernel
from spikecodec.errors import CodeOutOfBounds, LengthMismatch
from spikecodec.pipeline import encode_signal, make_audio_clip
from spikecodec.spikecoder import build_channel_table

from conftest import codes


def test_empty_codesets_reconstruct_to_silence(small_dict):
    out = reconstruct([], small_dict, width=256, total_len=1024)
    assert out.shape == (1024,)
    assert not np.any(out)


def test_encode_reconstruct_round_trip(full_dict):
    x = 3.0 * shift_kernel(full_dict.kernels[9], -40, 2048)
    cfg = EncoderConfig(max_codes=4, halt_threshold=1e-6, width=2048)
    codeset = encode_segment(Segment(x), full_dict, cfg=cfg)
    x_hat = reconstruct([codeset], full_dict, width=2048, total_len=2048)
    assert np.linalg.norm(x - x_hat) < 1e-6 * np.linalg.norm(x)


def test_disjoint_codes_superpose_linearly(small_dict):
    a = codes((0, 7, -100, 1.5))
    b = codes((1, 7, 60, -0.7))
    together = reconstruct([a, b], small_dict, 256, 512)
    separate = reconstruct([a], small_dict, 256, 512) + reconstruct(
        [b], small_dict, 256, 512
    )
    assert np.array_equal(together, separate)


def test_error_report_on_identical_signals():
    x = np.linspace(-1, 1, 100)
    report = reconstruction_error(x, x.copy())
    assert report.l2_error == 0.0
    assert report.snr_db == math.inf


def test_zero_reconstruction_gives_zero_db():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500)
    report = reconstruction_error(x, np.zeros(500))
    assert abs(report.snr_db) < 1e-12
    assert abs(report.l2_error - np.linalg.norm(x)) < 1e-12


def test_error_report_matches_norm_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(256)
    x_hat = rng.standard_normal(256)
    report = reconstruction_error(x, x_hat)
    l2 = float(np.sqrt(np.sum((x - x_hat) ** 2)))
    assert abs(report.l2_error - l2) < 1e-12
    assert abs(report.snr_db - 20 * math.log10(np.linalg.norm(x) / l2)) < 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        reconstruction_error(np.zeros(4), np.zeros(5))


def test_out_of_bounds_codes_rejected(small_dict):
    bad_kernel = [codes((0, 50, 0, 1.0))]
    with pytest.raises(CodeOutOfBounds):
        reconstruct(bad_kernel, small_dict, 256, 256)
    bad_segment = [codes((4, 0, 0, 1.0))]
    with pytest.raises(CodeOutOfBounds):
        reconstruct(bad_segment, small_dict, 256, 1024)
    bad_tau = [codes((0, 0, 200, 1.0))]
    with pytest.raises(CodeOutOfBounds):
        reconstruct(bad_tau, small_dict, 256, 256)


def test_error_curve_is_monotone_on_noise(small_dict):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(512)
    cfg = EncoderConfig(max_codes=16, width=256)
    codesets = [
        encode_segment(Segment(x[i * 256 : (i + 1) * 256], segment_index=i),
                       small_dict, cfg=cfg)
        for i in range(2)
    ]
    curve = error_curve(x, codesets, small_dict, 256)
    assert [k for k, _ in curve] == list(range(1, 17))
    errors = [e for _, e in curve]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < np.linalg.norm(x)


def test_error_curve_on_a_partial_last_segment(small_dict):
    # 600 samples at W=256: the encoder zero-pads the third segment to 256,
    # and the decoder cuts its atoms at sample 600
    x = make_audio_clip(600, seed=1)
    codesets = encode_signal(x, small_dict, EncoderConfig(max_codes=8, width=256))
    assert len(codesets) == 3 and len(codesets[2])
    x_hat = reconstruct(codesets, small_dict, 256, 600)
    assert np.array_equal(x_hat, reconstruct(codesets, small_dict, 256, 768)[:600])
    curve = error_curve(x, codesets, small_dict, 256)
    assert [k for k, _ in curve] == list(range(1, 9))
    assert curve[-1][1] == pytest.approx(np.linalg.norm(x - x_hat), rel=1e-9)
    # the padded tail's residual, -(the atoms past sample 600), counts there only
    padded = error_curve(np.concatenate([x, np.zeros(168)]), codesets, small_dict, 256)
    assert all(e <= p * (1 + 1e-12) for (_, e), (_, p) in zip(curve, padded))


def test_full_report_and_quantized_mode(small_dict):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(256)
    cfg = EncoderConfig(max_codes=8, width=256)
    codesets = [encode_segment(Segment(x.copy()), small_dict, cfg=cfg)]
    table = build_channel_table(small_dict.num_kernels)

    raw = reconstruction_error(x, reconstruct(codesets, small_dict, 256, len(x)))
    curve = error_curve(x, codesets, small_dict, 256)
    assert sum(len(cs) for cs in codesets) == 8
    assert len(curve) == 8
    assert raw.l2_error == pytest.approx(curve[-1][1], rel=1e-9)

    quant = reconstruction_error(x, reconstruct(
        codesets, small_dict, 256, len(x), quantized=True, table=table
    ))
    assert math.isfinite(quant.l2_error)
    # quantizing intensities cannot improve on the raw reconstruction here
    assert quant.l2_error >= raw.l2_error
