"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here and nowhere else. Hardware timing figures are
context only and never asserted.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from spikecodec import cli, fixedpoint
from spikecodec.decoder import error_curve, reconstruct
from spikecodec.dictionary import (
    DictionaryConfig,
    build_dictionary,
    default_fft_len,
    kernel_spectra,
)
from spikecodec.encoder import (
    EncoderConfig,
    Segment,
    correlate_direct,
    encode_segment,
    shift_kernel,
)
from spikecodec.errors import InvalidConfig
from spikecodec.evaluate import (
    MlpTrainConfig,
    init_mlp,
    mlp_forward,
    mlp_loss_and_grads,
    mlp_train,
    prf1,
    ConfusionCounts,
)
from spikecodec.fixedpoint import FixedFormat, SaturationStats, quantize_array
from spikecodec.pipeline import (
    RunConfig,
    encode_signal,
    make_audio_clip,
    read_input,
    run_bench,
    segment_stream,
    write_waveform,
)
from spikecodec.spikecoder import DEFAULT_CENTERS, build_channel_table, nearest_level

from conftest import SCALAR_CHAIN, max_in_support_shift, mlp_accuracy, small_mlp

W = 2048


def _report(name: str, elapsed: float, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    print(f"\nPASS {name}: {elapsed:.1f}s{extra}")


def test_criterion_1_kernel_recovery(full_dict):
    """50 seeded single-kernel cases recover (m, tau) exactly and s to 1e-6;
    residual energy after one code < 1e-10 of the input energy."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    shifts_hi = [max_in_support_shift(full_dict.kernels[m]) for m in range(40)]
    cfg = EncoderConfig(max_codes=4, halt_threshold=1e-6, width=W, backend="direct")
    for case in range(50):
        m = int(rng.integers(40))
        tau = int(rng.integers(-W // 2, shifts_hi[m] + 1))
        s = float(rng.uniform(0.5, 4.0)) * float(rng.choice([-1.0, 1.0]))
        x = s * shift_kernel(full_dict.kernels[m], tau, W)
        out = encode_segment(Segment(x), full_dict, cfg=cfg)
        assert len(out) == 1, f"case {case}: expected halting after one code"
        code = out[0]
        assert (code.m, code.tau) == (m, tau), f"case {case}"
        assert abs(code.s - s) <= 1e-6 * abs(s), f"case {case}"
        residual = x - code.s * shift_kernel(full_dict.kernels[code.m], code.tau, W)
        assert np.sum(residual**2) < 1e-10 * np.sum(x**2), f"case {case}"
    _report("criterion 1 (kernel recovery, 50 cases)", time.perf_counter() - start)


def test_criterion_2_backend_equivalence():
    """Direct and spectral backends agree on 100 seeded random segments:
    identical (m, tau) sequence, |s| within 1e-6 relative."""
    start = time.perf_counter()
    d = build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=256))
    sd = kernel_spectra(d, default_fft_len(256, 256))
    cfg_direct = EncoderConfig(max_codes=8, width=256, backend="direct")
    cfg_spectral = EncoderConfig(max_codes=8, width=256, backend="spectral")
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(256)
        a = encode_segment(Segment(x.copy()), d, cfg=cfg_direct)
        b = encode_segment(Segment(x.copy()), d, sd, cfg_spectral)
        assert [(c.m, c.tau) for c in a] == [(c.m, c.tau) for c in b], f"seed {seed}"
        for ca, cb in zip(a, b):
            assert abs(abs(ca.s) - abs(cb.s)) <= 1e-6 * abs(ca.s), f"seed {seed}"
    _report("criterion 2 (backend equivalence, 100 segments)",
            time.perf_counter() - start)


def test_criterion_2_fixed_point_backend_equivalence(tmp_path, capsys):
    """In fixed point both backends run one datapath: byte-identical code
    arrays and equal overflow counts at every format, on noise and on a
    clip (loud enough to overflow, too); and CLI event files, raw intensity
    included, byte for byte with the same overflow line. `fixedpoint` holds
    no scalar chain, so the encoder cannot reach one, at the widest word
    (53:9) either; a format int64 cannot hold exactly (48:36) is rejected,
    exit 2 on the CLI."""
    start = time.perf_counter()
    assert not SCALAR_CHAIN & vars(fixedpoint).keys()
    width = 128
    d = build_dictionary(DictionaryConfig(num_kernels=16, kernel_len=width))
    clip = make_audio_clip(8 * width, seed=4)
    signals = {"noise": np.random.default_rng(2).standard_normal(8 * width),
               "clip": clip, "loud clip": 300.0 * clip[4 * width : 6 * width]}
    for fmt in (FixedFormat(34, 24), FixedFormat(24, 14), FixedFormat(20, 10),
                FixedFormat(16, 8), FixedFormat(20, 10, "wrap"), FixedFormat(53, 9)):
        for name, x in signals.items():
            runs = []
            for backend in ("direct", "spectral"):
                cfg = EncoderConfig(max_codes=8, width=width, backend=backend,
                                    arithmetic="fixed", fixed_format=fmt)
                stats = SaturationStats()
                codesets = encode_signal(x, d, cfg, stats=stats)
                runs.append(([cs.tobytes() for cs in codesets], stats))
            assert runs[0] == runs[1], f"{fmt} on {name}"
    with pytest.raises(InvalidConfig, match="total_bits <= 53"):
        FixedFormat(48, 36)

    signal = tmp_path / "clip.csv"
    write_waveform(make_audio_clip(4096, seed=0), str(signal))
    for fixed, width in (("34:24", "256"), ("20:10", "256"), ("53:9", "128")):
        files, lines = [], []
        for backend in ("direct", "spectral"):
            out = tmp_path / f"{backend}.jsonl"
            assert cli.main(["encode", str(signal), "-o", str(out), "--width", width,
                             "--kernels", "16", "--k", "8", "--backend", backend,
                             "--fixed", fixed, "--output-format", "jsonl",
                             "--with-raw-intensity"]) == 0
            files.append(out.read_bytes())
            lines.append(capsys.readouterr().out.splitlines()[-1])
        assert files[0] == files[1], fixed
        assert lines[0] == lines[1] and lines[0].startswith("saturations "), fixed
    out = tmp_path / "rejected.jsonl"
    assert cli.main(["encode", str(signal), "-o", str(out), "--fixed", "48:36"]) == 2
    assert not out.exists() and "total_bits <= 53" in capsys.readouterr().err
    _report("criterion 2 (fixed-point backend equivalence, 6 formats)",
            time.perf_counter() - start)


def test_criterion_3_energy_monotonicity_and_greedy_dominance(full_dict, full_sdict):
    """On 20 seeded noise segments at the reference operating point
    (W=2048, 40 kernels, k=16): residual energy strictly decreases per
    accepted code and |s_i| never increases."""
    start = time.perf_counter()
    cfg = EncoderConfig(max_codes=16, width=W, backend="spectral")
    pairs = 0
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal(W)
        out = encode_segment(Segment(x.copy()), full_dict, full_sdict, cfg)
        assert len(out) == 16
        mags = [abs(c.s) for c in out]
        for a, b in zip(mags, mags[1:]):
            assert b <= a, f"seed {seed}: |s| increased {a} -> {b}"
            pairs += 1
        residual = x.copy()
        energy = float(np.sum(residual**2))
        for code in out:
            residual -= code.s * shift_kernel(full_dict.kernels[code.m], code.tau, W)
            new_energy = float(np.sum(residual**2))
            assert new_energy < energy, f"seed {seed}: energy did not decrease"
            energy = new_energy
    _report("criterion 3 (energy + greedy dominance)", time.perf_counter() - start,
            f"{pairs} consecutive-code pairs")


def test_criterion_4_itp_brute_force_equivalence():
    """1000-point log sweep maps to the same level as an exhaustive
    nearest-log-center scan; 40 kernels give 120 channels."""
    start = time.perf_counter()
    table = build_channel_table(40)
    assert table.total_channels == 120
    for s in np.logspace(-4, 2, 1000):
        best, best_dist = None, None
        for level, c in enumerate(DEFAULT_CENTERS):
            dist = abs(math.log(s) - math.log(c))
            if best_dist is None or dist < best_dist:
                best, best_dist = level, dist
        assert nearest_level(float(s), table) == best
    _report("criterion 4 (ITP nearest-center scan)", time.perf_counter() - start)


def test_criterion_5_fixed_point_fidelity():
    """Format 34:24: fixed-mode encoding reproduces float-mode (m, tau)
    sequences on 50 margin-separated segments; quantization round-trip
    error is at most half an LSB over 1e5 samples."""
    start = time.perf_counter()
    fmt = FixedFormat(total_bits=34, frac_bits=24)
    margin_floor = 2.0 ** (-fmt.frac_bits + 8)

    d = build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=256))
    cfg_float = EncoderConfig(max_codes=3, width=256, halt_threshold=1e-4)
    cfg_fixed = EncoderConfig(max_codes=3, width=256, halt_threshold=1e-4,
                              arithmetic="fixed", fixed_format=fmt)

    def float_margins(x):
        """top-|correlation| margins over the three float selection steps"""
        margins = []
        residual = x.copy()
        for _ in range(cfg_float.max_codes):
            surface = correlate_direct(residual, d)
            flat = np.sort(np.abs(surface).ravel())
            margins.append(float(flat[-1] - flat[-2]))
            from spikecodec.encoder import select_code, subtract_component
            m, tau, s = select_code(surface)
            residual = subtract_component(residual, m, tau, s, d)
        return margins

    rng = np.random.default_rng(77)
    cases = 0
    while cases < 50:
        ms = rng.choice(8, size=2, replace=False)
        taus = rng.integers(-128, 64, size=2)
        amps = (float(rng.uniform(1.5, 3.0)), float(rng.uniform(0.2, 0.6)))
        x = amps[0] * shift_kernel(d.kernels[ms[0]], int(taus[0]), 256)
        x += amps[1] * shift_kernel(d.kernels[ms[1]], int(taus[1]), 256)
        if min(float_margins(x)) <= margin_floor:
            continue  # not margin-separated; criterion does not apply
        cases += 1
        a = encode_segment(Segment(x.copy()), d, cfg=cfg_float)
        b = encode_segment(Segment(x.copy()), d, cfg=cfg_fixed)
        assert [(c.m, c.tau) for c in a] == [(c.m, c.tau) for c in b]

    xs = np.random.default_rng(78).uniform(-2.0, 2.0, 100_000)
    err = np.abs(quantize_array(xs, fmt) / 2.0**fmt.frac_bits - xs)
    assert np.max(err) <= 2.0 ** (-fmt.frac_bits - 1)
    _report("criterion 5 (fixed-point fidelity)", time.perf_counter() - start)


def test_criterion_6_round_trip_reconstruction(full_dict, full_sdict, tmp_path):
    """Eight-term in-support combinations with mutually orthogonal atoms
    reconstruct below 1e-6 relative L2; the reconstruction error curve over
    k = 1..64 on an audio clip is non-increasing."""
    start = time.perf_counter()
    cfg = EncoderConfig(max_codes=16, width=W, backend="spectral")
    for seed in range(10):
        rng = np.random.default_rng(seed)
        picked, waveforms = [], []
        while len(picked) < 8:
            m = int(rng.integers(20, 40))  # short-support kernels
            tau = int(rng.integers(-W // 2, W // 4))
            g = shift_kernel(full_dict.kernels[m], tau, W)
            if abs(np.linalg.norm(g) - 1.0) > 1e-9:  # shift left full support
                continue
            if any(abs(np.dot(g, h)) > 1e-10 for h in waveforms):
                continue  # keep the combination effectively orthogonal
            amp = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
            picked.append((m, tau, amp))
            waveforms.append(g)
        x = sum(amp * g for (_, _, amp), g in zip(picked, waveforms))
        out = encode_segment(Segment(x), full_dict, full_sdict, cfg)
        x_hat = reconstruct([out], full_dict, W, W)
        rel = np.linalg.norm(x - x_hat) / np.linalg.norm(x)
        assert rel < 1e-6, f"seed {seed}: relative error {rel}"

    # error curve on an audio clip pushed through the real file pipeline
    wav = tmp_path / "clip.wav"
    write_waveform(make_audio_clip(4 * W, 16000.0, seed=7), str(wav), 16000.0)
    clip, _ = read_input(RunConfig(input_path=str(wav)))
    cfg64 = EncoderConfig(max_codes=64, width=W, backend="spectral")
    codesets = [
        encode_segment(seg, full_dict, full_sdict, cfg64)
        for seg in segment_stream(clip, W)
    ]
    curve = error_curve(clip, codesets, full_dict, W)
    assert [k for k, _ in curve] == list(range(1, 65))
    errors = [e for _, e in curve]
    assert all(b <= a + 1e-12 * errors[0] for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0]
    _report("criterion 6 (round-trip + error curve)", time.perf_counter() - start,
            f"final/initial error {errors[-1] / errors[0]:.3f}")


def test_criterion_7_metrics_formulas():
    """P, R, F1 reproduce the worked example to 1e-12. Published dataset
    accuracies are out of scope; formula properties substitute for them."""
    start = time.perf_counter()
    counts = ConfusionCounts(tp=np.array([50]), fp=np.array([25]), fn=np.array([10]))
    p, r, f1, macro = prf1(counts)
    assert abs(p[0] - Fraction(2, 3)) < 1e-12
    assert abs(r[0] - Fraction(5, 6)) < 1e-12
    assert abs(f1[0] - Fraction(20, 27)) < 1e-12
    assert abs(macro[2] - Fraction(20, 27)) < 1e-12

    rng = np.random.default_rng(1)
    for _ in range(200):
        tp, fp, fn = (int(v) for v in rng.integers(1, 50, 3))
        p, r, f1, _ = prf1(ConfusionCounts(
            tp=np.array([tp]), fp=np.array([fp]), fn=np.array([fn])))
        assert abs(f1[0] - 2 * p[0] * r[0] / (p[0] + r[0])) < 1e-12
        assert min(p[0], r[0]) - 1e-12 <= f1[0] <= max(p[0], r[0]) + 1e-12
    _report("criterion 7 (metric formulas)", time.perf_counter() - start)


def test_criterion_8_mlp_health():
    """Softmax normalized to 1e-9; analytic gradients within 1e-4 of central
    differences; >= 99% training accuracy on a separable 120-d task under
    the cited schedule (400 epochs, batch 64, lr 1e-3, x0.9 every 50)."""
    start = time.perf_counter()
    model = init_mlp(120, 4, MlpTrainConfig(seed=0))
    rng = np.random.default_rng(0)
    probs = mlp_forward(model, rng.standard_normal((64, 120)))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

    check = small_mlp([10, 8, 6, 3], seed=1)
    x = rng.standard_normal((5, 10))
    y = np.array([0, 1, 2, 1, 0])
    _, grads_w, _ = mlp_loss_and_grads(check, x, y)
    eps = 1e-6
    for _ in range(20):
        layer = int(rng.integers(len(check.weights)))
        i = int(rng.integers(check.weights[layer].shape[0]))
        j = int(rng.integers(check.weights[layer].shape[1]))
        check.weights[layer][i, j] += eps
        up, _, _ = mlp_loss_and_grads(check, x, y)
        check.weights[layer][i, j] -= 2 * eps
        down, _, _ = mlp_loss_and_grads(check, x, y)
        check.weights[layer][i, j] += eps
        fd = (up - down) / (2 * eps)
        an = grads_w[layer][i, j]
        assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    blob_rng = np.random.default_rng(42)
    axis = blob_rng.normal(0.0, 1.0, 120)
    axis /= np.linalg.norm(axis)
    x0 = blob_rng.normal(0.0, 1.0, (200, 120)) - 4.0 * axis
    x1 = blob_rng.normal(0.0, 1.0, (200, 120)) + 4.0 * axis
    features = np.vstack([x0, x1])
    labels = np.array([0] * 200 + [1] * 200)
    design = np.hstack([features, np.ones((400, 1))])
    w, *_ = np.linalg.lstsq(design, 2.0 * labels - 1.0, rcond=None)
    assert np.mean((design @ w > 0) == (labels == 1)) == 1.0  # separability oracle

    trained = mlp_train(features, labels, MlpTrainConfig(seed=3))
    accuracy = mlp_accuracy(trained, features, labels)
    assert accuracy >= 0.99
    _report("criterion 8 (MLP health)", time.perf_counter() - start,
            f"training accuracy {accuracy:.4f}")


def test_criterion_9_encode_determinism(tmp_path):
    """Two encode runs with the same configuration write byte-identical
    event files."""
    start = time.perf_counter()
    signal = tmp_path / "sig.csv"
    rng = np.random.default_rng(5)
    signal.write_text(",".join(repr(float(v))
                               for v in 0.5 * rng.standard_normal(600)))
    flags = ["--width", "128", "--kernels", "6", "--k", "5", "--seed", "9"]
    outputs = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "spikecodec.cli", "encode", str(signal),
             "-o", str(out_path), "--with-raw-intensity", *flags],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
    _report("criterion 9 (byte-identical reruns)", time.perf_counter() - start)


def test_criterion_10_bench_reporting():
    """Bench reports timings for both backends and both arithmetic modes;
    reference hardware timings appear as context only, never asserted."""
    start = time.perf_counter()
    cfg = RunConfig(
        encoder=EncoderConfig(max_codes=4, width=256),
        dictionary=DictionaryConfig(num_kernels=8, kernel_len=256),
        seed=0,
    )
    reports = run_bench(cfg, n_segments=4)
    assert {(r.backend, r.arithmetic) for r in reports} == {
        ("direct", "float"), ("direct", "fixed"),
        ("spectral", "float"), ("spectral", "fixed"),
    }
    for r in reports:
        assert r.wall_time_per_segment > 0
        assert r.segments_per_second > 0
        assert r.codes_per_second > 0
    assert all(r.sequences_match_direct for r in reports)

    result = subprocess.run(
        [sys.executable, "-m", "spikecodec.cli", "bench", "--segments", "2",
         "--width", "128", "--kernels", "4", "--k", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "context" in result.stdout and "4.7" in result.stdout
    for r in reports:
        print(f"  bench {r.backend}/{r.arithmetic}: "
              f"{1e3 * r.wall_time_per_segment:.2f} ms/segment, "
              f"{r.codes_per_second:.0f} codes/s")
    _report("criterion 10 (bench reporting)", time.perf_counter() - start)
