import functools
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import wave
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecodec import cli, encoder, pipeline
from spikecodec.decoder import reconstruct
from spikecodec.dictionary import Dictionary, DictionaryConfig, build_dictionary
from spikecodec.encoder import EncoderConfig, encode_segment
from spikecodec.errors import InvalidConfig, IoError, NumericError, SpikeCodecError
from spikecodec.fixedpoint import FixedFormat, SaturationStats
from spikecodec.pipeline import (
    EVENT_HEADER,
    RunConfig,
    codes_from_events,
    encode_signal,
    make_audio_clip,
    parse_events,
    read_input,
    run_bench,
    segment_stream,
    write_events_csv,
    write_events_jsonl,
    write_waveform,
)
from spikecodec.spikecoder import EVENT_DTYPE, build_channel_table, emit_stream

from conftest import codes, column_zero_dictionary


def _write_wav(path, samples_i16, channels=1, rate=16000):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(samples_i16, dtype="<i2").tobytes())


def test_wav16_scaling(tmp_path):
    path = tmp_path / "one.wav"
    _write_wav(path, [16384])
    samples, rate = read_input(RunConfig(input_path=str(path)))
    assert rate == 16000.0
    assert np.array_equal(samples, [0.5])


def test_wav16_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    _write_wav(path, [16384, -16384, 8192, 8192], channels=2)
    samples, _ = read_input(RunConfig(input_path=str(path)))
    assert np.allclose(samples, [0.0, 0.25])


def test_csv_passthrough(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("0.1,0.2,0.3")
    samples, rate = read_input(RunConfig(input_path=str(path)))
    assert np.array_equal(samples, [0.1, 0.2, 0.3])
    assert rate is None


def test_raw_f32_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(777).astype(np.float32).astype(np.float64)
    path = tmp_path / "sig.f32"
    write_waveform(x, str(path))
    back, _ = read_input(RunConfig(input_path=str(path)))
    assert np.array_equal(back, x)


def test_unknown_extension_rejected(tmp_path):
    path = tmp_path / "sig.xyz"
    path.write_text("1,2")
    with pytest.raises(IoError, match="cannot infer input format"):
        read_input(RunConfig(input_path=str(path)))


def test_garbage_wav_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(IoError, match="bad wav file"):
        read_input(RunConfig(input_path=str(path)))


def test_non_numeric_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,zebra,0.3")
    with pytest.raises(IoError, match="non-numeric csv value"):
        read_input(RunConfig(input_path=str(path)))


# ----- segmentation -----

def test_exact_multiple_needs_no_padding():
    segs = segment_stream(np.arange(512.0), 256)
    assert len(segs) == 2
    assert [s.segment_index for s in segs] == [0, 1]
    assert np.array_equal(segs[1].samples, np.arange(256.0, 512.0))


def test_tail_is_zero_padded():
    segs = segment_stream(np.ones(257), 256)
    assert len(segs) == 2
    assert segs[1].samples[0] == 1.0
    assert not np.any(segs[1].samples[1:])


def test_concatenation_reproduces_input_bitwise():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1000)
    segs = segment_stream(x, 256)
    joined = np.concatenate([s.samples for s in segs])[: len(x)]
    assert np.array_equal(joined, x)


def test_empty_input_gives_no_segments():
    assert segment_stream(np.array([]), 64) == []


# ----- event files -----

# t, channel, m, level, magnitude_level_center, raw_intensity
EV = np.array([(984, 28, 9, 1, 0.4115, 3.0)], EVENT_DTYPE).view(np.recarray)


def test_empty_stream_writes_header_only():
    buf = io.StringIO()
    write_events_csv([], buf)
    assert buf.getvalue() == "t_samples,channel,kernel,level,intensity_center\n"


def test_event_line_format_is_frozen():
    buf = io.StringIO()
    write_events_csv(EV, buf)
    assert buf.getvalue().splitlines()[1] == "984,28,9,1,0.411500"


def test_csv_round_trip_preserves_fields(tmp_path):
    path = tmp_path / "ev.csv"
    with open(path, "w", newline="\n") as fh:
        write_events_csv(EV, fh, with_raw=True)
    back = parse_events(str(path), build_channel_table(40))
    assert len(back) == 1
    ev = back[0]
    assert (ev.t, ev.channel, ev.m, ev.level) == (984, 28, 9, 1)
    assert ev.magnitude_level_center == pytest.approx(0.4115, rel=1e-6)
    assert ev.raw_intensity == pytest.approx(3.0, rel=1e-6)


def test_jsonl_round_trip_is_exact(tmp_path):
    path = tmp_path / "ev.jsonl"
    with open(path, "w", newline="\n") as fh:
        write_events_jsonl(EV, fh, with_raw=True)
    record = json.loads(path.read_text().splitlines()[0])
    assert record == {
        "t_samples": 984, "channel": 28, "kernel": 9, "level": 1,
        "intensity_center": 0.4115, "raw_intensity": 3.0,
    }
    back = parse_events(str(path), build_channel_table(40))
    assert back[0].raw_intensity == 3.0


def test_codes_from_events_inverts_emit(small_dict):
    from spikecodec.encoder import encode_segment
    from spikecodec.spikecoder import build_channel_table, emit_stream

    rng = np.random.default_rng(2)
    x = rng.standard_normal(512)
    cfg = EncoderConfig(max_codes=6, width=256)
    codesets = [
        encode_segment(seg, small_dict, cfg=cfg) for seg in segment_stream(x, 256)
    ]
    table = build_channel_table(small_dict.num_kernels)
    events = emit_stream(codesets, table, 256)
    rebuilt = codes_from_events(events, 256)
    original = sorted(
        (c.segment_index, c.m, c.tau, c.s) for cs in codesets for c in cs
    )
    recovered = sorted(
        (c.segment_index, c.m, c.tau, c.s) for cs in rebuilt for c in cs
    )
    assert original == recovered


@st.composite
def _codesets(draw):
    """(width, per-segment code arrays): m < 40, |tau| <= W/2, s finite and
    nonzero, segments 0..n-1, some of them empty."""
    width = draw(st.sampled_from([64, 256, 2048]))
    s = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)
    code = st.tuples(st.integers(0, 39), st.integers(-(width // 2), width // 2),
                     s.filter(lambda v: v != 0.0))
    segments = draw(st.lists(st.lists(code, max_size=8), max_size=6))
    return width, [codes(*[(i, *c) for c in seg]) for i, seg in enumerate(segments)]


def _as_written(width, seg, m, tau, s):
    """A code as an event file gives it back: s to 6 significant digits,
    and a shift of +W/2 as the next segment's -W/2 (one event time)."""
    if tau == width // 2:
        seg, tau = seg + 1, -(width // 2)
    return seg, m, tau, float(format(s, ".6g"))


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("round_trip") / "ev.csv")


@settings(max_examples=200, deadline=None)
@given(drawn=_codesets(), seed=st.integers(0, 2**32 - 1))
def test_emit_write_parse_round_trip(round_trip_path, drawn, seed):
    width, codesets = drawn
    table = build_channel_table(40)
    events = emit_stream(codesets, table, width)
    # written in any order: decode groups by segment, keeping file order
    events = events[np.random.default_rng(seed).permutation(len(events))]
    with open(round_trip_path, "w", newline="\n") as fh:
        write_events_csv(events, fh, with_raw=True)
    rebuilt = codes_from_events(parse_events(round_trip_path, table), width)
    back = [c for cs in rebuilt for c in cs.tolist()]
    key = functools.partial(_as_written, width)
    assert sorted(back) == sorted(key(*c) for cs in codesets for c in cs.tolist())
    in_file_order = [key(t // width, m, t % width - width // 2, s)
                     for t, _, m, _, _, s in events.tolist()]
    assert back == sorted(in_file_order, key=lambda c: c[0])  # a stable sort
    assert all(len(set(cs.segment_index)) == 1 for cs in rebuilt)


@settings(max_examples=20, deadline=None)
@given(backend=st.sampled_from(["direct", "spectral"]),
       width=st.sampled_from([128, 256]),
       seed=st.integers(0, 2**32 - 1))
def test_encoded_clip_round_trips_through_event_file(round_trip_path, backend,
                                                     width, seed):
    # real codes, not drawn ones: encode -> emit -> write -> parse -> codes
    d = build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=width))
    cfg = EncoderConfig(max_codes=8, width=width, backend=backend)
    x = make_audio_clip(3 * width + width // 3, seed=seed)
    codesets = encode_signal(x, d, cfg)
    table = build_channel_table(d.num_kernels)
    events = emit_stream(codesets, table, width)
    with open(round_trip_path, "w", newline="\n") as fh:
        write_events_csv(events, fh, with_raw=True)
    rebuilt = codes_from_events(parse_events(round_trip_path, table), width)
    back = sorted(tuple(c) for cs in rebuilt for c in cs.tolist())
    assert back == sorted(_as_written(width, *c) for cs in codesets
                          for c in cs.tolist())


# ----- synthetic clip and bench -----

def test_audio_clip_is_deterministic_and_bounded():
    a = make_audio_clip(4096, seed=7)
    assert np.array_equal(a, make_audio_clip(4096, seed=7))
    assert np.max(np.abs(a)) <= 0.9 + 1e-12


def _tiny_run_config(max_codes=2):
    return RunConfig(
        encoder=EncoderConfig(max_codes=max_codes, width=64),
        dictionary=DictionaryConfig(num_kernels=4, freq_lo=200.0, freq_hi=6000.0,
                                    kernel_len=64),
        seed=0,
    )


def test_bench_reports_all_modes():
    reports = run_bench(_tiny_run_config(), n_segments=3)
    combos = {(r.backend, r.arithmetic) for r in reports}
    assert combos == {("direct", "float"), ("direct", "fixed"),
                      ("spectral", "float"), ("spectral", "fixed")}
    for r in reports:
        assert r.wall_time_per_segment > 0
        assert r.segments_per_second > 0
        assert r.codes_per_second > 0
    assert all(r.sequences_match_direct for r in reports)


def test_bench_with_zero_budget():
    reports = run_bench(_tiny_run_config(max_codes=0), n_segments=2)
    for r in reports:
        assert r.codes_per_second == 0.0
        assert r.segments_per_second > 0


# ----- encode_signal -----

PAR_WIDTH = 128


@pytest.fixture(scope="module")
def par_dict():
    return build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=PAR_WIDTH))


def _five_segments():
    x = make_audio_clip(5 * PAR_WIDTH, seed=3)
    x[2 * PAR_WIDTH : 3 * PAR_WIDTH] = 0.0  # a silent segment halts at once
    return x


def _par_config(backend="spectral", fixed=None):
    return EncoderConfig(
        max_codes=4, width=PAR_WIDTH, backend=backend,
        arithmetic="fixed" if fixed else "float",
        fixed_format=fixed or FixedFormat(),
    )


@pytest.mark.parametrize("fixed", [None, FixedFormat(34, 24)],
                         ids=["float", "34:24"])
@pytest.mark.parametrize("backend", ["direct", "spectral"])
def test_encode_signal_equals_serial_loop(par_dict, backend, fixed):
    cfg = _par_config(backend, fixed)
    x = _five_segments()
    serial = [encode_segment(seg, par_dict, None, cfg)
              for seg in segment_stream(x, PAR_WIDTH)]
    assert sum(len(cs) for cs in serial) == 16  # 4 codes, silent one none
    assert [cs.tolist() for cs in encode_signal(x, par_dict, cfg)] == [
        cs.tolist() for cs in serial]


def test_encode_signal_starts_no_thread(par_dict, monkeypatch):
    # BLAS owns the CPUs: however many the process may use, the segments
    # are encoded on the calling thread
    calls = {"start": 0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    _count_calls(monkeypatch, calls, threading.Thread, "start")
    assert len(encode_signal(_five_segments(), par_dict, _par_config())) == 5
    assert calls == {"start": 0}


def _fail_on(monkeypatch, errors):
    """encode_segment raises errors[i] on segment i. Returns the list of
    segment indices it was called on."""
    real, called = pipeline.encode_segment, []

    def flaky(segment, *args, **kwargs):
        called.append(segment.segment_index)
        if segment.segment_index in errors:
            raise errors[segment.segment_index]
        return real(segment, *args, **kwargs)

    monkeypatch.setattr(pipeline, "encode_segment", flaky)
    return called


@pytest.mark.parametrize("failing", [(3,), (1, 3)], ids=["one", "two"])
def test_encode_signal_reraises_first_failing_segment(par_dict, monkeypatch,
                                                      failing):
    errors = {i: NumericError(f"segment {i}") for i in failing}
    called = _fail_on(monkeypatch, errors)
    with pytest.raises(NumericError) as raised:
        encode_signal(_five_segments(), par_dict, _par_config())
    assert raised.value is errors[min(failing)]
    assert called == list(range(min(failing) + 1))  # none after it is encoded


@pytest.mark.parametrize("scale, fmt, overflows", [
    (400.0, FixedFormat(34, 24), 1698),
    (300.0, FixedFormat(20, 10, "wrap"), 380),
], ids=["34:24-saturating", "20:10-wrap"])
def test_overflow_counts_do_not_depend_on_thread_count(
        tmp_path, capsys, par_dict, scale, fmt, overflows):
    # the inputs and totals of test_encoder_output_pinned_per_mode
    cfg = _par_config("direct", fmt)
    x = scale * make_audio_clip(4 * PAR_WIDTH, seed=3)
    serial = SaturationStats()
    for seg in segment_stream(x, PAR_WIDTH):
        encode_segment(seg, par_dict, None, cfg, serial)
    assert serial.saturations + serial.wraps == overflows
    stats = SaturationStats()
    encode_signal(x, par_dict, cfg, stats=stats)
    assert stats == serial
    if fmt.overflow == "saturate":  # the only policy --fixed selects
        signal = tmp_path / "loud.csv"
        write_waveform(x, str(signal))
        capsys.readouterr()
        assert cli.main(["encode", str(signal), "-o", str(tmp_path / "ev.csv"),
                         "--width", str(PAR_WIDTH), "--kernels", "8", "--k", "4",
                         "--fixed", "34:24"]) == 0
        assert f"saturations {serial.saturations}, wraps 0" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["direct", "spectral"])
def test_kernel_overflow_is_counted_once_per_segment(backend):
    # +1.0 saturates in 8:7 (raw_max is 127/128) and -1.0 fits: quantizing
    # the kernels overflows once, and every segment reports that once, also
    # when the quantized kernels are built once for the whole signal
    kernels = np.zeros((2, 16))
    kernels[0, 8], kernels[1, 9] = 1.0, -1.0
    d = Dictionary(kernels=kernels, center_freqs=np.array([100.0, 200.0]),
                   config=DictionaryConfig(num_kernels=2, kernel_len=16))
    cfg = EncoderConfig(max_codes=2, width=16, backend=backend,
                        arithmetic="fixed", fixed_format=FixedFormat(8, 7))
    for segments in (1, 2, 4):
        stats = SaturationStats()
        x = 0.1 * np.sin(0.7 * np.arange(16 * segments))
        codesets = encode_signal(x, d, cfg, stats=stats)
        assert [len(cs) for cs in codesets] == [2] * segments
        assert stats == SaturationStats(saturations=segments, wraps=0)


def _count_calls(monkeypatch, calls, module, name, label=None, when=None):
    """Count calls of `module.name` under `label`, only those whose first
    argument satisfies `when`."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        if when is None or when(args[0]):
            calls[label or name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_dictionary_tables_are_built_once(tmp_path, monkeypatch):
    d = build_dictionary.__wrapped__(
        DictionaryConfig(num_kernels=8, kernel_len=PAR_WIDTH))
    calls = {"_kernel_supports": 0, "kernel_spectra": 0, "kernel quantize": 0}
    _count_calls(monkeypatch, calls, encoder, "_kernel_supports")
    _count_calls(monkeypatch, calls, encoder, "kernel_spectra")
    _count_calls(monkeypatch, calls, encoder, "quantize_array", "kernel quantize",
                 lambda x: x is d.kernels)
    x = make_audio_clip(6 * PAR_WIDTH, seed=4)
    for _ in range(2):
        encode_signal(x, d, _par_config("direct", FixedFormat(34, 24)))
    assert calls == {"_kernel_supports": 1, "kernel_spectra": 1, "kernel quantize": 1}
    # fixed spectral runs the same datapath on the same tables
    for _ in range(2):
        encode_signal(x, d, _par_config("spectral", FixedFormat(34, 24)))
    assert calls == {"_kernel_supports": 1, "kernel_spectra": 1, "kernel quantize": 1}

    signal = tmp_path / "clip.csv"
    write_waveform(x, str(signal))
    build_dictionary.cache_clear()
    for _ in range(2):
        assert cli.main(["encode", str(signal), "-o", str(tmp_path / "ev.csv"),
                         *SMALL_FLAGS, "--fixed", "34:24"]) == 0
    info = build_dictionary.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert calls["_kernel_supports"] == 2  # once for the CLI's dictionary


def test_cached_tables_do_not_leak_across_keys(tmp_path):
    # one process, alternating width, format, backend and arithmetic: each
    # result must equal the same encode on freshly built dictionaries
    signal = tmp_path / "clip.csv"
    x = make_audio_clip(1024, seed=21)
    write_waveform(x, str(signal))

    def encode(width, backend, fixed):
        out = tmp_path / "ev.csv"
        flags = ["--fixed", fixed] if fixed else []
        assert cli.main(["encode", str(signal), "-o", str(out), "--width", str(width),
                         "--kernels", "8", "--k", "4", "--backend", backend,
                         "--with-raw-intensity", *flags]) == 0
        # at this width, on the W=256 CLI encodes' dictionary: 20:10 with
        # wrapping overflow, which no CLI flag selects, and 34:24
        d, results = build_dictionary(DictionaryConfig(8, kernel_len=256)), []
        for fmt, scale in ((FixedFormat(20, 10, "wrap"), 1000.0),
                           (FixedFormat(34, 24), 1.0)):
            stats = SaturationStats()
            cfg = EncoderConfig(max_codes=4, width=width, backend=backend,
                                arithmetic="fixed", fixed_format=fmt)
            codesets = encode_signal(scale * x, d, cfg, stats=stats)
            results.append(([cs.tobytes() for cs in codesets], stats))
        return out.read_bytes(), results

    build_dictionary.cache_clear()
    # each step changes the width, the backend or the format; a table built
    # for W=256 is too short for W=512
    runs = [(fixed, backend, width) for fixed in (None, "34:24", "20:10")
            for backend, width in (("direct", 256), ("spectral", 256),
                                   ("spectral", 512), ("direct", 512))]
    interleaved = [encode(width, backend, fixed) for fixed, backend, width in runs]
    assert build_dictionary.cache_info().currsize == 2
    assert all(results[0][1].wraps > 0 for _, results in interleaved)
    for (fixed, backend, width), result in zip(runs, interleaved):
        build_dictionary.cache_clear()
        assert encode(width, backend, fixed) == result


def test_encode_signal_sizes_spectra_from_the_kernels_support():
    # the spectral backend's spectra fit the kernels' own support (192
    # points), not the gammatone layout's 128
    width, d = 100, column_zero_dictionary()
    x = make_audio_clip(3 * width, seed=60)
    for fixed in (None, FixedFormat(34, 24)):
        cfg = replace(_par_config("spectral", fixed), width=width)
        codesets = encode_signal(x, d, cfg)
        assert [len(cs) for cs in codesets] == [4, 4, 4]
        if fixed is None:
            direct = encode_signal(x, d, replace(cfg, backend="direct"))
            assert ([(c.m, c.tau) for cs in codesets for c in cs]
                    == [(c.m, c.tau) for cs in direct for c in cs])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow notes
@pytest.mark.parametrize("fixed", [None, FixedFormat(34, 24)], ids=["float", "34:24"])
@pytest.mark.parametrize("backend", ["direct", "spectral"])
def test_near_max_input_raises_in_float_and_saturates_in_fixed(backend, fixed):
    # a finite input whose float correlation overflows must not encode to
    # NaN codes; quantizing saturates it, so fixed point encodes it
    d = build_dictionary(DictionaryConfig(num_kernels=6, kernel_len=128))
    x = 1.7e308 * np.sin(0.3 * np.arange(512))
    cfg = replace(_par_config(backend, fixed), width=128)
    stats = SaturationStats()
    if fixed is None:
        with pytest.raises(NumericError, match="segment 0: .* not finite"):
            encode_signal(x, d, cfg, stats=stats)
        return
    codes = np.concatenate(encode_signal(x, d, cfg, stats=stats))
    assert len(codes) == 16 and np.all(np.isfinite(codes["s"]))
    assert stats.saturations > 0


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-320, 308), width=st.sampled_from([128, 256]))
def test_any_finite_amplitude_encodes_to_finite_codes_or_numeric_error(a, width):
    # amplitudes 10^a from subnormal to near the float limit: each mode gives
    # finite codes or a NumericError; quantizing saturates, so fixed point
    # never raises; where both float backends encode, they pick the same
    # atoms (only (m, tau): s differs in its last digits at subnormal scale)
    d = build_dictionary(DictionaryConfig(num_kernels=6, kernel_len=width))
    shape = make_audio_clip(2 * width, seed=width)
    x = 10.0**a * (shape / np.max(np.abs(shape)))
    atoms = {}
    for backend in ("direct", "spectral"):
        for fixed in (None, FixedFormat(34, 24)):
            cfg = replace(_par_config(backend, fixed), width=width)
            try:
                codes = np.concatenate(encode_signal(x, d, cfg))
            except NumericError:
                assert fixed is None
                continue
            assert np.all(np.isfinite(codes["s"]))
            if fixed is None:
                atoms[backend] = codes[["segment_index", "m", "tau"]].tolist()
    if len(atoms) == 2:
        assert atoms["direct"] == atoms["spectral"]


def _five_segment_wav(tmp_path):
    path = tmp_path / "five.wav"
    _write_wav(path, np.round(32767 * _five_segments()))
    return path


def test_cli_encode_failure_exits_4(tmp_path, monkeypatch, capsys):
    wav = _five_segment_wav(tmp_path)
    _fail_on(monkeypatch, {3: NumericError("segment 3")})
    argv = ["encode", str(wav), "-o", str(tmp_path / "ev.csv"), *SMALL_FLAGS]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "numeric error: segment 3" in err
    assert "Traceback" not in err


# each error class's exit code and stderr prefix; out of memory is named as such
EXITS = [(MemoryError, 4, "numeric error: out of memory in {}"),
         (InvalidConfig, 2, "config error: exhausted"),
         (IoError, 3, "i/o error: exhausted"),
         (NumericError, 4, "numeric error: exhausted"),
         (SpikeCodecError, 4, "numeric error: exhausted")]


@pytest.mark.parametrize("command, error, code, message", [
    (command, *case) for case in EXITS for command in ("encode", "decode")
], ids=[command if error is MemoryError else f"{command}-{error.__name__}"
        for error, _, _ in EXITS for command in ("encode", "decode")])
def test_cli_out_of_memory_exits_4(tmp_path, monkeypatch, capsys, command, error,
                                   code, message):
    def exhausted(*args, **kwargs):
        raise error("exhausted")

    monkeypatch.setattr(cli, "encode_signal", exhausted)
    monkeypatch.setattr(cli, "parse_events", exhausted)
    argv = (_encode_args(tmp_path, "s.csv", b"0.1,0.2") if command == "encode"
            else _decode_args(tmp_path))
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert message.format(command) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("backend", ["direct", "spectral"])
def test_cli_event_bytes_do_not_depend_on_thread_count(tmp_path, backend):
    # an identical config gives a byte-identical event file
    wav = _five_segment_wav(tmp_path)
    outputs = []
    for i in range(3):
        events = tmp_path / f"ev{i}.csv"
        assert cli.main(["encode", str(wav), "-o", str(events),
                         "--with-raw-intensity", "--backend", backend,
                         *SMALL_FLAGS]) == 0
        outputs.append(events.read_bytes())
    # the header, then 4 codes in each of the 4 segments that are not silent
    assert len(outputs[0].splitlines()) == 1 + 4 * 4
    assert outputs[0] == outputs[1] == outputs[2]


# ----- command-line interface -----

def _cli(*argv, address_space=None):
    """Run the CLI in a child; with `address_space`, under that RLIMIT_AS in
    bytes, and with BLAS on one thread, whose per-thread buffers would count."""
    env = limit = None
    if address_space is not None:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space,) * 2)
    return subprocess.run([sys.executable, "-m", "spikecodec.cli", *argv],
                          capture_output=True, text=True, env=env, preexec_fn=limit)


@pytest.fixture(scope="module")
def signal_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sig.csv"
    rng = np.random.default_rng(3)
    path.write_text(",".join(repr(float(v)) for v in 0.4 * rng.standard_normal(512)))
    return path


SMALL_FLAGS = ("--width", "128", "--kernels", "6", "--k", "4")


def test_cli_encode_decode_round_trip(tmp_path, signal_csv):
    events = tmp_path / "ev.csv"
    out = _cli("encode", str(signal_csv), "-o", str(events),
               "--with-raw-intensity", *SMALL_FLAGS)
    assert out.returncode == 0, out.stderr
    recon = tmp_path / "rec.f32"
    out = _cli("decode", str(events), "-o", str(recon), *SMALL_FLAGS)
    assert out.returncode == 0, out.stderr
    x = np.array([float(v) for v in signal_csv.read_text().split(",")])
    x_hat = np.fromfile(recon, dtype="<f4")
    assert len(x_hat) == 512
    # 4 codes per 128-sample segment: reconstruction removes real energy
    assert np.linalg.norm(x - x_hat) < np.linalg.norm(x)


def test_cli_exit_code_2_on_bad_config(signal_csv):
    out = _cli("encode", str(signal_csv), "--width", "0")
    assert out.returncode == 2


def test_cli_exit_code_3_on_missing_input():
    out = _cli("encode", "/definitely/not/here.csv")
    assert out.returncode == 3


def test_cli_exit_code_4_on_bad_events(tmp_path):
    # a well-formed event, level 2's center included, on kernel 99 of 6
    path = tmp_path / "ev.csv"
    path.write_text(
        "t_samples,channel,kernel,level,intensity_center\n64,299,99,2,25.8744\n"
    )
    out = _cli("decode", str(path), "-o", str(tmp_path / "x.f32"), *SMALL_FLAGS)
    assert out.returncode == 4


def _cut_wav(frames, cut_bytes):
    def make_argv(tmp_path):
        path = tmp_path / "cut.wav"
        _write_wav(path, np.arange(frames))
        path.write_bytes(path.read_bytes()[:-cut_bytes])
        return ["encode", str(path), *SMALL_FLAGS]
    return make_argv


def _wav_at_rate(rate, *extra):
    def make_argv(tmp_path):
        path = tmp_path / "in.wav"
        clip = make_audio_clip(512, sample_rate=float(rate), seed=5)
        _write_wav(path, np.round(clip * 32767), rate=rate)
        return ["encode", str(path), *extra, *SMALL_FLAGS]
    return make_argv


def _encode_args(tmp_path, name, data, *extra):
    path = tmp_path / name
    path.write_bytes(data)
    return ["encode", str(path), *extra, *SMALL_FLAGS]


def _eval_args(tmp_path, labels_text, *extra):
    labels = tmp_path / "labels.csv"
    labels.write_bytes(labels_text if isinstance(labels_text, bytes)
                       else labels_text.encode())
    return ["eval", "--features-from", str(tmp_path), "--labels", str(labels),
            *extra]


def _train_args(tmp_path, *extra):
    # two event files without events, one per class: only the flags are bad
    for stem in ("clip_a", "clip_b"):
        (tmp_path / f"{stem}.csv").write_text(EVENT_HEADER + "\n")
    return _eval_args(tmp_path, "clip_a,x\nclip_b,y\n", "--epochs", "2", *extra)


def _labels_args(tmp_path, labels_text):
    # three event files without events: only the labels file can be bad
    for stem in ("clip_a", "clip_b", "clip_c"):
        (tmp_path / f"{stem}.csv").write_text(EVENT_HEADER + "\n")
    return _eval_args(tmp_path, labels_text, "--epochs", "2")


def _eval_row_args(tmp_path, row):
    # clip_a holds the one event `row`; 40 kernels x 3 levels = 120 channels
    (tmp_path / "clip_a.csv").write_text(f"{EVENT_HEADER}\n{row}\n")
    (tmp_path / "clip_b.csv").write_text(f"{EVENT_HEADER}\n64,10,3,1,0.411500\n")
    return _eval_args(tmp_path, "clip_a,x\nclip_b,y\n", "--epochs", "2")


def _decode_args(tmp_path, *extra):
    events = tmp_path / "ev.csv"
    events.write_text(EVENT_HEADER + "\n")
    return ["decode", str(events), "-o", str(tmp_path / "x.f32"), *extra,
            *SMALL_FLAGS]


def _decode_text_args(tmp_path, text):
    events = tmp_path / "ev.csv"
    events.write_text(text)
    return ["decode", str(events), "-o", str(tmp_path / "x.f32"), *SMALL_FLAGS]


def _decode_bytes_args(tmp_path, data):
    argv = _decode_args(tmp_path)
    (tmp_path / "ev.csv").write_bytes(data)
    return argv


def _decode_args_with_rows(tmp_path, row):
    # no raw column: the decoder takes the center as the intensity
    return _decode_text_args(tmp_path, f"{EVENT_HEADER}\n{row}\n")


def _decode_row_args(tmp_path, row):
    return _decode_text_args(tmp_path, f"{EVENT_HEADER},raw_intensity\n{row}\n")


def _decode_to_missing_dir(name):
    def make_argv(tmp_path):
        argv = _decode_args(tmp_path)
        argv[argv.index("-o") + 1] = str(tmp_path / "no-such-dir" / name)
        return argv
    return make_argv


NEAR_MAX_CSV = ",".join(
    repr(float(v)) for v in 1.7e308 * np.sin(0.3 * np.arange(512))).encode()

JSONL_RECORD = ('{"t_samples": 64, "channel": 10, "kernel": 3, "level": 1, '
                '"intensity_center": 0.4115}')


def _decode_jsonl_args(tmp_path, line, first=JSONL_RECORD):
    # a valid first record makes the file JSONL; `line` follows it
    events = tmp_path / "ev.jsonl"
    events.write_text(f"{first}\n{line}\n")
    return ["decode", str(events), "-o", str(tmp_path / "x.f32"), *SMALL_FLAGS]


def _config_args(tmp_path, text):
    config = tmp_path / "run.cfg"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    return _encode_args(tmp_path, "s.csv", b"0.1,0.2", "--config", str(config))


def _huge_width_args(tmp_path):
    # 8 kernels of 10**9 samples take 64 GB: past the memory bound of a host
    # with less than 128 GB, which the CLI checks before it allocates; were
    # the check missed, the 1 GiB address space fails the allocation at once
    path = tmp_path / "n.f32"
    path.write_bytes(bytes(4 * 4096))
    return ["encode", str(path), "--width", "1000000000", "--kernels", "8"]


_huge_width_args.address_space = 1 << 30


@pytest.mark.parametrize("make_argv, code", [
    (_cut_wav(64, 1), 3),  # ends mid-frame
    (lambda tmp: _eval_args(tmp, "clip_a\n"), 3),  # labels line without comma
    (lambda tmp: _eval_args(tmp, "clip_a,x\n", "--lr-decay", "0.9"), 2),
    (lambda tmp: _eval_args(tmp, "clip_a,x\n", "--lr-decay", "0.9@0"), 2),
    (lambda tmp: _encode_args(tmp, "s.csv", b"0.1,0.2", "--threshold", "nan"), 2),
    (lambda tmp: _encode_args(tmp, "nan.csv", b"0.1,nan,0.2"), 4),
    (lambda tmp: _encode_args(
        tmp, "inf.f32", np.array([0.1, np.inf], dtype="<f4").tobytes()), 4),
    (lambda tmp: _train_args(tmp, "--lr", "nan"), 2),
    (lambda tmp: _train_args(tmp, "--lr", "-1"), 2),
    (lambda tmp: _train_args(tmp, "--epochs", "-1"), 2),
    (lambda tmp: _train_args(tmp, "--batch", "0"), 2),
    (_cut_wav(4096, 200), 3),  # 100 whole frames short of its header
    (lambda tmp: _decode_args(tmp, "--length", "-5"), 2),
    (lambda tmp: _decode_args(tmp, "--length", "0"), 2),
    (lambda tmp: ["bench", "--segments", "0", *SMALL_FLAGS], 2),
    (lambda tmp: _train_args(tmp, "--bin", "0"), 2),
    (lambda tmp: _train_args(tmp, "--bin", "-5"), 2),
    (lambda tmp: _decode_row_args(tmp, "64,10,3,2,0.411500,inf"), 3),
    (lambda tmp: _decode_row_args(tmp, "64,10,3,2,nan,0.411500"), 3),
    (lambda tmp: _decode_row_args(tmp, "-10,10,3,2,0.411500,0.411500"), 3),
    # channels outside [0, 120), each kernel * 3 + level
    (lambda tmp: _eval_row_args(tmp, "64,121,40,1,0.411500"), 4),
    (lambda tmp: _eval_row_args(tmp, "64,-2,-1,1,0.411500"), 4),
    # channel 10, though kernel 3 at level 2 is channel 11
    (lambda tmp: _eval_row_args(tmp, "64,10,3,2,0.411500"), 3),
    (lambda tmp: _decode_row_args(tmp, "64,5,1,2,0.411500,0.000000"), 3),
    (lambda tmp: _decode_args_with_rows(tmp, "64,5,1,2,0.000000"), 3),
    (lambda tmp: _decode_args_with_rows(tmp, "64,5,1,2,-0.411500"), 3),
    (lambda tmp: _decode_row_args(tmp, f"{10**20},10,3,1,0.411500,0.411500"), 3),
    # an output of 10**18 samples passes the memory bound
    (lambda tmp: _decode_row_args(tmp, f"{10**18},10,3,1,0.411500,0.411500"), 4),
    (_decode_to_missing_dir("x.wav"), 3),
    (_decode_to_missing_dir("x.csv"), 3),
    (_decode_to_missing_dir("x.f32"), 3),
    (lambda tmp: _train_args(tmp, "--model-out", str(tmp / "no-such-dir" / "m.txt")),
     3),
    (lambda tmp: _decode_jsonl_args(tmp, "[1, 2]"), 3),
    (lambda tmp: _decode_jsonl_args(tmp, "5"), 3),
    (lambda tmp: _decode_jsonl_args(
        tmp, JSONL_RECORD.replace('"t_samples": 64', '"t_samples": null')), 3),
    (lambda tmp: _decode_jsonl_args(
        tmp, JSONL_RECORD.replace('"kernel": 3', '"kernel": [3]')), 3),
    (lambda tmp: _decode_jsonl_args(
        tmp, JSONL_RECORD.replace('"t_samples": 64', '"t_samples": 70.9')), 3),
    (lambda tmp: _decode_jsonl_args(
        tmp, JSONL_RECORD.replace('"kernel": 3', '"kernel": true')), 3),
    # a file value meets the same type and choices checks as a flag
    (lambda tmp: _config_args(tmp, "itp=lgo\n"), 2),
    (lambda tmp: _config_args(tmp, "k=abc\n"), 2),
    # the band is checked against the wav's rate, not the 16 kHz default
    (_wav_at_rate(22050, "--freq-hi", "10000"), 0),
    (_wav_at_rate(22050, "--freq-hi", "12000"), 2),
    (lambda tmp: _encode_args(tmp, "s.csv", b"0.1,0.2", "--fs", "nan"), 2),
    (lambda tmp: _encode_args(tmp, "s.csv", b"0.1,0.2", "--fs", "inf"), 2),
    (lambda tmp: _encode_args(tmp, "s.csv", b"0.1,0.2", "--fs", "0"), 2),
    # finite, but the float correlation overflows
    (lambda tmp: _encode_args(tmp, "near-max.csv", NEAR_MAX_CSV,
                              "--with-raw-intensity"), 4),
    # fixed point saturates instead
    (lambda tmp: _encode_args(tmp, "near-max.csv", NEAR_MAX_CSV, "--fixed", "34:24"), 0),
    (lambda tmp: _decode_row_args(tmp, "64,10,3,2,0.411500,0.411500,junk"), 3),
    (lambda tmp: _decode_text_args(
        tmp, f"{EVENT_HEADER}_extra\n64,10,3,2,0.411500\n"), 3),
    (lambda tmp: _decode_jsonl_args(tmp, JSONL_RECORD.replace("}", ', "junk": 7}')), 3),
    # the second record would decode from its center, losing its sign
    (lambda tmp: _decode_jsonl_args(
        tmp, JSONL_RECORD, JSONL_RECORD.replace("}", ', "raw_intensity": -0.4115}')), 3),
    # columns that contradict each other: 6 kernels x 3 levels = 18 channels
    *[(lambda tmp, row=row, extra=extra: [*_decode_row_args(tmp, row), *extra], 3)
      for extra in ([], ["--quantized"])
      for row in ("64,999,3,1,0.411500,0.411500",  # channel != kernel * 3 + level
                  "64,16,3,7,0.411500,0.411500",  # level outside [0, 3)
                  "64,10,3,1,3.500000,0.411500")],  # not level 1's center
    (lambda tmp: _decode_jsonl_args(
        tmp, JSONL_RECORD.replace('"channel": 10', '"channel": 11')), 3),
    # JSONL carries the center exactly
    (lambda tmp: _decode_jsonl_args(
        tmp, JSONL_RECORD.replace("0.4115", "0.41150000000000003")), 3),
    # 512 samples and half of another: the tail is not dropped silently
    (lambda tmp: _encode_args(tmp, "part.f32", bytes(2050)), 3),
    # eval builds the channel table before any dictionary or file
    (lambda tmp: _train_args(tmp, "--kernels", "0"), 2),
    (lambda tmp: _decode_args(tmp), 0),  # loadtxt warns on a body with no rows
    (lambda tmp: _decode_text_args(
        tmp, f"{EVENT_HEADER}\n64,10,3,1,0.411500\n \t \n64,10,3,1,0.411500\n"), 0),
    (lambda tmp: _decode_row_args(tmp, "64,10,3,1.0,0.411500,0.411500"), 3),
    # int() reads 256; the event reader takes ASCII digits only
    (lambda tmp: _decode_row_args(tmp, "2_56,10,3,1,0.411500,0.411500"), 3),
    (lambda tmp: _decode_bytes_args(tmp, f"{EVENT_HEADER}\n".encode() + b"\xff\n"), 3),
    # formats int64 cannot hold exactly: B <= 53 and B + F <= 62
    *[(lambda tmp, fixed=fixed: _encode_args(tmp, "s.csv", b"0.1,0.2", "--fixed", fixed),
       2) for fixed in ("48:36", "54:4", "32:31")],
    # a stem that a later line gives another label; the same label again is kept
    (lambda tmp: _labels_args(tmp, "clip_a,x\nclip_b,y\nclip_c,x\nclip_a,y\n"), 3),
    (lambda tmp: _labels_args(tmp, "clip_a,x\nclip_b,y\nclip_c,x\nclip_a,x\n"), 0),
    # bytes that are not UTF-8 in a csv input, a config file and a labels file
    (lambda tmp: _encode_args(tmp, "bad.csv", b"0.1,\xff"), 3),
    (lambda tmp: _config_args(tmp, b"k=\xff\n"), 3),
    (lambda tmp: _labels_args(tmp, b"clip_a,x\n\xff,y\n"), 3),
    (_huge_width_args, 4),
], ids=["truncated-wav", "labels-no-comma", "lr-decay-no-at",
        "lr-decay-every-zero", "nan-threshold", "nan-csv", "inf-f32",
        "lr-nan", "lr-negative", "epochs-negative", "batch-zero", "short-wav",
        "length-negative", "length-zero", "bench-segments-zero", "bin-zero",
        "bin-negative", "raw-intensity-inf", "center-nan", "time-negative",
        "eval-channel-high", "eval-channel-negative",
        "eval-channel-contradicts-level", "raw-intensity-zero",
        "center-zero", "center-negative", "time-beyond-int64", "time-huge",
        "decode-wav-unwritable", "decode-csv-unwritable", "decode-f32-unwritable",
        "model-out-unwritable", "jsonl-array-record", "jsonl-number-record",
        "jsonl-null-field", "jsonl-list-field", "jsonl-fractional-time",
        "jsonl-bool-kernel", "config-itp-invalid", "config-k-not-int",
        "wav-22050-band-below-nyquist", "wav-22050-band-above-nyquist",
        "fs-nan", "fs-inf", "fs-zero", "csv-near-max", "csv-near-max-fixed",
        "csv-extra-field", "csv-header-suffix", "jsonl-unknown-key",
        "jsonl-mixed-raw", "channel-contradicts-level", "level-outside-table",
        "center-not-the-level-center", "channel-contradicts-level-quantized",
        "level-outside-table-quantized", "center-not-the-level-center-quantized",
        "jsonl-channel-contradicts-level", "jsonl-center-not-exact",
        "f32-partial-sample", "eval-kernels-zero", "csv-header-only",
        "csv-whitespace-line", "csv-float-in-int-column", "csv-underscore-int",
        "csv-not-utf8", "fixed-48:36", "fixed-54:4", "fixed-32:31",
        "labels-stem-relabelled", "labels-line-repeated", "csv-input-not-utf8",
        "config-not-utf8", "labels-not-utf8", "width-past-memory"])
def test_cli_malformed_input_exit_codes(tmp_path, make_argv, code):
    limit = getattr(make_argv, "address_space", None)
    out = _cli(*make_argv(tmp_path), address_space=limit)
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    assert "Warning" not in out.stderr
    if limit is not None:  # refused by the bound, not by a failed allocation
        assert "past the bound of half of physical memory" in out.stderr


@pytest.mark.parametrize("make_argv, where", [
    (lambda tmp: _encode_args(tmp, "bad.csv", b"0.1\n0.2,\xff"),
     "bad csv value in '{}' line 2: "),
    (lambda tmp: _config_args(tmp, b"k=3\n\nwidth=\xff\n"),
     "bad config line in '{}' line 3: "),
    (lambda tmp: _labels_args(tmp, b"clip_a,x\n\xff,y\n"),
     "bad labels line in '{}' line 2: "),
], ids=["csv-input", "config", "labels"])
def test_text_that_is_not_utf8_names_the_file_line(tmp_path, capsys, make_argv, where):
    argv = make_argv(tmp_path)
    bad = [a for a in argv if a.endswith(("bad.csv", "run.cfg", "labels.csv"))][-1]
    assert cli.main(argv) == 3
    assert where.format(bad) in capsys.readouterr().err


@pytest.mark.parametrize("fs", ["nan", "inf", "0", "-16000"])
@pytest.mark.parametrize("command", ["encode", "decode"])
def test_cli_bad_sample_rate_is_named(tmp_path, capsys, command, fs):
    # checked before the band, whose checks would otherwise fail on it
    make_argv = _decode_args if command == "decode" else (
        lambda tmp, *extra: _encode_args(tmp, "s.csv", b"0.1,0.2", *extra))
    assert cli.main(make_argv(tmp_path, f"--fs={fs}")) == 2
    assert "sample_rate must be finite and > 0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def encoded_lines(tmp_path_factory):
    """A 512-sample clip encoded to csv with raw intensity and to jsonl:
    (directory, {file name: its lines})."""
    out_dir = tmp_path_factory.mktemp("mutate")
    signal = out_dir / "clip.csv"
    signal.write_text(",".join(repr(float(v)) for v in make_audio_clip(512, seed=3)))
    lines = {}
    for name, extra in (("ev.csv", "--with-raw-intensity"),
                        ("ev.jsonl", "--output-format=jsonl")):
        argv = ["encode", str(signal), "-o", str(out_dir / name), extra, *SMALL_FLAGS]
        assert cli.main(argv) == 0
        lines[name] = (out_dir / name).read_text().splitlines()
    return out_dir, lines


MUTATION_CHARS = '0123456789+-.,e{}[]":nulinf'
# whole values spelled in MUTATION_CHARS; random text almost never forms one
MUTATION_TOKENS = ["null", "[]", "{}", "[1]", '""', "inf", "-1", "0", "1e999"]


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(["ev.csv", "ev.jsonl"]), data=st.data())
def test_mutated_event_line_never_escapes_cli(encoded_lines, name, data):
    # one slice of one line replaced by random text: decode either succeeds
    # or exits with a documented code, never with an uncaught exception;
    # --length keeps a mutated mid-size time from sizing the output
    out_dir, lines = encoded_lines[0], list(encoded_lines[1][name])
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[i]
    # slices start and end at the line's ends or at a field or value edge
    cuts = sorted({0, len(line)} | {k + 1 for k, c in enumerate(line) if c in ",:"}
                  | {k for k, c in enumerate(line) if c in ",}"})
    j = data.draw(st.integers(0, len(cuts) - 1), label="start")
    lo, hi = cuts[j], cuts[data.draw(st.integers(j, len(cuts) - 1), label="end")]
    text = data.draw(st.one_of(st.text(MUTATION_CHARS, max_size=8),
                               st.sampled_from(MUTATION_TOKENS)), label="text")
    lines[i] = line[:lo] + text + line[hi:]
    mutated = out_dir / f"mutated-{name}"
    mutated.write_text("\n".join(lines) + "\n")
    argv = ["decode", str(mutated), "-o", str(out_dir / "x.f32"),
            "--length", "512", *SMALL_FLAGS]
    assert cli.main(argv) in (0, 3, 4)


# ----- the per-line event parser, kept as the oracle of the array one -----

def _event_from_fields(t, channel, kernel, level, center, raw=None) -> tuple:
    t, center = int(t), float(center)
    # sign information only survives in the raw column
    raw = float(raw) if raw is not None else center
    if t < 0 or not (math.isfinite(center) and math.isfinite(raw)):
        raise ValueError(f"negative time {t} or non-finite intensity {center}, {raw}")
    if center <= 0 or raw == 0:  # emit_stream writes neither
        raise ValueError(f"intensity center {center} or raw intensity {raw}")
    return t, int(channel), int(kernel), int(level), center, raw


def _parse_events_oracle(path, table):
    """`parse_events` one line at a time: `int()` and `float()` of each field
    (which also read 2_56 as 256), then the contradicting-columns check."""
    events = []
    try:
        with open(path) as fh:
            first = fh.readline()
            jsonl = first.lstrip().startswith("{")
            if jsonl:
                keys = None  # the header's, plus raw_intensity if the first has it
                for line in [first] + fh.readlines():
                    if not line.strip():
                        continue
                    rec = json.loads(line)
                    keys = keys or EVENT_HEADER.split(",") + [
                        "raw_intensity"] * ("raw_intensity" in rec)
                    if sorted(rec) != sorted(keys):
                        raise ValueError(f"record keys {sorted(rec)}, expected {keys}")
                    events.append(_event_from_fields(*[json.dumps(rec[k]) for k in keys]))
            elif first:
                header = first.rstrip("\r\n")
                if header not in (EVENT_HEADER, EVENT_HEADER + ",raw_intensity"):
                    raise IoError(f"unexpected event header in {path!r}")
                for line in fh:
                    if not line.strip():
                        continue
                    parts = line.split(",")
                    if len(parts) != header.count(",") + 1:
                        raise ValueError(f"{len(parts)} fields in {line.strip()!r}")
                    events.append(_event_from_fields(*parts))
        events = np.array(events, (np.record, EVENT_DTYPE))
        centers = [c if jsonl else float(pipeline._fmt_intensity(c))
                   for c in table.centers]
        level, n = events["level"], len(centers)
        center = np.array([*centers, np.nan])[np.minimum(level.view(np.uint64), n)]
        if ((events["channel"] != events["m"] * n + level)
                | (events["magnitude_level_center"] != center)).any():
            raise ValueError("columns contradict the table")
        return events.view(np.recarray)
    except (ValueError, KeyError, OverflowError, TypeError) as exc:
        raise IoError(f"bad event record in {path!r}: {exc}")


def _parsed_or_none(parse, path, table):
    try:
        return parse(str(path), table)
    except IoError as exc:  # a malformed file, not one that cannot be read
        if not str(exc).startswith(("bad event record", "unexpected event header")):
            raise
        return None


EVENT_FORMATS = {"csv": (write_events_csv, False), "csv-raw": (write_events_csv, True),
                 "jsonl": (write_events_jsonl, False),
                 "jsonl-raw": (write_events_jsonl, True)}


@st.composite
def _emitted_events(draw):
    """emit_stream's events for up to 30 random codes: (events, table)."""
    kernels, width = draw(st.integers(1, 6)), draw(st.sampled_from([2, 8, 256]))
    s = st.one_of(st.floats(-1e300, 1e300, allow_nan=False),
                  st.sampled_from([5e-324, -2.5e-310, 1.7976931348623157e308]))
    rows = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, kernels - 1),
                                   st.integers(-(width // 2), width // 2), s),
                         max_size=30))
    table = build_channel_table(kernels)
    metric = draw(st.sampled_from(["log", "linear"]))
    return emit_stream([codes(*rows)], table, width, metric), table


@settings(max_examples=200, deadline=None)
@given(emitted=_emitted_events(), fmt=st.sampled_from(sorted(EVENT_FORMATS)))
def test_parse_events_equals_the_per_line_oracle(tmp_path_factory, emitted, fmt):
    events, table = emitted
    path = tmp_path_factory.mktemp("oracle") / "events"
    write, with_raw = EVENT_FORMATS[fmt]
    with open(path, "w", newline="\n") as fh:
        write(events, fh, with_raw)
    got = parse_events(str(path), table)
    want = _parse_events_oracle(str(path), table)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# MUTATION_CHARS and MUTATION_TOKENS plus the blanks, underscores, line
# breaks, comment marks and spellings that int() and float() take or skip
PARSE_MUTATION_CHARS = MUTATION_CHARS + " \t_#\n"
PARSE_MUTATION_TOKENS = MUTATION_TOKENS + ["1.0", "2_56", " 64 ", "-64", "+3", "NaN",
                                           "1 at row 99", "x at row 0"]


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(["ev.csv", "ev-plain.csv", "ev.jsonl"]), data=st.data())
def test_mutated_event_line_parses_as_the_oracle_or_is_rejected(encoded_lines, name,
                                                                 data):
    # parse_events may reject what the oracle accepts (2_56, a float in an
    # int column), never the reverse, and what both accept is the same array
    out_dir, lines = encoded_lines[0], list(encoded_lines[1][name.replace("-plain", "")])
    if name == "ev-plain.csv":  # the same events without the raw column
        lines = [line.rsplit(",", 1)[0] for line in lines]
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[i]
    # one whole field, JSON key or JSON value is replaced
    lo = data.draw(st.sampled_from(
        [0] + [k + 1 for k, c in enumerate(line) if c in ",:"]), label="start")
    hi = min([k for k, c in enumerate(line) if c in ",}" and k >= lo] + [len(line)])
    text = data.draw(st.one_of(st.sampled_from(PARSE_MUTATION_TOKENS),
                               st.text(PARSE_MUTATION_CHARS, max_size=8)), label="text")
    lines[i] = line[:lo] + text + line[hi:]
    mutated = out_dir / f"parse-mutated-{name}"
    mutated.write_text("\n".join(lines) + "\n")
    table = build_channel_table(6)
    got = _parsed_or_none(parse_events, mutated, table)
    if got is not None:
        want = _parsed_or_none(_parse_events_oracle, mutated, table)
        assert want is not None and got.tobytes() == want.tobytes()


ROW = "64,10,3,1,0.411500"  # kernel 3 at level 1 of 3, as 6 kernels read it


@pytest.mark.parametrize("text, line", [
    (f"{EVENT_HEADER}\n{ROW}\n\n64,1x,3,1,0.411500\n", 4),
    (f"{EVENT_HEADER}\n\n{ROW}\n  \n64,10,3,1\n{ROW}\n", 5),
    (f"{EVENT_HEADER}\n{ROW}\n\t\n{ROW}\n-64,10,3,1,0.411500\n", 5),
    (f"{JSONL_RECORD}\n\n{JSONL_RECORD.replace('64', '70.9')}\n", 3),
    (f"{JSONL_RECORD}\n{JSONL_RECORD.replace('3,', '[3, 4],')}\n", 2),
    (f"{JSONL_RECORD}\n \n{JSONL_RECORD}\n{JSONL_RECORD.replace('10', '11')}\n", 4),
    (JSONL_RECORD + "\n" + JSONL_RECORD.replace("}", ', "junk": 7}') + "\n", 2),
    # numpy's message quotes the bad field, which may itself read "at row N"
    (f"{EVENT_HEADER}\n{ROW}\n64,1 at row 99,3,1,0.411500\n", 3),
    ("\n".join([JSONL_RECORD, JSONL_RECORD.replace("3,", '"x at row 0",'),
                JSONL_RECORD, ""]), 2),
    (f"{EVENT_HEADER}\n{ROW}\n\n".encode() + b"64,1\xff,3,1,0.411500\n", 4),
], ids=["csv-conversion", "csv-field-count", "csv-field-check", "jsonl-conversion",
        "jsonl-field-count", "jsonl-field-check", "jsonl-keys", "csv-field-quotes-a-row",
        "jsonl-value-quotes-a-row", "csv-not-utf8"])
def test_parse_error_names_the_file_line(tmp_path, text, line):
    # loadtxt counts rows of the body, from 0 in a conversion error and from 1
    # in a field-count error, and skips blank lines; the header is line 1
    path = tmp_path / "events"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(IoError, match=f"{path.name}' line {line}: "):
        parse_events(str(path), build_channel_table(6))


def _mixed_cli_steps(out_dir, signal_csv):
    raw, plain = str(out_dir / "raw.csv"), str(out_dir / "plain.csv")
    return [
        ["encode", str(signal_csv), "-o", raw, "--with-raw-intensity", *SMALL_FLAGS],
        ["encode", str(signal_csv), "-o", plain, *SMALL_FLAGS],
        ["decode", raw, "-o", str(out_dir / "quantized.f32"), "--quantized",
         *SMALL_FLAGS],
        ["decode", raw, "-o", str(out_dir / "exact.f32"), *SMALL_FLAGS],
    ]


def test_cli_calls_in_one_process_match_separate_processes(tmp_path, signal_csv):
    # main reuses one parser: no call may see the flags of the one before
    for where in ("one", "separate"):
        (tmp_path / where).mkdir()
        for argv in _mixed_cli_steps(tmp_path / where, signal_csv):
            code = cli.main(argv) if where == "one" else _cli(*argv).returncode
            assert code == 0, (where, argv)
    outputs = {}
    for name in ("raw.csv", "plain.csv", "quantized.f32", "exact.f32"):
        outputs[name] = (tmp_path / "one" / name).read_bytes()
        assert outputs[name] == (tmp_path / "separate" / name).read_bytes(), name
    assert outputs["raw.csv"] != outputs["plain.csv"]
    assert outputs["quantized.f32"] != outputs["exact.f32"]


def test_cli_config_file_and_flag_precedence(tmp_path, signal_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("width=128\nkernels=6\nk=4\nthreshold=0.0\n# comment\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    out = _cli("encode", str(signal_csv), "-o", str(a), "--config", str(cfg))
    assert out.returncode == 0, out.stderr
    out = _cli("encode", str(signal_csv), "-o", str(b), "--config", str(cfg),
               "--k", "1")
    assert out.returncode == 0, out.stderr
    # --k 1 must override k=4 from the file: fewer events
    assert len(a.read_text().splitlines()) > len(b.read_text().splitlines())


@pytest.mark.parametrize("text, line, message", [
    ("k=4\n# comment\nbackend=\n", 3, "argument --backend: invalid choice: ''"),
    ("k=abc\n", 1, "argument --k: invalid int value: 'abc'"),
    ("\nwidth=128\nseed=3\n", 3, "want key=value with a shared flag's key"),
    ("kernels 6\n", 1, "want key=value with a shared flag's key"),
], ids=["backend-empty", "k-not-int", "seed-not-shared", "no-equals"])
def test_cli_config_file_error_names_file_and_line(tmp_path, text, line, message):
    out = _cli(*_config_args(tmp_path, text))
    assert out.returncode == 2
    assert f"config error: {tmp_path / 'run.cfg'} line {line}: {message}" in out.stderr
    assert "usage:" not in out.stderr


def test_cli_sample_rate_precedence(tmp_path):
    # --fs, then a config file, then the wav header's rate, then 16000; the
    # default band stops at half the rate
    wav = tmp_path / "in.wav"
    clip = make_audio_clip(512, sample_rate=8000.0, seed=5)
    _write_wav(wav, np.round(clip * 32767), rate=8000)

    def encode(name, *extra, config=None):
        out = tmp_path / name
        if config is not None:
            (tmp_path / f"{name}.cfg").write_text(config)
            extra += ("--config", str(tmp_path / f"{name}.cfg"))
        assert cli.main(["encode", str(wav), "-o", str(out), *extra,
                         *SMALL_FLAGS]) == 0
        return out.read_bytes()

    header = encode("header.csv")
    assert header == encode("fs8k.csv", "--fs", "8000", "--freq-hi", "4000")
    low = encode("low.csv", "--freq-hi", "3000")
    assert low == encode("fs8k-low.csv", "--fs", "8000", "--freq-hi", "3000")
    fs16k = encode("fs16k.csv", "--fs", "16000")
    assert fs16k == encode("file16k.csv", config="fs=16000\n")
    assert fs16k == encode("flag-wins.csv", "--fs", "16000", config="fs=8000\n")
    assert len({header, low, fs16k}) == 3


def test_cli_dict_dump(tmp_path):
    out_path = tmp_path / "dict.csv"
    out = _cli("dict-dump", "-o", str(out_path), "--kernels", "5", "--width", "64")
    assert out.returncode == 0, out.stderr
    lines = out_path.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("kernel_index,center_freq_hz,s0,")


def test_cli_mode_flags_accepted(tmp_path, signal_csv):
    for extra in (["--select", "signed"], ["--itp", "linear"], ["--fixed", "34:24"],
                  ["--backend", "spectral"]):
        out = _cli("encode", str(signal_csv), "-o", str(tmp_path / "ev.csv"),
                   *SMALL_FLAGS, *extra)
        assert out.returncode == 0, (extra, out.stderr)


def test_cli_decode_quantized_to_wav(tmp_path, signal_csv):
    events = tmp_path / "ev.csv"
    out = _cli("encode", str(signal_csv), "-o", str(events),
               "--with-raw-intensity", *SMALL_FLAGS)
    assert out.returncode == 0, out.stderr
    wav = tmp_path / "rec.wav"
    out = _cli("decode", str(events), "-o", str(wav), "--quantized", *SMALL_FLAGS)
    assert out.returncode == 0, out.stderr
    samples, rate = read_input(RunConfig(input_path=str(wav)))
    assert rate == 16000.0
    assert len(samples) == 512


def test_cli_eval_trains_on_event_directory(tmp_path):
    # two separable classes: low-band vs high-band decaying tones
    events_dir = tmp_path / "events"
    events_dir.mkdir()
    rng = np.random.default_rng(0)
    label_lines = []
    for i in range(12):
        cls = i % 2
        freq = rng.uniform(100, 300) if cls == 0 else rng.uniform(2000, 6000)
        t = np.arange(1024) / 16000.0
        x = 0.5 * np.sin(2 * np.pi * freq * t) * np.exp(-t * 8)
        x += 0.02 * rng.standard_normal(1024)
        stem = f"rec{i:02d}"
        raw = tmp_path / f"{stem}.f32"
        np.asarray(x, dtype="<f4").tofile(raw)
        out = _cli("encode", str(raw), "-o", str(events_dir / f"{stem}.csv"),
                   "--width", "256", "--kernels", "10", "--k", "6",
                   "--fs", "16000")
        assert out.returncode == 0, out.stderr
        label_lines.append(f"{stem},{'low' if cls == 0 else 'high'}")
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(label_lines) + "\n")
    model_path = tmp_path / "model.txt"
    out = _cli("eval", "--features-from", str(events_dir), "--labels", str(labels),
               "--epochs", "120", "--batch", "4", "--lr", "1e-2",
               "--lr-decay", "0.9@50", "--seed", "1",
               "--kernels", "10", "--width", "256", "--model-out", str(model_path))
    assert out.returncode == 0, out.stderr
    assert "macro:" in out.stdout
    # the scores are on the training files, and the line before them says so
    lines = out.stdout.splitlines()
    assert lines[lines.index("training-set scores: the model is scored on the files "
                             "it trained on") + 1].startswith("  high: P=")
    header = model_path.read_text().splitlines()
    assert header[0] == "# mlp-weights v1"
    assert header[1] == "# layers: 30 256 64 2"


@pytest.fixture(scope="module")
def clip_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned") / "clip.csv"
    write_waveform(make_audio_clip(5 * 128, seed=11), str(path))
    return path


JSONL_RAW = ("--with-raw-intensity", "--output-format", "jsonl")


@pytest.mark.parametrize("backend, extra, digest", [
    ("direct", (), "6057ccdddf3c44b2"),
    ("direct", ("--with-raw-intensity",), "756aecf2b07b21dd"),
    ("direct", JSONL_RAW, "9e4288af63b43064"),
    ("spectral", (), "6057ccdddf3c44b2"),
    ("spectral", ("--with-raw-intensity",), "756aecf2b07b21dd"),
    ("spectral", JSONL_RAW, "7e85a5a66ecf077b"),
], ids=["direct-csv", "direct-csv-raw", "direct-jsonl-raw", "spectral-csv",
        "spectral-csv-raw", "spectral-jsonl-raw"])
def test_cli_event_file_bytes_pinned(tmp_path, clip_csv, backend, extra, digest):
    # the event file is the codec's output contract: a change of the code
    # containers or of the writers must leave every byte as it is
    events = tmp_path / "ev.out"
    assert cli.main(["encode", str(clip_csv), "-o", str(events),
                     "--backend", backend, *extra, *SMALL_FLAGS]) == 0
    assert hashlib.sha256(events.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("extra, quantized, digest", [
    (("--with-raw-intensity",), (), "1d8e5885f8f7723c"),
    (("--with-raw-intensity",), ("--quantized",), "2e2cbe65256f170b"),
    (JSONL_RAW, (), "3e57eb1b699dc74e"),
    (JSONL_RAW, ("--quantized",), "2e2cbe65256f170b"),
], ids=["csv-raw", "csv-raw-quantized", "jsonl-raw", "jsonl-raw-quantized"])
def test_cli_decoded_waveform_bytes_pinned(tmp_path, clip_csv, extra, quantized,
                                           digest):
    # the csv writer rounds the raw intensity, so csv and jsonl decode apart
    events, recon = tmp_path / "ev.out", tmp_path / "rec.f32"
    assert cli.main(["encode", str(clip_csv), "-o", str(events), *extra,
                     *SMALL_FLAGS]) == 0
    assert cli.main(["decode", str(events), "-o", str(recon), *quantized,
                     *SMALL_FLAGS]) == 0
    assert hashlib.sha256(recon.read_bytes()).hexdigest()[:16] == digest


def test_only_a_jsonl_raw_intensity_decodes_exactly(tmp_path, clip_csv):
    # JSONL carries the raw intensity as the float it is; the csv writer
    # prints it to 6 significant digits, so a csv decode is close, not exact
    samples, _ = read_input(RunConfig(input_path=str(clip_csv)))
    d = build_dictionary(DictionaryConfig(num_kernels=6, kernel_len=128))
    codesets = encode_signal(samples, d, EncoderConfig(max_codes=4, width=128))
    exact = reconstruct(codesets, d, 128, len(samples)).astype(np.float32)
    decoded = {}
    for name, extra in (("csv", ("--with-raw-intensity",)), ("jsonl", JSONL_RAW)):
        events, recon = tmp_path / f"ev.{name}", tmp_path / f"{name}.f32"
        assert cli.main(["encode", str(clip_csv), "-o", str(events), *extra,
                         *SMALL_FLAGS]) == 0
        assert cli.main(["decode", str(events), "-o", str(recon), *SMALL_FLAGS]) == 0
        decoded[name] = np.fromfile(recon, "<f4")
    assert np.array_equal(decoded["jsonl"], exact)
    assert not np.array_equal(decoded["csv"], exact)
    assert np.abs(decoded["csv"] - exact).max() < 1e-5


def test_cli_decode_length_cuts_the_last_partial_segment(tmp_path):
    # 1000 samples at W=256: the fourth segment starts at 768 and is cut at
    # 1000, so its codes still decode
    wav, events = tmp_path / "clip.wav", tmp_path / "ev.csv"
    write_waveform(make_audio_clip(1000, seed=1), str(wav))
    flags = ("--width", "256", "--kernels", "8")
    assert cli.main(["encode", str(wav), "-o", str(events), "--k", "4",
                     "--with-raw-intensity", *flags]) == 0
    full, cut = tmp_path / "full.f32", tmp_path / "cut.f32"
    assert cli.main(["decode", str(events), "-o", str(full), *flags]) == 0
    assert cli.main(["decode", str(events), "-o", str(cut), "--length", "1000",
                     *flags]) == 0
    full, cut = np.fromfile(full, "<f4"), np.fromfile(cut, "<f4")
    assert len(full) == 1024 and np.any(full[768:1000])
    assert np.array_equal(cut, full[:1000])
