"""The benchmark's recorded round trips, checked in tier 1: seed 0 of every
workload must encode to the digests in perfbench/reference.json and decode
to its SNR, so a bit change of the codec fails here and not only in a
benchmark run."""

import functools
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import spikecodec
from spikecodec import cli, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _workloads():
    """perfbench/workloads.py, loaded from its file: the inputs and the
    pinned codec flags of every workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _write_event_files(name, tmp_path):
    """The workload's seed-0 input files and the event files the benchmark
    worker writes from them: [(pcm, event file path)]."""
    workloads = _workloads()
    w = workloads.BY_NAME[name]
    files = []
    for i, pcm in enumerate(workloads.make_inputs(w, 0)):
        wav, events = tmp_path / f"{i}.wav", tmp_path / f"{i}.csv"
        workloads.write_wav(str(wav), pcm)
        if w.path == "cli":  # the worker's encode command line
            assert cli.main(["encode", str(wav), "-o", str(events), "--output-format",
                             "csv", "--with-raw-intensity", *w.codec_flags()]) == 0
        else:
            events.write_text(_stream_events(w, wav))
        files.append((pcm, events))
    return files


def _stream_events(w, wav):
    """The worker's streaming loop: per segment encode_segment -> emit_stream
    -> its csv rows, the header written once."""
    workloads = _workloads()
    samples, _ = pipeline.read_input(
        pipeline.RunConfig(input_path=str(wav), input_format="wav16"))
    d = spikecodec.build_dictionary(spikecodec.DictionaryConfig(
        num_kernels=workloads.KERNELS, sample_rate=float(workloads.RATE),
        freq_lo=20.0, freq_hi=8000.0, kernel_len=w.width))
    table = spikecodec.build_channel_table(workloads.KERNELS)
    cfg = spikecodec.EncoderConfig(max_codes=w.k, halt_threshold=0.0,
                                   backend=w.backend, select="abs", width=w.width)
    out = io.StringIO()
    for i in range(len(samples) // w.width):
        seg = spikecodec.Segment(samples[i * w.width : (i + 1) * w.width], i, w.width)
        codes = spikecodec.encode_segment(seg, d, None, cfg)
        buf = io.StringIO()
        pipeline.write_events_csv(spikecodec.emit_stream([codes], table, w.width, "log"),
                                  buf, with_raw=True)
        out.write(buf.getvalue() if i == 0 else buf.getvalue().split("\n", 1)[1])
    return out.getvalue()


@pytest.fixture(scope="module")
def event_files(tmp_path_factory):
    """name -> `_write_event_files(name)`, each written once per module."""
    made = {}

    def files(name):
        if name not in made:
            made[name] = _write_event_files(name, tmp_path_factory.mktemp(name))
        return made[name]
    return files


@pytest.mark.parametrize("name", ["clip-spectral", "clip-fixed-direct"])
def test_benchmark_event_files_match_the_recorded_digests(event_files, name):
    digests = [hashlib.sha256(events.read_bytes()).hexdigest()
               for _, events in event_files(name)]
    assert digests == _recorded_digests(name)


def test_stream_workload_event_file_matches_the_recorded_digest(event_files):
    ((_, events),) = event_files("stream-dense")
    assert [hashlib.sha256(events.read_bytes()).hexdigest()] == _recorded_digests(
        "stream-dense")


# sha256 of the stream-dense seed-0 decode, recorded before the decoder held
# codes as arrays: the array decoder must write the same bytes
STREAM_DECODED_SHA256 = "15c5283647fa76436166ae3d9024d3af2f4c96a58fb3109f44789613c67a0e66"


@pytest.mark.parametrize("name", ["clip-spectral", "clip-fixed-direct", "stream-dense"])
def test_benchmark_event_files_decode_to_the_recorded_snr(event_files, tmp_path, name):
    # the decode half of the benchmark's round trip: a fault it would report
    # as outputs_incorrect fails here first
    workloads = _workloads()
    w = workloads.BY_NAME[name]
    snrs = []
    for i, (pcm, events) in enumerate(event_files(name)):
        decoded = tmp_path / f"{i}.f32"
        # the benchmark worker's decode command line
        assert cli.main(["decode", str(events), "-o", str(decoded), "--length",
                         str(len(pcm)), *w.codec_flags()]) == 0
        snrs.append(workloads.snr_db(*workloads.snr_parts(pcm, str(decoded))))
        if name == "stream-dense":
            assert hashlib.sha256(decoded.read_bytes()).hexdigest() == (
                STREAM_DECODED_SHA256)
    recorded = _reference()[name]["0"]["snr_db"]
    assert len(snrs) == len(recorded)
    assert all(abs(a - b) <= 1e-6 for a, b in zip(snrs, recorded)), (snrs, recorded)


def _reference():
    return json.loads((PERFBENCH / "reference.json").read_text())


def _recorded_digests(name):
    return _reference()[name]["0"]["digests"]
