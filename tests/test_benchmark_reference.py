"""The benchmark's recorded event files, checked in tier 1: seed 0 of every
workload must encode to the digests in perfbench/reference.json, so a bit
change of the codec fails here and not only in a benchmark run."""

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


@pytest.mark.parametrize("name", ["clip-spectral", "clip-fixed-direct"])
def test_benchmark_event_files_match_the_recorded_digests(tmp_path, name):
    workloads = _workloads()
    w = workloads.BY_NAME[name]
    digests = []
    for i, pcm in enumerate(workloads.make_inputs(w, 0)):
        wav, events = tmp_path / f"{i}.wav", tmp_path / f"{i}.csv"
        workloads.write_wav(str(wav), pcm)
        # the benchmark worker's encode command line
        assert cli.main(["encode", str(wav), "-o", str(events), "--output-format",
                         "csv", "--with-raw-intensity", *w.codec_flags()]) == 0
        digests.append(hashlib.sha256(events.read_bytes()).hexdigest())
    assert digests == _recorded_digests(name)


def test_stream_workload_event_file_matches_the_recorded_digest(tmp_path):
    # the benchmark worker's streaming loop: per segment encode_segment ->
    # emit_stream -> its csv rows, the header written once
    workloads = _workloads()
    w = workloads.BY_NAME["stream-dense"]
    (pcm,) = workloads.make_inputs(w, 0)
    wav = tmp_path / "0.wav"
    workloads.write_wav(str(wav), pcm)
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
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert [digest] == _recorded_digests("stream-dense")


def _recorded_digests(name):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    return reference[name]["0"]["digests"]
