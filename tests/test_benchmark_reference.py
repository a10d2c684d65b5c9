"""The benchmark's recorded event files, checked in tier 1: seed 0 of the
CLI workloads must encode to the digests in perfbench/reference.json, so a
bit change of the codec fails here and not only in a benchmark run."""

import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from spikecodec import cli

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
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    digests = []
    for i, pcm in enumerate(workloads.make_inputs(w, 0)):
        wav, events = tmp_path / f"{i}.wav", tmp_path / f"{i}.csv"
        workloads.write_wav(str(wav), pcm)
        # the benchmark worker's encode command line
        assert cli.main(["encode", str(wav), "-o", str(events), "--output-format",
                         "csv", "--with-raw-intensity", *w.codec_flags()]) == 0
        digests.append(hashlib.sha256(events.read_bytes()).hexdigest())
    assert digests == reference[name]["0"]["digests"]
