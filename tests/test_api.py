"""The package's public names and the README library example."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

import spikecodec

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _library_example() -> str:
    text = README.read_text()
    return re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)


def test_all_equals_readme_import_block():
    block = re.search(r"from spikecodec import \((.*?)\)", _library_example(), re.S)
    names = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert sorted(spikecodec.__all__) == sorted(names)
    assert all(hasattr(spikecodec, name) for name in spikecodec.__all__)


def test_readme_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})


# Imports every module, encodes and decodes through the CLI, and prints the
# top-level names of the modules this imported; modules that no import made
# (Cython's runtime modules, made by numpy's extensions) have no __spec__.
RUNTIME_IMPORTS = """
import importlib, json, os, pkgutil, sys
at_start = set(sys.modules)  # the interpreter's start-up: site and .pth files
import spikecodec
from spikecodec import cli, pipeline
for info in pkgutil.iter_modules(spikecodec.__path__):
    importlib.import_module("spikecodec." + info.name)
signal, events, recon = (os.path.join(sys.argv[1], name)
                         for name in ("x.csv", "e.csv", "y.f32"))
pipeline.write_waveform(pipeline.make_audio_clip(512), signal)
flags = ["--width", "128", "--kernels", "4"]
assert cli.main(["encode", signal, "-o", events, "--k", "2", *flags]) == 0
assert cli.main(["decode", events, "-o", recon, *flags]) == 0
made = [name for name in set(sys.modules) - at_start
        if getattr(sys.modules[name], "__spec__", None) is not None]
print(json.dumps(sorted({name.partition(".")[0] for name in made})))
"""


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    # scipy may be installed beside numpy: an import of it would pass every
    # other test, so a fresh interpreter lists what the package imports
    out = subprocess.run([sys.executable, "-c", RUNTIME_IMPORTS, str(tmp_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    imported = set(json.loads(out.stdout.splitlines()[-1]))
    assert imported - set(sys.stdlib_module_names) == {"numpy", "spikecodec"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.4"]
