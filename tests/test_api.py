"""The package's public names and the README library example."""

import pathlib
import re

import spikecodec

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
