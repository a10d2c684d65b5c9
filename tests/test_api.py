"""The package's public names and the README library example."""

import ast
import builtins
import json
import pathlib
import re
import subprocess
import sys

import pytest

import spikecodec
from spikecodec import cli, errors

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "spikecodec"


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


def test_readme_lists_every_error_class_with_its_exit_code(tmp_path, monkeypatch,
                                                            capsys):
    # the Library section names each class as `Name` (exit code)
    library = re.search(r"## Library\n(.*?)\n## ", README.read_text(), re.S).group(1)
    listed = {name: int(code) for name, code in re.findall(r"`(\w+)` \((\d)\)", library)}
    defined = {name for name, obj in vars(errors).items() if isinstance(obj, type)
               and issubclass(obj, Exception) and obj.__module__ == errors.__name__}
    assert sorted(listed) == sorted(defined)
    for name, code in listed.items():
        def fail(*args, error=getattr(errors, name)):
            raise error("failed")

        monkeypatch.setattr(cli, "build_dictionary", fail)
        assert cli.main(["dict-dump", "-o", str(tmp_path / "k.csv")]) == code, name
    assert "Traceback" not in capsys.readouterr().err


def _undefined_camelcase(readme, sources):
    """The CamelCase names that `readme` shows in backticks and that no class,
    function or module-level assignment of `sources` and no builtin defines."""
    defined = set(dir(builtins))
    for text in sources:
        tree = ast.parse(text)
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        defined |= {n.id for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for n in ast.walk(node) if isinstance(n, ast.Name)}
    shown = {name for span in re.findall(r"`+([^`]+)`+", readme)
             for name in re.findall(r"\b[A-Z][a-z0-9]\w*", span)}
    return sorted(shown - defined)


def test_readme_camelcase_names_are_defined():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert _undefined_camelcase(README.read_text(), sources) == []
    # a class that README still names after src/ dropped it is found
    assert _undefined_camelcase("`LengthMismatch` and `Segment`", sources) == [
        "LengthMismatch"]


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



# ----- every top-level name in src/ has a caller outside the tests -----

PACKAGE = "__init__"


def _chain(node):
    """["a", "b", "c"] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _references(node, mod, binds, modules, aliases):
    """The (module, name) keys that the code under `node`, in module `mod`,
    refers to: a bound name of `mod`, or an attribute of a module that
    `aliases` (a name -> module map) binds, a chain such as
    ``spikecodec.cli.main`` read through the package. Docstrings and
    comments hold no Name or Attribute node, and so no reference."""
    keys = set()
    for sub in ast.walk(node):
        chain = _chain(sub)
        if chain is None:
            continue
        if len(chain) == 1 and (mod, chain[0]) in binds:
            keys.add((mod, chain[0]))
        elif chain[0] in aliases:
            target, rest = aliases[chain[0]], chain[1:]
            while target == PACKAGE and len(rest) > 1 and rest[0] in modules:
                target, rest = rest[0], rest[1:]
            if len(rest) == 1:
                keys.add((target, rest[0]))
    return keys


def _unreached(sources, roots, names):
    """The (module, name) of every top-level name of `sources` (module ->
    source text) that no walk reaches from `roots`, from the module-level
    statements that bind no name, and from every name in `names`."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    binds, statements, aliases = {}, [], {mod: {} for mod in trees}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and not n.id.startswith("__")]
            elif isinstance(node, ast.ImportFrom) and node.level:
                bound = [a.asname or a.name for a in node.names]
                if node.module is None:  # from . import module
                    aliases[mod].update(zip(bound, (a.name for a in node.names)))
            else:  # outside imports, the docstring, `if __name__ == ...`
                bound = []
            for name in bound:
                binds.setdefault((mod, name), []).append(node)
            if not bound and not isinstance(node, (ast.Import, ast.ImportFrom)):
                statements.append((mod, node))

    def edges(key):
        out = set()
        for node in binds[key]:
            if isinstance(node, ast.ImportFrom):  # from .module import name
                out |= {(node.module, a.name) for a in node.names
                        if node.module and (a.asname or a.name) == key[1]}
            else:
                out |= _references(node, key[0], binds, trees, aliases[key[0]])
        return out

    todo = set(roots) | {key for key in binds if key[1] in names}
    for mod, node in statements:
        todo |= _references(node, mod, binds, trees, aliases[mod])
    seen = set()
    while todo:
        key = todo.pop()
        if key in binds and key not in seen:
            seen.add(key)
            todo |= edges(key)
    return sorted(set(binds) - seen)


def _perfbench_roots():
    """The (module, name) of every package name that perfbench/*.py imports
    or reads. Its tracer's target tables are strings, not references: the
    tracer reports a target that is gone as absent."""
    modules = {path.stem for path in SRC.glob("*.py")}
    roots = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    top, _, sub = a.name.partition(".")
                    if top == "spikecodec":
                        aliases[a.asname or top] = (sub or PACKAGE) if a.asname else PACKAGE
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "spikecodec"):
                mod = node.module.partition(".")[2] or PACKAGE
                roots |= {(mod, a.name) for a in node.names}
        roots |= _references(tree, None, {}, modules, aliases)
    return roots


def test_every_src_name_is_reached():
    # from the CLI, the package's exports, module-level statements, every
    # name README shows in backticks, and what perfbench imports or calls
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    roots = {("cli", "main")} | {(PACKAGE, name) for name in spikecodec.__all__}
    roots |= _perfbench_roots()
    shown = {name for span in re.findall(r"`+([^`]+)`+", README.read_text())
             for name in re.findall(r"[A-Za-z_]\w*", span)}
    assert _unreached(sources, roots, shown) == []
    # a name put back with no caller is found
    sources["evaluate"] += "\n\ndef load_model(fh):\n    return fh\n"
    assert _unreached(sources, roots, shown) == [("evaluate", "load_model")]
