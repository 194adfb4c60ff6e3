"""Packaging and source hygiene.

* ``setup.py`` carries the package metadata itself: its name and
  version are what ``pip install -e .`` installs.
* No module under ``src/repro`` keeps a top-level import it never
  references (package ``__init__`` re-exports are exempt, and a name
  listed in ``__all__`` counts as used).
* The cluster supervisor stays free of process, socket, signal, thread
  and clock imports.
* Detection imports numpy and the stdlib only: importing the package
  and its CLI, and a stream and a 2-shard cluster run of a registered
  scenario, load no ``scipy`` or ``networkx`` module (scipy serves
  only the tests; networkx the outage schedule).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def test_setup_py_reports_package_metadata():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["repro", repro.__version__]
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    requires = [
        ast.literal_eval(kw.value) for node in ast.walk(tree)
        if isinstance(node, ast.Call) for kw in node.keywords
        if kw.arg == "install_requires"
    ]
    assert requires == [["numpy", "networkx"]]


_CLOSURE_RUN = """
import contextlib, io, sys
import repro
import repro.cli
from repro.cli import main
args = ["ddos-burst", "--bins", "32", "--warmup-bins", "24", "--max-records", "40"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", *args]) == 0
    assert main(["run", *args, "--mode", "cluster", "--shards", "2"]) == 0
print(" ".join(sorted({m.split(".")[0] for m in sys.modules})))
"""


def test_detection_imports_neither_scipy_nor_networkx():
    out = subprocess.run(
        [sys.executable, "-c", _CLOSURE_RUN], cwd=ROOT, capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout.split()
    assert "numpy" in out
    assert {"scipy", "networkx"}.isdisjoint(out)


def _top_level_imports(tree: ast.Module):
    """``(bound name, line)`` of every import in the module body,
    including those nested in top-level ``if`` / ``try`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(node: ast.AST):
    """The annotation expressions a node carries, if any."""
    if isinstance(node, ast.arg):
        yield node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _names_in_annotation(annotation) -> set[str]:
    """Names an annotation references, including inside quoted parts
    (``"Foo"``, ``list["Foo"]``); other string constants are not
    parsed, so a span name or dict key never marks an import used."""
    names = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _names_in_annotation(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
        for annotation in _annotations(node):
            names |= _names_in_annotation(annotation)
    return names


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _referenced_names(tree)
        for name, line in _top_level_imports(tree):
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not unused, "unused top-level imports:\n" + "\n".join(unused)


def test_supervisor_is_a_pure_state_machine():
    """``cluster/supervisor.py`` imports nothing that touches processes,
    sockets, signals, threads or the clock — at top level or inside a
    function — so tests drive it with scripted events and fake time."""
    path = PACKAGE / "cluster" / "supervisor.py"
    banned = {"multiprocessing", "socket", "os", "signal", "threading", "time"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules
                  if m.split(".")[0] in banned]
    assert not found, "supervisor.py imports " + ", ".join(found)
