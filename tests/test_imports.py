"""No driftkit module imports a name it never reads.

No linter ships with the package, so an ``ast`` scan stands in for the
unused-import check: a name bound by an import must be read somewhere in its
module.  Names listed in ``__all__`` count as read, and an import line marked
``# noqa: F401`` is allowed if ``bench/spans.py`` patches the name it binds
(the tracer replaces a module-level name, so the module must hold it); once
the tracer stops patching it, the import must go.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

import driftkit
import driftkit.checkpoint  # noqa: F401 -- the tracer patches it; the package does not import it

MODULES = sorted(Path(driftkit.__file__).parent.glob("*.py"))
NOQA = "# noqa: F401"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import of ``tree`` binds, with its line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = alias.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    """Every name imported by ``source`` and never read, with its line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = imported_names(tree)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read and NOQA not in lines[line - 1]]


def test_scan_flags_an_unread_import_and_honours_all_and_noqa():
    source = "\n".join([
        "import os",
        "import numpy as np",
        "from pathlib import Path, PurePath",
        "from json import dumps  # noqa: F401 -- patch point",
        "from csv import writer",
        "__all__ = ['writer']",
        "x = np.zeros(PurePath('a').stem.count('a'))",
    ])
    assert unused_imports(source) == ["Path (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_noqa_import_is_a_patch_point_of_the_bench_tracer():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_spans", root / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    points = {(owner.__name__, attr) for owner, attr, _, _ in spans._patch_points(driftkit)}
    kept = set()
    for path in MODULES:
        source = path.read_text()
        lines = source.splitlines()
        kept.update((f"driftkit.{path.stem}", name)
                    for name, line in imported_names(ast.parse(source)).items()
                    if NOQA in lines[line - 1])
    assert sorted(kept - points) == []
