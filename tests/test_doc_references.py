"""Doc-drift check: what the documents cite in code font exists.

In ``DESIGN.md``, ``README.md``, ``EXPERIMENTS.md``, ``PAPER.md`` and
``docs/*.md``, inside every backticked span:

* each dotted ``repro.*`` name resolves: the longest prefix that
  imports as a module, then ``getattr`` for the rest;
* each path under ``src/``, ``tests/``, ``benchmarks/`` or ``docs/``
  exists (a glob must match something), and a ``path::Class::test`` id
  names a class and function the file defines.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "DESIGN.md",
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "PAPER.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks|docs)/[\w./*\-:\[\]]*")


def resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def exists(ref: str) -> bool:
    path, _, test_id = ref.partition("::")
    if any(char in path for char in "*?["):
        return any(ROOT.glob(path))
    target = ROOT / path
    if not target.exists():
        return False
    scope = ast.parse(target.read_text()).body if test_id else []
    for name in test_id.split("[")[0].split("::") if test_id else ():
        node = next(
            (
                node
                for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name
            ),
            None,
        )
        if node is None:
            return False
        scope = node.body
    return True


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_cited_names_and_paths_exist(document):
    spans = SPAN.findall(document.read_text())
    broken = sorted(
        {name for span in spans for name in NAME.findall(span) if not resolves(name)}
        | {ref for span in spans for ref in PATH.findall(span) if not exists(ref)}
    )
    assert not broken, f"{document.name} cites what does not exist: {broken}"
