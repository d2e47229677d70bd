"""Reach pin: every ``src/repro`` module has a user.

A user of EXPRESS reaches code through the paper's benchmarks
(``benchmarks/``, the end-to-end instrument in ``benchmarks/e2e/``
included), the examples (``examples/``) and the two command lines CI
runs, ``python -m repro`` and ``python -m repro.obs``. This test walks
the static import graph from those roots, and a module counts as used
only when a file the walk reaches names it or a name it defines:

* ``from pkg import Name`` reaches the module that defines ``Name``,
  through the re-exports of the package's ``__init__``; the other
  re-exports there are not followed, so a package does not keep every
  submodule it re-exports;
* every other import of a reached file is followed (a lazy one inside a
  function too, but not one under ``if TYPE_CHECKING:``);
* an import of ``tests.*`` is not followed: test code is not a user.

A package ``__init__`` is reached when any module under it is. A module
the walk does not reach fails here by name, unless ``CONSUMERS`` names
the one thing that keeps it. ``tools/reach.py`` is the traced
counterpart: it runs those roots and prints the functions they never
call.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules kept without a user among the roots, each with its consumer.
CONSUMERS = {
    "repro.inet.igmp": "tests/core/test_igmp_coexistence.py: §3.6's "
    "coexistence of EXPRESS with IGMP group joins on one edge",
    "repro.obs.flightrecorder": "tests/obs/test_flightrecorder.py: the "
    "ring dump a post-mortem `explain` would read (ROADMAP item 13)",
    "repro.relay.directory": "tests/test_end_to_end.py: §4.1's session "
    "announcements, until an X3 row runs them (ROADMAP item 22)",
    "repro.relay.rtcp": "tests/relay/test_rtcp.py: receiver quality "
    "across the relay, until an X3 row runs it (ROADMAP item 22)",
}

ENTRY_POINTS = ("repro.__main__", "repro.obs.__main__")


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def resolve(name: str, here: Path):
    """The file that ``import name`` runs from a file in ``here``: a
    ``src`` module, a repository one, or a sibling script imported by its
    bare name (``benchmarks/e2e`` does so); None for ``tests.*`` and for
    anything else (the standard library, installed packages)."""
    if name.split(".")[0] == "tests":
        return None
    siblings = () if here.is_relative_to(SRC) else (here,)
    for base in (SRC, ROOT, *siblings):
        stem = base.joinpath(*name.split("."))
        for candidate in (stem / "__init__.py", stem.with_suffix(".py")):
            if candidate.is_file():
                return candidate
    return None


def _skip_type_checking(tree: ast.AST):
    """Every node of ``tree`` outside ``if TYPE_CHECKING:`` bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test):
                stack.extend(child.orelse)
            else:
                stack.append(child)


def imports(path: Path):
    """``(module, {bound name: imported name})`` for every import
    statement of ``path``, relative ones made absolute; the map is empty
    for a plain ``import module``."""
    package = module_name(path) if path.is_relative_to(SRC) else ""
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in _skip_type_checking(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, {}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + [base] if base else anchor)
            yield base, {alias.asname or alias.name: alias.name for alias in node.names}


def defining_file(module: str, name: str, here: Path):
    """The file that ``from module import name`` takes ``name`` from:
    the submodule of that name, the module a package ``__init__``
    re-exports it from, or ``module``'s own file."""
    target = resolve(module, here)
    if target is None or target.name != "__init__.py":
        return target
    submodule = resolve(f"{module}.{name}", here)
    if submodule is not None:
        return submodule
    for source, names in imports(target):
        if name in names:
            return defining_file(source, names[name], target.parent)
    return target


def reached_files() -> set:
    stack = [
        *(ROOT / "benchmarks").rglob("*.py"),
        *(ROOT / "examples").glob("*.py"),
        *(resolve(entry, SRC) for entry in ENTRY_POINTS),
    ]
    seen = set()
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        if path.is_relative_to(SRC):
            seen.update(
                parent / "__init__.py"
                for parent in path.parents
                if parent.is_relative_to(SRC / "repro")
            )
            if path.name == "__init__.py":
                continue
        for module, names in imports(path):
            if names:
                targets = [defining_file(module, name, path.parent) for name in names.values()]
            else:
                targets = [resolve(module, path.parent)]
            stack.extend(target for target in targets if target is not None)
    return seen


def unreached_modules() -> set:
    reached = reached_files()
    return {
        module_name(path)
        for path in (SRC / "repro").rglob("*.py")
        if path not in reached
    }


def test_every_src_module_is_imported_by_a_benchmark_example_or_entry_point():
    orphans = sorted(unreached_modules() - set(CONSUMERS))
    assert not orphans, (
        f"no benchmark, example or entry point imports {orphans}: give each "
        "a user, or delete it, or name its consumer in CONSUMERS"
    )


def test_every_named_consumer_is_still_needed():
    unreached = unreached_modules()
    stale = sorted(name for name in CONSUMERS if name not in unreached)
    assert not stale, f"reached from a root now, drop from CONSUMERS: {stale}"
    for consumer in CONSUMERS.values():
        assert (ROOT / consumer.split(":")[0]).is_file(), consumer


def fake_tree(root: Path, monkeypatch, files: dict) -> None:
    """A minimal repository under ``root``: both entry points, empty
    ``benchmarks/`` and ``examples/``, plus ``files`` (path -> text),
    with this module's walk pointed at it."""
    tree = {
        "src/repro/__init__.py": "",
        "src/repro/__main__.py": "",
        "src/repro/obs/__init__.py": "",
        "src/repro/obs/__main__.py": "",
        **files,
    }
    for relative, text in tree.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (root / "benchmarks").mkdir(exist_ok=True)
    (root / "examples").mkdir(exist_ok=True)
    pin = sys.modules[__name__]
    monkeypatch.setattr(pin, "ROOT", root)
    monkeypatch.setattr(pin, "SRC", root / "src")


def test_an_orphan_module_fails_the_pin_by_name(tmp_path, monkeypatch):
    fake_tree(tmp_path, monkeypatch, {
        "src/repro/__main__.py": "from repro import used\n",
        "src/repro/used.py": "",
        "src/repro/orphan.py": "",
    })
    assert unreached_modules() == {"repro.orphan"}
    with pytest.raises(AssertionError, match=r"\['repro\.orphan'\]"):
        test_every_src_module_is_imported_by_a_benchmark_example_or_entry_point()


def test_a_lazy_import_reaches_and_a_type_checking_one_does_not(tmp_path, monkeypatch):
    fake_tree(tmp_path, monkeypatch, {
        "src/repro/__main__.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro import typed_only\n"
            "def later():\n"
            "    from repro import lazy\n"
        ),
        "src/repro/typed_only.py": "",
        "src/repro/lazy.py": "",
    })
    assert unreached_modules() == {"repro.typed_only"}


def test_a_sibling_script_and_a_relative_import_reach_their_targets(
    tmp_path, monkeypatch
):
    fake_tree(tmp_path, monkeypatch, {
        "benchmarks/e2e/run.py": "import helper\n",
        "benchmarks/e2e/helper.py": "import repro.deep.mod\n",
        "src/repro/deep/__init__.py": "",
        "src/repro/deep/mod.py": "from . import sibling\nfrom .. import top\n",
        "src/repro/deep/sibling.py": "",
        "src/repro/top.py": "",
        "src/repro/unused.py": "",
    })
    assert unreached_modules() == {"repro.unused"}


def test_a_reexport_reaches_only_the_module_a_name_is_taken_from(tmp_path, monkeypatch):
    fake_tree(tmp_path, monkeypatch, {
        "examples/demo.py": "from repro.pkg import Used as U\nimport repro.whole\n",
        "benchmarks/test_x.py": "from tests.helper import check\n",
        "tests/helper.py": "from repro.via_tests import check\n",
        "src/repro/__init__.py": "from repro.pkg import Used\n",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.used import Used\nfrom repro.pkg.idle import Idle\n"
        ),
        "src/repro/pkg/used.py": "",
        "src/repro/pkg/idle.py": "",
        "src/repro/whole/__init__.py": "from repro.whole.idle import Idle\n",
        "src/repro/whole/idle.py": "",
        "src/repro/via_tests.py": "",
    })
    assert unreached_modules() == {"repro.pkg.idle", "repro.whole.idle", "repro.via_tests"}
