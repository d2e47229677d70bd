"""Reach census: which ``src/repro`` functions a user of EXPRESS runs.

Tier-1 runs nearly every line, so the tests cannot say which code the
system needs. This tool traces Python ``call`` events
(``sys.settrace``, standard library only) over what a user runs:

* the paper benchmarks,
  ``pytest benchmarks --ignore=benchmarks/e2e --benchmark-disable``
  (pytest-benchmark pauses any tracer inside ``benchmark()`` unless it
  is disabled; ``tests/callcount.py`` clears only the profiler);
* every ``examples/*.py``;
* both command lines, ``python -m repro`` and ``python -m repro.obs``
  (once per ``--format``);
* ``benchmarks/e2e/run.py --quick`` and every child it starts.

It prints the functions none of them called, per module, then a module
table and the classes with no method called. It exits non-zero when
any traced command failed, since the census is then partial.
``tests/test_reach.py`` is the cheap static counterpart in tier-1 (every
module imported from one of these roots).

It works in a copy of the tree, because the benchmarks rewrite
``benchmarks/results/``: ``--workdir DIR`` names the copy (it must not
exist yet; the default is a new temporary directory). Every Python
process started there gets the tracer from a ``sitecustomize`` module
put first on its path, and writes the functions it saw when it exits.
A traced run takes a few minutes::

    python tools/reach.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Put first on every traced process's path as ``sitecustomize``.
HOOK = '''
import atexit, json, os, sys, threading

_seen = set()


def _trace(frame, event, arg):
    _seen.add(frame.f_code)


def _write():
    sys.settrace(None)
    src = os.environ["REACH_SRC"]
    rows = sorted(
        {(c.co_filename, c.co_firstlineno, c.co_name) for c in list(_seen)
         if c.co_filename.startswith(src)}
    )
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as out:
        json.dump(rows, out)


sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(_write)
'''

#: The traced commands (arguments to ``python``), run from the copy's root.
COMMANDS = [
    ["-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e",
     "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
    *([str(path.relative_to(ROOT))] for path in sorted((ROOT / "examples").glob("*.py"))),
    ["-m", "repro"],
    ["-m", "repro.obs"],
    ["-m", "repro.obs", "--format", "jsonl"],
    ["benchmarks/e2e/run.py", "--quick", "--out", "reach-e2e.json"],
]


def copy_tree(workdir: Path) -> None:
    shutil.copytree(
        ROOT, workdir,
        ignore=shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache"),
    )


def run_traced(workdir: Path) -> tuple[set, dict]:
    """Run every source in ``workdir``; the (file, first line, name)
    rows reached, and each command's exit status."""
    hook_dir, out_dir = workdir / ".reach-hook", workdir / ".reach-out"
    hook_dir.mkdir()
    out_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    src = workdir / "src"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(hook_dir), str(src)]),
        REACH_OUT=str(out_dir),
        REACH_SRC=str(src / "repro"),
    )
    statuses = {}
    for command in COMMANDS:
        label = " ".join(command)
        print(f"reach: running {label}", file=sys.stderr)
        done = subprocess.run(
            [sys.executable, *command], cwd=workdir, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        statuses[label] = done.returncode
    reached = set()
    for path in out_dir.glob("*.json"):
        for filename, line, func in json.loads(path.read_text(encoding="utf-8")):
            reached.add((str(Path(filename).relative_to(src)), line, func))
    return reached, statuses


def functions(src: Path) -> list[tuple[str, int, str, str, str]]:
    """Every ``def`` under ``src/repro``: (file relative to ``src``, the
    first line its code object reports, its name, its qualified name,
    the class whose method it is or ""). A decorated function's code
    starts at its first decorator."""
    rows = []

    def visit(node, path, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                qualname = prefix + child.name
                rows.append((path, first, child.name, qualname, owner))
                visit(child, path, qualname + ".", "")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".", prefix + child.name)
            else:
                visit(child, path, prefix, owner)

    for file in sorted((src / "repro").rglob("*.py")):
        path = str(file.relative_to(src))
        visit(ast.parse(file.read_text(encoding="utf-8")), path, "", "")
    return rows


def census(src: Path, reached: set) -> dict:
    """Per module, its functions and those no source called; per class
    (methods only), how many of its methods were called."""
    modules: dict = defaultdict(lambda: {"functions": 0, "unreached": []})
    classes: dict = defaultdict(lambda: [0, 0])
    for path, line, name, qualname, owner in functions(src):
        module = path[:-3].replace("/", ".").removesuffix(".__init__")
        modules[module]["functions"] += 1
        hit = (path, line, name) in reached
        if not hit:
            modules[module]["unreached"].append(f"{qualname} (line {line})")
        if owner:
            tally = classes[f"{module}.{owner}"]
            tally[0] += 1
            tally[1] += hit
    return {"modules": dict(modules), "classes": dict(classes)}


def report(result: dict, statuses: dict) -> None:
    modules, classes = result["modules"], result["classes"]
    print("Unreached functions, per module:")
    for module, row in sorted(modules.items()):
        if row["unreached"]:
            print(f"\n{module} ({len(row['unreached'])} of {row['functions']})")
            for qualname in row["unreached"]:
                print(f"    {qualname}")
    print("\n| module | functions | unreached |\n| --- | ---: | ---: |")
    for module, row in sorted(modules.items()):
        print(f"| {module} | {row['functions']} | {len(row['unreached'])} |")
    idle = sorted(name for name, (methods, hit) in classes.items() if methods and not hit)
    print("\nClasses with no method called:")
    for name in idle:
        print(f"    {name} ({classes[name][0]} methods)")
    total = sum(row["functions"] for row in modules.values())
    missed = sum(len(row["unreached"]) for row in modules.values())
    print(f"\n{total - missed} of {total} functions reached.")
    for label, status in statuses.items():
        if status:
            print(f"FAILED: `{label}` exited with {status}; the census is partial")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/reach.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", type=Path, help="the copy to run in (must not exist)")
    args = parser.parse_args(argv)
    workdir = (args.workdir or Path(tempfile.mkdtemp(prefix="reach-")) / "tree").resolve()
    copy_tree(workdir)
    reached, statuses = run_traced(workdir)
    report(census(workdir / "src", reached), statuses)
    return 1 if any(statuses.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
