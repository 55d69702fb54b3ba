"""Reach gate: every `src` function is entered by a command, or listed with the reason it stays.

    python tests/reach.py

The commands are those of the golden CLI transcript
(`test_cli_golden.transcript`), four more (`FURTHER`) and the CLI
robustness inputs (`test_cli.robustness_runs`).  Each runs through `skelcube.cli.main` in
this process under `sys.setprofile`, which records every Python
function entered while a command runs; building the inputs is not
recorded.  Every function and method that `ast` finds in src/skelcube,
nested ones too, that no command entered is printed by module,
qualified name and line span, and compared by module and name with
tests/data/reach.txt.  That file lists the functions known to be
unreached, one line each: `module:qualname` and the reason it stays,
which is API that no command calls, a defensive path and the test that
reaches it, or a call site that perfbench/traced.py pins.  The gate
fails on a function unreached but not listed, on one listed but now
reached or gone, and on a line without a reason.

`--package DIR --list FILE --run MODULE:FUNCTION` points the gate at
another package, list and run; FUNCTION is called with `record`, which
wraps a callable so that its calls are recorded.  tests/test_reach.py
runs the gate so on a fixture package.

pytest does not collect this file (it does not match test_*.py).  Exit
status 0 when the list matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


# commands that neither of them runs, on files the transcript leaves
# behind: a disjoint union, the tight integer mode and `--auto`
FURTHER = [
    ["generate", "disjoint-union(boundary-cube(3), boundary-cube(2))", "-o", "pair.cplx"],
    ["manifold-check", "pair.cplx"],
    ["reconstruct", "s4-k2.cplx", "-k", "2", "-d", "4", "--mode", "tight-int", "-o", "s4-int.cplx"],
    ["reconstruct", "s3-k2.cplx", "-k", "2", "--auto", "--dmax", "4", "-o", "auto.cplx"],
]


class Function(NamedTuple):
    module: str
    qualname: str
    first: int  # the first decorator's line, as a code object's co_firstlineno
    last: int
    path: str

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def functions(package: Path) -> list[Function]:
    """Every function and method defined in the package's modules, nested ones too, in file order."""
    out = []
    for path in sorted(package.glob("*.py")):
        module = package.name if path.stem == "__init__" else f"{package.name}.{path.stem}"
        for qualname, node in _defs(ast.parse(path.read_text(), filename=str(path)), ""):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append(Function(module, qualname, first, node.end_lineno, str(path.resolve())))
    return out


def _defs(node: ast.AST, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def entered(run) -> set[tuple[str, int]]:
    """(file, first line) of each Python function entered inside the calls that `run` makes through `record`."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    def record(fn):
        def recorded(*args, **kwargs):
            previous = sys.getprofile()
            sys.setprofile(hook)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(previous)

        return recorded

    run(record)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def commands(record) -> None:
    """The golden transcript and the CLI robustness inputs, run in a temporary directory."""
    import test_cli
    import test_cli_golden
    from skelcube.cli import main

    recorded = record(main)

    def quiet(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return recorded(argv)
            except SystemExit as exc:  # argparse refusing an argument
                return exc.code

    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="skelcube-reach-") as tmp:
        os.chdir(tmp)
        try:
            test_cli_golden.main = quiet  # the transcript captures stdout around each call itself
            test_cli_golden.transcript()
            runs, long_runs, _ = test_cli.robustness_runs(Path(tmp))
            for argv in FURTHER + runs + long_runs:
                quiet(argv)
        finally:
            test_cli_golden.main = main
            os.chdir(here)


def compare(unreached: list[Function], lines: list[str]) -> list[str]:
    """What is wrong with the list: unreached functions it lacks, entries now reached or gone, and lines without a reason."""
    listed, problems = set(), []
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        listed.add(name)
        if not reason.strip():
            problems.append(f"{name}: listed without a reason")
    found = {f.name for f in unreached}
    problems += [f"{name}: newly unreached" for name in sorted(found - listed)]
    problems += [f"{name}: listed, but reached or gone" for name in sorted(listed - found)]
    return problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--package", type=Path, default=ROOT / "src" / "skelcube")
    p.add_argument("--list", type=Path, default=ROOT / "tests" / "data" / "reach.txt")
    p.add_argument("--run", help="MODULE:FUNCTION, called with `record`; the CLI commands by default")
    args = p.parse_args(argv)
    if args.run:
        module, _, name = args.run.partition(":")
        run = getattr(importlib.import_module(module), name)
    else:
        run = commands
    seen = entered(run)
    every = functions(args.package)
    unreached = [f for f in every if (f.path, f.first) not in seen]
    for f in unreached:
        print(f"unreached {f.name} lines {f.first}-{f.last}")
    problems = compare(unreached, args.list.read_text().splitlines())
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{len(unreached)} of {len(every)} functions unreached; {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
