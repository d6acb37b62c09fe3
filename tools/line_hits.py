"""Print, for each module in ``src/robothumb``, the statement lines inside
functions that no test ran.

Runs ``pytest.main`` on the given arguments in this process, with a line
tracer set by ``sys.settrace`` and ``threading.settrace`` that records the
lines run in the package's files only. A statement line is the first line of
a statement in a function body, nested bodies included, that compiles to at
least one instruction of the function: a docstring, ``global`` or
``nonlocal`` compiles to none, and a class body is not a function. Standard
library only, as no coverage package is installed; prints pytest's report,
then one line per module, and exits with pytest's exit code.

Every Python call passes through the tracer, so the suite runs slower under
it: the tier-1 suite took 64 s against 35 s untraced on 2 vCPUs (Python
3.11.7), about 2x. Lines run in child processes, such as the benchmark's
own passes, are not seen.

    PYTHONPATH=src python tools/line_hits.py [pytest arguments]
"""

from __future__ import annotations

import ast
import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robothumb"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def instruction_lines(code: types.CodeType) -> set[int]:
    """Lines holding an instruction of a function's code in ``code``, the
    functions nested in it included."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
        lines.update(line for *_, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= instruction_lines(const)
    return lines


def statement_lines(path: Path) -> set[int]:
    """The statement lines inside the functions of one Python source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    starts = {node.lineno for func in ast.walk(tree) if isinstance(func, FUNCTIONS)
              for stmt in func.body for node in ast.walk(stmt)
              if isinstance(node, ast.stmt)}
    return starts & instruction_lines(compile(tree, str(path), "exec"))


class Hits(dict):
    """The lines run, by the file name a code object carries: a set for each
    module in ``package``, None for any other file."""

    def __init__(self, package: Path):
        super().__init__()
        self.package = package.resolve()

    def __missing__(self, filename: str):
        lines = set() if Path(filename).resolve().parent == self.package else None
        self[filename] = lines
        return lines


def run_traced(func, package: Path, *args):
    """``func(*args)`` with every line run in ``package`` recorded, in this
    thread and in threads started meanwhile; returns its result and the
    ``Hits``. The tracers in place before are put back after."""
    hits = Hits(package)

    def on_call(frame, event, arg):
        lines = hits[frame.f_code.co_filename]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        return func(*args), hits
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def missed_lines(package: Path, hits: Hits) -> dict[str, list[int]]:
    """Each module's statement lines inside functions that no traced call
    ran, by module name, in line order."""
    run = {}
    for filename, lines in hits.items():
        if lines is not None:
            run.setdefault(Path(filename).resolve(), set()).update(lines)
    return {path.stem: sorted(statement_lines(path) - run.get(path.resolve(), set()))
            for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    code, hits = run_traced(pytest.main, PACKAGE, argv[1:])
    for name, lines in missed_lines(PACKAGE, hits).items():
        print(f"{name}: {len(lines)} not run" + (": " if lines else "")
              + ", ".join(map(str, lines)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
