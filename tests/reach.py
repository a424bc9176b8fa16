"""List the statements of ``src/vnalg`` that the tier-1 tests never run.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/reach.py [extra pytest arguments]

It runs the tests under a ``sys.settrace`` line tracer that watches only
the modules of ``src/vnalg``, leaving out the ten full-level acceptance
criteria (``test_acceptance_criterion``), which take about half of the
tier-1 time; the smoke battery runs the same check functions.  Then it
prints each statement that never ran, as ``file:line: source``, and the
count.

A statement is an AST statement node.  Docstrings (string expressions),
``def`` and ``class`` statements and imports are not counted, nor are
``global``/``nonlocal``, which compile to nothing.  A statement counts as
run when a line event fell on one of its own lines: all of its lines for a
simple statement, the header lines before the body for a compound one.
Tracing makes the tests it runs about twice as slow.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "vnalg").glob("*.py"))
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
        ast.Global, ast.Nonlocal)


class LeaveOutFullCriteria:
    """A pytest plugin deselecting the full-level acceptance criteria."""

    def pytest_collection_modifyitems(self, config, items):
        full = [item for item in items if item.originalname == "test_acceptance_criterion"]
        config.hook.pytest_deselected(items=full)
        items[:] = [item for item in items if item not in full]


def statements(path: Path):
    """(first line, own lines) of every counted statement of a module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(node.lineno, end + 1)


def trace_tests(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest under the line tracer; its exit code and the lines run per file."""
    watched = {str(p): p for p in SOURCES}
    known: dict[str, Path | None] = {}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = watched.get(str(Path(name).resolve()))
        return local if known[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main([str(TESTS), "-q", *args], plugins=[LeaveOutFullCriteria()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines: dict[Path, set[int]] = {p: set() for p in SOURCES}
    for name, line in hits:
        lines[known[name]].add(line)
    return int(code), lines


def main(args: list[str]) -> int:
    code, lines = trace_tests(args)
    total, missed = 0, []
    for path in SOURCES:
        text = path.read_text().splitlines()
        for first, own in sorted(statements(path)):
            total += 1
            if not lines[path].intersection(own):
                missed.append(f"{path.name}:{first}: {text[first - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} of {total} statements in src/vnalg never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
