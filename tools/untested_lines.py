"""List the library lines that no test runs.

    python3 tools/untested_lines.py [pytest args]

Runs pytest in this process, from the repository root and with
``src/hactest`` on the path, under a ``sys.settrace`` tracer that records
every line executed in ``src/hactest``.  It then prints ``file:line: source``
for each executable line that no test ran, and a count.  The executable
lines are those of every code object compiled from a module (``co_lines``),
less docstrings and ``def``/``class`` header lines, which hold no statement
a test could run.  The pytest args pass through unchanged, so
``--deselect`` drops a slow test from the run.  Only the standard library and
pytest are used.  Exits with pytest's status.
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hactest"


def code_lines(code) -> set[int]:
    """Line numbers of the instructions of ``code`` and its nested code objects;
    a module's entry instruction has line 0 and is left out."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def unrunnable_lines(tree: ast.Module) -> set[int]:
    """Docstring lines, and def/class headers from the first decorator to the
    line before the body."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not isinstance(node, ast.Module):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines |= set(range(first, node.body[0].lineno))
        doc = node.body[0] if node.body else None
        if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                and isinstance(doc.value.value, str)):
            lines |= set(range(doc.lineno, doc.end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    source = path.read_text()
    return code_lines(compile(source, str(path), "exec")) - unrunnable_lines(ast.parse(source))


def trace_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per library file, the lines it ran."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.settrace(global_trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = trace_run(argv)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} executable lines of src/hactest ran in no test")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
