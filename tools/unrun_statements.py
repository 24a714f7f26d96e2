"""Print the statements of the su3kit package that a pytest run never executes.

pytest runs in this process under ``sys.settrace``, whose tracer follows
only frames of files under ``src/su3kit``.  A statement counts as run
when any line it spans raised a "line" event; a compound statement
(``if``, ``for``, ``def``, ...) spans its body too, whose statements are
also counted on their own.  Module, class and function docstrings are
not statements here.  The stdlib alone does the work, since coverage.py
is not a dependency.  Each statement never run prints as
``path:line: source``, and the last line gives their number.

    python tools/unrun_statements.py [pytest arguments, default: tests]
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "su3kit"


def _docstrings(tree: ast.AST) -> set[ast.stmt]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(body[0])
    return found


def statements(path: pathlib.Path) -> list[tuple[int, int]]:
    """The (first, last) lines of every statement of a file, docstrings left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = _docstrings(tree)
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in skip:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans.append((first, node.end_lineno))
    return sorted(spans)


def _trace(run) -> dict[str, set[int]]:
    """{file: the lines that raised a "line" event} over the package's frames during run()."""
    prefix = str(PACKAGE) + "/"
    lines: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return lines


def main(args: list[str]) -> int:
    # the package on the path of this process and of the tests' subprocesses
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    import pytest

    status = []
    lines = _trace(lambda: status.append(pytest.main(args or ["tests"])))
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = lines.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in statements(path):
            if hit.isdisjoint(range(first, last + 1)):
                unrun += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), first, source[first - 1].strip()))
    print("%d statements never run" % unrun)
    return int(status[0]) if status else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
