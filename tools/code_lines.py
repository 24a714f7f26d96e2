"""Count the code lines of the su3kit package, per module and in total.

A code line is a line of a ``.py`` file under ``src/su3kit`` that is
not blank, not only a comment, and not part of a module, class or
function docstring.  Docstrings are found with ``ast``, comments with
``tokenize``, so a ``#`` inside a string does not count as a comment.
Prints one ``module count`` line per module, then the total alone on
the last line.

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "su3kit"


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _code_token_lines(source: str) -> set[int]:
    """The lines on which a token other than a comment or a line break starts or ends."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    source = path.read_text(encoding="utf-8")
    return len(_code_token_lines(source) - _docstring_lines(ast.parse(source)))


if __name__ == "__main__":
    counts = {path.stem: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(name, count)
    print(sum(counts.values()))
