"""Line counts of the package, per module and in total.

    python3 scripts/code_lines.py [DIRECTORY]

For each module of DIRECTORY (default: src/cyclocert) it prints two
figures: its lines, as `wc -l` counts them, and its code lines, the lines
left once blank lines, comment-only lines and docstring lines are dropped.
A docstring is the string that opens a module, class or function body.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "cyclocert"
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  module")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:>7} {code:>7}  {path.name}")
    print(f"{total_lines:>7} {total_code:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
