"""Count the lines of src/, per module and in total.

Code lines are the lines that hold a token other than a comment, a
newline or a docstring (a string statement that opens a module, class
or function body); blank lines are not code.  Physical lines are the
lines of the file.  Run from anywhere:

    python tests/src_lines.py [ROOT]

ROOT defaults to the src/ directory next to this file's directory.  The
count is a report for CHANGES.md, not a gate.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(source: str) -> set:
    """Line numbers covered by docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(code lines, physical lines) of one module's source."""
    docs = _docstring_lines(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in docs:
                code.add(line)
    return len(code), len(source.splitlines())


def main(root: Path) -> None:
    total_code = total_physical = 0
    for path in sorted(root.rglob("*.py")):
        code, physical = count(path.read_text())
        total_code += code
        total_physical += physical
        print("%-32s %6d %6d" % (path.relative_to(root), code, physical))
    print("%-32s %6d %6d" % ("total", total_code, total_physical))


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1
         else Path(__file__).resolve().parent.parent / "src")
