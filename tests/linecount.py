"""Count the library's lines: each module's net lines and code lines,
then the totals.

Net lines are every line of a module.  Code lines leave out blank
lines, comment lines and the lines of docstrings and other string
expressions.  Run it from the repository root:

    python tests/linecount.py [src/fhgames]

Only the standard library is used (tokenize and ast), and pytest does
not collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """(net lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            code.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "fhgames")
    net_total = code_total = 0
    for path in sorted(root.rglob("*.py")):
        net, code = count(path.read_text(encoding="utf-8"))
        net_total += net
        code_total += code
        print(f"{path.relative_to(root)}\t{net}\t{code}")
    print(f"total\t{net_total}\t{code_total}")


if __name__ == "__main__":
    main(sys.argv[1:])
