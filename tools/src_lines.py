"""Line split of the package source: code, docstring and other lines.

    python3 tools/src_lines.py [DIR]

Prints one JSON object with, per module under DIR (default src/) and in
total, its line count split three ways. Docstring lines are those of a
module, class or function docstring, found with ast. Code lines are the
other lines that hold a token other than a comment, including every line of
a multi-line string or bracket. Other lines are comments and blank lines.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(source: str) -> dict[str, int]:
    """Code, docstring and other line counts of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = len(source.splitlines())
    code -= doc
    return {"code": len(code), "docstring": len(doc),
            "other": lines - len(code) - len(doc), "lines": lines}


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src")
    modules = {str(p.relative_to(root)): split(p.read_text(encoding="utf-8"))
               for p in sorted(root.rglob("*.py"))}
    total = {k: sum(m[k] for m in modules.values()) for k in ("code", "docstring", "other", "lines")}
    print(json.dumps({"modules": modules, "total": total}, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
