"""Count the lines of the package's modules, or compare the counts of two checkouts.

    python3 tools/src_lines.py [--root DIR] [--compare OTHER_ROOT]

Prints JSON with the lines and the code lines of every module of
src/pseudotherm in the checkout at --root (by default the one holding this
script), and their totals:
{"modules": {"<name>": {"lines": n, "code": n}}, "total": {"lines": n, "code": n}}.
Code lines leave out blank lines, lines that hold only a comment, and the
docstrings of the modules, classes and functions.

With --compare OTHER_ROOT each entry also holds the other checkout's counts
(other_lines, other_code) and the change from them (delta_lines,
delta_code); a module that only one checkout has counts 0 in the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "pseudotherm")
# tokens that make a line code; comments, line breaks and indentation do not
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def count(text: str) -> dict:
    """{"lines": all lines, "code": lines with code outside a docstring} of one module's source."""
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return {"lines": len(text.splitlines()), "code": len(code - _docstring_lines(ast.parse(text)))}


def counts(root: Path) -> dict:
    """The counts of every module of the package at root, by file name, and their totals."""
    modules = {path.name: count(path.read_text()) for path in sorted((root / PACKAGE).glob("*.py"))}
    total = {key: sum(m[key] for m in modules.values()) for key in ("lines", "code")}
    return {"modules": modules, "total": total}


def compare(this: dict, other: dict) -> dict:
    """this, each entry with the other's counts and the change from them."""
    def entry(mine: dict, theirs: dict) -> dict:
        out = dict(mine or {"lines": 0, "code": 0})
        theirs = theirs or {"lines": 0, "code": 0}
        for key in ("lines", "code"):
            out[f"other_{key}"] = theirs[key]
            out[f"delta_{key}"] = out[key] - theirs[key]
        return out

    names = sorted({*this["modules"], *other["modules"]})
    return {
        "modules": {name: entry(this["modules"].get(name), other["modules"].get(name)) for name in names},
        "total": entry(this["total"], other["total"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="checkout to count")
    parser.add_argument("--compare", type=Path, metavar="OTHER_ROOT", help="checkout to compare with")
    args = parser.parse_args(argv)
    report = counts(args.root)
    if args.compare is not None:
        report = compare(report, counts(args.compare))
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
