"""List the statements of the package that no test executes.

    python3 tools/untested.py [--root DIR] [PYTEST_ARG ...]

Runs pytest in this process under a line tracer built on the standard
library's sys.settrace, so no coverage package is needed, and prints JSON:
{"pytest_exit": code, "statements": n, "executed": n,
 "untested": {"<module>": [[line, "first source line"], ...]}}.
The suite is the Tier-1 one of the checkout at --root (by default the one
holding this script); any PYTEST_ARG (after "--") replaces its test
selection and options.  pytest's own report goes to stderr.

A statement is every simple statement and every compound statement's
header in src/pseudotherm, except docstrings and nonlocal and global
declarations.  It counts as executed when the tracer sees a line event
on any of its lines.  Code that a test runs in a subprocess is not seen.
The whole Tier-1 suite takes about half a minute more than without the
tracer.  The exit code is pytest's.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import sys
import threading
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "pseudotherm")
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"]


def statements(text: str) -> dict:
    """{first line: the lines any of which executes it} of every statement of one module's source."""
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body \
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            docstrings.add(body[0])
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)) or node in docstrings:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno  # a header's lines
        found[first] = range(first, max(first, last) + 1)
    return found


def trace(package: Path, argv: list) -> tuple:
    """(pytest's exit code, {file name: lines seen}) of pytest.main(argv) under a line tracer of the package."""
    import pytest

    prefix = str(package.resolve()) + os.sep
    seen: dict = {}

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {Path(name).name: lines for name, lines in seen.items()}


def report(root: Path, argv: list) -> dict:
    """The JSON report of the package at root under pytest.main(argv), run from root."""
    package = root / PACKAGE
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    code, seen = trace(package, argv)
    total = executed = 0
    untested = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        lines = seen.get(path.name, set())
        missed = []
        for first, span in sorted(statements(text).items()):
            total += 1
            if lines.intersection(span):
                executed += 1
            else:
                missed.append([first, source[first - 1].strip()])
        if missed:
            untested[path.name] = missed
    return {"pytest_exit": code, "statements": total, "executed": executed, "untested": untested}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="checkout whose tests and package to run")
    parser.add_argument("pytest_args", nargs="*", help="pytest arguments (default: the Tier-1 suite)")
    args = parser.parse_args(argv)
    result = report(args.root.resolve(), args.pytest_args or TIER1)
    print(json.dumps(result, indent=1))
    return result["pytest_exit"]


if __name__ == "__main__":
    raise SystemExit(main())
