"""Every function of src/scarf that no run of cli_digest.py enters.

Runs the CLI set of cli_digest.py in process under a call-level
sys.setprofile hook, from before `import scarf`, and prints each `def`
(methods and nested functions included) whose code object never received
a call, as "path:line qualified.name", and the digest's "traceback:" line
of each run that raised.  Exits 1 if it printed any, so a function that
only the tests call, or a CLI run that ends in a traceback, shows up in
CI:

    python tests/reach_digest.py   # silent, exit 0, when every def is reached

The check is per function, not per line: an error branch inside a
reached function does not count.  pytest does not collect this file (its
name has no test_ prefix).
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scarf"


def _defs(node: ast.AST, prefix: str = ""):
    """(first line, qualified name) of every def under node.  The first line
    is that of the code object, co_firstlineno: the first decorator's line
    for a decorated def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), prefix + child.name
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every def in the package."""
    return {(str(path), line): name for path in sorted(PACKAGE.glob("*.py"))
            for line, name in _defs(ast.parse(path.read_text(), str(path)))}


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        import cli_digest  # this script's directory; it puts src/ on the path

        with contextlib.redirect_stdout(io.StringIO()) as digest:
            raised = cli_digest.main_digest()
    finally:
        sys.setprofile(None)
    for line in digest.getvalue().splitlines():
        if line.startswith("traceback:"):
            print(line)
    missed = sorted(item for item in defined_functions().items() if item[0] not in entered)
    for (path, line), name in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line} {name}")
    return 1 if missed or raised else 0


if __name__ == "__main__":
    sys.exit(main())
