"""Line-reach audit: run the test suite in-process under ``sys.settrace``
and print every statement of ``src/newton_flow`` that it never reaches.

    python tests/reach.py                  # the whole suite, as tier-1 runs it
    python tests/reach.py tests/test_fd.py # any pytest arguments

A statement counts when its first lines (a compound statement's header,
with its decorators, or an ``except`` clause) hold bytecode; it is
reached when one of those lines runs.  Docstrings hold none.  Code that runs only in a child process (the
demos, ``python -m newton_flow.cli``) is not seen.  The script is not a
test: pytest does not collect it, and it takes about twice the suite's
time.  It exits with pytest's status.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "newton_flow"


def code_lines(code) -> set:
    """The lines that hold bytecode in code and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str, filename: str) -> list:
    """(first line, lines that run it) of each statement that holds bytecode."""
    executable = code_lines(compile(source, filename, "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        header = set(range(first, max(first, last) + 1)) & executable
        if header:
            out.append((node.lineno, header))
    return sorted(out)


def traced_run(args: list) -> tuple:
    """pytest's status on args, and the (file, line) pairs of the package that ran."""
    package, seen = str(PACKAGE), set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    import pytest

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, seen


def main(argv: list) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                    str(ROOT / "tests")]
    sys.path.insert(0, str(PACKAGE.parent))
    status, seen = traced_run(args)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = {line for name, line in seen if name == str(path)}
        missed = [line for line, header in statements(source, str(path)) if not header & ran]
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += len(missed)
    print(f"{total} statements unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
