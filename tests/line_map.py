"""Line map: the src statements that Tier-1 never runs in-process.

Runs the Tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace`` (so the Monte Carlo worker threads are seen too),
records every line of ``src/powex`` that runs, and prints each statement
that never ran. A statement counts when its first line has bytecode and it
is not a docstring. Exits 1 when a statement that never ran
is not on ``ALLOWLIST``, when an entry there matches no such statement
(the statement it names now runs, or is gone), or when Tier-1 fails.

Usage, from anywhere::

    python tests/line_map.py

pytest does not collect this file. It needs what Tier-1 needs and nothing
else. It runs about twice as long as Tier-1 (33–54 s against 17–24 s on a
2-core x86-64 host).
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "powex"

_CHILD = "runs only in a `python -m powex` child process"

# (file, enclosing function or "<module>", the statement's first line,
# stripped) -> why Tier-1 never runs it in-process
ALLOWLIST = {
    ("__main__.py", "<module>", "from .cli import main"): _CHILD,
    ("__main__.py", "<module>", "main()"): _CHILD,
    ("cli.py", "main", "sys.exit(parse_and_dispatch(sys.argv[1:]))"): _CHILD,
    ("cli.py", "_write_output", "devnull = os.open(os.devnull, os.O_WRONLY)"):
        _CHILD + ", on a closed standard output",
    ("cli.py", "_write_output", "os.dup2(devnull, sys.stdout.fileno())"):
        _CHILD + ", on a closed standard output",
    ("cli.py", "_write_output", "os.close(devnull)"):
        _CHILD + ", on a closed standard output",
    ("cli.py", "_write_output",
     'raise PowexError(f"cannot write standard output: {exc.strerror or exc}") from None'):
        _CHILD + ", on a closed standard output",
    ("acceptance.py", "_run_cli", "proc = subprocess.run([sys.executable, \"-m\", \"powex\", *cmd],"):
        "runs the determinism commands, only inside `powex verify`",
    ("acceptance.py", "_run_cli", "return proc.returncode, proc.stdout, proc.stderr"):
        "runs the determinism commands, only inside `powex verify`",
    ("acceptance.py", "run_all", "return ["): _CHILD + " (`powex verify`)",
    ("__init__.py", "__getattr__", 'return importlib.import_module(f"{__name__}.{name}")'):
        "a submodule read as an attribute before it is imported: in Tier-1 the "
        "first test module imports powex.acceptance, and with it every submodule",
}


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> list[tuple[int, str, str]]:
    """(line, enclosing function, first line stripped) of each statement
    in ``path`` that is not a docstring and whose first line has bytecode."""
    source = path.read_text()
    text = source.splitlines()
    has_code = _code_lines(compile(source, str(path), "exec"))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.stmt) and child.lineno in has_code
                    and not _is_docstring(child)):
                found.append((child.lineno, scope, text[child.lineno - 1].strip()))
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else scope)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(set(found))


def run_tier1_traced() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code, and the lines of each src file that ran."""
    import pytest

    prefix = os.path.join(PACKAGE, "")
    ran: dict[str, set[int]] = {}
    ours: dict = {}  # code object -> the line set of its file, or None

    def local(frame, event, arg):
        if event == "line":
            ours[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            name = code.co_filename
            ours[code] = ran.setdefault(name, set()) if name.startswith(prefix) else None
        return local if ours[code] is not None else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = run_tier1_traced()
    unlisted, used = [], set()
    print("\nsrc statements that never ran in Tier-1:")
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(str(path), set())
        for line, scope, text in statements(path):
            if line in hit:
                continue
            key = (path.name, scope, text)
            reason = ALLOWLIST.get(key)
            print(f"  {path.relative_to(ROOT)}:{line} ({scope}): {text}"
                  + (f"  [allowed: {reason}]" if reason else "  [NOT ALLOWED]"))
            if reason:
                used.add(key)
            else:
                unlisted.append(key)
    stale = [key for key in ALLOWLIST if key not in used]
    for key in stale:
        print(f"  allowlist entry matches no statement that never ran: {key}")
    if code != 0:
        print(f"Tier-1 failed (pytest exit code {code}); the map is incomplete")
    failed = bool(unlisted or stale or code)
    print(f"line map: {len(unlisted)} not allowed, {len(stale)} stale entries"
          + (" -- FAIL" if failed else " -- ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
