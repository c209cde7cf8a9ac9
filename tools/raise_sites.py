"""Fail unless every `raise` statement in src/bracelab executes under tier-1.

Parses every ast.Raise in src/bracelab, runs the tier-1 tests in this
process, and lists each site that never raised. Only the code objects that
hold a raise are traced, and only for their `exception` events: line events
are switched off, so the run costs a fraction of a full line trace. A site
counts as reached when an exception starts in its own frame at the site's
RAISE_VARARGS instruction, so an error thrown while the message is built
does not count. Only the main thread is traced: worker processes (--jobs),
subprocesses and other threads are not. The verdict is for the whole tier-1
run, so the script takes no arguments.

    PYTHONPATH=src python tools/raise_sites.py

Exit status: 0 when every site executed and the tests passed, 1 otherwise.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bracelab"


def raise_sites() -> dict[str, set[int]]:
    """{absolute file name: line numbers of its raise statements}."""
    return {
        str(path): {node.lineno for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Raise)}
        for path in sorted(SRC.glob("*.py"))
    }


def raise_offsets(code, lines) -> dict[int, int]:
    """{offset: site line} of the RAISE_VARARGS instructions of one code object."""
    return {ins.offset: ins.positions.lineno for ins in dis.get_instructions(code)
            if ins.opname == "RAISE_VARARGS" and ins.positions.lineno in lines}


def main() -> int:
    sites = raise_sites()
    reached: dict[tuple[str, int], str] = {}  # site -> the first test to reach it

    # code object -> (its file, {offset: site line}); the dict is empty when
    # the code object holds no site
    holds_raise: dict = {}

    def local(frame, event, arg):
        # tb_next is None only in the frame where the exception started
        if event == "exception" and arg[2].tb_next is None:
            file, offsets = holds_raise[frame.f_code]
            line = offsets.get(frame.f_lasti)
            if line is not None and (file, line) not in reached:
                reached[file, line] = os.environ.get("PYTEST_CURRENT_TEST", "?").rsplit(" ", 1)[0]
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        entry = holds_raise.get(code)
        if entry is None:
            file = os.path.realpath(code.co_filename)
            lines = sites.get(file, ())
            entry = holds_raise[code] = (file, raise_offsets(code, lines) if lines else {})
        if not entry[1]:
            return None
        frame.f_trace_lines = False
        return local

    started = time.monotonic()
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    elapsed = time.monotonic() - started

    missed = 0
    print()
    for f, lines in sites.items():
        for line in sorted(lines):
            test = reached.get((f, line))
            missed += test is None
            print(f"{Path(f).relative_to(ROOT)}:{line} {test or 'NOT REACHED'}")
    total = sum(map(len, sites.values()))
    print(f"{total - missed} of {total} raise sites executed in {elapsed:.0f} s")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
