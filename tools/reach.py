"""Measure which statements of ``src/pseudoexec`` a pytest run reaches, with
the standard library alone (no ``coverage``).

Run from the repository root: python3 tools/reach.py [pytest arguments]

With no arguments it runs ``tests/`` quietly.  It traces every frame of a
file under ``src/pseudoexec`` in this process and its threads
(``sys.settrace``, ``threading.settrace``), then prints, for each module,
the executable lines (those some code object's ``co_lines()`` maps an
instruction to) that no frame reached.  Code run in other processes is not
seen: ``sandbox_server.py`` runs in the PoT zygote, so it is left out of
the total, and so are the tests that run a script in a subprocess.  Tier-1
takes about 1.6 times as long under the trace.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pseudoexec"
# Run in another process, so never traced here.
UNTRACED = {"sandbox_server.py"}


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code maps to."""
    lines: set[int] = set()
    pending = [compile(path.read_bytes(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        pending += [c for c in code.co_consts
                    if isinstance(c, types.CodeType)]
    return lines


def spans(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    out: list[tuple[int, int]] = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1] = (out[-1][0], line)
        else:
            out.append((line, line))
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # A call reaches the line the frame starts or resumes at, for which
        # no "line" event comes.
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unreached_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        relpath = path.relative_to(ROOT)
        if path.name in UNTRACED:
            print(f"{relpath}: not traced (runs in another process)")
            continue
        executable = executable_lines(path)
        missed = sorted(executable - reached.get(str(path), set()))
        total += len(executable)
        unreached_total += len(missed)
        if missed:
            print(f"{relpath}: {len(missed)} of {len(executable)} "
                  f"unreached: {spans(missed)}")
    print(f"total: {unreached_total} of {total} executable lines unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
