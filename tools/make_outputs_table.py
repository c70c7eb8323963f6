"""Regenerate tests/outputs.json, the digest table tests/test_outputs.py
checks every method's mock-mode outputs against.

Run from the repository root: python3 tools/make_outputs_table.py

A change that moves a row says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pseudoexec.baselines import MethodId  # noqa: E402
from test_outputs import TABLE, run_row  # noqa: E402


def main() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for method in MethodId:
            with contextlib.redirect_stdout(io.StringIO()):
                table[method.value] = run_row(Path(tmp) / method.value,
                                              method.value, 1)
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
    print(f"{len(table)} rows written to {TABLE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
