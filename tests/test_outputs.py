"""Every method's mock-mode outputs over the replay fixtures, at
``max_parallel`` 1 and 2, pinned against the committed digest table
``tests/outputs.json``: one row per method, since a run's id and outputs do
not depend on its lane count.

Only ``tools/make_outputs_table.py`` writes the table; this test only reads
it.  A change that moves a row says why in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pseudoexec.baselines import MethodId
from pseudoexec.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("outputs.json")
REPLAY_FIXTURES = ROOT / "src/pseudoexec/assets/fixtures/replay"
LANE_COUNTS = (1, 2)


def run_row(work: Path, method: str, max_parallel: int) -> dict:
    """Run ``method`` in mock mode over the replay fixtures in ``work`` and
    return its row: the run id, the SHA-256 of each report and of each
    task's transcripts concatenated in index order, and the manifest's
    per-task tallies."""
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps({
        "dataset_dir": str(REPLAY_FIXTURES), "runs_dir": str(work / "runs"),
        "mode": "mock", "method": method, "max_parallel": max_parallel}),
        encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (work / "runs").iterdir()
    transcripts = {}
    for task_dir in sorted(p for p in run_dir.iterdir() if p.is_dir()):
        hasher = hashlib.sha256()
        for index in range(len(list(task_dir.iterdir()))):
            hasher.update((task_dir / f"{index}.txt").read_bytes())
        transcripts[task_dir.name] = hasher.hexdigest()
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    return {"run_id": run_dir.name,
            **{name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in ("report.md", "report.csv")},
            "transcripts": transcripts,
            "per_task": manifest["per_task"]}


def load_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_the_table_has_one_row_for_every_method():
    assert set(load_table()) == {method.value for method in MethodId}


@pytest.mark.parametrize("max_parallel", LANE_COUNTS)
@pytest.mark.parametrize("method", [m.value for m in MethodId])
def test_mock_outputs_match_the_table(tmp_path, capsys, method,
                                      max_parallel):
    row = run_row(tmp_path / "run", method, max_parallel)
    capsys.readouterr()
    assert row == load_table()[method]
