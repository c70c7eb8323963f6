"""Every method's mock-mode outputs over the replay fixtures, at
``max_parallel`` 1 and 2, pinned against the committed digest table
``tests/outputs.json``: one row per method, since a run's id and outputs do
not depend on its parallelism.  ``think_and_execute`` replayed from the
bundled cassette gives its row too, in all but the run id.

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
BUNDLED_CASSETTE = ROOT / "src/pseudoexec/assets/replay/cassette.jsonl"
MAX_PARALLELS = (1, 2)


def run_row(work: Path, method: str, max_parallel: int,
            **settings) -> dict:
    """Run ``method`` over the replay fixtures in ``work``, in mock mode
    unless ``settings`` say otherwise, and return its row: the run id, the
    SHA-256 of each report and of each task's transcripts concatenated in
    index order, and the manifest's per-task tallies."""
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps({
        "dataset_dir": str(REPLAY_FIXTURES), "runs_dir": str(work / "runs"),
        "mode": "mock", "method": method, "max_parallel": max_parallel,
        **settings}), encoding="utf-8")
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


@pytest.mark.parametrize("max_parallel", MAX_PARALLELS)
@pytest.mark.parametrize("method", [m.value for m in MethodId])
def test_mock_outputs_match_the_table(tmp_path, capsys, method,
                                      max_parallel):
    row = run_row(tmp_path / "run", method, max_parallel)
    capsys.readouterr()
    assert row == load_table()[method]


@pytest.mark.parametrize("max_parallel", MAX_PARALLELS)
def test_replayed_outputs_match_the_table(tmp_path, capsys, max_parallel):
    # The run id hashes the cassette's bytes, so only it differs.
    work = tmp_path / "run"
    row = run_row(work, "think_and_execute", max_parallel, mode="replay",
                  cassette_path=str(BUNDLED_CASSETTE))
    assert row == dict(load_table()["think_and_execute"],
                       run_id=row["run_id"])
    # A second replay lands in the same directory, with the same bytes.
    (run_dir,) = (work / "runs").iterdir()
    kept = [(run_dir / name).read_bytes()
            for name in ("report.md", "manifest.json")]
    assert main(["run", "--config", str(work / "config.json")]) == 0
    assert list((work / "runs").iterdir()) == [run_dir]
    assert [(run_dir / name).read_bytes()
            for name in ("report.md", "manifest.json")] == kept
    capsys.readouterr()
