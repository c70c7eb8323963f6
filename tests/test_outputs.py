"""Every method's mock-mode outputs over the replay fixtures, at
``max_parallel`` 1 and 2, pinned against the committed digest table
``tests/outputs.json``: one row per method, since a run's id and outputs do
not depend on its parallelism.  Each model-backed method recorded through a
model server that answers as the mock does gives its row too, and so does
``think_and_execute`` replayed from the bundled cassette, in all but the
run id; a replay's id does not depend on its parallelism or paths either.
So does a run over the same instances as BIG-Bench Hard task files.

Only ``tools/make_outputs_table.py`` writes the table; this test only reads
it.  A change that moves a row says why in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pseudoexec.baselines import MethodId
from pseudoexec.cli import load_dataset, main
from pseudoexec.config import RunConfig
from pseudoexec.gateway import ChatRequest
from pseudoexec.mock import mock_gateway
from pseudoexec.tasks import TaskId

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("outputs.json")
REPLAY_FIXTURES = ROOT / "src/pseudoexec/assets/fixtures/replay"
BUNDLED_CASSETTE = ROOT / "src/pseudoexec/assets/replay/cassette.jsonl"
MAX_PARALLELS = (1, 2)
REPLAY = {"mode": "replay", "cassette_path": str(BUNDLED_CASSETTE)}


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


@pytest.mark.parametrize("method", [m.value for m in MethodId
                                    if m is not MethodId.ORACLE])
def test_recorded_outputs_match_the_table(tmp_path, capsys, chat_server,
                                          method):
    gateway = mock_gateway(load_dataset(REPLAY_FIXTURES, list(TaskId)),
                           config=RunConfig(method=method))

    def answer_as_the_mock(body):
        messages = {m["role"]: m["content"] for m in body["messages"]}
        answer = gateway.complete(ChatRequest(
            role_tag="reasoner", user=messages["user"],
            system=messages.get("system"), model_id=body["model"]))
        return 200, json.dumps(
            {"choices": [{"message": {"content": answer}}]}).encode()

    endpoint, _ = chat_server(answer_as_the_mock)
    row = run_row(
        tmp_path / "run", method, 2, mode="record",
        cassette_path=str(tmp_path / "cassette.jsonl"),
        credential_env="PSEUDOEXEC_TEST_KEY", endpoint=endpoint)
    capsys.readouterr()
    # A record run's id hashes its cassette's path, so only it differs.
    assert row == dict(load_table()[method], run_id=row["run_id"])


@pytest.fixture(scope="module")
def bbh_fixtures(tmp_path_factory) -> Path:
    """The replay fixtures' instances as BIG-Bench Hard task files."""
    out = tmp_path_factory.mktemp("bbh")
    for task in TaskId:
        examples = [{"input": instance.input_text, "target": instance.target}
                    for instance in load_dataset(REPLAY_FIXTURES, [task])]
        (out / f"{task.value}.json").write_text(
            json.dumps({"examples": examples}, ensure_ascii=False, indent=2),
            encoding="utf-8")
    return out


@pytest.mark.parametrize("method", ["think_and_execute", "direct",
                                    "zero_shot_pot", "oracle"])
def test_big_bench_hard_files_give_the_json_lines_outputs(
        tmp_path, capsys, bbh_fixtures, method):
    # The table's rows are runs over the JSON Lines fixtures.  The dataset
    # digest hashes the bytes that were read, so only the run id differs.
    row = run_row(tmp_path / "run", method, 2, dataset_dir=str(bbh_fixtures))
    capsys.readouterr()
    expected = load_table()[method]
    assert row == dict(expected, run_id=row["run_id"])
    assert row["run_id"] != expected["run_id"]


@pytest.fixture(scope="module")
def replay_id(tmp_path_factory) -> str:
    """The run id of a serial replay of the bundled cassette, which hashes
    the cassette's bytes where a mock run's id does not."""
    work = tmp_path_factory.mktemp("replay") / "run"
    return run_row(work, "think_and_execute", 1, **REPLAY)["run_id"]


# Four workers, and eight: more than the run's seven tasks.
@pytest.mark.parametrize("max_parallel", (*MAX_PARALLELS, 4, 8))
def test_replayed_outputs_match_the_table(tmp_path, capsys, replay_id,
                                          max_parallel):
    work = tmp_path / "run"
    row = run_row(work, "think_and_execute", max_parallel, **REPLAY)
    assert row == dict(load_table()["think_and_execute"], run_id=replay_id)
    # A second replay lands in the same directory, with the same bytes.
    (run_dir,) = (work / "runs").iterdir()
    kept = [(run_dir / name).read_bytes()
            for name in ("report.md", "manifest.json")]
    assert main(["run", "--config", str(work / "config.json")]) == 0
    assert list((work / "runs").iterdir()) == [run_dir]
    assert [(run_dir / name).read_bytes()
            for name in ("report.md", "manifest.json")] == kept
    capsys.readouterr()


def test_replayed_outputs_ignore_the_dataset_and_cassette_paths(
        tmp_path, capsys, replay_id):
    expected = dict(load_table()["think_and_execute"], run_id=replay_id)
    copy = tmp_path / "dataset copy"
    shutil.copytree(REPLAY_FIXTURES, copy)
    assert run_row(tmp_path / "copied", "think_and_execute", 1, **REPLAY,
                   dataset_dir=str(copy)) == expected
    bundled = BUNDLED_CASSETTE.read_bytes()
    moved = tmp_path / "moved.jsonl"
    moved.write_bytes(bundled)
    assert run_row(tmp_path / "moved", "think_and_execute", 1, mode="replay",
                   cassette_path=str(moved)) == expected
    # Another recording time is other cassette bytes: only the id moves.
    at = bundled.index(b'"recorded_at": "2') + len(b'"recorded_at": "')
    edited = tmp_path / "edited.jsonl"
    edited.write_bytes(bundled[:at] + b"1" + bundled[at + 1:])
    row = run_row(tmp_path / "edited", "think_and_execute", 1, mode="replay",
                  cassette_path=str(edited))
    assert row == dict(expected, run_id=row["run_id"])
    assert row["run_id"] != replay_id
    capsys.readouterr()


def test_outputs_ignore_the_hash_seed_locale_and_time_zone(tmp_path):
    # Another string-hash seed, the C locale and a zone 14 hours ahead of
    # UTC, in a process of its own: each method's row is the table's.
    methods = ["direct", "zero_shot_pot", "think_and_execute"]
    script = ("import json, sys\n"
              "from pathlib import Path\n"
              "from test_outputs import run_row\n"
              "work = Path(sys.argv[1])\n"
              "rows = {m: run_row(work / m, m, 2) for m in sys.argv[2:]}\n"
              "(work / 'rows.json').write_text(json.dumps(rows))\n")
    env = dict(os.environ, PYTHONHASHSEED="1", LC_ALL="C",
               TZ="Pacific/Kiritimati", PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path),
                           *methods], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "rows.json").read_text(encoding="utf-8"))
    table = load_table()
    assert rows == {method: table[method] for method in methods}
