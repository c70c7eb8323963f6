"""CLI surface tests: ingest, run, oracle, report, ablate, error paths."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from pseudoexec.cli import main
from pseudoexec.config import MAX_PARALLEL_CEILING, RunConfig, load_config
from pseudoexec.errors import ConfigError
from pseudoexec.tasks import TaskId
from pseudoexec.tasks.generate import generate_instance


@pytest.fixture()
def bbh_dir(tmp_path: Path) -> Path:
    src = tmp_path / "bbh"
    src.mkdir()
    for task in (TaskId.NAVIGATE, TaskId.WEB_OF_LIES):
        examples = [
            {"input": generate_instance(task, s, 3).input_text,
             "target": generate_instance(task, s, 3).target}
            for s in range(4)
        ]
        (src / f"{task.value}.json").write_text(
            json.dumps({"examples": examples}), encoding="utf-8")
    return src


BUNDLED_CASSETTE = Path("src/pseudoexec/assets/replay/cassette.jsonl")


def _write_config(tmp_path: Path, **extra) -> Path:
    base = {
        "dataset_dir": str(Path("src/pseudoexec/assets/fixtures/replay")
                           .resolve()),
        "runs_dir": str(tmp_path / "runs"),
        "mode": "replay",
        "cassette_path": str(BUNDLED_CASSETTE.resolve()),
        "method": "think_and_execute",
    }
    base.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    return path


def test_ingest_writes_normalized_fixtures(bbh_dir, capsys):
    out = bbh_dir.parent / "normalized"
    assert main(["ingest", str(bbh_dir), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "navigate: 4" in captured
    first = (out / "navigate.jsonl").read_bytes()
    assert main(["ingest", str(bbh_dir), "--out", str(out)]) == 0
    assert (out / "navigate.jsonl").read_bytes() == first   # idempotent


def test_ingest_rejects_missing_target(tmp_path):
    src = tmp_path / "bbh"
    src.mkdir()
    (src / "navigate.json").write_text(
        json.dumps({"examples": [{"input": "x"}]}), encoding="utf-8")
    assert main(["ingest", str(src)]) == 2


def test_ingest_rejects_a_target_its_task_rejects(tmp_path, capsys):
    src = tmp_path / "bbh"
    src.mkdir()
    good = generate_instance(TaskId.NAVIGATE, 0, 3)
    (src / "navigate.json").write_text(json.dumps({"examples": [
        {"input": good.input_text, "target": good.target},
        {"input": good.input_text, "target": "Maybe"}]}), encoding="utf-8")
    assert main(["ingest", str(src)]) == 2
    assert (f"error: MalformedDataset: {src / 'navigate.json'} record 1: "
            "navigate: target must be Yes or No") in capsys.readouterr().err
    assert not (src / "normalized").exists()


@pytest.mark.parametrize("command, name, content", [
    ("ingest", "navigate.json", "[]"),
    ("ingest", "navigate.json",
     json.dumps({"examples": [{"input": 5, "target": "Yes"}]})),
    ("oracle", "navigate.jsonl", "[1]\n"),
    ("oracle", "navigate.jsonl",
     json.dumps({"input_text": 5, "target": "Yes"}) + "\n"),
    ("oracle", "dyck_languages.jsonl",
     json.dumps({"input_text": "Input: ( [", "target": 5}) + "\n"),
], ids=["ingest-root-list", "ingest-input-int", "oracle-line-list",
        "oracle-input-int", "oracle-target-int"])
def test_a_record_of_the_wrong_shape_is_a_malformed_dataset(
        tmp_path, capsys, command, name, content):
    data = tmp_path / "data"
    data.mkdir()
    (data / name).write_text(content, encoding="utf-8")
    if command == "ingest":
        argv = ["ingest", str(data)]
    else:
        config = _write_config(tmp_path, dataset_dir=str(data), mode="mock",
                               cassette_path=None,
                               tasks=[name.removesuffix(".jsonl")])
        argv = ["oracle", "--config", str(config)]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert "error: MalformedDataset" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_run_replay_deterministic(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    runs = tmp_path / "runs"
    run_dir = next(d for d in runs.iterdir() if d.is_dir())
    report1 = (run_dir / "report.md").read_bytes()
    manifest1 = (run_dir / "manifest.json").read_bytes()
    assert main(["run", "--config", str(config)]) == 0
    assert [d for d in runs.iterdir() if d.is_dir()] == [run_dir]
    assert (run_dir / "report.md").read_bytes() == report1
    assert (run_dir / "manifest.json").read_bytes() == manifest1
    capsys.readouterr()


def test_run_unknown_task_in_config(tmp_path):
    config = _write_config(tmp_path, tasks=["navigate", "unknown_task"])
    assert main(["run", "--config", str(config)]) == 2


@pytest.mark.parametrize("sandbox", [
    {"interpreter_command": []}, {"sandbox_timeout_ms": 0},
    {"interpreter_command": ["no-such-python-xyz"]},
    {"pseudocode_source": "bogus"}])
def test_run_rejects_unusable_sandbox_config(tmp_path, capsys, sandbox):
    config = _write_config(tmp_path, mode="mock", cassette_path=None,
                           method="zero_shot_pot", tasks=["navigate"],
                           **sandbox)
    assert main(["run", "--config", str(config)]) == 2
    assert "error: ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_live_run_without_its_credential_makes_no_run_dir(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PSEUDOEXEC_TEST_UNSET_KEY", raising=False)
    config = _write_config(
        tmp_path, mode="live", method="direct", cassette_path=None,
        credential_env="PSEUDOEXEC_TEST_UNSET_KEY",
        dataset_dir=str(Path("src/pseudoexec/assets/fixtures/paper")
                        .resolve()))
    assert main(["run", "--config", str(config)]) == 2
    assert "error: ConfigError: credential env var " \
        "'PSEUDOEXEC_TEST_UNSET_KEY' not set" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("tasks, error", [
    (["navigate"], "MalformedDataset"), ([], "ConfigError")],
    ids=["empty-file", "no-tasks"])
def test_an_empty_dataset_makes_no_run_dir(tmp_path, capsys, command,
                                           tasks, error):
    data = tmp_path / "data"
    data.mkdir()
    (data / "navigate.jsonl").write_text("\n", encoding="utf-8")
    config = _write_config(tmp_path, dataset_dir=str(data), mode="mock",
                           cassette_path=None, tasks=tasks)
    assert main([command, "--config", str(config)]) == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value", [
    ("max_parallel", "2"), ("sandbox_timeout_ms", "5"), ("seed", True),
    ("tasks", 5), ("tasks", ["navigate", 5]), ("mock_corrupt_fraction", "x"),
    ("cassette_path", 5), ("method", None)])
def test_a_config_value_of_the_wrong_json_type_is_a_config_error(
        tmp_path, capsys, field, value):
    config = _write_config(tmp_path, **{"mode": "mock", "cassette_path": None,
                                        field: value})
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"error: ConfigError: {field} must be a JSON " in err
    assert len(err) < 200
    assert not (tmp_path / "runs").exists()


def test_an_int_is_a_valid_float_config_value(tmp_path):
    config = _write_config(tmp_path, mode="mock", cassette_path=None,
                           mock_corrupt_fraction=0)
    assert load_config(config).mock_corrupt_fraction == 0


def test_run_persists_transcripts(tmp_path):
    config = _write_config(tmp_path, tasks=["navigate"])
    assert main(["run", "--config", str(config)]) == 0
    run_dir = next(d for d in (tmp_path / "runs").iterdir() if d.is_dir())
    transcripts = sorted((run_dir / "navigate").glob("*.txt"))
    assert len(transcripts) == 20


def _run_outputs(tmp_path: Path, name: str, **extra) -> tuple[str, dict]:
    """Run id and output bytes (reports and transcripts) of one run."""
    work = tmp_path / name
    work.mkdir()
    config = _write_config(work, **extra)
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (work / "runs").iterdir()
    files = [run_dir / "report.md", run_dir / "report.csv",
             *sorted(run_dir.glob("*/*.txt"))]
    return run_dir.name, {str(f.relative_to(run_dir)): f.read_bytes()
                          for f in files}


def test_run_id_and_outputs_ignore_parallelism_and_paths(tmp_path, capsys):
    serial = _run_outputs(tmp_path, "serial", max_parallel=1)
    assert len(serial[1]) == 2 + 140
    assert _run_outputs(tmp_path, "parallel", max_parallel=2) == serial
    copy = tmp_path / "dataset copy"
    shutil.copytree(Path("src/pseudoexec/assets/fixtures/replay"), copy)
    assert _run_outputs(tmp_path, "copied", dataset_dir=str(copy)) == serial
    # A replay's id hashes the cassette's bytes, not its path.
    bundled = BUNDLED_CASSETTE.read_bytes()
    moved = tmp_path / "moved.jsonl"
    moved.write_bytes(bundled)
    assert _run_outputs(tmp_path, "moved", cassette_path=str(moved)) == serial
    at = bundled.index(b'"recorded_at": "2') + len(b'"recorded_at": "')
    edited = tmp_path / "edited.jsonl"
    edited.write_bytes(bundled[:at] + b"1" + bundled[at + 1:])
    rid, outputs = _run_outputs(tmp_path, "edited",
                                cassette_path=str(edited))
    assert outputs == serial[1]
    assert rid != serial[0]
    capsys.readouterr()


def test_run_stops_on_a_malformed_cassette_line(tmp_path, capsys):
    lines = BUNDLED_CASSETTE.read_text(encoding="utf-8").splitlines(True)
    lines[2] = lines[2][:50] + "\n"
    torn = tmp_path / "torn.jsonl"
    torn.write_text("".join(lines), encoding="utf-8")
    config = _write_config(tmp_path, cassette_path=str(torn))
    assert main(["run", "--config", str(config)]) == 2
    assert f"error: ConfigError: {torn} line 3: " in capsys.readouterr().err


def test_max_parallel_has_a_ceiling(tmp_path, capsys):
    RunConfig(max_parallel=MAX_PARALLEL_CEILING).validate()
    for bad in (0, MAX_PARALLEL_CEILING + 1):
        with pytest.raises(ConfigError, match="max_parallel"):
            RunConfig(max_parallel=bad).validate()
    config = _write_config(tmp_path, max_parallel=10_000)
    assert main(["run", "--config", str(config)]) == 2
    assert "max_parallel" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_oracle_command_all_100(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        dataset_dir=str(Path("src/pseudoexec/assets/fixtures/paper")
                        .resolve()))
    assert main(["oracle", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    for task in TaskId:
        assert f"{task.value}: 100.0" in out
    assert "average: 100.0" in out


def test_report_rerenders_stored_run(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    run_dir = next(d for d in (tmp_path / "runs").iterdir() if d.is_dir())
    stored_csv = (run_dir / "report.csv").read_text()
    capsys.readouterr()
    assert main(["report", run_dir.name, "--config", str(config),
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == stored_csv


def test_report_unknown_run_id(tmp_path):
    config = _write_config(tmp_path)
    assert main(["report", "deadbeef", "--config", str(config)]) == 2


def test_ablate_command(capsys):
    assert main(["ablate", "--task", "dyck_languages"]) == 0
    out = capsys.readouterr().out
    assert "X1" in out
    assert "#" not in out


def test_replay_mode_requires_cassette(tmp_path):
    config = _write_config(tmp_path,
                           cassette_path=str(tmp_path / "missing.jsonl"))
    assert main(["run", "--config", str(config)]) == 2


def test_seed_flag_overrides_config(tmp_path):
    config = _write_config(tmp_path, seed=3)
    from pseudoexec.cli import _load_effective_config
    import argparse

    args = argparse.Namespace(config=str(config), seed=9, mode=None)
    assert _load_effective_config(args).seed == 9
