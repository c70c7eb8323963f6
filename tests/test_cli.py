"""CLI surface tests: run, report, ablate, error paths."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.request
import uuid
import warnings
from pathlib import Path

import pytest

from pseudoexec import cli, prompts
from pseudoexec.baselines import MethodId, build_baseline_prompt
from pseudoexec.cli import main
from pseudoexec.config import (MAX_PARALLEL_CEILING, RunConfig, run_id,
                               run_id_fields)
from pseudoexec.engine import reasoner_request
from pseudoexec.errors import ConfigError, GatewayError
from pseudoexec.gateway import ChatRequest, MockGateway, RecordGateway
from pseudoexec.prompts import load_pseudocode
from pseudoexec.tasks import TaskId, make_instance
from pseudoexec.tasks.generate import generate_instance
from test_outputs import load_table, run_row


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


def _run_bbh(tmp_path: Path, src: Path, tasks=("navigate",)) -> int:
    """``pseudoexec run`` of the oracle over the task files in ``src``."""
    config = _write_config(tmp_path, dataset_dir=str(src), mode="mock",
                           cassette_path=None, method="oracle",
                           tasks=list(tasks))
    return main(["run", "--config", str(config)])


def test_run_reads_big_bench_hard_task_files(tmp_path, bbh_dir, capsys):
    tasks = ("navigate", "web_of_lies")
    assert _run_bbh(tmp_path, bbh_dir, tasks) == 0
    # A task's JSON Lines file is read in place of its BIG-Bench Hard one.
    cli.write_dataset([generate_instance(TaskId.NAVIGATE, 9, 3)], bbh_dir)
    assert _run_bbh(tmp_path, bbh_dir, tasks) == 0
    capsys.readouterr()
    totals = sorted(
        [tally["total"] for tally in json.loads(
            (run_dir / "manifest.json").read_text("utf-8"))["per_task"]
         .values()]
        for run_dir in (tmp_path / "runs").iterdir())
    assert totals == [[1, 4], [4, 4]]


def test_run_rejects_a_big_bench_hard_example_without_target(tmp_path,
                                                             capsys):
    src = tmp_path / "bbh"
    src.mkdir()
    (src / "navigate.json").write_text(
        json.dumps({"examples": [{"input": "x"}]}), encoding="utf-8")
    assert _run_bbh(tmp_path, src) == 2
    assert (f"error: MalformedDataset: {src / 'navigate.json'} record 0: "
            "needs 'input' and 'target'") in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_a_big_bench_hard_target_its_task_rejects(tmp_path,
                                                              capsys):
    src = tmp_path / "bbh"
    src.mkdir()
    good = generate_instance(TaskId.NAVIGATE, 0, 3)
    (src / "navigate.json").write_text(json.dumps({"examples": [
        {"input": good.input_text, "target": good.target},
        {"input": good.input_text, "target": "Maybe"}]}), encoding="utf-8")
    assert _run_bbh(tmp_path, src) == 2
    assert (f"error: MalformedDataset: {src / 'navigate.json'} record 1: "
            "navigate: target must be Yes or No") in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("name, content", [
    ("navigate.json", "[]"),
    ("navigate.json",
     json.dumps({"examples": [{"input": 5, "target": "Yes"}]})),
    ("navigate.jsonl", "[1]\n"),
    ("navigate.jsonl",
     json.dumps({"input_text": 5, "target": "Yes"}) + "\n"),
    ("dyck_languages.jsonl",
     json.dumps({"input_text": "Input: ( [", "target": 5}) + "\n"),
], ids=["bbh-root-list", "bbh-input-int", "oracle-line-list",
        "oracle-input-int", "oracle-target-int"])
def test_a_record_of_the_wrong_shape_is_a_malformed_dataset(
        tmp_path, capsys, name, content):
    data = tmp_path / "data"
    data.mkdir()
    (data / name).write_text(content, encoding="utf-8")
    config = _write_config(tmp_path, dataset_dir=str(data), mode="mock",
                           cassette_path=None, method="oracle",
                           tasks=[name.split(".")[0]])
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--config", str(config)]) == 2
    assert "error: MalformedDataset" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_a_record_holding_a_unicode_line_break_round_trips(tmp_path):
    base = generate_instance(TaskId.NAVIGATE, 0, 3)
    instance = make_instance(TaskId.NAVIGATE,
                             base.input_text + "\u2028 \x85 \x0c",
                             base.target)
    cli.write_dataset([instance], tmp_path)
    assert cli.load_dataset(tmp_path, [TaskId.NAVIGATE]) == [instance]


@pytest.mark.parametrize("bbh", [False, True], ids=["run", "bbh"])
def test_a_record_that_is_not_valid_unicode_is_a_malformed_dataset(
        tmp_path, capsys, bbh):
    # JSON's "\\ud800" decodes to a lone surrogate, which no UTF-8 encode
    # accepts: the record is refused before a run directory is made.
    good = generate_instance(TaskId.NAVIGATE, 0, 3)
    data = tmp_path / "data"
    data.mkdir()
    records = [{"input_text": good.input_text, "target": good.target},
               {"input_text": good.input_text + "\ud800",
                "target": good.target}]
    if bbh:
        path = data / "navigate.json"
        path.write_text(json.dumps({"examples": [
            {"input": r["input_text"], "target": r["target"]}
            for r in records]}), encoding="utf-8")
    else:
        path = data / "navigate.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records),
                        encoding="utf-8")
    config = _write_config(tmp_path, dataset_dir=str(data), mode="mock",
                           cassette_path=None, method="direct",
                           tasks=["navigate"])
    assert main(["run", "--config", str(config)]) == 2
    assert (f"error: MalformedDataset: {path} record 1: input text and "
            "target must be valid Unicode") in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_unknown_task_in_config(tmp_path):
    config = _write_config(tmp_path, tasks=["navigate", "unknown_task"])
    assert main(["run", "--config", str(config)]) == 2


@pytest.mark.parametrize("name, error", [
    ("config.json", "ConfigError"),
    ("data/navigate.jsonl", "MalformedDataset"),
    ("data/navigate.json", "MalformedDataset")],
    ids=["config", "dataset", "bbh"])
def test_a_file_that_is_not_utf8_is_named_in_its_error(
        tmp_path, capsys, name, error):
    (tmp_path / "data").mkdir()
    config = _write_config(tmp_path, mode="mock", cassette_path=None,
                           dataset_dir=str(tmp_path / "data"),
                           tasks=["navigate"])
    bad = tmp_path / name
    bad.write_bytes(b'{"input_text": "caf\xe9", "examples": []}\n')
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"error: {error}: " in err and str(bad) in err
    assert "can't decode byte 0xe9" in err
    assert not (tmp_path / "runs").exists()


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


def test_a_record_run_without_its_credential_leaves_no_run_dir(
        tmp_path, capsys, monkeypatch):
    # The credential is read at the first request the cassette misses.
    monkeypatch.delenv("PSEUDOEXEC_TEST_UNSET_KEY", raising=False)
    config = _write_config(
        tmp_path, mode="record", method="direct", tasks=["navigate"],
        credential_env="PSEUDOEXEC_TEST_UNSET_KEY",
        cassette_path=str(tmp_path / "c.jsonl"),
        endpoint="http://127.0.0.1:9/v1",
        dataset_dir=str(Path("src/pseudoexec/assets/fixtures/paper")
                        .resolve()))
    assert main(["run", "--config", str(config)]) == 2
    assert "error: ConfigError: credential env var " \
        "'PSEUDOEXEC_TEST_UNSET_KEY' not set" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_think_in_live_mode_without_its_credential_sends_nothing(
        tmp_path, capsys, monkeypatch):
    sent = []
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda *args, **kwargs: sent.append(args))
    monkeypatch.delenv("PSEUDOEXEC_TEST_UNSET_KEY", raising=False)
    config = _write_config(tmp_path, cassette_path=None,
                           credential_env="PSEUDOEXEC_TEST_UNSET_KEY")
    assert main(["think", "--config", str(config), "--mode", "live",
                 "--task", "navigate"]) == 2
    assert "error: ConfigError: credential env var " \
        "'PSEUDOEXEC_TEST_UNSET_KEY' not set" in capsys.readouterr().err
    assert sent == []
    assert not (tmp_path / "runs").exists()


def test_each_task_directory_is_written_by_one_thread_of_its_own(
        tmp_path, monkeypatch, capsys):
    write_file = cli._write_file
    writers = {}   # directory: the threads that wrote a transcript in it

    def watched_write(path, data):
        writers.setdefault(os.path.dirname(path), set()).add(
            threading.get_ident())
        write_file(path, data)

    monkeypatch.setattr(cli, "_write_file", watched_write)
    tasks = ["navigate", "web_of_lies", "dyck_languages"]
    for max_parallel in (1, 2):
        writers.clear()
        (tmp_path / str(max_parallel)).mkdir()
        config = _write_config(tmp_path / str(max_parallel), mode="mock",
                               cassette_path=None, tasks=tasks,
                               max_parallel=max_parallel)
        assert main(["run", "--config", str(config)]) == 0
        assert sorted(os.path.basename(d) for d in writers) == sorted(tasks)
        assert all(len(threads) == 1 for threads in writers.values())
        threads = {thread for (thread,) in writers.values()}
        assert len(threads) == len(tasks)
        assert threading.get_ident() not in threads
    capsys.readouterr()


def _record_run_against_a_stub(tmp_path, chat_server, **extra) -> list:
    """Run a record ``direct`` run over navigate against a localhost model
    stub, expect exit 2, and return the requests the stub was paid for."""
    endpoint, paid = chat_server(lambda request: (200, json.dumps(
        {"choices": [{"message": {"content": "Final answer: Yes"}}]}
    ).encode()))
    config = _write_config(
        tmp_path, mode="record", method="direct", tasks=["navigate"],
        credential_env="PSEUDOEXEC_TEST_KEY", endpoint=endpoint, **extra)
    assert main(["run", "--config", str(config)]) == 2
    return paid


def test_a_record_run_resumes_over_a_torn_last_line(tmp_path, capsys,
                                                     chat_server):
    # An append cut 37 bytes into the bundled cassette's last line.
    lines = BUNDLED_CASSETTE.read_bytes().splitlines(keepends=True)
    cut = json.loads(lines[-1])
    cassette = tmp_path / "c.jsonl"
    cassette.write_bytes(b"".join(lines[:-1]) + lines[-1][:37])
    endpoint, paid = chat_server(lambda request: (200, json.dumps(
        {"choices": [{"message": {"content": cut["response_text"]}}]}
    ).encode()))
    config = _write_config(
        tmp_path, mode="record", cassette_path=str(cassette),
        credential_env="PSEUDOEXEC_TEST_KEY", endpoint=endpoint)
    assert main(["run", "--config", str(config)]) == 0
    assert f"warning: {cassette}: moved the unfinished last line of an " \
        f"interrupted append (37 bytes) to {cassette}.torn" \
        in capsys.readouterr().err
    assert [body["messages"][-1]["content"] for _, body in paid] == \
        [cut["request"]["user"]]
    assert (tmp_path / "c.jsonl.torn").read_bytes() == lines[-1][:37] + b"\n"
    assert len(cassette.read_bytes().splitlines()) == len(lines)
    # A replay of the cut file keeps its error and leaves the file alone.
    cassette.write_bytes(b"".join(lines[:-1]) + lines[-1][:37])
    config = _write_config(tmp_path, cassette_path=str(cassette))
    assert main(["run", "--config", str(config)]) == 2
    assert f"error: ConfigError: {cassette} line {len(lines)}: not a " \
        "cassette entry: " in capsys.readouterr().err
    assert cassette.read_bytes() == b"".join(lines[:-1]) + lines[-1][:37]


def test_a_record_run_into_a_missing_directory_pays_for_nothing(
        tmp_path, capsys, chat_server):
    missing = tmp_path / "missing"
    paid = _record_run_against_a_stub(
        tmp_path, chat_server, cassette_path=str(missing / "c.jsonl"))
    assert f"error: ConfigError: cassette directory {str(missing)!r} " \
        "not found" in capsys.readouterr().err
    assert paid == []
    assert not (tmp_path / "runs").exists()
    assert not missing.exists()


def test_a_run_whose_runs_dir_cannot_be_made_pays_for_nothing(
        tmp_path, capsys, chat_server):
    (tmp_path / "file").write_text("", encoding="utf-8")
    runs_dir = tmp_path / "file" / "runs"
    paid = _record_run_against_a_stub(
        tmp_path, chat_server, runs_dir=str(runs_dir),
        cassette_path=str(tmp_path / "c.jsonl"), max_parallel=4)
    assert f"error: ConfigError: runs_dir {str(runs_dir)!r} cannot be " \
        f"made: {str(tmp_path / 'file')!r} is not a writable directory" \
        in capsys.readouterr().err
    assert paid == []
    assert not (tmp_path / "c.jsonl").exists()
    assert (tmp_path / "file").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("tasks, error", [
    (["navigate"], "MalformedDataset"), ([], "ConfigError"),
    (["navigate", "navigate"], "ConfigError: tasks must not list a task")],
    ids=["empty-file", "no-tasks", "a-task-twice"])
def test_an_empty_dataset_makes_no_run_dir(tmp_path, capsys, tasks, error):
    data = tmp_path / "data"
    data.mkdir()
    (data / "navigate.jsonl").write_text("\n", encoding="utf-8")
    config = _write_config(tmp_path, dataset_dir=str(data), mode="mock",
                           cassette_path=None, tasks=tasks)
    assert main(["run", "--config", str(config)]) == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("config, message", [
    (None, "ConfigError: config file '{tmp}/config.json' not found"),
    ([], "ConfigError: config root must be a JSON object"),
    ({"bogus": 1}, "ConfigError: unknown config keys: ['bogus']"),
    ({"mode": "bogus"}, "ConfigError: mode must be one of "
     "('live', 'record', 'replay', 'mock')"),
    ({"method": "bogus"}, "ConfigError: unknown method 'bogus'"),
    ({"dataset_dir": "{tmp}/missing"},
     "ConfigError: dataset_dir '{tmp}/missing' not found"),
    ({"dataset_dir": "{tmp}", "tasks": ["navigate"]},
     "MalformedDataset: missing dataset file {tmp}/navigate.jsonl"),
    ({"mode": "replay"},
     "ConfigError: mode 'replay' requires cassette_path"),
    ({"mode": "record"},
     "ConfigError: mode 'record' requires cassette_path"),
    ({"dataset_dir": "{tmp}", "tasks": ["web_of_lies"]},
     "MalformedDataset: {tmp}/web_of_lies.json: no 'examples' array")],
    ids=["no-config-file", "config-not-an-object", "unknown-key",
         "unknown-mode", "unknown-method", "no-dataset-dir",
         "no-task-file", "replay-without-cassette",
         "record-without-cassette", "bbh-without-examples"])
def test_a_rejected_config_or_dataset_makes_no_run_dir(
        tmp_path, capsys, config, message):
    # A BIG-Bench Hard file that only a config naming its task reads.
    (tmp_path / "web_of_lies.json").write_text('{"examples": null}',
                                               encoding="utf-8")
    path = tmp_path / "config.json"
    if isinstance(config, dict):
        config = {"dataset_dir": str(Path("src/pseudoexec/assets/fixtures/"
                                          "replay").resolve()),
                  "runs_dir": "{tmp}/runs", **config}
    if config is not None:
        path.write_text(json.dumps(config).replace("{tmp}", str(tmp_path)),
                        encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert f"error: {message.format(tmp=tmp_path)}\n" == \
        capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value", [
    ("max_parallel", "2"), ("sandbox_timeout_ms", "5"), ("seed", True),
    ("tasks", 5), ("tasks", ["navigate", 5]), ("cassette_path", 5),
    ("method", None)])
def test_a_config_value_of_the_wrong_json_type_is_a_config_error(
        tmp_path, capsys, field, value):
    config = _write_config(tmp_path, **{"mode": "mock", "cassette_path": None,
                                        field: value})
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"error: ConfigError: {field} must be a JSON " in err
    assert len(err) < 200
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value", [
    ("reasoner_model", "m\ud800"), ("runs_dir", "runs\udfff"),
    ("interpreter_command", ["python3", "-c\ud800"])])
def test_a_config_text_that_is_not_valid_unicode_is_a_config_error(
        tmp_path, capsys, field, value):
    config = _write_config(tmp_path, **{"mode": "mock", "cassette_path": None,
                                        "method": "direct", field: value})
    assert main(["run", "--config", str(config)]) == 2
    assert f"error: ConfigError: {field} must be valid Unicode text" in \
        capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_the_readme_config_block_is_the_default_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    shown = json.loads(re.sub(r"\s+//[^\n]*", "", block))
    assert shown["tasks"] == ["dyck_languages", "..."]
    shown["tasks"] = [task.value for task in TaskId]
    assert shown == dataclasses.asdict(RunConfig())


@pytest.mark.parametrize("endpoint", [
    "localhost:8000/v1/chat/completions", "htp://127.0.0.1:8000/v1", ""],
    ids=["no-scheme", "another-scheme", "empty"])
def test_a_malformed_endpoint_is_a_config_error(tmp_path, capsys, endpoint):
    config = _write_config(tmp_path, mode="live", method="direct",
                           cassette_path=None, tasks=["navigate"],
                           endpoint=endpoint)
    assert main(["run", "--config", str(config)]) == 2
    assert "error: ConfigError: endpoint must be an http or https URL" in \
        capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


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


def test_mock_outputs_ignore_the_lane_count(tmp_path, capsys):
    # The runs at max_parallel 1 and 2 are checked by tests/test_outputs.py.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # hand over between threads at every turn
    try:
        row = run_row(tmp_path / "mock 8", "think_and_execute", 8)
    finally:
        sys.setswitchinterval(switch)
    assert row == load_table()["think_and_execute"]
    capsys.readouterr()


def test_run_id_hashes_the_dataset_bytes(tmp_path, capsys):
    dataset = Path("src/pseudoexec/assets/fixtures/replay")
    expected = hashlib.sha256()
    for task in TaskId:
        expected.update(task.value.encode())
        expected.update((dataset / f"{task.value}.jsonl").read_bytes())
    config = _write_config(tmp_path, mode="mock", cassette_path=None)
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    assert manifest["dataset_digest"] == expected.hexdigest()
    capsys.readouterr()


def _navigate_run(tmp_path: Path) -> tuple[Path, Path, dict]:
    """Config, run directory and transcripts of a mock ``direct`` run over
    navigate at ``max_parallel`` 2; the run directory is deleted again."""
    config = _write_config(tmp_path, mode="mock", cassette_path=None,
                           method="direct", tasks=["navigate"],
                           max_parallel=2)
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    transcripts = {p.name: p.read_bytes()
                   for p in (run_dir / "navigate").iterdir()}
    shutil.rmtree(run_dir)
    return config, run_dir, transcripts


_NAVIGATE_DIRECT = {"mode": "mock", "cassette_path": None, "method": "direct",
                    "tasks": ["navigate"]}


def test_fields_a_run_never_reads_leave_its_id(tmp_path, capsys):
    first = _run_outputs(tmp_path, "first", **_NAVIGATE_DIRECT)
    for field, value in [
            ("seed", 1), ("instructor_model", "other-model"),
            ("pseudocode_source", "generated"),
            ("interpreter_command", ["no-such-python-xyz"]),
            ("sandbox_timeout_ms", 5), ("endpoint", "http://127.0.0.1:9/"),
            ("credential_env", "PSEUDOEXEC_OTHER_KEY"),
            ("cassette_path", str(tmp_path / "absent.jsonl"))]:
        assert _run_outputs(tmp_path, field,
                            **{**_NAVIGATE_DIRECT, field: value}) == first
    capsys.readouterr()


def test_fields_a_run_reads_split_its_id(tmp_path, capsys):
    def rid(name, **extra):
        return _run_outputs(tmp_path, name, **{**_NAVIGATE_DIRECT, **extra})[0]

    assert rid("human", method="think_and_execute") != \
        rid("generated", method="think_and_execute",
            pseudocode_source="generated")
    assert rid("pot", method="zero_shot_pot") != \
        rid("pot slow", method="zero_shot_pot", sandbox_timeout_ms=20_000)
    base = rid("base")
    assert rid("reasoner", reasoner_model="other-model") != base
    # No record run can be made offline; its id is the same function's.
    record = RunConfig(mode="record", cassette_path="a.jsonl")
    ids = {run_id(run_id_fields(config, None), "digest") for config in (
        record, dataclasses.replace(record, cassette_path="b.jsonl"),
        dataclasses.replace(record, endpoint="http://127.0.0.1:9/"))}
    assert len(ids) == 3
    capsys.readouterr()


def test_a_byte_of_a_template_the_run_reads_splits_its_id(tmp_path, capsys,
                                                         assets_copy):
    first = _run_outputs(tmp_path, "bundled", **_NAVIGATE_DIRECT)[0]
    for template, splits in [("cot", False), ("direct", True)]:
        path = assets_copy / "meta" / f"{template}.txt"
        path.write_text(path.read_text(encoding="utf-8") + " ",
                        encoding="utf-8")
        prompts.load_asset_text.cache_clear()
        rid = _run_outputs(tmp_path, template, **_NAVIGATE_DIRECT)[0]
        assert (rid != first) == splits, template
    capsys.readouterr()


def test_an_oracle_run_reads_no_gateway_setting(tmp_path, capsys):
    oracle = {"method": "oracle", "tasks": ["navigate"]}
    mock = {**oracle, "mode": "mock", "cassette_path": None}
    first = _run_outputs(tmp_path, "mock", **mock)
    assert _run_outputs(tmp_path, "replay", **oracle) == first
    for field, value in [("endpoint", "http://127.0.0.1:9/"),
                         ("credential_env", "PSEUDOEXEC_OTHER_KEY")]:
        assert _run_outputs(tmp_path, field, **{**mock, field: value}) == \
            first
    assert _run_outputs(tmp_path, "record", **oracle, mode="record",
                        cassette_path=str(tmp_path / "absent.jsonl")) == first
    assert not (tmp_path / "absent.jsonl").exists()
    # The report prints the model, so the id still hashes it.
    assert _run_outputs(tmp_path, "model", **mock,
                        reasoner_model="other-model")[0] != first[0]
    capsys.readouterr()


def test_a_config_field_the_rule_does_not_name_is_hashed():
    @dataclasses.dataclass
    class Grown(RunConfig):
        new_knob: int = 0

    assert run_id_fields(Grown(), None)["new_knob"] == 0


@pytest.mark.parametrize("mode", ["mock", "replay"])
def test_the_manifest_alone_gives_the_run_id(tmp_path, capsys, mode):
    extra = {"cassette_path": None} if mode == "mock" else {}
    config = _write_config(tmp_path, mode=mode, tasks=["navigate"], **extra)
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    blob = (json.dumps(manifest["run_id_fields"], sort_keys=True,
                       ensure_ascii=False)
            + "\n" + manifest["dataset_digest"])
    assert hashlib.sha256(blob.encode()).hexdigest()[:12] == \
        manifest["run_id"] == run_dir.name
    assert ("cassette_digest" in manifest["run_id_fields"]) == \
        (mode == "replay")
    assert "config_hash" not in manifest
    capsys.readouterr()


def test_a_command_does_not_check_a_resource_it_never_uses(tmp_path, capsys):
    config = _write_config(tmp_path, **_NAVIGATE_DIRECT)
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    # A PoT interpreter that is not on PATH, and a cassette that moved.
    bad = {"runs_dir": str(tmp_path / "runs"), "tasks": ["navigate"],
           "interpreter_command": ["no-such-python-xyz"],
           "cassette_path": str(tmp_path / "moved.jsonl")}
    for name in ("bad", "oracle"):
        (tmp_path / name).mkdir()
    config = _write_config(tmp_path / "bad", method="zero_shot_pot", **bad)
    oracle = _write_config(tmp_path / "oracle", method="oracle", **bad)
    capsys.readouterr()
    assert main(["run", "--config", str(oracle)]) == 0
    (oracle_run,) = set((tmp_path / "runs").iterdir()) - {run_dir}
    assert main(["report", run_dir.name, "--config", str(config)]) == 0
    assert main(["think", "--task", "navigate", "--config", str(config),
                 "--mode", "mock", "--out", str(tmp_path / "think")]) == 0
    assert capsys.readouterr().err == ""
    # The commands that do use them still stop on them.
    assert main(["think", "--task", "navigate", "--config", str(config),
                 "--out", str(tmp_path / "think")]) == 2
    assert "ConfigError: cassette " in capsys.readouterr().err
    assert main(["run", "--config", str(config)]) == 2
    assert "ConfigError: interpreter 'no-such-python-xyz' not found" in \
        capsys.readouterr().err
    assert set((tmp_path / "runs").iterdir()) == {run_dir, oracle_run}


def test_a_pot_run_stops_on_an_interpreter_the_zygote_cannot_use(
        tmp_path, capsys, unusable_interpreter):
    command, status, cause = unusable_interpreter
    marker = tmp_path / "ran"
    cassette = _pot_cassette(tmp_path / "pot.jsonl",
                             f"open({str(marker)!r}, 'w').close()\n"
                             "return True\n")
    config = _write_config(tmp_path, method="zero_shot_pot",
                           tasks=["navigate"], cassette_path=str(cassette),
                           interpreter_command=command)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: ConfigError: interpreter {' '.join(command)!r} cannot run "
        f"the PoT sandbox: it exited {status}: ")
    assert cause in err
    assert not marker.exists()
    assert not (tmp_path / "runs").exists()


def test_a_pot_run_stops_after_one_wait_on_a_zygote_that_starts_nothing(
        tmp_path, capsys):
    data = tmp_path / "data"
    cli.write_dataset([generate_instance(TaskId.NAVIGATE, seed, 3)
                       for seed in range(3)], data)
    ignores_stdin = [sys.executable, "-c", "import time; time.sleep(60)"]
    config = _write_config(tmp_path, dataset_dir=str(data), mode="mock",
                           cassette_path=None, method="zero_shot_pot",
                           tasks=["navigate"], max_parallel=1,
                           interpreter_command=ignores_stdin,
                           sandbox_timeout_ms=100)
    started = time.monotonic()
    assert main(["run", "--config", str(config)]) == 2
    elapsed = time.monotonic() - started
    assert capsys.readouterr().err == (
        f"error: ConfigError: interpreter {' '.join(ignores_stdin)!r} cannot "
        "run the PoT sandbox: it started no program within 1100 ms\n")
    # The timeout and the reap grace once, not once per instance.
    assert 1.1 <= elapsed < 2.2
    assert not (tmp_path / "runs").exists()


def test_think_ends_each_file_in_one_newline(tmp_path, capsys, monkeypatch):
    answers = iter(["An analysis.\n",
                    load_pseudocode(TaskId.NAVIGATE, "generated").body])
    stub = MockGateway(responders={"instructor": lambda _: next(answers)})
    monkeypatch.setattr(cli, "build_gateway", lambda config: stub)
    out = tmp_path / "think"
    assert main(["think", "--task", "navigate", "--out", str(out)]) == 0
    assert (out / "navigate.analysis.txt").read_text("utf-8") == \
        "An analysis.\n"
    code = (out / "navigate.txt").read_text("utf-8")
    assert code.endswith("\n") and not code.endswith("\n\n")
    capsys.readouterr()


def test_each_command_takes_only_the_settings_it_reads(capsys):
    parser = cli._make_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {
        name: {action.option_strings[0] if action.option_strings
               else action.dest
               for action in command._actions
               if not isinstance(action, argparse._HelpAction)}
        for name, command in commands.choices.items()}
    assert options == {
        "think": {"--config", "--mode", "--seed", "--task", "--out"},
        "run": {"--config", "--mode"},
        "report": {"--config", "run_id", "--format"},
        "ablate": {"--task", "--source", "--out"}}
    assert sum(map(len, options.values())) == 13
    for argv in (["run", "--seed", "1"], ["oracle", "--config", "x"],
                 ["ingest", "DIR", "--config", "x"],
                 ["ablate", "--task", "navigate", "--seed", "1"]):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(argv)
        assert exit_.value.code == 2
    assert parser.parse_args(["think", "--task", "navigate",
                              "--seed", "3"]).seed == 3
    capsys.readouterr()


def test_the_readme_cli_section_names_every_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("\n| command |", 1)[1].split("\n\n", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    (commands,) = [action for action in cli._make_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    listed = [name for row in table.splitlines()[2:]
              for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(commands.choices)
    assert set(re.findall(r"^pseudoexec (\w+)", block, re.M)) == \
        set(commands.choices)


def test_a_partial_report_prints_on_an_ascii_terminal(tmp_path,
                                                      monkeypatch):
    config = _write_config(tmp_path, mode="mock", cassette_path=None,
                           method="direct", tasks=["navigate"])
    out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert main(["report", run_dir.name, "--config", str(config)]) == 0
    out.flush()
    row = r"| direct | \u2014 | \u2014 | 75.0 | \u2014 |"
    assert out.buffer.getvalue().decode("ascii").count(row) == 2
    assert row.replace(r"\u2014", "\u2014") in \
        (run_dir / "report.md").read_text(encoding="utf-8")


def test_a_failed_transcript_write_stops_the_run(tmp_path, monkeypatch,
                                                 capsys):
    config, run_dir, _ = _navigate_run(tmp_path)
    (run_dir / "navigate" / "3.txt").mkdir(parents=True)
    reached = []
    mock_gateway, write_file, put = (cli.mock_gateway, cli._write_file,
                                     cli._WriterLanes.put)
    failed, stopped = threading.Event(), threading.Event()

    def counting_gateway(instances, config):
        inner = mock_gateway(instances, config=config)
        number = {reasoner_request(MethodId.DIRECT, instance, None,
                                   config.reasoner_model): i
                  for i, instance in enumerate(instances)}

        def reasoner(request):
            reached.append(request)
            # However far the calling thread lags behind the workers,
            # instances 4 and 5 are answered once 3's write has failed and
            # later ones once the calling thread has seen it.
            index = number[request]
            if index >= 4:
                assert (failed if index < 6 else stopped).wait(timeout=30)
            time.sleep(0.05)   # the workers, not the writes, set the pace
            return inner.complete(request)
        return MockGateway(responders={"reasoner": reasoner})

    def watched_write(path, data):
        try:
            write_file(path, data)
        except OSError:
            failed.set()
            raise

    def watched_put(lanes, *job):
        try:
            put(lanes, *job)
        except OSError:
            stopped.set()
            raise

    monkeypatch.setattr(cli, "mock_gateway", counting_gateway)
    monkeypatch.setattr(cli, "_write_file", watched_write)
    monkeypatch.setattr(cli._WriterLanes, "put", watched_put)
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: IsADirectoryError: [Errno 21] Is a directory: ")
    assert not (run_dir / "manifest.json").exists()
    assert sorted(p.name for p in (run_dir / "navigate").iterdir()) == \
        ["0.txt", "1.txt", "2.txt", "3.txt"]
    # Writing in input order, the run stops at instance 3 with the two
    # next instances in flight.  A lane reports the failure at the next
    # transcript, by when each worker may have taken one more instance.
    assert len(reached) <= 4 + 2 + 2


def test_an_interrupted_run_keeps_the_transcripts_it_reached(
        tmp_path, monkeypatch, capsys):
    config, run_dir, complete = _navigate_run(tmp_path)
    evaluate_run = cli.evaluate_run

    def interrupted_evaluate_run(*args, on_prediction, **kwargs):
        def persist(index, *rest):
            if index == 10:   # Ctrl-C lands on the calling thread
                raise KeyboardInterrupt
            on_prediction(index, *rest)
        return evaluate_run(*args, on_prediction=persist, **kwargs)

    monkeypatch.setattr(cli, "evaluate_run", interrupted_evaluate_run)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(config)])
    assert not (run_dir / "manifest.json").exists()
    written = {p.name: p.read_bytes()
               for p in (run_dir / "navigate").iterdir()}
    assert written == {f"{i}.txt": complete[f"{i}.txt"] for i in range(10)}
    capsys.readouterr()


def test_run_setup_starts_no_thread_and_imports_no_pool(tmp_path):
    """Up to ``evaluate_run``, a run imports no thread pool, queue or
    logging and starts no thread: that window is timed as set-up."""
    config = _write_config(tmp_path, mode="mock", cassette_path=None)
    script = textwrap.dedent("""
        import sys, threading
        from pseudoexec import cli

        class SetupDone(Exception):
            pass

        def stop(*args, **kwargs):
            loaded = [name for name in ("concurrent.futures", "queue",
                                        "logging") if name in sys.modules]
            print(loaded, threading.active_count())
            raise SetupDone

        cli.evaluate_run = stop
        try:
            cli.main(["run", "--config", sys.argv[1]])
        except SetupDone:
            pass
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(config)],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout == "[] 1\n", proc.stderr


def test_run_stops_on_a_malformed_cassette_line(tmp_path, capsys):
    lines = BUNDLED_CASSETTE.read_text(encoding="utf-8").splitlines(True)
    lines[2] = lines[2][:50] + "\n"
    torn = tmp_path / "torn.jsonl"
    torn.write_text("".join(lines), encoding="utf-8")
    config = _write_config(tmp_path, cassette_path=str(torn))
    assert main(["run", "--config", str(config)]) == 2
    assert f"error: ConfigError: {torn} line 3: " in capsys.readouterr().err


def test_run_stops_on_a_cassette_response_that_is_not_unicode(tmp_path,
                                                              capsys):
    lines = BUNDLED_CASSETTE.read_text(encoding="utf-8").splitlines(True)
    entry = json.loads(lines[2])
    entry["response_text"] += "\ud800"      # written as a JSON escape
    lines[2] = json.dumps(entry) + "\n"
    cassette = tmp_path / "cassette.jsonl"
    cassette.write_text("".join(lines), encoding="utf-8")
    config = _write_config(tmp_path, cassette_path=str(cassette))
    assert main(["run", "--config", str(config)]) == 2
    assert (f"error: ConfigError: {cassette}: cassette entry "
            f"{entry['digest'][:12]} is malformed") in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_a_mock_answer_that_is_not_unicode_is_a_recorded_gateway_error(
        tmp_path, capsys, monkeypatch):
    mock = MockGateway(responders={
        "reasoner": lambda request: "Final answer: Yes\ud800"})
    monkeypatch.setattr(cli, "build_gateway",
                        lambda config, instances=(): mock)
    config = _write_config(tmp_path, **_NAVIGATE_DIRECT)
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    headers = [path.read_text("utf-8").splitlines()[0]
               for path in (run_dir / "navigate").iterdir()]
    assert len(headers) == 20
    assert all(header.endswith("answer=None failure='gateway_error: mock "
                               "response is not Unicode text'")
               for header in headers)
    assert (run_dir / "manifest.json").is_file()
    # Nor is such an answer recorded.
    cassette = tmp_path / "c.jsonl"
    with pytest.raises(GatewayError, match="not Unicode text"):
        RecordGateway(mock, cassette).complete(
            ChatRequest(role_tag="reasoner", user="q"))
    assert not cassette.exists()
    capsys.readouterr()


def test_max_parallel_has_a_ceiling(tmp_path, capsys):
    RunConfig(max_parallel=MAX_PARALLEL_CEILING).validate()
    for bad in (0, MAX_PARALLEL_CEILING + 1):
        with pytest.raises(ConfigError, match="max_parallel"):
            RunConfig(max_parallel=bad).validate()
    config = _write_config(tmp_path, max_parallel=10_000)
    assert main(["run", "--config", str(config)]) == 2
    assert "max_parallel" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_an_oracle_run_scores_100_on_the_paper_fixtures(tmp_path, capsys):
    config = _write_config(
        tmp_path, method="oracle",
        dataset_dir=str(Path("src/pseudoexec/assets/fixtures/paper")
                        .resolve()))
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    (run_dir,) = (tmp_path / "runs").iterdir()
    report = (run_dir / "report.md").read_text(encoding="utf-8")
    for text in (out, report):
        assert "| oracle |" + " 100.0 |" * 8 in text
        assert "ParseUnsupported (counted incorrect): 0." in text
    per_task = json.loads(
        (run_dir / "manifest.json").read_text(encoding="utf-8"))["per_task"]
    assert sorted(per_task) == sorted(task.value for task in TaskId)
    assert all(tally["parse_unsupported"] == 0 and tally["total"] > 0
               for tally in per_task.values())


def test_report_rerenders_stored_run(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    run_dir = next(d for d in (tmp_path / "runs").iterdir() if d.is_dir())
    stored_csv = (run_dir / "report.csv").read_text()
    capsys.readouterr()
    assert main(["report", run_dir.name, "--config", str(config),
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == stored_csv
    # A manifest written before run ids hashed only what a run reads has
    # config_hash in place of run_id_fields; report reads neither.
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    del manifest["run_id_fields"]
    manifest["config_hash"] = hashlib.sha256(b"old config").hexdigest()
    old_run = tmp_path / "runs" / "0123456789ab"
    old_run.mkdir()
    (old_run / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    assert main(["report", old_run.name, "--config", str(config),
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == stored_csv


def test_a_failed_artifact_write_leaves_no_manifest(tmp_path, capsys):
    config = _write_config(tmp_path, tasks=["navigate"])
    assert main(["run", "--config", str(config)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    for name in ("manifest.json", "report.md", "report.csv"):
        (run_dir / name).unlink()
    # A directory in its place makes the report.csv rename fail.
    (run_dir / "report.csv").mkdir()
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: IsADirectoryError: [Errno 21] Is a "
                          "directory: ")
    assert err.endswith(f" -> '{run_dir / 'report.csv'}'\n")
    assert (run_dir / "report.md").is_file()
    assert not (run_dir / "manifest.json").exists()
    assert not list(run_dir.glob("*.tmp"))


def test_report_unknown_run_id(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["report", "deadbeef", "--config", str(config)]) == 2
    assert "error: PseudoexecError: no manifest at " in capsys.readouterr().err
    # A manifest that is not a run manifest is a typed error too.
    tally = {"correct": 1, "total": 1, "parse_unsupported": 0}

    def manifest(per_task=None, model_id="m", **counts):
        return json.dumps({"method": "direct", "model_id": model_id,
                           "per_task": per_task if per_task is not None
                           else {"navigate": {**tally, **counts}}})

    for name, body in [
            ("not_json", "{not json"), ("no_model", '{"method": "direct"}'),
            ("a_list", "[1]"),
            ("unknown_task", manifest(per_task={"bogus": tally})),
            ("tally_text", manifest(correct="x")),
            ("tally_bool", manifest(correct=True)),
            ("tally_float", manifest(total=1.5)),
            ("tally_null", manifest(parse_unsupported=None)),
            ("total_negative", manifest(total=-2)),
            ("correct_over_total", manifest(correct=5)),
            ("parse_unsupported_over_total", manifest(parse_unsupported=2)),
            ("per_task_list", manifest(per_task=[tally])),
            ("model_id_number", manifest(model_id=7))]:
        (tmp_path / "runs" / name).mkdir(parents=True)
        (tmp_path / "runs" / name / "manifest.json").write_text(
            body, encoding="utf-8")
        assert main(["report", name, "--config", str(config)]) == 2, name
        captured = capsys.readouterr()
        assert captured.err.startswith("error: PseudoexecError: "), name
        assert "is not a run manifest" in captured.err, name
        assert captured.out == "", name


def test_ablate_command(tmp_path, capsys):
    assert main(["ablate", "--task", "dyck_languages"]) == 0
    out = capsys.readouterr().out
    assert "X1" in out
    assert "#" not in out
    # --out creates the directory it names, as think --out does.
    out_file = tmp_path / "new" / "dir" / "dyck.txt"
    assert main(["ablate", "--task", "dyck_languages",
                 "--out", str(out_file)]) == 0
    assert out_file.read_text(encoding="utf-8") == out


def test_replay_mode_requires_cassette(tmp_path):
    config = _write_config(tmp_path,
                           cassette_path=str(tmp_path / "missing.jsonl"))
    assert main(["run", "--config", str(config)]) == 2


_MARKER = "PSEUDOEXEC_TEST_MARKER"


def _marked(value: str) -> list[int]:
    """The live processes but this one whose environment holds
    ``_MARKER=value``."""
    needle = f"\0{_MARKER}={value}\0".encode()
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and entry.name != str(os.getpid()) and \
                    needle in b"\0" + (entry / "environ").read_bytes():
                pids.append(int(entry.name))
        except OSError:              # gone, or not ours
            pass
    return pids


def _kill_marked(value: str) -> None:
    for pid in _marked(value):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _pot_cassette(path: Path, body: str) -> Path:
    """A replay cassette answering the PoT request of each navigate fixture
    with a ``solution`` of ``body``."""
    response = f"```python\ndef solution():\n{textwrap.indent(body, '    ')}```"
    gateway = RecordGateway(
        MockGateway(responders={"reasoner": lambda _: response}), path)
    fixtures = Path("src/pseudoexec/assets/fixtures/replay")
    for instance in cli.load_dataset(fixtures, [TaskId.NAVIGATE]):
        system, user = build_baseline_prompt(MethodId.ZERO_SHOT_POT, instance)
        gateway.complete(ChatRequest(role_tag="reasoner", system=system,
                                     user=user))
    return path


def _pot_run_config(tmp_path: Path, cassette: Path) -> Path:
    """A config for ``pseudoexec run`` of zero-shot PoT over the navigate
    fixtures."""
    return _write_config(tmp_path, method="zero_shot_pot",
                         tasks=["navigate"], cassette_path=str(cassette),
                         max_parallel=2, sandbox_timeout_ms=60_000)


def _start_marked_run(tmp_path: Path, value: str,
                      cassette: Path) -> subprocess.Popen:
    """That run in a subprocess whose environment carries the marker."""
    config = _pot_run_config(tmp_path, cassette)
    env = dict(os.environ, **{_MARKER: value},
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-m", "pseudoexec.cli", "run", "--config",
         str(config)], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("outcome", ["completes", "stops_in_set_up"])
def test_no_sandbox_process_outlives_a_run(tmp_path, outcome):
    value = uuid.uuid4().hex
    cassette = tmp_path / "pot.jsonl"
    if outcome == "completes":
        _pot_cassette(cassette, "return True\n")
    proc = _start_marked_run(tmp_path, value, cassette)
    try:
        _, err = proc.communicate(timeout=60)
        assert _marked(value) == []
    finally:
        _kill_marked(value)
    if outcome == "completes":
        assert proc.returncode == 0, err
    else:      # the zygote has started when the missing cassette shows
        assert proc.returncode == 2
        assert "error: ConfigError: cassette " in err


@pytest.mark.parametrize("outcome", ["completes", "stops_in_set_up"])
def test_the_run_closes_its_sandbox_before_it_returns(
        tmp_path, monkeypatch, capsys, outcome):
    value = uuid.uuid4().hex
    cassette = tmp_path / "pot.jsonl"
    if outcome == "completes":
        _pot_cassette(cassette, "return True\n")
    config = _pot_run_config(tmp_path, cassette)
    monkeypatch.setenv(_MARKER, value)   # inherited by the zygote
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(config)])
            gc.collect()
        assert _marked(value) == []
    finally:
        _kill_marked(value)
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []
    err = capsys.readouterr().err
    if outcome == "completes":
        assert code == 0, err
    else:      # the zygote has started when the missing cassette shows
        assert code == 2
        assert "error: ConfigError: cassette " in err


def test_no_sandbox_process_outlives_a_killed_run(tmp_path):
    value = uuid.uuid4().hex
    started = tmp_path / "started"
    started.mkdir()
    cassette = _pot_cassette(tmp_path / "pot.jsonl", (
        "import os, time\n"
        f"open(os.path.join({str(started)!r}, str(os.getpid())), 'w').close()\n"
        "time.sleep(60)\n"))
    proc = _start_marked_run(tmp_path, value, cassette)
    try:
        deadline = time.monotonic() + 30
        while len(list(started.iterdir())) < 2 and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(list(started.iterdir())) == 2      # one per worker
        proc.kill()
        proc.communicate(timeout=10)
        # The zygote sees EOF, kills the programs it runs and exits.
        deadline = time.monotonic() + 2
        while _marked(value) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _marked(value) == []
    finally:
        proc.kill()
        _kill_marked(value)


def test_seed_flag_overrides_config(tmp_path):
    config = _write_config(tmp_path, seed=3)
    from pseudoexec.cli import _load_effective_config
    import argparse

    args = argparse.Namespace(config=str(config), seed=9, mode=None)
    assert _load_effective_config(args).seed == 9
