"""Mock-mode stand-ins: the bundled cassette is what they answer, every
model-backed method runs on every task, and unknown questions are recorded
gateway errors."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pseudoexec.baselines import MethodId
from pseudoexec.cli import load_dataset, main, write_dataset
from pseudoexec.engine import run_instance
from pseudoexec.errors import CassetteMiss
from pseudoexec.gateway import ChatRequest
from pseudoexec.mock import mock_gateway
from pseudoexec.tasks import TaskId
from pseudoexec.tasks.generate import generate_instance


def _bundled_entries(cassette_path: Path) -> list[dict]:
    return [json.loads(line) for line
            in cassette_path.read_text(encoding="utf-8").splitlines()]


def test_bundled_cassette_is_the_mock_answer(replay_fixture_dir,
                                             cassette_path):
    gateway = mock_gateway(load_dataset(replay_fixture_dir, list(TaskId)),
                           0.2)
    entries = _bundled_entries(cassette_path)
    assert {e["request"]["role_tag"] for e in entries} == \
        {"instructor", "reasoner"}
    for entry in entries:
        assert gateway.complete(ChatRequest(**entry["request"])) == \
            entry["response_text"]


def _run_mock(tmp_path: Path, method: MethodId, per_task: int) -> dict:
    instances = [generate_instance(task, seed, 3)
                 for task in TaskId for seed in range(per_task)]
    dataset = tmp_path / "dataset"
    write_dataset(instances, dataset)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset_dir": str(dataset), "runs_dir": str(tmp_path / "runs"),
        "mode": "mock", "method": method.value,
        "mock_corrupt_fraction": 0.0}), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    run_dir = next((tmp_path / "runs").iterdir())
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("method", [
    MethodId.DIRECT, MethodId.ZERO_SHOT_COT, MethodId.PLAN_AND_SOLVE,
    MethodId.NL_PLANNING, MethodId.THINK_AND_EXECUTE])
def test_mock_run_answers_every_task(tmp_path, capsys, method):
    # Seeds 0 and 2 give colored-objects "If I remove all the ..." questions.
    assert "If I remove all the" in generate_instance(
        TaskId.COLORED_OBJECTS, 0, 3).input_text
    manifest = _run_mock(tmp_path, method, per_task=4)
    assert {t: c["total"] for t, c in manifest["per_task"].items()} == \
        {t.value: 4 for t in TaskId}
    assert manifest["average_accuracy"] == 1.0
    capsys.readouterr()


def test_mock_run_pot_runs_the_sandbox(tmp_path, capsys):
    manifest = _run_mock(tmp_path, MethodId.ZERO_SHOT_POT, per_task=1)
    assert {t: c["total"] for t, c in manifest["per_task"].items()} == \
        {t.value: 1 for t in TaskId}
    assert manifest["average_accuracy"] == 1.0
    capsys.readouterr()


def test_mock_reasoner_hashes_each_request_once(monkeypatch):
    from pseudoexec import gateway, mock

    hashed, original = [], gateway.digest

    def counting(request):
        hashed.append(request)
        return original(request)

    monkeypatch.setattr(mock, "digest", counting)
    monkeypatch.setattr(gateway, "digest", counting)
    instance = generate_instance(TaskId.NAVIGATE, 1, 3)
    pred = run_instance(MethodId.DIRECT, instance, None,
                        mock_gateway([instance]))
    assert pred.final_answer is not None
    assert len(hashed) == 1


def test_unknown_question_is_a_recorded_gateway_error():
    known = generate_instance(TaskId.NAVIGATE, 1, 3)
    unknown = generate_instance(TaskId.NAVIGATE, 2, 3)
    pred = run_instance(MethodId.DIRECT, unknown, None, mock_gateway([known]))
    assert pred.final_answer is None
    assert pred.failure.startswith("gateway_error")
    with pytest.raises(CassetteMiss):
        mock_gateway([known]).complete(
            ChatRequest(role_tag="reasoner", user="no question slot"))


def test_mock_think_reproduces_bundled_exchange(tmp_path, capsys,
                                                cassette_path):
    responses = [e["response_text"] for e in _bundled_entries(cassette_path)
                 if e["request"]["role_tag"] == "instructor"]
    assert main(["think", "--task", "web_of_lies", "--mode", "mock",
                 "--out", str(tmp_path)]) == 0
    analysis = (tmp_path / "web_of_lies.analysis.txt").read_text("utf-8")
    pseudocode = (tmp_path / "web_of_lies.txt").read_text("utf-8")
    assert sorted(responses) == sorted([analysis[:-1], pseudocode[:-1]])
    capsys.readouterr()
