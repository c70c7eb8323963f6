"""Mock-mode stand-ins: the bundled cassette is what they answer, every
model-backed method runs on every task, and unknown questions are recorded
gateway errors."""

from __future__ import annotations

import ast
import json
from dataclasses import fields
from pathlib import Path

import pytest

from pseudoexec import cli, mock
from pseudoexec.baselines import REQUEST_BY_METHOD, MethodId
from pseudoexec.cli import load_dataset, main, write_dataset
from pseudoexec.engine import run_instance
from pseudoexec.errors import CassetteMiss
from pseudoexec.gateway import ChatRequest
from pseudoexec.mock import mock_gateway
from pseudoexec.prompts import build_meta_prompt, load_nl_plan
from pseudoexec.tasks import TASKS, TaskId, make_instance
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
        request = ChatRequest(**{f.name: entry["request"][f.name]
                                 for f in fields(ChatRequest)})
        assert gateway.complete(request) == entry["response_text"]


def _run_mock(tmp_path: Path, monkeypatch, method: MethodId,
              per_task: int) -> dict:
    """The manifest of a mock run whose reasoner never answers wrongly."""
    instances = [generate_instance(task, seed, 3)
                 for task in TaskId for seed in range(per_task)]
    dataset = tmp_path / "dataset"
    write_dataset(instances, dataset)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset_dir": str(dataset), "runs_dir": str(tmp_path / "runs"),
        "mode": "mock", "method": method.value}), encoding="utf-8")
    monkeypatch.setattr(cli, "mock_gateway", lambda instances, **settings:
                        mock_gateway(instances, 0, **settings))
    assert main(["run", "--config", str(config)]) == 0
    run_dir = next((tmp_path / "runs").iterdir())
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("method", [
    MethodId.DIRECT, MethodId.ZERO_SHOT_COT, MethodId.PLAN_AND_SOLVE,
    MethodId.NL_PLANNING, MethodId.THINK_AND_EXECUTE])
def test_mock_run_answers_every_task(tmp_path, capsys, monkeypatch, method):
    # Seeds 0 and 2 give colored-objects "If I remove all the ..." questions.
    assert "If I remove all the" in generate_instance(
        TaskId.COLORED_OBJECTS, 0, 3).input_text
    manifest = _run_mock(tmp_path, monkeypatch, method, per_task=4)
    assert {t: c["total"] for t, c in manifest["per_task"].items()} == \
        {t.value: 4 for t in TaskId}
    assert manifest["average_accuracy"] == 1.0
    capsys.readouterr()


def test_mock_run_pot_runs_the_sandbox(tmp_path, capsys, monkeypatch):
    manifest = _run_mock(tmp_path, monkeypatch, MethodId.ZERO_SHOT_POT,
                         per_task=1)
    assert {t: c["total"] for t, c in manifest["per_task"].items()} == \
        {t.value: 1 for t in TaskId}
    assert manifest["average_accuracy"] == 1.0
    capsys.readouterr()


@pytest.fixture()
def reworded_assets(assets_copy):
    """A copy of the assets whose reasoner and meta templates say the same
    things in other words."""
    for name, old, new in [
            ("execute", "\nfinal_answer = ", "\nresult = "),
            ("direct", "Final answer should be", "The final answer should be"),
            ("cot", "Final answer should be", "The final answer should be"),
            ("plan_and_solve", "Final answer should be",
             "The final answer should be"),
            ("pot", "# solution using Python:", "# Python solution:"),
            ("meta_analysis", "[Example 4]", "[Target task]"),
            ("meta_code", "[Example 4]", "[Target task]")]:
        path = assets_copy / "meta" / f"{name}.txt"
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
    return assets_copy


@pytest.mark.parametrize("method", list(REQUEST_BY_METHOD),
                         ids=lambda m: m.value)
def test_mock_follows_a_reworded_template(tmp_path, capsys, monkeypatch,
                                          reworded_assets, method):
    manifest = _run_mock(tmp_path, monkeypatch, method, per_task=1)
    assert {t: c["total"] for t, c in manifest["per_task"].items()} == \
        {t.value: 1 for t in TaskId}
    assert manifest["average_accuracy"] == 1.0
    capsys.readouterr()


def test_mock_think_follows_reworded_meta_templates(tmp_path, capsys,
                                                    reworded_assets):
    assert main(["think", "--task", "navigate", "--mode", "mock",
                 "--out", str(tmp_path / "think")]) == 0
    assert (tmp_path / "think" / "navigate.txt").read_bytes() == \
        (reworded_assets / "generated" / "navigate.txt").read_bytes()
    capsys.readouterr()


def test_mock_holds_no_template_text(assets_dir):
    lines = {line for path in (assets_dir / "meta").glob("*.txt")
             for line in path.read_text(encoding="utf-8").splitlines()
             if len(line) >= 12}
    tree = ast.parse(Path(mock.__file__).read_text(encoding="utf-8"))
    constants = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str)]
    assert [(line, text) for text in constants for line in lines
            if line in text] == []


def test_mock_instructor_needs_the_bundled_analysis():
    gateway = mock_gateway()
    task = TaskId.NAVIGATE
    for analysis, known in [(load_nl_plan(task).body, True),
                            ("another analysis", False)]:
        request = ChatRequest(role_tag="instructor", user=build_meta_prompt(
            "meta_code", task, 0, analysis=analysis))
        if known:
            assert gateway.complete(request).startswith("def ")
        else:
            with pytest.raises(CassetteMiss):
                gateway.complete(request)


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


def test_mock_reasoner_tells_apart_requests_whose_hashes_collide(
        monkeypatch):
    monkeypatch.setattr(mock, "hash", lambda request: 0, raising=False)
    instances = [generate_instance(task, 1, 3) for task in TaskId]
    gateway = mock_gateway(instances, 0)
    for instance in instances:
        pred = run_instance(MethodId.DIRECT, instance, None, gateway)
        assert TASKS[instance.task].function_name in pred.transcript
    unknown = generate_instance(TaskId.NAVIGATE, 2, 3)
    pred = run_instance(MethodId.DIRECT, unknown, None, gateway)
    assert pred.failure.startswith("gateway_error")


def test_the_mock_answers_unknown_to_what_the_solver_rejects():
    rejected = make_instance(TaskId.DYCK_LANGUAGES, "Input: x", ")")
    pred = run_instance(MethodId.DIRECT, rejected, None,
                        mock_gateway([rejected], 0))
    assert pred.final_answer == "unknown"


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


@pytest.mark.parametrize("task", list(TaskId), ids=lambda t: t.value)
def test_mock_think_writes_the_bundled_prompts(tmp_path, capsys, assets_dir,
                                               task):
    assert main(["think", "--task", task.value, "--mode", "mock",
                 "--out", str(tmp_path)]) == 0
    name = f"{task.value}.txt"
    assert (tmp_path / name).read_bytes() == \
        (assets_dir / "generated" / name).read_bytes()
    assert (tmp_path / f"{task.value}.analysis.txt").read_bytes() == \
        (assets_dir / "analysis" / name).read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("task", list(TaskId), ids=lambda t: t.value)
def test_mock_think_writes_the_bundled_prompts_from_generated_demos(
        tmp_path, capsys, assets_dir, task):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pseudocode_source": "generated"}),
                      encoding="utf-8")
    assert main(["think", "--task", task.value, "--config", str(config),
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    name = f"{task.value}.txt"
    assert (tmp_path / name).read_bytes() == \
        (assets_dir / "generated" / name).read_bytes()
    assert (tmp_path / f"{task.value}.analysis.txt").read_bytes() == \
        (assets_dir / "analysis" / name).read_bytes()
    capsys.readouterr()
