"""Acceptance suite.  One test per acceptance criterion; each prints a
single PASS line on success (the suite runs with capture disabled)."""

from __future__ import annotations

import json
import random
import re
import socket
import time
from pathlib import Path

import pytest

from oracles import (dyck_completion_valid, navigate_answer, shuffled_answer,
                     temporal_feasible_options, web_of_lies_answers)
from pseudoexec.baselines import (MethodId, Sandbox, build_baseline_prompt,
                                  execute_program)
from pseudoexec.cli import load_dataset, main
from pseudoexec.engine import build_execute_prompt, extract_final_answer
from pseudoexec.evaluator import EvalReport, evaluate_run, score_prediction
from pseudoexec.prompts import (ablate_prompt, build_meta_prompt,
                                load_nl_plan, load_pseudocode)
from pseudoexec.pseudolex import (RESERVED_NAMES, TokKind,
                                  rename_identifiers, tokenize)
from pseudoexec.tasks import TaskId, make_instance, solve
from pseudoexec.tasks.generate import generate_instance

N_CASES = 1000


def _ok(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


def test_oracle_correctness_paper_fixtures(paper_fixture_dir):
    started = time.monotonic()
    instances = load_dataset(paper_fixture_dir, list(TaskId))
    expected = {
        TaskId.DYCK_LANGUAGES: ")",
        TaskId.GEOMETRIC_SHAPES: "(F)",
        TaskId.NAVIGATE: "Yes",
        TaskId.COLORED_OBJECTS: "(D)",
        TaskId.TEMPORAL_SEQUENCES: "(A)",
        TaskId.SHUFFLED_OBJECTS: "(A)",
        TaskId.WEB_OF_LIES: "No",
    }
    assert len(instances) == 7
    for inst in instances:
        assert inst.target == expected[inst.task]
        assert solve(inst.task, inst) == expected[inst.task]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _ok(f"oracle correctness, paper fixtures: 7/7 in {elapsed:.2f}s")


def test_oracle_correctness_generated_corpora():
    started = time.monotonic()
    for task in TaskId:
        for seed in range(N_CASES):
            inst = generate_instance(task, seed, (seed % 12) + 1)
            # any ParseUnsupported here would raise and fail the test
            assert solve(task, inst) == inst.target, (task, seed)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _ok(f"oracle correctness, generated corpora: {N_CASES}x7 cases, "
        f"100% match, zero ParseUnsupported, {elapsed:.1f}s")


def test_independent_oracle_agreement():
    started = time.monotonic()
    for seed in range(N_CASES):
        size = (seed % 10) + 1
        inst = generate_instance(TaskId.NAVIGATE, seed, size)
        assert solve(TaskId.NAVIGATE, inst) == navigate_answer(
            inst.input_text)
        inst = generate_instance(TaskId.SHUFFLED_OBJECTS, seed, size)
        assert solve(TaskId.SHUFFLED_OBJECTS, inst) == shuffled_answer(
            inst.input_text)
        inst = generate_instance(TaskId.WEB_OF_LIES, seed, size)
        assert web_of_lies_answers(inst.input_text) == \
            {solve(TaskId.WEB_OF_LIES, inst)}
        inst = generate_instance(TaskId.DYCK_LANGUAGES, seed, size)
        assert dyck_completion_valid(inst.input_text,
                                     solve(TaskId.DYCK_LANGUAGES, inst))
        inst = generate_instance(TaskId.TEMPORAL_SEQUENCES, seed, size)
        assert temporal_feasible_options(inst.input_text) == \
            [solve(TaskId.TEMPORAL_SEQUENCES, inst)]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _ok(f"independent-oracle agreement: {N_CASES} cases x 5 oracles, "
        f"100%, {elapsed:.1f}s")


def test_prompt_fidelity_golden_files(assets_dir):
    golden = assets_dir / "golden"
    target = TaskId.WEB_OF_LIES
    paper = load_dataset(assets_dir / "fixtures" / "paper", list(TaskId))
    by_task = {inst.task: inst for inst in paper}

    def check(name: str, text: str, anchor: str) -> None:
        assert text + "\n" == (golden / name).read_text(encoding="utf-8"), \
            f"golden mismatch: {name}"
        assert anchor in text, f"anchor missing in {name}"

    check("analysis_meta_web_of_lies_seed0.txt",
          build_meta_prompt("meta_analysis", target, 0),
          "Generate an explanation, analyzation, and plan to generate code "
          "prompt for the last task")
    check("code_meta_web_of_lies_seed0.txt",
          build_meta_prompt("meta_code", target, 0,
                            analysis=load_nl_plan(target).body),
          "Generate the code prompt for the last task using the similar "
          "style of the example codes.")
    check("nl_plan_web_of_lies_seed0.txt",
          build_meta_prompt("meta_nlplan", target, 0),
          "Generate a plan for the last task")
    system, user = build_execute_prompt(
        load_pseudocode(TaskId.DYCK_LANGUAGES),
        by_task[TaskId.DYCK_LANGUAGES])
    check("execute_dyck_paper.txt", user,
          "Generate the expected execution output (output from all print() "
          "functions) of the code.")
    check("execute_system.txt", system,
          "Generate the expected outputs (from all print() functions) of "
          "the code.")
    nav = by_task[TaskId.NAVIGATE]
    anchors = {
        MethodId.DIRECT: ("direct_navigate_paper.txt",
                          'format should be like "Final answer: '
                          'your_answer"'),
        MethodId.ZERO_SHOT_COT: ("cot_navigate_paper.txt",
                                 "Let's think step by step."),
        MethodId.PLAN_AND_SOLVE: (
            "plan_and_solve_navigate_paper.txt",
            "Let's first understand the problem and devise a plan to solve "
            "the problem."),
        MethodId.ZERO_SHOT_POT: (
            "pot_navigate_paper.txt",
            "You will write python program to solve the below problem."),
    }
    for method, (name, anchor) in anchors.items():
        _, user = build_baseline_prompt(method, nav)
        check(name, user, anchor)
    _, user = build_baseline_prompt(MethodId.NL_PLANNING, nav,
                                    load_nl_plan(TaskId.NAVIGATE))
    check("nl_planning_navigate_paper.txt", user, "text for the task:")
    _ok("prompt fidelity: 10 golden files byte-exact, all anchors present")


def test_extraction_and_scoring_properties():
    rng = random.Random("extraction-property")
    alphabet = ("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 (){}<>[].,:;!?-")
    for _ in range(10_000):
        noise_lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
            for _ in range(rng.randrange(6))
        ]
        noise = "\n".join(line.replace("Final answer:", "final answer-")
                          for line in noise_lines)
        answers = ["".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(1, 20)))
                   for _ in range(rng.randrange(1, 4))]
        sep = ":" if rng.random() < 0.5 else ": "
        transcript = noise + "".join(
            f"\nFinal answer{sep}{a}" for a in answers)
        assert extract_final_answer(transcript) == answers[-1].strip()

    from test_evaluator import SCORING_TABLE, _pred

    assert len(SCORING_TABLE) == 30
    for text, instance, expected in SCORING_TABLE:
        assert score_prediction(_pred(text), instance) is expected
    # the attested tolerance example: option text without a choice tag
    blue = make_instance(
        TaskId.COLORED_OBJECTS,
        "What color is the thing? Options:\n(A) blue\n(B) red", "(A)")
    assert score_prediction(_pred("blue"), blue)
    _ok("extraction over 10,000 transcripts + 30-case scoring table: 100%")


def test_ablation_transform():
    def comments(body):
        return sum(tok.kind is TokKind.COMMENT for tok in tokenize(body))

    asset = load_pseudocode(TaskId.DYCK_LANGUAGES)
    assert comments(asset.body) > 0
    ablated = ablate_prompt(asset)
    assert comments(ablated.body) == 0
    # every user identifier was renamed: no non-reserved original names left
    remaining = {
        tok.text for tok in tokenize(ablated.body)
        if tok.kind is TokKind.NAME and tok.text not in RESERVED_NAMES
        and not re.fullmatch(r"X\d+", tok.text)
    }
    original_user_names = (set(rename_identifiers(tokenize(asset.body))[1])
                           | {asset.function_name})
    assert not (remaining & original_user_names)
    # idempotent, and the output still tokenizes (tokenize would raise)
    assert ablate_prompt(ablated).body == ablated.body
    tokenize(ablated.body)
    _ok("ablation: comments removed, identifiers renamed, idempotent, "
        "re-tokenizes")


def test_end_to_end_replay_determinism(tmp_path, monkeypatch, assets_dir,
                                       cassette_path):
    started = time.monotonic()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset_dir": str(assets_dir / "fixtures" / "replay"),
        "runs_dir": str(tmp_path / "runs"),
        "mode": "replay",
        "cassette_path": str(cassette_path),
        "method": "think_and_execute",
    }), encoding="utf-8")

    def forbidden(*args, **kwargs):
        raise AssertionError("network access during replay run")

    monkeypatch.setattr(socket, "socket", forbidden)
    monkeypatch.setattr(socket, "create_connection", forbidden)

    assert main(["run", "--config", str(config_path)]) == 0
    run_dir = next(d for d in (tmp_path / "runs").iterdir() if d.is_dir())
    report1 = (run_dir / "report.md").read_bytes()
    csv1 = (run_dir / "report.csv").read_bytes()
    assert main(["run", "--config", str(config_path)]) == 0
    assert (run_dir / "report.md").read_bytes() == report1
    assert (run_dir / "report.csv").read_bytes() == csv1

    recorded, produced = (
        EvalReport.from_manifest(json.loads(path.read_text()))
        for path in (assets_dir / "replay" / "manifest.json",
                     run_dir / "manifest.json"))
    assert produced == recorded
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _ok(f"end-to-end replay determinism: byte-identical reports, manifest "
        f"accuracies match, no network, {elapsed:.1f}s")


def test_sandbox_criteria(monkeypatch, sandbox):
    started = time.monotonic()
    echo = execute_program("print('hi')", sandbox)
    assert echo.stdout == "hi\n" and echo.exit_status == 0
    assert time.monotonic() - started < 1.0

    with Sandbox(timeout_ms=500) as short:
        loop = execute_program("while True:\n    pass", short)
    assert loop.timed_out
    assert 500 <= loop.wall_time_ms <= 700

    monkeypatch.setenv("ACCEPT_CRED", "secret")
    with Sandbox(credential_env="ACCEPT_CRED") as scrubbed:
        scrub = execute_program(
            "import os\nprint('ACCEPT_CRED' in os.environ)", scrubbed)
    assert scrub.stdout.strip() == "False"
    _ok("sandbox: echo < 1s, 500ms timeout within grace, credential "
        "scrubbed")


@pytest.mark.skipif(
    "PSEUDOEXEC_LIVE_SMOKE" not in __import__("os").environ,
    reason="live smoke is non-gating; set PSEUDOEXEC_LIVE_SMOKE=1 and the "
           "configured credential env var to run against a real endpoint")
def test_live_smoke_non_gating(tmp_path):
    import os

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset_dir": str(Path("src/pseudoexec/assets/fixtures/paper")
                           .resolve()),
        "runs_dir": str(tmp_path / "runs"),
        "mode": "live",
        "method": "think_and_execute",
        "tasks": ["web_of_lies"],
        "instructor_model": os.environ.get("PSEUDOEXEC_MODEL",
                                           "gpt-3.5-turbo"),
        "reasoner_model": os.environ.get("PSEUDOEXEC_MODEL",
                                         "gpt-3.5-turbo"),
    }), encoding="utf-8")
    assert main(["think", "--task", "web_of_lies",
                 "--config", str(config_path)]) == 0
    assert main(["run", "--config", str(config_path)]) == 0
    _ok("live smoke completed without configuration errors "
        "(accuracy reported, not asserted)")
