"""Baseline prompt builders and the PoT sandbox."""

from __future__ import annotations

import ast
import time
from pathlib import Path

import pytest

from pseudoexec import baselines
from pseudoexec.baselines import (MethodId, build_baseline_prompt,
                                  execute_program, extract_program,
                                  pot_answer, pot_seeded_header,
                                  run_pot_instance)
from pseudoexec.errors import InterpreterNotConfigured, MissingAsset
from pseudoexec.prompts import load_nl_plan
from pseudoexec.tasks import TaskId, make_instance

NAV_TEXT = ("If you follow these instructions, do you return to the "
            "starting point? Take 3 steps. Turn around. Take 5 steps. "
            "Turn right. Turn right. Take 1 step. Take 1 step.")


def _nav():
    return make_instance(TaskId.NAVIGATE, NAV_TEXT, "Yes")


def test_direct_prompt_layout():
    _, user = build_baseline_prompt(MethodId.DIRECT, _nav())
    assert f"text for the task: {NAV_TEXT}" in user
    assert 'format should be like "Final answer: your_answer"' in user
    assert user.endswith("Output:")


def test_cot_prompt_appends_trigger():
    _, user = build_baseline_prompt(MethodId.ZERO_SHOT_COT, _nav())
    assert user.endswith("Let's think step by step.")


def test_plan_and_solve_prompt_appends_trigger():
    _, user = build_baseline_prompt(MethodId.PLAN_AND_SOLVE, _nav())
    assert user.endswith("carry out the plan and solve the problem "
                         "step by step.")


def test_pot_prompt_seeds_solution_docstring():
    _, user = build_baseline_prompt(MethodId.ZERO_SHOT_POT, _nav())
    assert user.startswith("You will write python program to solve the "
                           "below problem.")
    assert f'def solution():\n    """{NAV_TEXT}"""' in user


def test_nl_planning_requires_asset():
    with pytest.raises(MissingAsset):
        build_baseline_prompt(MethodId.NL_PLANNING, _nav())
    plan = load_nl_plan(TaskId.NAVIGATE)
    _, user = build_baseline_prompt(MethodId.NL_PLANNING, _nav(), plan)
    assert user.startswith(plan.body)


def test_think_and_execute_rejected_here():
    with pytest.raises(ValueError):
        build_baseline_prompt(MethodId.THINK_AND_EXECUTE, _nav())


def test_extract_program_fenced_block():
    program = extract_program(
        "```python\ndef solution():\n    return 1\n```", "def solution():")
    assert program.endswith("print(solution())\n")
    result = execute_program(program)
    assert result.stdout.strip() == "1"


def test_extract_program_unfenced_continuation():
    header = pot_seeded_header(_nav())
    program = extract_program("\n    return 2 + 2", header)
    assert program.startswith("def solution():")
    result = execute_program(program)
    assert result.stdout.strip() == "4"


def test_extract_program_empty_response_yields_none_answer():
    # the seeded header alone is a docstring-only function: it runs, returns
    # None, and the resulting answer can never score correct
    program = extract_program("", pot_seeded_header(_nav()))
    result = execute_program(program)
    assert result.exit_status == 0
    assert pot_answer(result, _nav()).final_answer == "None"


def test_extract_program_last_definition_wins():
    program = extract_program(
        "```python\ndef solution():\n    return 'first'\n\n"
        "def solution():\n    return 'second'\n```",
        "def solution():")
    result = execute_program(program)
    assert result.stdout.strip() == "second"


def test_sandbox_echo():
    result = execute_program("print('hi')")
    assert result.stdout == "hi\n"
    assert result.exit_status == 0
    assert not result.timed_out


def test_sandbox_timeout():
    result = execute_program("while True:\n    pass", timeout_ms=500)
    assert result.timed_out
    assert result.wall_time_ms >= 500
    assert result.wall_time_ms <= 500 + 200     # grace bound


def test_sandbox_runs_in_empty_cwd():
    result = execute_program(
        "import os\nprint(sorted(os.listdir('.')))")
    assert result.stdout.strip() == "['program.py']"


def test_sandbox_scrubs_credentials(monkeypatch):
    monkeypatch.setenv("FAKE_CRED", "secret-value")
    monkeypatch.setenv("SOME_API_KEY", "another-secret")
    result = execute_program(
        "import os\n"
        "print('FAKE_CRED' in os.environ, 'SOME_API_KEY' in os.environ)",
        credential_env="FAKE_CRED")
    assert result.stdout.strip() == "False False"


def test_sandbox_requires_interpreter():
    with pytest.raises(InterpreterNotConfigured):
        execute_program("print(1)", interpreter_command=[])


def test_pot_answer_boolean_mapping():
    from pseudoexec.baselines import SandboxResult

    ok = SandboxResult(stdout="True\n", stderr="", exit_status=0,
                       timed_out=False, wall_time_ms=10)
    wol = make_instance(TaskId.WEB_OF_LIES,
                        "Vina tells the truth. Does Vina tell the truth?",
                        "Yes")
    assert pot_answer(ok, wol).final_answer == "Yes"
    # no mapping for non-boolean tasks
    dyck = make_instance(TaskId.DYCK_LANGUAGES, "Input: (", ")")
    assert pot_answer(ok, dyck).final_answer == "True"


def test_pot_answer_failures():
    from pseudoexec.baselines import SandboxResult

    dyck = make_instance(TaskId.DYCK_LANGUAGES, "Input: (", ")")
    crash = SandboxResult(stdout="", stderr="boom", exit_status=1,
                          timed_out=False, wall_time_ms=5)
    assert pot_answer(crash, dyck).failure.startswith("sandbox_error")
    timeout = SandboxResult(stdout="", stderr="", exit_status=-1,
                            timed_out=True, wall_time_ms=700)
    assert pot_answer(timeout, dyck).failure.startswith("sandbox_error")
    silent = SandboxResult(stdout="\n", stderr="", exit_status=0,
                           timed_out=False, wall_time_ms=5)
    assert pot_answer(silent, dyck).failure.startswith("sandbox_error")


def test_run_pot_instance_end_to_end():
    pred = run_pot_instance(
        _nav(), "```python\ndef solution():\n    return True\n```")
    assert pred.final_answer == "Yes"


def test_baselines_does_not_import_gateway():
    """Every reasoner call is made in ``engine.run_instance``; the baselines
    only build prompts and read responses."""
    imported = set()
    tree = ast.parse(Path(baselines.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "pseudoexec" + (f".{base}" if base else "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert not {name for name in imported
                if name.startswith("pseudoexec.gateway")}
