"""Baseline prompting methods (Direct, zero-shot CoT, Plan-and-Solve, NL
planning, zero-shot PoT), the subprocess sandbox that runs PoT programs, and
the Prediction every method returns."""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import InterpreterNotConfigured, MissingAsset, SpawnFailure
from .prompts import (FENCE_RE, PromptAsset, load_asset_text, load_taskinfo,
                      render)
from .tasks import YES_NO_TASKS, TaskInstance


class MethodId(Enum):
    DIRECT = "direct"
    ZERO_SHOT_COT = "zero_shot_cot"
    PLAN_AND_SOLVE = "plan_and_solve"
    NL_PLANNING = "nl_planning"
    ZERO_SHOT_POT = "zero_shot_pot"
    THINK_AND_EXECUTE = "think_and_execute"
    ORACLE = "oracle"          # routes through the task solvers, no model

DEFAULT_TIMEOUT_MS = 10_000
DEFAULT_INTERPRETER = ("python3",)

FAIL_NO_FINAL_ANSWER = "no_final_answer"
FAIL_GATEWAY = "gateway_error"
FAIL_SANDBOX = "sandbox_error"

_TEMPLATE_BY_METHOD = {
    MethodId.DIRECT: "direct",
    MethodId.ZERO_SHOT_COT: "cot",
    MethodId.PLAN_AND_SOLVE: "plan_and_solve",
    MethodId.NL_PLANNING: "direct",
}


@dataclass(frozen=True)
class Prediction:
    transcript: str
    final_answer: str | None
    failure: str | None = None

    def __post_init__(self) -> None:
        if (self.final_answer is None) == (self.failure is None):
            raise ValueError(
                "exactly one of final_answer and failure must be set")


@dataclass(frozen=True)
class SandboxResult:
    stdout: str
    stderr: str
    exit_status: int
    timed_out: bool
    wall_time_ms: int


def build_baseline_prompt(method: MethodId, instance: TaskInstance,
                          asset: PromptAsset | None = None
                          ) -> tuple[str | None, str]:
    """Returns (system, user); no baseline sends a system message."""
    if method is MethodId.ZERO_SHOT_POT:
        user = render(load_asset_text("meta/pot.txt"),
                      {"question": instance.input_text})
        return None, user
    template = _TEMPLATE_BY_METHOD.get(method)
    if template is None:
        raise ValueError(f"no baseline template for {method}")
    if method is MethodId.NL_PLANNING:
        if asset is None:
            raise MissingAsset("nl_plan")
        task_prompt = asset.body
    else:
        task_prompt = load_taskinfo(instance.task).description
    user = render(load_asset_text(f"meta/{template}.txt"), {
        "prompt": task_prompt,
        "input_text": instance.input_text,
    })
    return None, user


def pot_seeded_header(instance: TaskInstance) -> str:
    return (f"def solution():\n"
            f'    """{instance.input_text}"""')


def extract_program(response: str, seeded_header: str) -> str:
    """Textual extraction only: prefer a fenced code block, else assume the
    response continues the seeded function header.  Either way an epilogue
    prints solution()'s raw return value as the last stdout line."""
    blocks = FENCE_RE.findall(response)
    if blocks:
        program = "\n\n".join(b.rstrip("\n") for b in blocks)
        if "def solution" not in program:
            program = seeded_header + "\n" + program
    else:
        program = seeded_header + "\n" + response
    return program.rstrip("\n") + "\n\nprint(solution())\n"


def _sandbox_env(credential_env: str | None) -> dict[str, str]:
    """Environment for the sandboxed interpreter: the parent environment
    minus the configured credential variable and obvious secret-bearing
    names."""
    env = dict(os.environ)
    for name in list(env):
        upper = name.upper()
        if name == credential_env or any(
                tag in upper for tag in ("API_KEY", "TOKEN", "SECRET")):
            env.pop(name)
    return env


def execute_program(program: str, timeout_ms: int = DEFAULT_TIMEOUT_MS,
                    interpreter_command: list[str] | tuple[str, ...] | None
                    = DEFAULT_INTERPRETER,
                    credential_env: str | None = None) -> SandboxResult:
    """Run a generated program in a subprocess: empty temp working dir,
    scrubbed environment, hard kill at the timeout."""
    if not interpreter_command:
        raise InterpreterNotConfigured("no interpreter command configured")
    if timeout_ms <= 0:
        raise ValueError("timeout_ms must be positive")
    workdir = Path(tempfile.mkdtemp(prefix="pseudoexec-sandbox-"))
    try:
        script = workdir / "program.py"
        script.write_text(program, encoding="utf-8")
        argv = [*interpreter_command, str(script)]
        started = time.monotonic()
        try:
            proc = subprocess.run(
                argv, cwd=workdir, env=_sandbox_env(credential_env),
                capture_output=True, text=True,
                timeout=timeout_ms / 1000.0)
        except subprocess.TimeoutExpired as exc:
            wall_ms = int((time.monotonic() - started) * 1000)
            return SandboxResult(
                stdout=_as_text(exc.stdout), stderr=_as_text(exc.stderr),
                exit_status=-1, timed_out=True,
                wall_time_ms=max(wall_ms, timeout_ms))
        except OSError as exc:
            raise SpawnFailure(str(exc)) from exc
        wall_ms = int((time.monotonic() - started) * 1000)
        return SandboxResult(stdout=proc.stdout, stderr=proc.stderr,
                             exit_status=proc.returncode, timed_out=False,
                             wall_time_ms=wall_ms)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _as_text(data) -> str:
    if data is None:
        return ""
    return data.decode("utf-8", "replace") if isinstance(data, bytes) else data


def pot_answer(result: SandboxResult, instance: TaskInstance) -> Prediction:
    """Turn a sandbox run into a Prediction: the last non-empty stdout line
    is the answer; booleans become Yes/No only for the Yes/No tasks."""
    lines = [ln for ln in result.stdout.splitlines() if ln.strip()]
    if result.timed_out:
        failure = f"{FAIL_SANDBOX}: timed out after {result.wall_time_ms}ms"
    elif result.exit_status != 0:
        failure = (f"{FAIL_SANDBOX}: exit {result.exit_status}: "
                   f"{result.stderr.strip().splitlines()[-1] if result.stderr.strip() else 'no stderr'}")
    elif not lines:
        failure = f"{FAIL_SANDBOX}: empty stdout"
    else:
        answer = lines[-1].strip()
        if instance.task in YES_NO_TASKS:
            answer = {"True": "Yes", "False": "No"}.get(answer, answer)
        return Prediction(transcript=result.stdout, final_answer=answer)
    return Prediction(transcript=result.stdout, final_answer=None,
                      failure=failure)


def run_pot_instance(instance: TaskInstance, response: str,
                     interpreter_command: list[str] | tuple[str, ...]
                     = DEFAULT_INTERPRETER,
                     timeout_ms: int = DEFAULT_TIMEOUT_MS,
                     credential_env: str | None = None) -> Prediction:
    """Extract, run and read the program in a PoT ``response``."""
    program = extract_program(response, pot_seeded_header(instance))
    result = execute_program(program, timeout_ms=timeout_ms,
                             interpreter_command=interpreter_command,
                             credential_env=credential_env)
    return pot_answer(result, instance)
