"""The reasoner request of Think-and-Execute and of the baselines (Direct,
zero-shot CoT, Plan-and-Solve, NL planning, zero-shot PoT), the sandbox that
runs PoT programs, and the Prediction every method returns."""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import select
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import MissingAsset, SpawnFailure
from .prompts import (FENCE_RE, PromptAsset, escape_instance, load_asset_text,
                      load_taskinfo, render)
from .tasks import TASKS, TaskInstance


class MethodId(Enum):
    DIRECT = "direct"
    ZERO_SHOT_COT = "zero_shot_cot"
    PLAN_AND_SOLVE = "plan_and_solve"
    NL_PLANNING = "nl_planning"
    ZERO_SHOT_POT = "zero_shot_pot"
    THINK_AND_EXECUTE = "think_and_execute"
    ORACLE = "oracle"          # routes through the task solvers, no model

DEFAULT_TIMEOUT_MS = 10_000
# How long past the timeout the sandbox server gets to reply before it is
# killed and replaced.
_REAP_GRACE_S = 1.0
_SERVER_SCRIPT = Path(__file__).with_name("sandbox_server.py")
DEFAULT_INTERPRETER = ("python3",)

FAIL_NO_FINAL_ANSWER = "no_final_answer"
FAIL_GATEWAY = "gateway_error"
FAIL_SANDBOX = "sandbox_error"

# Each model-backed method's reasoner template, in the order the mock
# Reasoner tries them.  Its {prompt} slot takes the method's task-level
# asset, named here, or else the task description; pot.txt has no such slot.
TEMPLATE_BY_METHOD = {
    MethodId.THINK_AND_EXECUTE: "execute",
    MethodId.DIRECT: "direct",
    MethodId.ZERO_SHOT_COT: "cot",
    MethodId.PLAN_AND_SOLVE: "plan_and_solve",
    MethodId.NL_PLANNING: "direct",
    MethodId.ZERO_SHOT_POT: "pot",
}
_ASSET_BY_METHOD = {MethodId.NL_PLANNING: "nl_plan",
                    MethodId.THINK_AND_EXECUTE: "pseudocode"}


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
    """Returns (system, user) for ``method``'s reasoner request.  Only
    Think-and-Execute sends a system message; it embeds the instance as an
    escaped string literal and calls the pseudocode's main function."""
    template = TEMPLATE_BY_METHOD.get(method)
    if template is None:
        raise ValueError(f"no request template for {method}")
    system, mapping = None, {"input_text": instance.input_text}
    if method in _ASSET_BY_METHOD:
        if asset is None or (method is MethodId.THINK_AND_EXECUTE
                             and not asset.function_name):
            raise MissingAsset(_ASSET_BY_METHOD[method])
        mapping["prompt"] = asset.body
    elif method is not MethodId.ZERO_SHOT_POT:
        mapping["prompt"] = load_taskinfo(instance.task)["description"]
    if method is MethodId.THINK_AND_EXECUTE:
        system = load_asset_text("meta/execute_system.txt")
        mapping["input_text"] = escape_instance(instance.input_text)
        mapping["function_name"] = asset.function_name
    return system, render(load_asset_text(f"meta/{template}.txt"), mapping)


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


class _SandboxServer:
    """A running ``sandbox_server.py``, in a session of its own with the
    scrubbed environment.  It runs one program at a time, each in a child
    it forks."""

    def __init__(self, interpreter_command: list[str] | tuple[str, ...],
                 env: dict[str, str]) -> None:
        try:
            self.proc = subprocess.Popen(
                [*interpreter_command, str(_SERVER_SCRIPT)], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, bufsize=0, start_new_session=True)
        except OSError as exc:
            raise SpawnFailure(str(exc)) from exc

    def run(self, request: dict, wait_s: float) -> dict | None:
        """Send one request and read its reply; None if the server gave no
        reply within ``wait_s``, in which case the program's process group
        has been killed."""
        deadline = time.monotonic() + wait_s
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        except OSError:
            return None
        started = self._read_line(deadline)
        if started is None:
            return None
        try:
            pidfd = os.pidfd_open(started["pid"])
        except ProcessLookupError:          # already reaped: nothing to kill
            return self._read_line(deadline)
        try:
            reply = self._read_line(deadline)
            if reply is None:
                _kill_program_group(pidfd, started["pid"])
            return reply
        finally:
            os.close(pidfd)

    def _read_line(self, deadline: float) -> dict | None:
        wait_s = max(0.0, deadline - time.monotonic())
        if not select.select([self.proc.stdout], [], [], wait_s)[0]:
            return None
        # Each line comes in one write of under PIPE_BUF bytes, so once the
        # pipe is readable the whole line is there.
        try:
            return json.loads(self.proc.stdout.readline())
        except ValueError:                              # EOF: the server died
            return None

    def discard(self) -> None:
        # Not reaped until wait(), so the group id cannot be reused first.
        if self.proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _kill_program_group(pidfd: int, pid: int) -> None:
    """SIGKILL the process group a program leads (it called setsid, so the
    group id is its pid) after its server gave no reply.  The server reaps a
    program only just before it replies, so the pidfd, opened when the pid
    was reported, names the program; while it is live the pid, and so the
    group id, cannot have been reused."""
    try:
        signal.pidfd_send_signal(pidfd, 0)
    except ProcessLookupError:
        return
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


class _ServerPool:
    """Idle sandbox servers, at most one per concurrent caller.  A run uses
    one (interpreter_command, env) key; when the key changes, the idle
    servers of the old key are discarded rather than kept."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._key: tuple | None = None
        self._idle: list[_SandboxServer] = []

    def take(self, key: tuple,
             interpreter_command: list[str] | tuple[str, ...],
             env: dict[str, str]) -> _SandboxServer:
        stale: list[_SandboxServer] = []
        with self._lock:
            if key != self._key:
                stale, self._idle, self._key = self._idle, [], key
            server = self._idle.pop() if self._idle else None
        if server is not None and server.proc.poll() is not None:
            stale.append(server)                        # died while idle
            server = None
        for dead in stale:
            dead.discard()
        return server or _SandboxServer(interpreter_command, env)

    def give(self, key: tuple, server: _SandboxServer) -> None:
        with self._lock:
            if key == self._key:
                self._idle.append(server)
                return
        server.discard()

    def discard_idle(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for server in idle:
            server.discard()


_POOL = _ServerPool()
# Idle servers would otherwise outlive the harness, unwaited for.
atexit.register(_POOL.discard_idle)


def execute_program(program: str, timeout_ms: int = DEFAULT_TIMEOUT_MS,
                    interpreter_command: list[str] | tuple[str, ...] | None
                    = DEFAULT_INTERPRETER,
                    credential_env: str | None = None) -> SandboxResult:
    """Run a generated program in a child forked from a warm sandbox server:
    empty temp working dir, stdin from /dev/null, scrubbed environment,
    resource limits, and its process group killed at the timeout."""
    if not interpreter_command:
        raise ValueError("no interpreter command configured")
    if timeout_ms <= 0:
        raise ValueError("timeout_ms must be positive")
    env = _sandbox_env(credential_env)
    key = (tuple(interpreter_command), tuple(sorted(env.items())))
    tmp = Path(tempfile.mkdtemp(prefix="pseudoexec-sandbox-"))
    try:
        # Output goes outside the program's working directory.
        workdir = tmp / "work"
        workdir.mkdir()
        script = workdir / "program.py"
        script.write_text(program, encoding="utf-8")
        server = _POOL.take(key, interpreter_command, env)
        started = time.monotonic()
        reply = server.run({"script": str(script),
                            "stdout": str(tmp / "stdout"),
                            "stderr": str(tmp / "stderr"),
                            "timeout_s": timeout_ms / 1000.0},
                           timeout_ms / 1000.0 + _REAP_GRACE_S)
        wall_ms = int((time.monotonic() - started) * 1000)
        stdout, stderr = _read_output(tmp / "stdout"), _read_output(
            tmp / "stderr")
        if reply is None:
            server.discard()
            return SandboxResult(
                stdout=stdout, stderr=stderr + "\nsandbox server gave no reply",
                exit_status=-1, timed_out=False, wall_time_ms=wall_ms)
        _POOL.give(key, server)
        if reply["timed_out"]:
            return SandboxResult(
                stdout=stdout, stderr=stderr, exit_status=-1, timed_out=True,
                wall_time_ms=max(wall_ms, timeout_ms))
        return SandboxResult(stdout=stdout, stderr=stderr,
                             exit_status=reply["status"], timed_out=False,
                             wall_time_ms=wall_ms)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _read_output(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return ""


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
        if TASKS[instance.task].answers == "yes_no":
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
