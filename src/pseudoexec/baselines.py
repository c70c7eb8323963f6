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
from typing import TYPE_CHECKING

from .errors import ConfigError, MissingAsset, SpawnFailure
from .prompts import (FENCE_RE, PromptAsset, escape_instance, load_asset_text,
                      load_taskinfo, render)
from .tasks import TASKS, TaskInstance

if TYPE_CHECKING:
    import socket


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


class FailureKind(Enum):
    """Why an instance has no final answer."""
    NO_FINAL_ANSWER = "no_final_answer"      # the response has no marker
    GATEWAY_ERROR = "gateway_error"          # the model call failed
    SANDBOX_ERROR = "sandbox_error"          # the PoT program gave no answer
    PARSE_UNSUPPORTED = "parse_unsupported"  # the oracle cannot parse it
    SOLVER_ERROR = "solver_error"            # the oracle failed otherwise


@dataclass(frozen=True)
class Prediction:
    transcript: str
    final_answer: str | None
    kind: FailureKind | None = None
    detail: str | None = None

    def __post_init__(self) -> None:
        if (self.final_answer is None) == (self.kind is None):
            raise ValueError(
                "exactly one of final_answer and kind must be set")

    @property
    def failure(self) -> str | None:
        """The failure as the transcript header prints it: the kind, then
        ": " and the detail if there is one."""
        if self.kind is None:
            return None
        if self.detail is None:
            return self.kind.value
        return f"{self.kind.value}: {self.detail}"


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
    names, with string-hash seed 0 unless the parent sets one."""
    env = dict(os.environ)
    for name in list(env):
        upper = name.upper()
        if name == credential_env or any(
                tag in upper for tag in ("API_KEY", "TOKEN", "SECRET")):
            env.pop(name)
    env.setdefault("PYTHONHASHSEED", "0")
    return env


class _SandboxServer:
    """A sandbox server forked from a zygote: our end of its socket pair
    and a pidfd of the server.  It runs one program at a time, each in a
    child it forks."""

    def __init__(self, sock: socket.socket, pidfd: int) -> None:
        self.sock, self.pidfd = sock, pidfd
        self._received = b""

    def alive(self) -> bool:
        return not select.select([self.pidfd], [], [], 0)[0]

    def run(self, request: dict, wait_s: float) -> dict | None:
        """Send one request and read its reply; None if the server gave no
        reply within ``wait_s``, in which case the program's process group
        has been killed."""
        deadline = time.monotonic() + wait_s
        try:
            self.sock.sendall(json.dumps(request).encode() + b"\n")
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
        while b"\n" not in self._received:
            wait_s = max(0.0, deadline - time.monotonic())
            if not select.select([self.sock], [], [], wait_s)[0]:
                return None
            try:
                chunk = self.sock.recv(4096)
            except OSError:
                return None
            if not chunk:                               # EOF: the server died
                return None
            self._received += chunk
        line, self._received = self._received.split(b"\n", 1)
        return json.loads(line)

    def discard(self) -> None:
        # Its zygote reaps it.
        with contextlib.suppress(ProcessLookupError):
            signal.pidfd_send_signal(self.pidfd, signal.SIGKILL)
        os.close(self.pidfd)
        self.sock.close()


class _Zygote:
    """A running ``sandbox_server.py``, in a session of its own with the
    environment scrubbed when it started, that forks a sandbox server on
    request."""

    def __init__(self, interpreter_command: tuple[str, ...],
                 credential_env: str | None) -> None:
        self._command = [*interpreter_command, str(_SERVER_SCRIPT)]
        self._credential_env = credential_env
        self._lock = threading.Lock()
        self._start()

    def _start(self) -> None:
        # Imported here: it costs every command about 4 ms, and only a run
        # that runs programs needs it.
        import socket
        self.control, theirs = socket.socketpair()
        try:
            self.proc = subprocess.Popen(
                self._command, env=_sandbox_env(self._credential_env),
                stdin=theirs, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, start_new_session=True)
        except OSError as exc:
            self.control.close()
            if isinstance(exc, FileNotFoundError):
                raise ConfigError(
                    f"interpreter {self._command[0]!r} not found") from None
            raise SpawnFailure(str(exc)) from exc
        finally:
            theirs.close()

    def clone(self) -> _SandboxServer:
        """A newly forked server.  A zygote found dead is started again,
        once."""
        with self._lock:
            server = self._fork()
            if server is None:
                self.discard()
                self._start()
                server = self._fork()
        if server is None:
            raise SpawnFailure("a new sandbox zygote forked no server")
        return server

    def _fork(self) -> _SandboxServer | None:
        import socket
        try:
            self.control.sendall(b"\n")
            _, fds, _, _ = socket.recv_fds(self.control, 1, 2,
                                           socket.MSG_CMSG_CLOEXEC)
        except OSError:
            return None
        if not fds:                                     # EOF: it died
            return None
        return _SandboxServer(socket.socket(fileno=fds[0]), fds[1])

    def discard(self) -> None:
        # At EOF it kills and reaps whatever servers it has left.
        self.control.close()
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
    """The zygote of one (interpreter_command, credential_env) key and the
    idle servers forked from it, at most one per concurrent caller.  When
    the key changes, the old key's zygote and idle servers are discarded
    before the new key's zygote starts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._key: tuple | None = None
        self._zygote: _Zygote | None = None
        self._idle: list[_SandboxServer] = []

    def _switch(self, key: tuple | None) -> _Zygote | None:
        """Under the lock: the zygote of ``key``, started now if the key
        has changed."""
        if key != self._key:
            stale = [*self._idle, *filter(None, [self._zygote])]
            self._key, self._zygote, self._idle = None, None, []
            for old in stale:
                old.discard()
            if key is not None:
                self._zygote, self._key = _Zygote(*key), key
        return self._zygote

    def start(self, key: tuple) -> None:
        with self._lock:
            self._switch(key)

    def take(self, key: tuple) -> _SandboxServer:
        """An idle server of ``key``, or one forked now."""
        with self._lock:
            zygote = self._switch(key)
            server = self._idle.pop() if self._idle else None
        if server is not None:
            if server.alive():
                return server
            server.discard()                            # died while idle
        return zygote.clone()

    def give(self, key: tuple, server: _SandboxServer) -> None:
        with self._lock:
            if key == self._key:
                self._idle.append(server)
                return
        server.discard()

    def discard(self) -> None:
        """Discard the idle servers and the zygote."""
        with self._lock:
            self._switch(None)


_POOL = _ServerPool()
# The zygote and idle servers would otherwise outlive the harness.
atexit.register(_POOL.discard)


def start_sandbox(interpreter_command: list[str] | tuple[str, ...],
                  credential_env: str | None = None) -> None:
    """Start the zygote that ``execute_program`` forks servers from for
    these settings, so its start-up overlaps the caller's own.  A missing
    interpreter is a ConfigError."""
    _POOL.start((tuple(interpreter_command), credential_env))


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
    key = (tuple(interpreter_command), credential_env)
    tmp = Path(tempfile.mkdtemp(prefix="pseudoexec-sandbox-"))
    try:
        # Output goes outside the program's working directory.
        workdir = tmp / "work"
        workdir.mkdir()
        script = workdir / "program.py"
        script.write_text(program, encoding="utf-8")
        server = _POOL.take(key)
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
        detail = f"timed out after {result.wall_time_ms}ms"
    elif result.exit_status != 0:
        detail = (f"exit {result.exit_status}: "
                  f"{result.stderr.strip().splitlines()[-1] if result.stderr.strip() else 'no stderr'}")
    elif not lines:
        detail = "empty stdout"
    else:
        answer = lines[-1].strip()
        if TASKS[instance.task].answers == "yes_no":
            answer = {"True": "Yes", "False": "No"}.get(answer, answer)
        return Prediction(transcript=result.stdout, final_answer=answer)
    return Prediction(transcript=result.stdout, final_answer=None,
                      kind=FailureKind.SANDBOX_ERROR, detail=detail)


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
