"""The reasoner request of Think-and-Execute and of the baselines (Direct,
zero-shot CoT, Plan-and-Solve, NL planning, zero-shot PoT) and the bundled
files it is rendered from, the Sandbox a PoT run opens once for all its
programs, and the Prediction every method returns."""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigError, MissingAsset, SpawnFailure
from .prompts import (FENCE_RE, PromptAsset, escape_instance, load_asset_text,
                      load_nl_plan, load_pseudocode, load_taskinfo, render,
                      task_file)
from .tasks import TASKS, TaskId, TaskInstance

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
# How long past the timeout the zygote gets to reply before the harness
# kills the program's process group itself.
_REAP_GRACE_S = 1.0
_SERVER_SCRIPT = Path(__file__).with_name("sandbox_server.py")
# How much of an exited zygote's stderr its ConfigError quotes, in bytes.
_STDERR_TAIL = 1000
DEFAULT_INTERPRETER = ("python3",)

# Each model-backed method's reasoner template, meta/<template>.txt, and the
# kind of task-level prompt (a ``prompts.task_file`` kind) its {prompt} slot
# takes: the task's pseudocode or NL plan, which the run loads once as a
# PromptAsset, or its taskinfo's description.  pot.txt has no such slot.
REQUEST_BY_METHOD = {
    MethodId.THINK_AND_EXECUTE: ("execute", "pseudocode"),
    MethodId.DIRECT: ("direct", "taskinfo"),
    MethodId.ZERO_SHOT_COT: ("cot", "taskinfo"),
    MethodId.PLAN_AND_SOLVE: ("plan_and_solve", "taskinfo"),
    MethodId.NL_PLANNING: ("direct", "nl_plan"),
    MethodId.ZERO_SHOT_POT: ("pot", None),
}
_EXECUTE_SYSTEM = "meta/execute_system.txt"


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
    # The sandbox's timeout, if it stopped the program.
    timed_out_after_ms: int | None = None


def build_baseline_prompt(method: MethodId, instance: TaskInstance,
                          asset: PromptAsset | None = None
                          ) -> tuple[str | None, str]:
    """Returns (system, user) for ``method``'s reasoner request; ``asset``
    is the task's prompt from ``task_assets``.  Only Think-and-Execute sends
    a system message; it embeds the instance as an escaped string literal
    and calls the pseudocode's main function."""
    if method not in REQUEST_BY_METHOD:
        raise ValueError(f"no request template for {method}")
    template, kind = REQUEST_BY_METHOD[method]
    system, mapping = None, {"input_text": instance.input_text}
    if kind == "taskinfo":
        mapping["prompt"] = load_taskinfo(instance.task)["description"]
    elif kind is not None:
        if asset is None or (kind == "pseudocode"
                             and not asset.function_name):
            raise MissingAsset(kind)
        mapping["prompt"] = asset.body
    if method is MethodId.THINK_AND_EXECUTE:
        system = load_asset_text(_EXECUTE_SYSTEM)
        mapping["input_text"] = escape_instance(instance.input_text)
        mapping["function_name"] = asset.function_name
    return system, render(load_asset_text(f"meta/{template}.txt"), mapping)


def task_assets(method: MethodId, tasks: Iterable[TaskId],
                source: str = "human") -> dict[TaskId, PromptAsset]:
    """The task-level prompt ``method`` sends for each of ``tasks``: the
    ``source`` pseudocode, the bundled analysis (NL planning), or none."""
    kind = REQUEST_BY_METHOD.get(method, (None, None))[1]
    if kind == "pseudocode":
        return {task: load_pseudocode(task, source) for task in tasks}
    if kind == "nl_plan":
        return {task: load_nl_plan(task) for task in tasks}
    return {}


def asset_digests(method: MethodId, tasks: Iterable[TaskId],
                  source: str = "human") -> dict[str, str]:
    """The SHA-256 of each bundled file, as loaded, that ``method``'s
    requests for ``tasks`` are rendered from."""
    template, kind = REQUEST_BY_METHOD[method]
    paths = [f"meta/{template}.txt"]
    if method is MethodId.THINK_AND_EXECUTE:
        paths.append(_EXECUTE_SYSTEM)
    if kind is not None:
        paths += [task_file(kind, task, source) for task in tasks]
    return {path: hashlib.sha256(load_asset_text(path).encode()).hexdigest()
            for path in paths}


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
    minus the configured credential variable, obvious secret-bearing names
    and every ``PYTHON*`` variable but the string-hash seed, which is 0
    unless the parent sets one."""
    env = dict(os.environ)
    for name in list(env):
        upper = name.upper()
        python = name.startswith("PYTHON") and name != "PYTHONHASHSEED"
        if python or name == credential_env or any(
                tag in upper for tag in ("API_KEY", "TOKEN", "SECRET")):
            env.pop(name)
    env.setdefault("PYTHONHASHSEED", "0")
    return env


class Sandbox:
    """The PoT sandbox of one run: the zygote, a ``sandbox_server.py``
    started when the Sandbox is built, in a session of its own and with the
    environment scrubbed then.  It forks one child per program, for every
    worker that shares the Sandbox.  ``close``, or the end of a ``with``
    block, stops it."""

    def __init__(self, interpreter_command: Sequence[str]
                 = DEFAULT_INTERPRETER, credential_env: str | None = None,
                 timeout_ms: int = DEFAULT_TIMEOUT_MS) -> None:
        if not interpreter_command:
            raise ValueError("no interpreter command configured")
        if timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        for module, name in ((os, "pidfd_open"),
                             (signal, "pidfd_send_signal")):
            if not hasattr(module, name):
                raise ConfigError(
                    f"{sys.executable!r} cannot run the PoT sandbox: it "
                    f"lacks {module.__name__}.{name}")
        self.timeout_ms = timeout_ms
        self._interpreter = " ".join(interpreter_command)
        self._command = [*interpreter_command, str(_SERVER_SCRIPT),
                         str(timeout_ms / 1000)]
        self._env = _sandbox_env(credential_env)
        self._lock = threading.Lock()
        # Whether a zygote has started a program: the interpreter can run
        # the sandbox.
        self._served = False
        # The ConfigError of every later program, once a zygote started no
        # program in time while none had.
        self._unusable: str | None = None
        self._start()

    def __enter__(self) -> Sandbox:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _start(self) -> None:
        # Imported here: it costs every command about 4 ms, and only a run
        # that runs programs needs it.
        import socket
        self._control, theirs = socket.socketpair(socket.AF_UNIX,
                                                  socket.SOCK_SEQPACKET)
        # Read only when the zygote has exited: its stderr says why.
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                self._command, env=self._env, stdin=theirs,
                stdout=subprocess.DEVNULL, stderr=self._stderr,
                start_new_session=True)
        except OSError as exc:
            self._control.close()
            self._stderr.close()
            if isinstance(exc, FileNotFoundError):
                raise ConfigError(
                    f"interpreter {self._command[0]!r} not found") from None
            raise SpawnFailure(str(exc)) from exc
        finally:
            theirs.close()

    def _stop(self) -> None:
        """Stop the zygote.  At EOF it kills and reaps whatever programs it
        still runs, once continued: a program may have stopped it.  While no
        zygote has started a program, it is killed instead, as one that may
        never read its control socket."""
        self._control.close()
        if self._served:
            self._proc.send_signal(signal.SIGCONT)
        else:
            self._proc.kill()
        self._proc.wait()
        self._stderr.close()

    def _run(self, script: Path, stdout, stderr) -> bytes | None:
        """Have the zygote run ``script`` with its output in the open files
        ``stdout`` and ``stderr``, and return its reply; None if it gave
        none by the timeout and ``_REAP_GRACE_S``, in which case the
        program's process group has been killed.  A zygote that closes the
        reply socket before the program reports its pid has ended.  One that
        exited, or started no program by then, while no zygote of this
        Sandbox had started one cannot run programs: that is a ConfigError.
        Any other, killed by a signal (a program may kill its parent) or
        exited once programs have run (a fork may fail), is started again
        and sent the request again, once."""
        import socket
        wait_s = self.timeout_ms / 1000 + _REAP_GRACE_S
        deadline = time.monotonic() + wait_s
        payload = os.fsencode(script)
        sent_to = None
        for _ in range(2):
            ours, theirs = socket.socketpair(socket.AF_UNIX,
                                             socket.SOCK_SEQPACKET)
            with ours:
                with theirs, self._lock:
                    if self._proc is None:
                        raise SpawnFailure("the sandbox is closed")
                    if self._unusable:
                        raise ConfigError(self._unusable)
                    if self._proc is sent_to:
                        self._stop()
                        self._start()
                    sent_to = self._proc
                    # Nothing else continues a zygote that a program stopped.
                    sent_to.send_signal(signal.SIGCONT)
                    # A failed send shows as EOF below.  So does a send the
                    # kernel accepted for a zygote that was killed but had
                    # not yet exited.
                    with contextlib.suppress(OSError):
                        socket.send_fds(self._control, [payload], [
                            theirs.fileno(), stdout.fileno(),
                            stderr.fileno()])
                started = _receive(ours, deadline)
                if started == b"":
                    status = sent_to.wait()
                    if status >= 0 and not self._served:
                        self._raise_exited(status)
                    continue
                if started is None:
                    if not self._served:
                        self._unusable = (
                            f"interpreter {self._interpreter!r} cannot run "
                            f"the PoT sandbox: it started no program within "
                            f"{round(wait_s * 1000)} ms")
                        raise ConfigError(self._unusable)
                    return None
                pid = int(started)
                self._served = True
                try:
                    pidfd = os.pidfd_open(pid)
                except ProcessLookupError:      # reaped: nothing to kill
                    return _receive(ours, deadline) or None
                try:
                    reply = _receive(ours, deadline)
                    if not reply:
                        _kill_program_group(pidfd, pid)
                    return reply or None
                finally:
                    os.close(pidfd)
        raise SpawnFailure("a new sandbox zygote started no program")

    def _raise_exited(self, status: int) -> None:
        """The ConfigError of a zygote that exited ``status``, with the end
        of what it wrote to stderr."""
        fd = self._stderr.fileno()
        tail = os.pread(fd, _STDERR_TAIL,
                        max(0, os.fstat(fd).st_size - _STDERR_TAIL))
        cause = tail.decode("utf-8", "replace").strip() or "no stderr"
        raise ConfigError(f"interpreter {self._interpreter!r} cannot run "
                          f"the PoT sandbox: it exited {status}: {cause}")

    def close(self) -> None:
        """Stop the zygote."""
        with self._lock:
            if self._proc is None:
                return
            self._stop()
            self._proc = None


def _receive(sock: socket.socket, deadline: float) -> bytes | None:
    """The next record on ``sock``: b"" at EOF, None if none came by
    ``deadline``."""
    sock.settimeout(max(0.0, deadline - time.monotonic()))
    try:
        return sock.recv(4096)
    except OSError:
        return None


def _kill_program_group(pidfd: int, pid: int) -> None:
    """SIGKILL the process group a program leads (it called setsid, so the
    group id is its pid) after the zygote gave no reply.  The zygote reaps a
    program only just before it replies, so the pidfd, opened when the pid
    was reported, names the program; while it is live the pid, and so the
    group id, cannot have been reused."""
    try:
        signal.pidfd_send_signal(pidfd, 0)
    except ProcessLookupError:
        return
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def execute_program(program: str, sandbox: Sandbox) -> SandboxResult:
    """Run a generated program in a child forked from the zygote of
    ``sandbox``: empty temp working dir, stdin from /dev/null, scrubbed
    environment, resource limits, and its process group killed at the
    sandbox's timeout."""
    workdir = Path(tempfile.mkdtemp(prefix="pseudoexec-sandbox-"))
    try:
        script = workdir / "program.py"
        script.write_text(program, encoding="utf-8")
        # Unnamed files, passed as descriptors: the program holds no path
        # to its own output.  Text mode reads them with universal newlines.
        with _output_file() as stdout, _output_file() as stderr:
            reply = sandbox._run(script, stdout, stderr)
            stdout.seek(0)
            stderr.seek(0)
            out, err = stdout.read(), stderr.read()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    status, timed_out = map(int, (reply or b"-1 0").split())
    if reply is None:
        err += "\nsandbox server gave no reply"
    return SandboxResult(
        stdout=out, stderr=err, exit_status=status,
        timed_out_after_ms=sandbox.timeout_ms if timed_out else None)


def _output_file():
    return tempfile.TemporaryFile("w+", encoding="utf-8", errors="replace")


def pot_answer(result: SandboxResult, instance: TaskInstance) -> Prediction:
    """Turn a sandbox run into a Prediction: the last non-empty stdout line
    is the answer; booleans become Yes/No only for the Yes/No tasks."""
    lines = [ln for ln in result.stdout.splitlines() if ln.strip()]
    if result.timed_out_after_ms is not None:
        detail = f"timed out after {result.timed_out_after_ms}ms"
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
                     sandbox: Sandbox) -> Prediction:
    """Extract, run and read the program in a PoT ``response``."""
    program = extract_program(response, pot_seeded_header(instance))
    return pot_answer(execute_program(program, sandbox), instance)
