"""Baseline prompt builders and the PoT sandbox."""

from __future__ import annotations

import ast
import contextlib
import gc
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from pseudoexec import baselines, sandbox_server
from pseudoexec.baselines import (MethodId, Sandbox, build_baseline_prompt,
                                  execute_program, extract_program,
                                  pot_answer, pot_seeded_header,
                                  run_pot_instance)
from pseudoexec.errors import ConfigError, MissingAsset, SpawnFailure
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


def test_think_and_execute_requires_pseudocode():
    with pytest.raises(MissingAsset):
        build_baseline_prompt(MethodId.THINK_AND_EXECUTE, _nav())
    with pytest.raises(MissingAsset):       # a plan is not pseudocode
        build_baseline_prompt(MethodId.THINK_AND_EXECUTE, _nav(),
                              load_nl_plan(TaskId.NAVIGATE))


def test_extract_program_fenced_block(sandbox):
    program = extract_program(
        "```python\ndef solution():\n    return 1\n```", "def solution():")
    assert program.endswith("print(solution())\n")
    result = execute_program(program, sandbox)
    assert result.stdout.strip() == "1"


@pytest.mark.parametrize("info", ["python", "py", "Python", "python3", ""])
def test_extract_program_takes_a_fence_with_any_one_word_info(info):
    response = (f"Here is the program.\n```{info}\ndef solution():\n"
                "    return 1\n```\nIt returns 1.")
    assert extract_program(response, "def solution():") == \
        "def solution():\n    return 1\n\nprint(solution())\n"


def test_extract_program_unfenced_continuation(sandbox):
    header = pot_seeded_header(_nav())
    program = extract_program("\n    return 2 + 2", header)
    assert program.startswith("def solution():")
    result = execute_program(program, sandbox)
    assert result.stdout.strip() == "4"


def test_extract_program_empty_response_yields_none_answer(sandbox):
    # the seeded header alone is a docstring-only function: it runs, returns
    # None, and the resulting answer can never score correct
    program = extract_program("", pot_seeded_header(_nav()))
    result = execute_program(program, sandbox)
    assert result.exit_status == 0
    assert pot_answer(result, _nav()).final_answer == "None"


def test_extract_program_last_definition_wins(sandbox):
    program = extract_program(
        "```python\ndef solution():\n    return 'first'\n\n"
        "def solution():\n    return 'second'\n```",
        "def solution():")
    result = execute_program(program, sandbox)
    assert result.stdout.strip() == "second"


def test_sandbox_echo(sandbox):
    result = execute_program("print('hi')", sandbox)
    assert result.stdout == "hi\n"
    assert result.exit_status == 0
    assert not result.timed_out


def test_sandbox_timeout():
    with Sandbox(timeout_ms=500) as short:
        result = execute_program("while True:\n    pass", short)
    assert result.timed_out
    assert result.wall_time_ms >= 500
    assert result.wall_time_ms <= 500 + 200     # grace bound


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie, whose reaping is its
    new parent's business."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_sandbox_timeout_kills_what_the_program_forked():
    with Sandbox(timeout_ms=800) as short:
        result = execute_program(
            "import os, time\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    time.sleep(30)\n"
            "    os._exit(0)\n"
            "print(pid, flush=True)\n"
            "time.sleep(30)\n", short)
    assert result.timed_out
    child = int(result.stdout.split()[-1])
    deadline = time.monotonic() + 5
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child), "the forked child outlived the timeout"


def test_sandbox_kills_a_program_that_killed_its_server():
    # The program outlives its server's timeout enforcement; the harness
    # must kill it when the server gives no reply.
    with Sandbox(timeout_ms=1000) as short:
        result = execute_program(
            "import os, signal, time\n"
            "print(os.getpid(), flush=True)\n"
            "os.kill(os.getppid(), signal.SIGKILL)\n"
            "time.sleep(30)\n", short)
    assert result.stderr.endswith("sandbox server gave no reply")
    program = int(result.stdout.split()[0])
    deadline = time.monotonic() + 2
    while _running(program) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(program), "the program outlived its server"


def test_sandbox_timeout_returns_when_a_child_left_the_group():
    # A child in a session of its own escapes the kill and keeps the
    # output pipes open; the sandbox must not wait for it.
    with Sandbox(timeout_ms=800) as short:
        started = time.monotonic()
        result = execute_program(
            "import os, time\n"
            "if os.fork() == 0:\n"
            "    os.setsid()\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(30)\n"
            "    os._exit(0)\n"
            "time.sleep(30)\n", short)
        elapsed = time.monotonic() - started
    with contextlib.suppress(ValueError, ProcessLookupError):
        os.kill(int(result.stdout.split()[-1]), signal.SIGKILL)
    assert result.timed_out
    assert elapsed < 0.8 + baselines._REAP_GRACE_S + 1.0


def test_sandbox_runs_in_empty_cwd(sandbox):
    result = execute_program(
        "import os\nprint(sorted(os.listdir('.')))", sandbox)
    assert result.stdout.strip() == "['program.py']"


def test_sandbox_scrubs_credentials(monkeypatch):
    monkeypatch.setenv("FAKE_CRED", "secret-value")
    monkeypatch.setenv("SOME_API_KEY", "another-secret")
    with Sandbox(credential_env="FAKE_CRED") as scrubbed:
        result = execute_program(
            "import os\n"
            "print('FAKE_CRED' in os.environ, 'SOME_API_KEY' in os.environ)",
            scrubbed)
    assert result.stdout.strip() == "False False"


def _server_pid(sandbox: Sandbox) -> int:
    return int(execute_program("import os\nprint(os.getppid())",
                               sandbox).stdout)


def test_sandbox_reuses_its_server(sandbox):
    assert _server_pid(sandbox) == _server_pid(sandbox) != os.getpid()


def test_sandbox_programs_do_not_share_state(sandbox):
    execute_program("import builtins\nbuiltins.LEAK = 1", sandbox)
    result = execute_program(
        "import builtins\nprint(hasattr(builtins, 'LEAK'))", sandbox)
    assert result.stdout == "False\n"


def test_sandbox_concurrent_programs_keep_their_own_stdout(sandbox):
    def run(tag: str) -> str:
        return execute_program(
            f"import time\nfor _ in range(5):\n"
            f"    print({tag!r}, flush=True)\n    time.sleep(0.05)\n",
            sandbox).stdout

    with ThreadPoolExecutor(2) as pool:
        outputs = list(pool.map(run, ["a", "b"]))
    assert outputs == ["a\n" * 5, "b\n" * 5]


def test_sandbox_stdin_is_empty():
    with Sandbox(timeout_ms=2000) as short:
        result = execute_program(
            "try:\n    input()\nexcept EOFError:\n    print('eof')", short)
    assert result.stdout == "eof\n" and not result.timed_out


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["default", "no_site"])
def test_sandbox_imports_nothing_before_the_program(flags):
    with Sandbox([sys.executable, *flags, "-X", "importtime"]) as timed:
        result = execute_program("print(1)", timed)
    assert (result.stdout, result.stderr) == ("1\n", "")


def _as_python_script(program: str, tmp_path: Path,
                      sandbox: Sandbox) -> tuple[str, str]:
    """stdout and stderr of ``python program.py``, as ``execute_program``
    runs it, with the script's path reduced to its name."""
    script = tmp_path / "program.py"
    script.write_text(program, encoding="utf-8")
    ran = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    sandboxed = execute_program(program, sandbox)
    normalised = [re.sub(r'File "[^"]*program\.py"', 'File "program.py"',
                         stderr) for stderr in (ran.stderr, sandboxed.stderr)]
    assert sandboxed.stdout == ran.stdout
    assert normalised[0] == normalised[1]
    assert sandboxed.exit_status == ran.returncode
    return sandboxed.stdout, normalised[1]


@pytest.mark.parametrize("program", [
    "def f(x):\n    return 1 / x\n\nprint('before')\nf(0)\n",
    "print('never'\n",
    "raise ValueError('bad')  # a comment\n",
    # ``python program.py`` dies of SIGINT (exit -2) after this one.
    "print('before')\nraise KeyboardInterrupt\n",
])
def test_sandbox_traceback_matches_python_script(program, tmp_path, sandbox):
    _, stderr = _as_python_script(program, tmp_path, sandbox)
    assert "sandbox_server" not in stderr and "runpy" not in stderr


def test_sandbox_program_runs_as_main(tmp_path, sandbox):
    stdout, _ = _as_python_script(
        "import os, pickle, sys\n"
        "class Point:\n    pass\n"
        "copy = pickle.loads(pickle.dumps(Point()))\n"
        "print(__name__, __file__ == sys.argv[0],\n"
        "      os.path.basename(__file__), type(copy) is Point)\n",
        tmp_path, sandbox)
    assert stdout == "__main__ True program.py True\n"


def test_sandbox_replaces_a_killed_server(sandbox):
    first = _server_pid(sandbox)
    os.kill(first, signal.SIGKILL)
    deadline = time.monotonic() + 5
    while _running(first) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _server_pid(sandbox) != first


def _parent_of(pid: int) -> int:
    return int(Path(f"/proc/{pid}/stat").read_text()
               .rsplit(")", 1)[1].split()[1])


def _zygote_pid(sandbox: Sandbox) -> int:
    return _parent_of(_server_pid(sandbox))


def _wait_gone(pid: int) -> None:
    deadline = time.monotonic() + 5
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)


def test_sandbox_forks_a_new_server_from_the_same_zygote(sandbox):
    zygote, server = _zygote_pid(sandbox), _server_pid(sandbox)
    result = execute_program(
        "import os, signal\nos.kill(os.getppid(), signal.SIGKILL)", sandbox)
    assert result.stderr.endswith("sandbox server gave no reply")
    assert _zygote_pid(sandbox) == zygote != os.getpid()
    assert _server_pid(sandbox) != server


def test_sandbox_replaces_a_killed_zygote(sandbox):
    zygote = _zygote_pid(sandbox)
    assert zygote != os.getpid()
    os.kill(zygote, signal.SIGKILL)
    _wait_gone(zygote)
    # The idle server still runs the next program ...
    assert execute_program("print('alive')", sandbox).stdout == "alive\n"
    # ... and once it is gone, a new zygote forks the next one.
    execute_program("import os, signal\nos.kill(os.getppid(), signal.SIGKILL)",
                    sandbox)
    assert execute_program("print('alive')", sandbox).stdout == "alive\n"
    assert _zygote_pid(sandbox) not in (zygote, os.getpid(), 1)


def test_sandbox_concurrent_servers_share_one_zygote(sandbox):
    def server(_) -> int:
        return int(execute_program(
            "import os, time\nprint(os.getppid())\ntime.sleep(0.3)",
            sandbox).stdout)

    with ThreadPoolExecutor(2) as pool:
        servers = set(pool.map(server, range(2)))
    assert len(servers) == 2
    (zygote,) = {_parent_of(pid) for pid in servers}
    assert zygote != os.getpid()


def _run_script(script: str, *flags: str) -> str:
    """stdout of ``script`` run by a fresh interpreter that imports this
    package, which must exit 0."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(baselines.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c",
                           textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr
    return proc.stdout


def test_sandbox_string_hash_seed_is_the_same_on_every_run(monkeypatch):
    # Each harness run prints the server pid and the set order seen by two
    # programs on each of two concurrent workers.
    monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    script = """
        from concurrent.futures import ThreadPoolExecutor
        from pseudoexec.baselines import Sandbox, execute_program
        program = ("import os, time\\n"
                   "print(os.getppid())\\n"
                   "print(set('item%d' % i for i in range(20)))\\n"
                   "time.sleep(0.2)\\n")
        with Sandbox() as sandbox, ThreadPoolExecutor(2) as pool:
            for result in pool.map(lambda p: execute_program(p, sandbox),
                                   [program] * 4):
                print(result.stdout, end="")
    """
    orders = set()
    for _ in range(2):
        lines = _run_script(script).splitlines()
        assert len(set(lines[0::2])) == 2      # two servers
        orders.update(lines[1::2])
    assert len(orders) == 1, orders


def test_sandbox_keeps_the_harness_python_variables_from_programs(
        monkeypatch, tmp_path):
    entries = [str(tmp_path / "a"), str(tmp_path / "b")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(entries))
    monkeypatch.setenv("PYTHONHASHSEED", "5")
    with Sandbox() as sandbox:
        result = execute_program(
            "import os, sys\n"
            f"print(sorted(name for name in os.environ "
            f"if name.startswith('PYTHON')))\n"
            f"print([p for p in sys.path if p in {entries!r}])\n", sandbox)
    assert result.stdout == "['PYTHONHASHSEED']\n[]\n", result.stderr


def test_sandbox_program_that_kills_its_parent_spares_the_harness():
    # Run in a subprocess of its own, so a regression kills that, not pytest.
    stdout = _run_script("""
        from pseudoexec.baselines import Sandbox, execute_program
        with Sandbox() as sandbox:
            first = execute_program(
                "import os, signal\\nos.kill(os.getppid(), signal.SIGKILL)",
                sandbox)
            print(first.exit_status, first.stderr.strip().splitlines()[-1])
            print(execute_program("print('alive')", sandbox).stdout.strip())
    """)
    assert stdout.splitlines() == ["-1 sandbox server gave no reply", "alive"]


def test_a_closed_sandbox_leaves_no_process():
    # Under -X dev, where an unwaited process or an unclosed socket warns.
    # One sandbox is closed with two idle servers, one before its zygote
    # has forked any.
    stdout = _run_script("""
        import os
        from concurrent.futures import ThreadPoolExecutor
        from pseudoexec.baselines import Sandbox, execute_program
        from pseudoexec.errors import SpawnFailure
        program = "import os, time\\nprint(os.getppid())\\ntime.sleep(0.2)"
        with Sandbox() as sandbox, ThreadPoolExecutor(2) as pool:
            servers = [int(r.stdout) for r in pool.map(
                lambda p: execute_program(p, sandbox), [program] * 2)]
            zygote = sandbox._proc.pid
        unforked = Sandbox()
        pids = [*servers, zygote, unforked._proc.pid]
        unforked.close()
        print(len(set(pids)),
              [os.path.exists(f"/proc/{pid}") for pid in pids])
        try:
            execute_program("print(1)", sandbox)
        except SpawnFailure as exc:
            print(exc)
    """, "-X", "dev")
    assert stdout.splitlines() == ["4 [False, False, False, False]",
                                   "the sandbox is closed"]


def test_sandbox_sets_resource_limits():
    with Sandbox(timeout_ms=2500) as sandbox:
        result = execute_program(
            "import resource\n"
            "for name in ('CPU', 'AS', 'FSIZE', 'NOFILE'):\n"
            "    print(resource.getrlimit(\n"
            "        getattr(resource, 'RLIMIT_' + name)))", sandbox)
    assert result.stdout.splitlines() == [
        str((n, n)) for n in (sandbox_server.cpu_limit_s(2.5),
                              sandbox_server.ADDRESS_SPACE_LIMIT,
                              sandbox_server.FILE_SIZE_LIMIT,
                              sandbox_server.OPEN_FILES_LIMIT)]


def test_sandbox_memory_limit_stops_a_large_allocation(sandbox):
    result = execute_program(
        f"x = bytearray({2 * sandbox_server.ADDRESS_SPACE_LIMIT})", sandbox)
    failure = pot_answer(result, _nav()).failure
    assert failure.startswith("sandbox_error") and "MemoryError" in failure


def test_sandbox_file_size_limit_stops_a_large_write(sandbox):
    result = execute_program(
        "with open('big', 'wb') as f:\n"
        f"    f.write(bytes({sandbox_server.FILE_SIZE_LIMIT}))\n"
        "    f.write(b'x')\n", sandbox)
    assert result.exit_status == 1
    assert "File too large" in result.stderr


def test_sandbox_requires_interpreter():
    with pytest.raises(ValueError, match="no interpreter command configured"):
        Sandbox([])
    with pytest.raises(ValueError, match="timeout_ms must be positive"):
        Sandbox(timeout_ms=0)


def test_sandbox_interpreter_that_runs_no_zygote_is_a_spawn_failure():
    # ``true`` starts and exits: no zygote, so no program can run.
    with Sandbox(["true"]) as sandbox:
        with pytest.raises(SpawnFailure, match="forked no server"):
            execute_program("print(1)", sandbox)


def test_sandbox_environment_is_scrubbed_once_per_zygote(monkeypatch):
    calls = []
    scrub = baselines._sandbox_env

    def counted(credential_env):
        calls.append(credential_env)
        return scrub(credential_env)

    monkeypatch.setattr(baselines, "_sandbox_env", counted)
    # More workers than cores and frequent thread switches: each server
    # runs one program at a time, and at most one server per worker.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Sandbox(credential_env="PSEUDOEXEC_ONCE") as sandbox, \
                ThreadPoolExecutor(4) as pool:
            results = list(pool.map(lambda i: execute_program(
                f"import os\nprint({i}, os.getppid())", sandbox), range(40)))
    finally:
        sys.setswitchinterval(interval)
    outputs = [r.stdout.split() for r in results]
    assert [int(i) for i, _ in outputs] == list(range(40))
    assert len({server for _, server in outputs}) <= 4
    assert calls == ["PSEUDOEXEC_ONCE"]


def test_sandbox_environment_is_the_one_its_zygote_started_with(monkeypatch):
    program = ("import os\n"
               "print(*(name in os.environ for name in "
               "('PSEUDOEXEC_EARLY', 'PSEUDOEXEC_LATE')))")
    monkeypatch.setenv("PSEUDOEXEC_EARLY", "1")
    with Sandbox(credential_env="PSEUDOEXEC_FIRST") as first:
        assert execute_program(program, first).stdout == "True False\n"
        monkeypatch.setenv("PSEUDOEXEC_LATE", "1")
        assert execute_program(program, first).stdout == "True False\n"
    # A new sandbox is scrubbed from the environment of now.
    with Sandbox(credential_env="PSEUDOEXEC_EARLY") as second:
        assert execute_program(program, second).stdout == "False True\n"


def _children() -> set[int]:
    task = Path(f"/proc/{os.getpid()}/task")
    return {int(pid) for thread in task.iterdir()
            for pid in (thread / "children").read_text().split()}


def test_a_missing_interpreter_leaves_no_socket_or_process():
    children, fds = _children(), len(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError,
                           match="interpreter 'no-such-python-xyz' not found"):
            Sandbox(["no-such-python-xyz"])
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []
    assert _children() == children
    assert len(os.listdir("/proc/self/fd")) == fds


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


def test_run_pot_instance_end_to_end(sandbox):
    pred = run_pot_instance(
        _nav(), "```python\ndef solution():\n    return True\n```", sandbox)
    assert pred.final_answer == "Yes"


def _imported_names(path: Path) -> set[str]:
    """Every module, and every ``module.name``, that ``path`` imports, with
    relative imports spelled from ``pseudoexec``."""
    imported = set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "pseudoexec" + (f".{base}" if base else "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    return imported


def test_baselines_does_not_import_gateway():
    """Every reasoner call is made in ``engine.run_instance``; the baselines
    only build prompts and read responses."""
    imported = _imported_names(Path(baselines.__file__))
    assert not {name for name in imported
                if name.startswith("pseudoexec.gateway")}


def test_package_uses_only_the_standard_library():
    """``src/`` imports nothing but itself and the standard library, and the
    package declares no runtime dependency."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(baselines.__file__).parent
    foreign = {(path.name, name) for path in package.rglob("*.py")
               for name in _imported_names(path)
               if name.split(".")[0] not in {"pseudoexec",
                                             *sys.stdlib_module_names}}
    assert not foreign
    pyproject = package.parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
