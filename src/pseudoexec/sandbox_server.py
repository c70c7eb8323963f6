"""Sandbox zygote for PoT programs: one warm interpreter per run, started
when the run opens its ``baselines.Sandbox`` and stopped when it closes it,
forks one child per program, so no program pays for interpreter start-up.

Run as ``<interpreter> sandbox_server.py`` with stdin a Unix
``SOCK_SEQPACKET`` socket, the control socket.  The zygote never runs a
program itself.  Each record it reads there is one request, the JSON
``{"script", "stdout", "stderr", "timeout_s"}``, sent with the caller's end
of a fresh socket pair, the reply socket (``socket.send_fds``).  For each
request it forks a child that runs ``script`` as ``python script`` would,
in a session of its own and the script's directory, with stdin from
/dev/null, stdout and stderr written to the named files, resource limits
set and ``sys.modules`` as a script starts with it.  The child first writes
``{"pid"}`` on the reply socket, then closes every descriptor it inherited
beyond 0-2, so no program holds the control socket or another program's
reply socket.

The zygote supervises every running program in one ``select`` loop over
the control socket and the programs' pidfds, whose timeout is the nearest
deadline.  When a program ends, or at its ``timeout_s``, the zygote kills
the program's process group (a program that ended may have left processes
in it), reaps the program, replies ``{"status", "timed_out"}`` on its reply
socket and closes that socket.  At EOF on the control socket it kills and
reaps every program still running and exits at once, with no interpreter
teardown.  The harness continues it first, as a program may have stopped
it, or kills it if no zygote of its sandbox has started a program.

Standard library only: the zygote imports nothing from pseudoexec.
"""

# What ``python script`` has loaded when the script starts.
_STARTUP_MODULES = frozenset(__import__("sys").modules)

import atexit
import builtins
import contextlib
import json
import math
import os
import resource
import select
import signal
import socket
import sys
import time
import types
# Each came in 3.9, and pidfd_open only where the build has it: a zygote
# whose interpreter lacks one exits with an ImportError before it reads
# any request.
from os import pidfd_open, waitstatus_to_exitcode
from socket import recv_fds

# The modules the zygote imported for itself, which a child drops.  Listed
# once here: a child that computed it would touch every key of sys.modules,
# and so copy the pages they sit on.
_ZYGOTE_MODULES = tuple(sys.modules.keys() - _STARTUP_MODULES)

# The zygote's own VmSize is about 17 MB (Python 3.11); 1 GiB leaves a
# program ample room while one runaway allocation fails with MemoryError.
ADDRESS_SPACE_LIMIT = 1 << 30
FILE_SIZE_LIMIT = 16 << 20          # also caps stdout and stderr
OPEN_FILES_LIMIT = 64
# CPU seconds beyond the wall-clock timeout; the timeout normally acts first.
CPU_GRACE_S = 1
# Far more than a request's JSON, which holds three paths and a number.
_MAX_REQUEST = 1 << 16

# Whether ``python script`` would put the script's directory first on
# sys.path (-P and -I leave it out).
_SCRIPT_DIR_ON_PATH = not getattr(sys.flags, "safe_path", False)


def cpu_limit_s(timeout_s: float) -> int:
    return math.ceil(timeout_s) + CPU_GRACE_S


def _set_limits(timeout_s: float) -> None:
    for res, value in ((resource.RLIMIT_CPU, cpu_limit_s(timeout_s)),
                       (resource.RLIMIT_AS, ADDRESS_SPACE_LIMIT),
                       (resource.RLIMIT_FSIZE, FILE_SIZE_LIMIT),
                       (resource.RLIMIT_NOFILE, OPEN_FILES_LIMIT)):
        hard = resource.getrlimit(res)[1]
        if hard != resource.RLIM_INFINITY:
            value = min(value, hard)
        resource.setrlimit(res, (value, value))


def _redirect(path: str, fd: int, flags: int) -> None:
    opened = os.open(path, flags, 0o600)
    os.dup2(opened, fd)
    os.close(opened)


def _exit_status(code) -> int:
    """The exit status of ``SystemExit(code)``, as the interpreter maps it."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


def _run_child(control: socket.socket, reply: int, script: str, stdout: str,
               stderr: str, timeout_s: float) -> int:
    """In the forked child: report the pid, set up like ``python script``,
    run the program and return its exit status."""
    os.setsid()
    # Sent by the group leader before any program code runs, so the harness
    # can kill the group even if the program kills the zygote.
    os.write(reply, json.dumps({"pid": os.getpid()}).encode())
    control.close()
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    _redirect(os.devnull, 0, os.O_RDONLY)
    _redirect(stdout, 1, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    _redirect(stderr, 2, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    workdir = os.path.dirname(script)
    os.chdir(workdir)
    sys.argv = [script]
    if _SCRIPT_DIR_ON_PATH:
        sys.path[0] = workdir
    _set_limits(timeout_s)
    for name in _ZYGOTE_MODULES:
        del sys.modules[name]
    # A fresh ``__main__``, with the names ``runpy.run_path`` sets; unlike
    # run_path this imports nothing before the program's own code.
    main = types.ModuleType("__main__")
    main.__file__ = script
    main.__cached__ = None
    main.__builtins__ = builtins
    sys.modules["__main__"] = main
    interrupted = False
    try:
        with open(script, "rb") as source:
            code = compile(source.read(), script, "exec")
        # Called rather than passed to exec, whose C call costs one
        # recursion level: run from module level, a program recurses only
        # two frames less deep than under ``python script``.  Code compiled
        # as a module takes its globals as its locals.
        types.FunctionType(code, main.__dict__)()
        status = 0
    except SystemExit as exc:
        status = _exit_status(exc.code)
    except BaseException as exc:
        # The traceback starts at the program, not at this function, as
        # under ``python script`` (none for a syntax error).
        tb = exc.__traceback__.tb_next
        sys.excepthook(type(exc), exc.with_traceback(tb), tb)
        status = 1
        interrupted = isinstance(exc, KeyboardInterrupt)
    # What the interpreter does at exit: join non-daemon threads, then run
    # the atexit handlers.
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except Exception:
            status = status or 120   # as the interpreter does on exit
    if interrupted:
        # Die of SIGINT, as the interpreter does after an unhandled
        # KeyboardInterrupt, so the caller sees the program was interrupted.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    return status


def _end(pid: int, timed_out: bool) -> int:
    """Kill the process group of the program ``pid`` leads, and ``pid``
    itself if it has timed out (it may not have called setsid yet); reap it
    and return its exit status.  Until it is reaped its pid, and so its
    group id, cannot be reused."""
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)
    return waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def main() -> tuple:
    """Serve requests until EOF on the control socket, then exit.  Returns
    only in a forked child: the control socket, the child's reply socket
    and the request it is to run."""
    # The control socket moves off fd 0, and fds 0 and 1, which programs
    # take over, point at /dev/null.
    control = socket.socket(fileno=os.dup(0))
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.close(null)
    running = {}       # pidfd: (pid, reply socket, deadline)
    while True:
        deadline = min((d for _, _, d in running.values()), default=None)
        wait_s = None if deadline is None else max(
            0.0, deadline - time.monotonic())
        ready = select.select([control, *running], [], [], wait_s)[0]
        now = time.monotonic()
        for pidfd, (pid, reply, deadline) in list(running.items()):
            if pidfd in ready or deadline <= now:
                del running[pidfd]
                os.close(pidfd)
                timed_out = pidfd not in ready
                status = _end(pid, timed_out)
                with contextlib.suppress(OSError):   # the caller has gone
                    os.write(reply, json.dumps(
                        {"status": status, "timed_out": timed_out}).encode())
                os.close(reply)
        if control not in ready:
            continue
        try:
            data, fds, _, _ = recv_fds(control, _MAX_REQUEST, 1)
        except OSError:
            data = b""
        if not data:
            break
        request, (reply,) = json.loads(data), fds
        pid = os.fork()
        if pid == 0:
            return control, reply, request
        # Not reaped yet, so the pid names the child.
        running[pidfd_open(pid)] = (pid, reply, now + request["timeout_s"])
    for pid, _, _ in running.values():
        _end(pid, timed_out=True)
    # Nothing is left to clean up, so skip the interpreter's teardown: the
    # harness waits for this exit before its run returns.
    os._exit(0)


if __name__ == "__main__":
    control, reply, request = main()
    # Only a forked child gets here.  It runs its program after ``main`` has
    # returned, so the program starts as few frames deep as a fork allows,
    # and it exits with no interpreter teardown, however the program ends.
    status = 1
    try:
        status = _run_child(control, reply, **request)
    finally:
        os._exit(status)
