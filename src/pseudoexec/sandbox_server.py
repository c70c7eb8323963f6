"""Sandbox server for PoT programs: a warm interpreter that forks one child
per program, so no program pays for interpreter start-up.

Run as ``<interpreter> sandbox_server.py``.  Each line on stdin is a JSON
request ``{"script", "stdout", "stderr", "timeout_s"}``; the server forks a
child that runs ``script`` as ``python script`` would, in a session of its
own and the script's directory, with stdin from /dev/null, stdout and stderr
written to the named files and resource limits set.  The child first writes
one line ``{"pid"}``; once it has ended the server replies with one line
``{"status", "timed_out"}``.  At ``timeout_s`` it kills the child's
process group, and it always kills whatever the program left in that group.
It exits when stdin reaches EOF.

Standard library only: the server imports nothing from pseudoexec.
"""

import atexit
import builtins
import contextlib
import json
import math
import os
import resource
import select
import signal
import sys
import types

# The server's own VmSize is about 17 MB (Python 3.11); 1 GiB leaves a
# program ample room while one runaway allocation fails with MemoryError.
ADDRESS_SPACE_LIMIT = 1 << 30
FILE_SIZE_LIMIT = 16 << 20          # also caps stdout and stderr
OPEN_FILES_LIMIT = 64
# CPU seconds beyond the wall-clock timeout; the timeout normally acts first.
CPU_GRACE_S = 1

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


def _run_child(script: str, stdout: str, stderr: str,
               timeout_s: float) -> int:
    """In the forked child: set up like ``python script``, run the program
    and return its exit status."""
    _redirect(os.devnull, 0, os.O_RDONLY)
    _redirect(stdout, 1, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    _redirect(stderr, 2, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    workdir = os.path.dirname(script)
    os.chdir(workdir)
    sys.argv = [script]
    if _SCRIPT_DIR_ON_PATH:
        sys.path[0] = workdir
    _set_limits(timeout_s)
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
        exec(code, main.__dict__)
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


def _serve(request: dict, requests_fd: int, replies_fd: int) -> dict:
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(requests_fd)
            os.setsid()
            # Sent by the group leader before any program code runs, so the
            # harness can kill the group even if the program kills this
            # server.  One write of under PIPE_BUF bytes, before the reply.
            os.write(replies_fd,
                     (json.dumps({"pid": os.getpid()}) + "\n").encode())
            os.close(replies_fd)
            status = _run_child(**request)
        finally:
            os._exit(status)
    pidfd = os.pidfd_open(pid)
    try:
        ended = bool(select.select([pidfd], [], [], request["timeout_s"])[0])
    finally:
        os.close(pidfd)
    # The child is not reaped yet, so its pid (and group id) cannot be
    # reused before these kills.
    if not ended:
        os.kill(pid, signal.SIGKILL)     # in case it has not called setsid
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)
    _, wait_status = os.waitpid(pid, 0)
    return {"status": os.waitstatus_to_exitcode(wait_status),
            "timed_out": not ended}


def main() -> None:
    # Requests and replies move off fds 0 and 1, which children take over.
    requests = os.fdopen(os.dup(0), "rb")
    replies = os.dup(1)
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.close(null)
    for line in requests:
        reply = _serve(json.loads(line), requests.fileno(), replies)
        os.write(replies, (json.dumps(reply) + "\n").encode())


if __name__ == "__main__":
    main()
