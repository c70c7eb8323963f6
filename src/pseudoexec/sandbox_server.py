"""Sandbox zygote and servers for PoT programs: one warm interpreter per
run, started when the run opens its ``baselines.Sandbox`` and stopped when
it closes it, forks the servers, and each server forks one child per
program, so no server and no program pays for interpreter start-up.

Run as ``<interpreter> sandbox_server.py`` with stdin a Unix stream socket,
the control socket.  That process is the zygote and never runs a program.
Each byte it reads there asks for a server: it makes a fresh
``socket.socketpair()``, forks a server into a session of its own that keeps
one end, and hands the caller the other end and a pidfd of the server, two
descriptors sent with one byte (``socket.send_fds``).  It reaps its servers
as they exit.  At EOF on the control socket it gives the servers
``EXIT_GRACE_S`` to exit, kills and reaps any that are left, and exits at
once, with no interpreter teardown.  A zygote that has forked no server is
killed by the harness instead.

A server reads requests on its end of the pair.  Each is one JSON line
``{"script", "stdout", "stderr", "timeout_s"}``; the server forks a child
that runs ``script`` as ``python script`` would, in a session of its own
and the script's directory, with stdin from /dev/null, stdout and stderr
written to the named files and resource limits set.  The child first writes
one line ``{"pid"}``; once it has ended the server replies with one line
``{"status", "timed_out"}``.  At ``timeout_s`` it kills the child's process
group, and it always kills whatever the program left in that group.  At EOF
it exits; if the caller goes while a program runs (its socket turns
readable), the server kills the program's group and exits.

Standard library only: the zygote imports nothing from pseudoexec.
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
import socket
import sys
import time
import types

# The server's own VmSize is about 17 MB (Python 3.11); 1 GiB leaves a
# program ample room while one runaway allocation fails with MemoryError.
ADDRESS_SPACE_LIMIT = 1 << 30
FILE_SIZE_LIMIT = 16 << 20          # also caps stdout and stderr
OPEN_FILES_LIMIT = 64
# CPU seconds beyond the wall-clock timeout; the timeout normally acts first.
CPU_GRACE_S = 1
# How long the zygote waits, at EOF, for its servers to see EOF too and exit.
EXIT_GRACE_S = 1.0

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


def _serve(request: dict, sock: int) -> dict | None:
    """Run one program; its reply, or None if the caller has gone."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.setsid()
            # Sent by the group leader before any program code runs, so the
            # harness can kill the group even if the program kills this
            # server.  One write of a few bytes, before the reply.
            os.write(sock, (json.dumps({"pid": os.getpid()}) + "\n").encode())
            os.close(sock)
            status = _run_child(**request)
        finally:
            os._exit(status)
    pidfd = os.pidfd_open(pid)
    try:
        ready = select.select([pidfd, sock], [], [], request["timeout_s"])[0]
    finally:
        os.close(pidfd)
    ended = pidfd in ready
    # The child is not reaped yet, so its pid (and group id) cannot be
    # reused before these kills.
    if not ended:
        os.kill(pid, signal.SIGKILL)     # in case it has not called setsid
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)
    _, wait_status = os.waitpid(pid, 0)
    if sock in ready:     # the caller sends nothing while a program runs
        return None
    return {"status": os.waitstatus_to_exitcode(wait_status),
            "timed_out": not ended}


def _run_server(sock: socket.socket) -> None:
    with contextlib.suppress(OSError):
        for line in sock.makefile("rb"):
            reply = _serve(json.loads(line), sock.fileno())
            if reply is None:
                return
            sock.sendall((json.dumps(reply) + "\n").encode())


def _reap(servers: set[int], wait_s: float = 0.0) -> None:
    """Reap the servers that have exited, waiting up to ``wait_s`` for the
    rest."""
    deadline = time.monotonic() + wait_s
    while servers:
        pid, _ = os.waitpid(-1, os.WNOHANG)
        if pid:
            servers.discard(pid)
        elif time.monotonic() < deadline:
            time.sleep(0.001)
        else:
            return


def main() -> None:
    # The control socket moves off fd 0, and fds 0 and 1, which programs
    # take over, point at /dev/null.
    control = socket.socket(fileno=os.dup(0))
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.close(null)
    servers: set[int] = set()
    # EOF, a caller gone mid-request or a failed fork ends the loop.
    with contextlib.suppress(OSError):
        while control.recv(1):
            kept, handed = socket.socketpair()
            pid = os.fork()
            if pid == 0:
                try:
                    control.close()
                    handed.close()
                    os.setsid()
                    _run_server(kept)
                finally:
                    os._exit(0)
            servers.add(pid)
            kept.close()
            # Not reaped yet, so the pid names the server.
            pidfd = os.pidfd_open(pid)
            try:
                socket.send_fds(control, [b"\n"], [handed.fileno(), pidfd])
            finally:
                os.close(pidfd)
                handed.close()
            _reap(servers)
    _reap(servers, EXIT_GRACE_S)
    for pid in servers:               # unreaped, so still theirs
        os.kill(pid, signal.SIGKILL)
    for pid in servers:
        os.waitpid(pid, 0)
    # Nothing is left to clean up, so skip the interpreter's teardown: the
    # harness waits for this exit before its run returns.
    os._exit(0)


if __name__ == "__main__":
    main()
