"""Sandbox zygote for PoT programs: one warm interpreter per run, started
when the run opens its ``baselines.Sandbox`` and stopped when it closes it,
forks one child per program, so no program pays for interpreter start-up.

Run as ``<interpreter> sandbox_server.py <timeout_s>`` with stdin a Unix
``SOCK_SEQPACKET`` socket, the control socket.  The zygote never runs a
program itself.  Each record it reads there is one request, a script's path
(``os.fsencode``), sent with three descriptors (``socket.send_fds``): the
caller's end of a fresh socket pair, the reply socket, and the files for
the program's stdout and stderr.  For each request it forks a child that
runs the script as ``python script`` would, in a session of its own and the
script's directory, with stdin from /dev/null, resource limits set and
``sys.modules`` as a script starts with it.  The child first writes its pid
on the reply socket, then moves the two files onto fds 1 and 2 and closes
every descriptor beyond 0-2, so no program holds the control socket,
another program's reply socket or a path to its own output.

The zygote supervises every running program in one ``select`` loop over
the control socket and the programs' pidfds, whose timeout is the nearest
deadline.  When a program ends, or at ``timeout_s``, the zygote kills the
program's process group (a program that ended may have left processes in
it), reaps the program, replies ``b"<status> <timed_out>"`` on its reply
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
# Far more than a request, one path (PATH_MAX is 4096 bytes).
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


def _exit_status(code) -> int:
    """The exit status of ``SystemExit(code)``, as the interpreter maps it."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


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
    only in a forked child: the control socket, the request's three
    descriptors, the script's path and the timeout."""
    # Read from the end: a shim that runs this file with ``runpy`` leaves
    # its own path first in argv.
    timeout_s = float(sys.argv[-1])
    # The control socket moves off fd 0, which every program inherits
    # pointing at /dev/null: the lowest free descriptor is the one opened.
    control = socket.socket(fileno=os.dup(0))
    os.close(0)
    os.open(os.devnull, os.O_RDONLY)
    # CPython sets its compiler up at the first ``compile``.  A zygote whose
    # start-up compiled no source (``-S``, or a ``site`` that executes no
    # ``.pth`` line) would leave that to every child.
    compile("", "<zygote>", "exec")
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
                    os.write(reply, b"%d %d" % (status, timed_out))
                os.close(reply)
        if control not in ready:
            continue
        try:
            data, fds, _, _ = recv_fds(control, _MAX_REQUEST, 3)
        except OSError:
            data = b""
        if not data:
            break
        pid = os.fork()
        if pid == 0:
            return control, *fds, os.fsdecode(data), timeout_s
        reply, stdout, stderr = fds
        os.close(stdout)
        os.close(stderr)
        # Not reaped yet, so the pid names the child.
        running[pidfd_open(pid)] = (pid, reply, now + timeout_s)
    for pid, _, _ in running.values():
        _end(pid, timed_out=True)
    # Nothing is left to clean up, so skip the interpreter's teardown: the
    # harness waits for this exit before its run returns.
    os._exit(0)


if __name__ == "__main__":
    control, reply, stdout, stderr, script, timeout_s = main()
    # Only a forked child gets here.  It runs its program from module level
    # after ``main`` has returned, so the program starts one frame deeper
    # than under ``python script``, and it exits with no interpreter
    # teardown, however the program ends.
    status = 1
    try:
        os.setsid()
        # Sent by the group leader before any program code runs, so the
        # harness can kill the group even if the program kills the zygote.
        os.write(reply, b"%d" % os.getpid())
        control.close()
        os.dup2(stdout, 1)
        os.dup2(stderr, 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        workdir = os.path.dirname(script)
        os.chdir(workdir)
        sys.argv = [script]
        if _SCRIPT_DIR_ON_PATH:
            sys.path[0] = workdir
        _set_limits(timeout_s)
        for name in _ZYGOTE_MODULES:
            del sys.modules[name]
        # A fresh ``__main__``, with the names ``runpy.run_path`` sets;
        # unlike run_path this imports nothing before the program's code.
        program = types.ModuleType("__main__")
        program.__file__ = script
        program.__cached__ = None
        program.__builtins__ = builtins
        sys.modules["__main__"] = program
        interrupted = False
        try:
            with open(script, "rb") as source:
                code = compile(source.read(), script, "exec")
            # Called rather than passed to exec, whose C call costs one
            # recursion level: the program's frame is the only one above
            # this module's.  Code compiled as a module takes its globals
            # as its locals.
            types.FunctionType(code, program.__dict__)()
            status = 0
        except SystemExit as exc:
            status = _exit_status(exc.code)
        except BaseException as exc:
            # The traceback starts at the program, not at this module, as
            # under ``python script`` (none for a syntax error).
            tb = exc.__traceback__.tb_next
            sys.excepthook(type(exc), exc.with_traceback(tb), tb)
            status = 1
            interrupted = isinstance(exc, KeyboardInterrupt)
        # What the interpreter does at exit: join non-daemon threads, then
        # run the atexit handlers.
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
            # KeyboardInterrupt, so the caller sees it was interrupted.
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGINT)
    finally:
        os._exit(status)
