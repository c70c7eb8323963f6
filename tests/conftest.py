from __future__ import annotations

import json
import shutil
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]
ASSETS = PKG_ROOT / "src" / "pseudoexec" / "assets"


@pytest.fixture(scope="session")
def assets_dir() -> Path:
    return ASSETS


@pytest.fixture(scope="session")
def paper_fixture_dir() -> Path:
    return ASSETS / "fixtures" / "paper"


@pytest.fixture(scope="session")
def replay_fixture_dir() -> Path:
    return ASSETS / "fixtures" / "replay"


@pytest.fixture(scope="session")
def cassette_path() -> Path:
    return ASSETS / "replay" / "cassette.jsonl"


@pytest.fixture()
def assets_copy(tmp_path, monkeypatch) -> Path:
    """A copy of the bundled assets, which the prompt loader reads in their
    place for the rest of the test."""
    from pseudoexec import prompts

    copy = tmp_path / "assets"
    shutil.copytree(ASSETS, copy)
    monkeypatch.setattr(prompts, "_assets_root", lambda: copy)
    prompts.load_asset_text.cache_clear()
    yield copy
    prompts.load_asset_text.cache_clear()


@pytest.fixture
def chat_server(monkeypatch):
    """``serve(respond)`` starts a chat-completions server on 127.0.0.1 that
    answers each POST with ``respond(json_body)``: ``(status, payload)``, or
    ``(status, payload, content_length)`` to announce another length.  It
    closes the connection after each reply.  ``serve`` returns the server's
    endpoint and the list of ``(headers, json_body)`` the server saw.  For
    the test, ``PSEUDOEXEC_TEST_KEY`` holds a placeholder key and 127.0.0.1
    bypasses any proxy; the servers stop when it ends."""
    monkeypatch.setenv("PSEUDOEXEC_TEST_KEY", "not-a-real-key")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    servers = []

    def serve(respond):
        seen = []

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):
                pass

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                seen.append((self.headers, body))
                status, payload, *announced = respond(body)
                self.send_response(status)
                self.send_header("Content-Length",
                                 str(announced[0] if announced
                                     else len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, args=(0.01,),
                         daemon=True).start()
        servers.append(server)
        return (f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
                seen)

    yield serve
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="session")
def sandbox():
    """One PoT sandbox for every test that needs no setting of its own, so
    its zygote boots once per session.  It runs the interpreter the tests
    run on, which is what a test compares its programs with."""
    from pseudoexec.baselines import Sandbox

    with Sandbox([sys.executable]) as opened:
        yield opened


@pytest.fixture(params=["os.pidfd_open", "socket.recv_fds", "true",
                        "sh-exit-127"])
def unusable_interpreter(request, tmp_path):
    """``(command, status, cause)``: an interpreter command that cannot run
    the sandbox zygote, the status it exits with and part of its stderr.
    The first two are a Python that lacks a function the zygote needs."""
    if request.param == "true":
        return ["true"], 0, "no stderr"
    if request.param == "sh-exit-127":
        return (["sh", "-c", "echo 'no such python' >&2; exit 127", "sh"],
                127, "no such python")
    module, name = request.param.split(".")
    shim = tmp_path / "shim.py"
    shim.write_text(f"import {module}, runpy, sys\n"
                    f"del {module}.{name}\n"
                    "runpy.run_path(sys.argv[1], run_name='__main__')\n",
                    encoding="utf-8")
    return ([sys.executable, str(shim)], 1,
            f"ImportError: cannot import name {name!r}")
