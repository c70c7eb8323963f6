"""Localhost stand-in for an OpenAI-style chat-completions endpoint.

Usage: python3 perfbench/stub.py --table TABLE.json

TABLE.json maps the SHA-256 of a request's user message to
``[delay_ms, response_text]``.  The benchmark builds the table from its
corpus, so the delay of a request is fixed by the benchmark seed and the
request body, and every commit measured with one seed sees the same delays.

The server binds only to 127.0.0.1 on a free port and prints that port as
its first line of output.  ``GET /stats`` returns the number of completions
served, the most requests held in flight at once and the seconds spent in
the delays of served requests; ``POST /reset`` zeroes them.  It answers every table hit with HTTP 200 and never injects 429s or
malformed bodies; a request missing from the table gets a 404, which the
harness records as a gateway failure and the benchmark's checks reject.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Counters:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.served = 0
        self.inflight = 0
        self.max_inflight = 0
        self.delay_s = 0.0

    def enter(self) -> None:
        with self._lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def leave(self, served: bool, delay_s: float) -> None:
        with self._lock:
            self.inflight -= 1
            self.served += served
            self.delay_s += delay_s

    def snapshot(self, reset: bool = False) -> dict:
        with self._lock:
            stats = {"served": self.served, "max_inflight": self.max_inflight,
                     "delay_s": self.delay_s}
            if reset:
                self.served = 0
                self.delay_s = 0.0
                self.max_inflight = self.inflight
            return stats


def make_handler(table: dict[str, list], counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"   # a keep-alive client reuses sockets

        def log_message(self, format, *args):   # no per-request log lines
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, counters.snapshot())
            else:
                self._send(404, {"error": "unknown path"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                self._send(200, counters.snapshot(reset=True))
                return
            counters.enter()
            served, delay_s = False, 0.0
            try:
                request = json.loads(body)
                user = [m["content"] for m in request["messages"]
                        if m["role"] == "user"][-1]
                entry = table.get(
                    hashlib.sha256(user.encode("utf-8")).hexdigest())
                if entry is None:
                    self._send(404, {"error": "request not in stub table"})
                    return
                delay_ms, text = entry
                delay_s = delay_ms / 1000.0
                time.sleep(delay_s)
                self._send(200, {
                    "object": "chat.completion",
                    "model": request.get("model"),
                    "choices": [{"index": 0, "finish_reason": "stop",
                                 "message": {"role": "assistant",
                                             "content": text}}],
                })
                served = True
            finally:
                counters.leave(served, delay_s if served else 0.0)

    return Handler


def _exit_with_parent(parent_pid: int, server: ThreadingHTTPServer) -> None:
    """Stop serving once the process that started the stub is gone."""
    while os.getppid() == parent_pid:
        time.sleep(0.5)
    server.shutdown()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    args = parser.parse_args(argv)
    with open(args.table, encoding="utf-8") as fh:
        table = json.load(fh)
    counters = Counters()
    server = ThreadingHTTPServer(("127.0.0.1", 0),
                                 make_handler(table, counters))
    server.daemon_threads = True
    threading.Thread(target=_exit_with_parent,
                     args=(os.getppid(), server), daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
