"""Gateway tests: digests, cassette round trips, replay airtightness."""

from __future__ import annotations

import json
import random
import socket
import sys
import threading
import time

import pytest

from pseudoexec.errors import CassetteMiss, ConfigError
from pseudoexec.gateway import (CANONICAL_VERSION, ChatRequest, MockGateway,
                                RecordGateway, ReplayGateway,
                                _entry_from_json, _entry_to_json,
                                canonical_serialization, digest,
                                load_cassette)


def _req(user: str = "hello", **kw) -> ChatRequest:
    return ChatRequest(role_tag="reasoner", user=user, **kw)


def test_digest_deterministic():
    assert digest(_req()) == digest(_req())


def test_digest_absent_vs_empty_system():
    assert digest(_req(system=None)) != digest(_req(system=""))


def test_digest_collision_spot_check():
    rng = random.Random("digest-spot-check")
    base = "The quick brown fox jumps over the lazy dog. " * 4
    texts = {base}
    digests = {digest(_req(base))}
    for _ in range(10_000):
        pos = rng.randrange(len(base))
        flip = chr(ord(base[pos]) ^ (1 << rng.randrange(5)) or 1)
        mutated = base[:pos] + flip + base[pos + 1:]
        if mutated in texts:
            continue
        texts.add(mutated)
        d = digest(_req(mutated))
        assert d not in digests
        digests.add(d)


def test_canonical_serialization_versioned():
    assert f'"version": "{CANONICAL_VERSION}"' in \
        canonical_serialization(_req())


def test_serializations_keep_their_bytes(cassette_path):
    # The key order is part of every recorded digest.
    assert list(json.loads(canonical_serialization(_req()))) == [
        "version", "role_tag", "system", "user", "model_id", "temperature",
        "max_tokens"]
    lines = cassette_path.read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        assert _entry_to_json(_entry_from_json(line)) == line


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(role_tag="narrator", user="x")
    with pytest.raises(ValueError):
        ChatRequest(role_tag="reasoner", user="x", max_tokens=0)


def test_temperature_defaults_to_zero():
    assert _req().temperature == 0.0


class _CountingEcho(MockGateway):
    def __init__(self):
        super().__init__(responders={"reasoner": self._echo})
        self.calls: list[str] = []

    def _echo(self, request: ChatRequest) -> str:
        self.calls.append(request.user)
        return f"echo: {request.user}"


def test_record_then_replay_roundtrip(tmp_path):
    cassette = tmp_path / "c.jsonl"
    mock = _CountingEcho()
    recorder = RecordGateway(mock, cassette)
    first = recorder.complete(_req("alpha"))
    again = recorder.complete(_req("alpha"))     # replayed answer, one entry
    recorder.complete(_req("beta"))
    assert first == again == "echo: alpha"
    assert mock.calls == ["alpha", "beta"]       # once per distinct request
    index = load_cassette(cassette)
    assert len(index) == 2

    replay = ReplayGateway(cassette)
    assert replay.complete(_req("alpha")) == "echo: alpha"
    assert replay.complete(_req("beta")) == "echo: beta"
    with pytest.raises(CassetteMiss):
        replay.complete(_req("gamma"))


def test_record_reads_through_reopened_cassette(tmp_path):
    cassette = tmp_path / "c.jsonl"
    RecordGateway(_CountingEcho(), cassette).complete(_req("alpha"))
    recorded = cassette.read_bytes()
    inner = _CountingEcho()
    assert RecordGateway(inner, cassette).complete(_req("alpha")) == \
        "echo: alpha"
    assert inner.calls == []
    assert cassette.read_bytes() == recorded


def test_record_resume_pays_only_for_misses(tmp_path):
    cassette = tmp_path / "c.jsonl"
    words = ["alpha", "beta", "gamma", "delta"]
    first = RecordGateway(_CountingEcho(), cassette)
    for word in words[:2]:            # the interrupted session
        first.complete(_req(word))
    inner = _CountingEcho()
    resumed = RecordGateway(inner, cassette)
    answers = [resumed.complete(_req(word)) for word in words]
    assert answers == [f"echo: {word}" for word in words]
    assert inner.calls == words[2:]
    assert len(cassette.read_text().splitlines()) == len(words)
    assert len(load_cassette(cassette)) == len(words)


def test_record_concurrent_calls_append_each_digest_once(tmp_path):
    cassette = tmp_path / "c.jsonl"

    def slow_echo(request: ChatRequest) -> str:
        time.sleep(0.001)       # lets concurrent misses on one digest meet
        return f"echo: {request.user}"

    recorder = RecordGateway(MockGateway(responders={"reasoner": slow_echo}),
                             cassette)
    words = [f"w{i}" for i in range(40)]
    answers: dict[int, list[str]] = {}
    start = threading.Barrier(8, timeout=30)

    def worker(n: int) -> None:
        order = words[n % 2::2] + words[(n + 1) % 2::2]
        start.wait()
        answers[n] = [recorder.complete(_req(word)) for word in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == 8
    for got in answers.values():
        assert sorted(got) == sorted(f"echo: {word}" for word in words)
    lines = cassette.read_text().splitlines()
    assert len(lines) == len(words)
    assert len(load_cassette(cassette)) == len(words)


def test_replay_rejects_tampered_cassette(tmp_path):
    cassette = tmp_path / "c.jsonl"
    mock = MockGateway(responders={"reasoner": lambda r: "ok"})
    RecordGateway(mock, cassette).complete(_req("alpha"))
    text = cassette.read_text().replace('"user": "alpha"', '"user": "beta"')
    cassette.write_text(text)
    with pytest.raises(ConfigError):
        ReplayGateway(cassette)


def test_replay_never_opens_sockets(tmp_path, monkeypatch):
    cassette = tmp_path / "c.jsonl"
    mock = MockGateway(responders={"reasoner": lambda r: "ok"})
    RecordGateway(mock, cassette).complete(_req("alpha"))

    def forbidden(*args, **kwargs):
        raise AssertionError("socket opened in replay mode")

    monkeypatch.setattr(socket, "socket", forbidden)
    monkeypatch.setattr(socket, "create_connection", forbidden)
    replay = ReplayGateway(cassette)
    assert replay.complete(_req("alpha")) == "ok"


def test_mock_fixture_by_digest():
    request = _req("question")
    gateway = MockGateway(fixtures={digest(request): "answer"})
    assert gateway.complete(request) == "answer"
    with pytest.raises(CassetteMiss):
        gateway.complete(_req("other"))


def test_live_requires_credential_env(monkeypatch):
    from pseudoexec.gateway import LiveGateway

    monkeypatch.delenv("TEST_CRED", raising=False)
    live = LiveGateway("https://example.invalid/v1", "TEST_CRED")
    with pytest.raises(ConfigError):
        live.complete(_req())


def _http_200(body: bytes):
    import requests

    resp = requests.Response()
    resp.status_code = 200
    resp._content = body
    resp.encoding = "utf-8"
    return resp


def _offline_live(monkeypatch, respond):
    """A LiveGateway whose HTTP posts are answered by ``respond(json_body)``;
    any socket use fails the test."""
    import requests

    from pseudoexec.gateway import LiveGateway

    def forbidden(*args, **kwargs):
        raise AssertionError("socket opened by a patched live gateway")

    monkeypatch.setattr(socket, "socket", forbidden)
    monkeypatch.setattr(socket, "create_connection", forbidden)
    monkeypatch.setattr(requests, "post",
                        lambda url, json, **kw: _http_200(respond(json)))
    monkeypatch.setenv("TEST_CRED", "not-a-real-key")
    return LiveGateway("http://127.0.0.1:9/v1/chat/completions",
                       "TEST_CRED", max_attempts=1)


MALFORMED_BODIES = [b"<html>not json</html>", b"{}", b'{"choices": []}',
                    b'{"choices": [{"message": {"content": null}}]}']


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_live_malformed_body_is_transport_error(monkeypatch, body):
    from pseudoexec.errors import TransportError

    live = _offline_live(monkeypatch, lambda request: body)
    with pytest.raises(TransportError, match="malformed response body"):
        live.complete(_req())


def test_live_malformed_body_does_not_abort_run(monkeypatch):
    import json

    from pseudoexec.baselines import MethodId
    from pseudoexec.evaluator import evaluate_run
    from pseudoexec.tasks import TaskId
    from pseudoexec.tasks.generate import generate_instance

    good, bad = (generate_instance(TaskId.NAVIGATE, seed, 3)
                 for seed in (1, 2))

    def respond(request):
        if bad.input_text in request["messages"][-1]["content"]:
            return b'{"choices": []}'
        return json.dumps({"choices": [{"message": {
            "content": f"Final answer: {good.target}"}}]}).encode()

    predictions = {}
    report = evaluate_run(
        MethodId.DIRECT, [good, bad], _offline_live(monkeypatch, respond),
        on_prediction=lambda i, inst, pred, ok: predictions.update({i: pred}))
    assert report.per_task[TaskId.NAVIGATE].total == 2
    assert report.per_task[TaskId.NAVIGATE].correct == 1
    assert predictions[0].final_answer == good.target
    assert predictions[1].failure.startswith("gateway_error: ")
