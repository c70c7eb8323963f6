"""Gateway tests: digests, cassette round trips, replay airtightness."""

from __future__ import annotations

import hashlib
import json
import random
import socket
import sys
import threading
import time
import tracemalloc
from array import array
from dataclasses import fields

import pytest

from pseudoexec import gateway
from pseudoexec.errors import CassetteMiss, ConfigError
from pseudoexec.gateway import (CANONICAL_VERSION, INDEX_FORMAT, ChatRequest,
                                MockGateway, RecordGateway, ReplayGateway,
                                _entry_line, canonical_serialization, digest,
                                index_path, load_cassette)


def _req(user: str = "hello", **kw) -> ChatRequest:
    return ChatRequest(role_tag="reasoner", user=user, **kw)


def _request_of(entry: dict) -> ChatRequest:
    """The request a cassette entry records; the line's other request
    fields are the gateway's constants."""
    return ChatRequest(**{f.name: entry["request"][f.name]
                          for f in fields(ChatRequest)})


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
        entry = json.loads(line)
        assert _entry_line(entry["digest"], _request_of(entry),
                           entry["response_text"], entry["recorded_at"],
                           entry["backend_label"]) == line


def test_bundled_cassette_digests_verify(cassette_path):
    # Replays check only the entries they serve; every bundled one is
    # checked here.
    for line in cassette_path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        assert entry["version"] == CANONICAL_VERSION
        assert digest(_request_of(entry)) == entry["digest"]


def test_load_cassette_indexes_and_hashes_in_one_pass(cassette_path,
                                                      monkeypatch):
    def forbidden(request):
        raise AssertionError("a loaded entry was hashed")

    monkeypatch.setattr(gateway, "digest", forbidden)
    cassette = load_cassette(cassette_path)
    data = cassette_path.read_bytes()
    assert cassette.sha256.hexdigest() == hashlib.sha256(data).hexdigest()
    assert len(cassette) == len(data.splitlines())
    for key, (offset, length) in cassette.items():
        assert json.loads(data[offset:offset + length])["digest"] == key


def test_load_cassette_names_a_malformed_line(tmp_path):
    cassette = tmp_path / "c.jsonl"
    RecordGateway(MockGateway(responders={"reasoner": lambda r: "ok"}),
                  cassette).complete(_req("alpha"))
    whole = cassette.read_text()
    for bad in (whole[:50] + "\n", "[1, 2]\n", '{"no": "digest"}\n'):
        cassette.write_text(whole + bad)
        with pytest.raises(ConfigError, match=f"{cassette} line 2: "):
            load_cassette(cassette)


def _recorded(tmp_path, words=("alpha", "beta", "gamma")):
    cassette = tmp_path / "c.jsonl"
    recorder = RecordGateway(_CountingEcho(), cassette)
    for word in words:
        recorder.complete(_req(word))
    return cassette


def _state(cassette) -> tuple:
    # As a mapping: an index hit lists its digests in the table's order.
    return (dict(cassette), cassette.sha256.hexdigest(), cassette._size,
            cassette._newline_due)


def _loads_seen(monkeypatch) -> list:
    """Every text ``json.loads`` is given from now on."""
    seen, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, *args, **kwargs:
                        seen.append(text) or loads(text, *args, **kwargs))
    return seen


def _read_index(cassette) -> tuple:
    """The header, digest column and span columns of a cassette's index."""
    header, _, table = index_path(cassette).read_bytes().partition(b"\n")
    header = json.loads(header)
    rows = header["entries"]
    offsets, lengths = array("Q"), array("Q")
    offsets.frombytes(table[32 * rows:40 * rows])
    lengths.frombytes(table[40 * rows:])
    return header, table[:32 * rows], offsets, lengths


def _write_index(cassette, header, digests, offsets, lengths) -> None:
    index_path(cassette).write_bytes(
        json.dumps(header).encode() + b"\n" + digests + offsets.tobytes()
        + lengths.tobytes())


def _index_of(loaded) -> tuple:
    """What ``_read_index`` returns for the index of ``loaded``'s bytes."""
    keys = sorted(loaded)
    return ({"format": INDEX_FORMAT, "sha256": loaded.sha256.hexdigest(),
             "size": loaded._size, "entries": len(keys),
             "byteorder": sys.byteorder},
            b"".join(map(bytes.fromhex, keys)),
            array("Q", [loaded[key][0] for key in keys]),
            array("Q", [loaded[key][1] for key in keys]))


@pytest.mark.parametrize("strip", [False, True],
                         ids=["bundled", "no-final-newline"])
def test_an_index_hit_loads_what_the_full_parse_loaded(
        tmp_path, monkeypatch, cassette_path, strip):
    cassette = tmp_path / "c.jsonl"
    data = cassette_path.read_bytes()
    cassette.write_bytes(data.rstrip(b"\n") if strip else data)
    parsed = load_cassette(cassette)        # no index yet: the full parse
    assert parsed._newline_due is strip
    assert _read_index(cassette) == _index_of(parsed)
    loads = _loads_seen(monkeypatch)
    indexed = load_cassette(cassette)
    header = index_path(cassette).read_bytes().partition(b"\n")[0] + b"\n"
    assert loads == [header]                # no cassette line, no entry
    assert indexed._lines == {}
    assert _state(indexed) == _state(parsed)
    assert sorted(indexed) == sorted(parsed)
    key = max(parsed)
    assert key in indexed and indexed[key] == parsed[key]
    for other in (key.upper(), " ".join([key[:2], key[2:]]), key[:-2]):
        assert other not in indexed         # only the digest's own text
    # A record-mode append after an index hit keeps the running SHA-256.
    recorder = RecordGateway(_CountingEcho(), cassette)
    assert recorder.complete(_req("not recorded yet")) == \
        "echo: not recorded yet"
    assert recorder.cassette.sha256.hexdigest() == \
        hashlib.sha256(cassette.read_bytes()).hexdigest()
    assert len(load_cassette(cassette)) == len(parsed) + 1


def test_a_changed_byte_under_an_index_is_parsed_and_named(tmp_path):
    cassette = _recorded(tmp_path)
    load_cassette(cassette)                 # writes the index
    data = bytearray(cassette.read_bytes())
    data[data.index(b"\n") + 1] ^= 1        # line 2's "{" becomes "z"
    cassette.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match=f"{cassette} line 2: "):
        load_cassette(cassette)


@pytest.mark.parametrize("kind", [
    "stale", "garbled", "foreign", "entries of another shape",
    "a count that is no integer", "a span outside the file",
    "keys out of order", "keys repeated", "another byte order"])
def test_an_index_that_does_not_fit_is_ignored_and_rewritten(tmp_path,
                                                             kind):
    cassette = _recorded(tmp_path, ["alpha", "beta"])
    load_cassette(cassette)
    index = index_path(cassette)
    header, digests, offsets, lengths = _read_index(cassette)
    if kind == "stale":                     # the file grew under it
        RecordGateway(_CountingEcho(), cassette).complete(_req("gamma"))
    elif kind == "garbled":
        index.write_bytes(index.read_bytes()[:9])
    elif kind == "foreign":
        _write_index(cassette, {**header, "format": "another-index/1"},
                     digests, offsets, lengths)
    elif kind == "entries of another shape":    # a table of another length
        _write_index(cassette, header, digests, offsets, lengths[:1])
    elif kind == "a count that is no integer":
        _write_index(cassette, {**header, "entries": 2.0},
                     digests, offsets, lengths)
    elif kind == "a span outside the file":     # one byte past the end
        offsets[0] = header["size"] - lengths[0] + 1
        _write_index(cassette, header, digests, offsets, lengths)
    elif kind == "keys out of order":           # each with its own span
        _write_index(cassette, header, digests[32:] + digests[:32],
                     offsets[::-1], lengths[::-1])
    elif kind == "keys repeated":
        _write_index(cassette, header, digests[:32] * 2, offsets, lengths)
    else:
        # The columns as this machine reads them, so that only the
        # header's byte order rejects them; another machine's columns
        # would be swapped, and their spans past the end as well.
        other = "big" if sys.byteorder == "little" else "little"
        _write_index(cassette, {**header, "byteorder": other}, digests,
                     offsets, lengths)
    loaded = load_cassette(cassette)
    data = cassette.read_bytes()
    assert loaded._lines                    # the full parse ran
    assert len(loaded) == len(data.splitlines())
    assert loaded.sha256.hexdigest() == hashlib.sha256(data).hexdigest()
    assert _read_index(cassette) == _index_of(loaded)


def test_an_empty_cassette_is_indexed_and_recorded_into(tmp_path):
    cassette = tmp_path / "c.jsonl"
    cassette.write_bytes(b"")
    for _ in range(2):                      # the full parse, then the hit
        loaded = load_cassette(cassette)
        assert (len(loaded), list(loaded), loaded._size,
                loaded._newline_due) == (0, [], 0, False)
        assert loaded.sha256.hexdigest() == hashlib.sha256().hexdigest()
        assert _read_index(cassette) == _index_of(loaded)
    recorder = RecordGateway(_CountingEcho(), cassette)
    assert recorder.complete(_req("alpha")) == "echo: alpha"
    assert cassette.read_bytes().count(b"\n") == 1
    assert list(recorder.cassette) == [digest(_req("alpha"))]


@pytest.mark.parametrize("keys", [
    [digest(_req("alpha")).upper()], ["ab", "cd" * 63], [5]],
    ids=["upper-case", "short-and-long", "a-number"])
def test_a_digest_that_is_no_hex_digest_gets_no_index(tmp_path, keys):
    cassette = tmp_path / "c.jsonl"
    cassette.write_text("".join(
        json.dumps({"digest": key}) + "\n" for key in keys))
    for _ in range(2):                      # each load parses every line
        loaded = load_cassette(cassette)
        assert list(loaded) == keys and keys[0] in loaded
        assert not index_path(cassette).exists()


def test_len_and_iteration_after_an_index_hit_and_appends(tmp_path):
    cassette = _recorded(tmp_path, ["alpha", "beta"])
    load_cassette(cassette)
    recorder = RecordGateway(_CountingEcho(), cassette)    # an index hit
    assert not recorder.cassette._lines
    recorder.complete(_req("gamma"))                       # appended here
    RecordGateway(_CountingEcho(), cassette).complete(_req("delta"))
    with open(cassette, "ab") as fh:    # a line again for a table digest
        fh.write(cassette.read_bytes().splitlines(keepends=True)[0])
    recorder.complete(_req("epsilon"))  # indexes the lines before it
    full = gateway.Cassette(cassette)
    with open(cassette, "rb") as fh:
        gateway._index_lines(full, fh)
    keys = [digest(_req(word))
            for word in ("alpha", "beta", "gamma", "delta", "epsilon")]
    assert len(recorder.cassette) == len(full) == 5
    assert sorted(recorder.cassette) == sorted(full) == sorted(keys)
    assert dict(recorder.cassette) == dict(full)   # the later line wins
    assert recorder.cassette.sha256.hexdigest() == full.sha256.hexdigest()


def test_an_index_hit_builds_no_object_per_entry(tmp_path):
    cassette = tmp_path / "c.jsonl"
    entries = 3000
    cassette.write_text("".join(
        _entry_line(digest(_req(f"w{i}")), _req(f"w{i}"), "x", "t", "mock")
        + "\n" for i in range(entries)))
    assert len(load_cassette(cassette)) == entries      # writes the index
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        loaded = load_cassette(cassette)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The index is 48 bytes an entry, read once and searched in place.  A
    # dict entry of a digest string and a span tuple alone takes over 200.
    assert peak < 80 * entries
    assert len(loaded) == entries and not loaded._lines


@pytest.mark.parametrize("blocker", ["directory", "failing replace"])
def test_an_unwritable_index_location_is_not_an_error(tmp_path, monkeypatch,
                                                      blocker):
    cassette = _recorded(tmp_path, ["alpha"])
    if blocker == "directory":
        index_path(cassette).mkdir()
    else:
        def failing_replace(src, dst):
            raise PermissionError(f"read-only: {dst}")
        monkeypatch.setattr(gateway.os, "replace", failing_replace)
    assert list(load_cassette(cassette)) == [digest(_req("alpha"))]
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["c.jsonl"] + (["c.jsonl.idx"] if blocker == "directory" else [])


@pytest.mark.parametrize("span", [
    lambda line: (5, len(line) - 5),                   # mid-line
    lambda line: (line.index(b"0.0"), 3)],             # a number
    ids=["mid-line", "not-an-object"])
def test_a_served_span_that_is_no_entry_is_a_config_error(tmp_path, span):
    cassette = _recorded(tmp_path, ["alpha"])
    load_cassette(cassette)
    header, digests, offsets, lengths = _read_index(cassette)
    offsets[0], lengths[0] = span(cassette.read_bytes())
    _write_index(cassette, header, digests, offsets, lengths)
    assert not load_cassette(cassette)._lines    # its SHA-256 still fits
    with pytest.raises(ConfigError, match="does not match its digest"):
        ReplayGateway(cassette).complete(_req("alpha"))


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(role_tag="narrator", user="x")


def test_temperature_defaults_to_zero():
    sent = json.loads(canonical_serialization(_req()))
    assert (sent["temperature"], sent["max_tokens"]) == (0.0, 2048)


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
    data = cassette.read_bytes()
    assert len(data.splitlines()) == len(words)
    assert len(load_cassette(cassette)) == len(words)
    assert recorder.cassette.sha256.hexdigest() == \
        hashlib.sha256(data).hexdigest()


def test_two_record_writers_on_one_cassette_index_each_other(tmp_path):
    cassette = tmp_path / "c.jsonl"
    a_inner, b_inner = _CountingEcho(), _CountingEcho()
    a = RecordGateway(a_inner, cassette)
    b = RecordGateway(b_inner, cassette)
    assert a.complete(_req("q1")) == "echo: q1"
    assert b.complete(_req("q2")) == "echo: q2"
    assert a.complete(_req("q3")) == "echo: q3"
    # b has not read a's line for q3, so it pays for q3; its append finds
    # a's line, answers from it and writes nothing.
    assert b.complete(_req("q3")) == "echo: q3"
    assert a_inner.calls == ["q1", "q3"] and b_inner.calls == ["q2", "q3"]
    data = cassette.read_bytes()
    assert [json.loads(line)["request"]["user"]
            for line in data.splitlines()] == ["q1", "q2", "q3"]
    for recorder in (a, b):
        assert len(recorder.cassette) == 3
        assert recorder.cassette.sha256.hexdigest() == \
            hashlib.sha256(data).hexdigest()
    assert ReplayGateway(cassette).complete(_req("q2")) == "echo: q2"


def test_a_torn_line_another_writer_left_is_a_config_error(tmp_path):
    cassette = tmp_path / "c.jsonl"
    recorder = RecordGateway(_CountingEcho(), cassette)
    recorder.complete(_req("q1"))
    with open(cassette, "ab") as fh:
        fh.write(b'{"version": "v1", "dig')
    with pytest.raises(ConfigError, match=f"{cassette} line 2: "
                                          "not a cassette entry"):
        recorder.complete(_req("q2"))


def test_replay_rejects_tampered_cassette(tmp_path):
    cassette = tmp_path / "c.jsonl"
    mock = MockGateway(responders={"reasoner": lambda r: "ok"})
    RecordGateway(mock, cassette).complete(_req("alpha"))
    text = cassette.read_text().replace('"user": "alpha"', '"user": "beta"')
    cassette.write_text(text)
    replay = ReplayGateway(cassette)     # checked when served, not on load
    with pytest.raises(ConfigError, match="does not match"):
        replay.complete(_req("alpha"))
    with pytest.raises(CassetteMiss):
        replay.complete(_req("beta"))


@pytest.mark.parametrize("field, value", [("version", "v0"),
                                          ("response_text", None)])
def test_replay_rejects_a_served_entry_of_another_shape(tmp_path, field,
                                                        value):
    cassette = tmp_path / "c.jsonl"
    RecordGateway(MockGateway(responders={"reasoner": lambda r: "ok"}),
                  cassette).complete(_req("alpha"))
    entry = json.loads(cassette.read_text())
    entry[field] = value
    cassette.write_text(json.dumps(entry) + "\n")
    with pytest.raises(ConfigError):
        ReplayGateway(cassette).complete(_req("alpha"))


def test_record_appends_after_a_last_line_without_newline(tmp_path):
    cassette = tmp_path / "c.jsonl"
    RecordGateway(_CountingEcho(), cassette).complete(_req("alpha"))
    cassette.write_bytes(cassette.read_bytes().rstrip(b"\n"))
    recorder = RecordGateway(_CountingEcho(), cassette)
    assert recorder.complete(_req("beta")) == "echo: beta"
    assert recorder.complete(_req("alpha")) == "echo: alpha"
    data = cassette.read_bytes()
    assert len(data.splitlines()) == len(load_cassette(cassette)) == 2
    assert recorder.cassette.sha256.hexdigest() == \
        hashlib.sha256(data).hexdigest()


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


@pytest.fixture
def sleeps(monkeypatch):
    """The seconds each backoff sleep of a LiveGateway asked for, recorded
    instead of slept."""
    slept = []
    monkeypatch.setattr(gateway.time, "sleep", slept.append)
    return slept


@pytest.fixture
def live_server(chat_server, sleeps):
    """``serve(respond)`` returns a LiveGateway on a ``chat_server`` that
    answers with ``respond``, and the list of requests that server saw.
    Backoff sleeps are recorded in ``sleeps``, not slept."""
    from pseudoexec.gateway import LiveGateway

    def serve(respond):
        endpoint, seen = chat_server(respond)
        return LiveGateway(endpoint, "PSEUDOEXEC_TEST_KEY"), seen

    return serve


def _answer(content: str) -> bytes:
    return json.dumps(
        {"choices": [{"message": {"content": content}}]}).encode()


MALFORMED_BODIES = [b"<html>not json</html>", b"{}", b'{"choices": []}',
                    b'{"choices": [{"message": {"content": null}}]}',
                    _answer("a lone surrogate: \ud800")]


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_live_malformed_body_is_transport_error(live_server, body):
    from pseudoexec.errors import TransportError

    live, _ = live_server(lambda request: (200, body))
    with pytest.raises(TransportError, match="malformed response body"):
        live.complete(_req())


def test_live_malformed_body_does_not_abort_run(live_server):
    import json

    from pseudoexec.baselines import MethodId
    from pseudoexec.evaluator import evaluate_run
    from pseudoexec.tasks import TaskId
    from pseudoexec.tasks.generate import generate_instance

    good, bad = (generate_instance(TaskId.NAVIGATE, seed, 3)
                 for seed in (1, 2))

    def respond(request):
        if bad.input_text in request["messages"][-1]["content"]:
            return 200, b'{"choices": []}'
        return 200, _answer(f"Final answer: {good.target}")

    predictions = {}
    report = evaluate_run(
        MethodId.DIRECT, [good, bad], live_server(respond)[0],
        on_prediction=lambda i, inst, pred, ok: predictions.update({i: pred}))
    assert report.per_task[TaskId.NAVIGATE].total == 2
    assert report.per_task[TaskId.NAVIGATE].correct == 1
    assert predictions[0].final_answer == good.target
    assert predictions[1].failure.startswith("gateway_error: ")


def test_live_content_that_is_not_unicode_is_never_recorded(live_server,
                                                            tmp_path):
    from pseudoexec.baselines import MethodId
    from pseudoexec.evaluator import evaluate_run
    from pseudoexec.tasks import TaskId
    from pseudoexec.tasks.generate import generate_instance

    instance = generate_instance(TaskId.NAVIGATE, 1, 3)
    live, _ = live_server(lambda request: (
        200, _answer(f"Final answer: {instance.target}\ud800")))
    cassette = tmp_path / "c.jsonl"
    predictions = {}
    evaluate_run(
        MethodId.DIRECT, [instance], RecordGateway(live, cassette),
        on_prediction=lambda i, inst, pred, ok: predictions.update({i: pred}))
    assert predictions[0].failure == ("gateway_error: malformed response "
                                      "body: content is not Unicode text")
    assert not cassette.exists()


def test_live_sends_key_and_json_body(live_server):
    live, seen = live_server(lambda request: (200, _answer("ok")))
    request = _req("question", system="be brief", model_id="m-1")
    assert live.complete(request) == "ok"
    [(headers, body)] = seen
    assert headers["Authorization"] == "Bearer not-a-real-key"
    assert headers["Content-Type"] == "application/json"
    assert body == {"model": "m-1",
                    "messages": [{"role": "system", "content": "be brief"},
                                 {"role": "user", "content": "question"}],
                    "temperature": 0.0, "max_tokens": 2048}


def test_live_retries_a_429_then_answers(live_server, sleeps):
    statuses = iter([429, 200])
    live, seen = live_server(
        lambda request: (next(statuses), _answer("after retry")))
    assert live.complete(_req()) == "after retry"
    assert len(seen) == 2
    assert sleeps == [1]


def test_live_5xx_on_every_attempt_is_transport_error(live_server, sleeps):
    from pseudoexec.errors import RateLimited, TransportError

    live, seen = live_server(lambda request: (503, b"busy"))
    with pytest.raises(TransportError, match="server error 503") as caught:
        live.complete(_req())
    assert not isinstance(caught.value, RateLimited)
    assert len(seen) == 5
    assert sleeps == [1, 2, 4, 8]


def test_live_4xx_is_transport_error_with_the_body_head(live_server, sleeps):
    from pseudoexec.errors import TransportError

    payload = b"no such model: " + b"x" * 300
    live, seen = live_server(lambda request: (404, payload))
    with pytest.raises(TransportError) as caught:
        live.complete(_req())
    assert str(caught.value) == f"HTTP 404: {payload[:200].decode()}"
    assert len(seen) == 1
    assert sleeps == []


def test_live_cut_short_body_is_a_recorded_gateway_error(live_server):
    from pseudoexec.baselines import MethodId
    from pseudoexec.errors import TransportError
    from pseudoexec.evaluator import evaluate_run
    from pseudoexec.tasks import TaskId
    from pseudoexec.tasks.generate import generate_instance

    live, _ = live_server(lambda request: (200, b'{"choices"', 100))
    with pytest.raises(TransportError):
        live.complete(_req())
    predictions = {}
    evaluate_run(
        MethodId.DIRECT, [generate_instance(TaskId.NAVIGATE, 1, 3)], live,
        on_prediction=lambda i, inst, pred, ok: predictions.update({i: pred}))
    assert predictions[0].failure.startswith("gateway_error: ")


def _refused_endpoint() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1/chat/completions"


# A refused connection may clear, so it is retried; a URL that cannot be
# opened never will.
@pytest.mark.parametrize("endpoint, backoff", [
    (_refused_endpoint, [1, 2, 4, 8]),
    (lambda: "127.0.0.1/no-scheme", []),                 # ValueError
    (lambda: "http://127.0.0.1:port/v1/chat", []),       # InvalidURL
], ids=["refused", "malformed_url", "invalid_port"])
def test_live_unreachable_endpoint_is_transport_error(monkeypatch, sleeps,
                                                      endpoint, backoff):
    from pseudoexec.errors import TransportError
    from pseudoexec.gateway import LiveGateway

    monkeypatch.setenv("TEST_CRED", "not-a-real-key")
    live = LiveGateway(endpoint(), "TEST_CRED")
    with pytest.raises(TransportError):
        live.complete(_req())
    assert sleeps == backoff
