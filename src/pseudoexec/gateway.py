"""Chat-completion gateway with live, record, replay, and mock backends.

Requests are content-addressed: a canonical serialization of the request is
hashed, and cassettes map digests to recorded responses.  Replay mode reads
only from a cassette file and never opens a socket, which is what makes the
whole pipeline testable offline.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .errors import (CassetteMiss, ConfigError, GatewayError, RateLimited,
                     TransportError, is_unicode)

CANONICAL_VERSION = "v1"
# Every request is sent, and hashed, with these two settings.
TEMPERATURE = 0.0
MAX_TOKENS = 2048
# A live call is tried 5 times, sleeping 1, 2, 4 and 8 s between tries.
MAX_ATTEMPTS = 5
BACKOFF_BASE_S = 1.0


@dataclass(frozen=True)
class ChatRequest:
    role_tag: str                  # "instructor" or "reasoner"
    user: str
    system: str | None = None
    model_id: str = "mock-model"

    def __post_init__(self) -> None:
        if self.role_tag not in ("instructor", "reasoner"):
            raise ValueError(f"unknown role_tag {self.role_tag!r}")


def _request_fields(request: ChatRequest) -> dict:
    # Shared by the digest and the cassette line; the order is part of
    # every recorded digest.
    return {
        "role_tag": request.role_tag,
        "system": request.system,       # None vs "" survive JSON encoding
        "user": request.user,
        "model_id": request.model_id,
        "temperature": TEMPERATURE,
        "max_tokens": MAX_TOKENS,
    }


def canonical_serialization(request: ChatRequest) -> str:
    """Fixed-field-order serialization; distinguishes absent from empty
    system text and preserves user text byte-for-byte."""
    payload = {"version": CANONICAL_VERSION, **_request_fields(request)}
    return json.dumps(payload, sort_keys=False, ensure_ascii=False)


def digest(request: ChatRequest) -> str:
    return hashlib.sha256(
        canonical_serialization(request).encode("utf-8")).hexdigest()


def _entry_line(key: str, request: ChatRequest, response_text: str,
                recorded_at: str, backend_label: str) -> str:
    return json.dumps({
        "version": CANONICAL_VERSION,
        "digest": key,
        "request": _request_fields(request),
        "response_text": response_text,
        "recorded_at": recorded_at,
        "backend_label": backend_label,
    }, ensure_ascii=False)


class Cassette(dict):
    """A cassette file's lines as ``{digest: (offset, length)}`` byte spans,
    plus the SHA-256 of every byte loaded or appended.  A line is parsed
    again only when it is served, and is checked then against the request
    it answers."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = Path(path)
        self.sha256 = hashlib.sha256()
        self._size = 0
        self._newline_due = False       # the file's last line has no "\n"

    def response(self, key: str, request: ChatRequest) -> str:
        """The recorded response for ``request``, whose digest is ``key``.
        Its line must hold exactly the request's fields; with the lookup by
        digest that proves the line's digest, without hashing it again."""
        offset, length = self[key]
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            line = fh.read(length)
        try:
            entry = json.loads(line)
        except ValueError:     # a span that is not one whole line
            entry = None
        if not isinstance(entry, dict):
            entry = {}         # fails the check below
        response = entry.get("response_text")
        if (entry.get("version") != CANONICAL_VERSION
                or entry.get("request") != _request_fields(request)
                or not isinstance(response, str) or not is_unicode(response)):
            raise ConfigError(f"{self.path}: cassette entry {key[:12]} is "
                              "malformed or does not match its digest")
        return response

    def append(self, key: str, line: str) -> None:
        """Write one entry line at the end of the file and index it."""
        prefix = b"\n" if self._newline_due else b""   # never fuse two lines
        data = line.encode("utf-8") + b"\n"
        with open(self.path, "ab") as fh:
            fh.write(prefix + data)
        self.sha256.update(prefix + data)
        self._size += len(prefix)
        self[key] = (self._size, len(data))
        self._size += len(data)
        self._newline_due = False


# The sidecar index: written beside a cassette after a full parse, and
# trusted only for the exact bytes that parse read.
INDEX_FORMAT = "pseudoexec-cassette-index/1"
_HASH_CHUNK = 1 << 20


def index_path(path: Path) -> Path:
    return path.with_name(path.name + ".idx")


def load_cassette(path: Path) -> Cassette:
    """Index a cassette file.  When its sidecar index matches the file's
    SHA-256 and size, the entries come from the index; otherwise every byte
    goes into the running SHA-256 and every line is parsed once, for its
    digest, and the index is written afresh."""
    cassette = Cassette(path)
    if _load_index(cassette):
        return cassette
    line = b"\n"
    with open(cassette.path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            cassette.sha256.update(line)
            if line.strip():
                try:
                    key = json.loads(line)["digest"]
                    cassette[key] = (cassette._size, len(line))
                except (ValueError, LookupError, TypeError) as exc:
                    raise ConfigError(f"{cassette.path} line {number}: "
                                      f"not a cassette entry: {exc}") from None
            cassette._size += len(line)
    cassette._newline_due = not line.endswith(b"\n")
    _write_index(cassette)
    return cassette


def _load_index(cassette: Cassette) -> bool:
    """Fill ``cassette`` from its sidecar index if the index was written
    for the bytes the file holds now; False leaves it untouched."""
    try:
        index = json.loads(index_path(cassette.path).read_bytes())
    except (OSError, ValueError):           # absent, unreadable or garbled
        return False
    sha256, size, last = hashlib.sha256(), 0, b"\n"
    with open(cassette.path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            sha256.update(chunk)
            size += len(chunk)
            last = chunk[-1:]
    try:
        if (index["format"], index["sha256"], index["size"]) != \
                (INDEX_FORMAT, sha256.hexdigest(), size):
            return False
        entries = {}
        for key, offset, length in index["entries"]:
            if not (type(offset) is type(length) is int
                    and 0 <= offset <= offset + length <= size):
                return False
            entries[key] = (offset, length)
    except (LookupError, TypeError, ValueError):    # another shape
        return False
    cassette.update(entries)
    cassette.sha256, cassette._size = sha256, size
    cassette._newline_due = last != b"\n"
    return True


def _write_index(cassette: Cassette) -> None:
    """Write the sidecar index of the bytes just parsed, atomically.  A
    location that cannot be written only means no index."""
    data = json.dumps({
        "format": INDEX_FORMAT,
        "sha256": cassette.sha256.hexdigest(),
        "size": cassette._size,
        "entries": [[key, offset, length]
                    for key, (offset, length) in cassette.items()],
    }, separators=(",", ":")).encode()
    with contextlib.suppress(OSError):
        write_atomic(index_path(cassette.path), data)


def write_atomic(path: Path, data: bytes) -> None:
    """Leave ``data`` in ``path`` whole or not at all: it is written to a
    temporary file beside ``path`` and renamed over it.  A failed write
    removes the temporary file and raises."""
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            temp.unlink()
        raise


class Gateway:
    """Base interface: subclasses implement complete()."""

    label = "gateway"
    cassette: Cassette | None = None     # what replay and record serve from

    def complete(self, request: ChatRequest) -> str:
        raise NotImplementedError


class MockGateway(Gateway):
    """Fixture-table backend.  Fixtures are keyed by request digest, with an
    optional fallback responder function per role_tag.  An answer that is
    not valid Unicode is a gateway error, as from a live endpoint."""

    label = "mock"

    def __init__(self,
                 fixtures: dict[str, str] | None = None,
                 responders: dict[str, Callable[[ChatRequest], str]] | None = None):
        self._fixtures = dict(fixtures or {})
        self._responders = dict(responders or {})

    def complete(self, request: ChatRequest) -> str:
        text = self._fixtures.get(digest(request)) if self._fixtures else None
        if text is None:
            responder = self._responders.get(request.role_tag)
            if responder is None:
                raise CassetteMiss(
                    f"no mock fixture or responder for {request.role_tag} "
                    f"request {digest(request)[:12]}")
            text = responder(request)
        if not is_unicode(text):
            raise GatewayError("mock response is not Unicode text")
        return text


class ReplayGateway(Gateway):
    """Cassette-only backend; performs no network access by construction."""

    label = "replay"

    def __init__(self, cassette_path: Path):
        self.cassette = load_cassette(Path(cassette_path))

    def complete(self, request: ChatRequest) -> str:
        key = digest(request)
        if key not in self.cassette:
            raise CassetteMiss(f"request {key[:12]} not in cassette")
        return self.cassette.response(key, request)


class RecordGateway(Gateway):
    """Read-through cassette over another backend: a digest already in the
    cassette is answered from it, and only a miss reaches the inner backend
    and is appended.  Appends are serialized through a lock so the file
    stays line-consistent; under concurrent calls they land in completion
    order."""

    label = "record"

    def __init__(self, inner: Gateway, cassette_path: Path):
        self._inner = inner
        path = Path(cassette_path)
        self.cassette = load_cassette(path) if path.exists() \
            else Cassette(path)
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> str:
        key = digest(request)
        if key not in self.cassette:
            line = _entry_line(key, request, self._inner.complete(request),
                               datetime.now(timezone.utc).isoformat(),
                               self._inner.label)
            with self._lock:
                # Two concurrent misses on one digest both pay; the first to
                # land is recorded and answers both, as a replay would.
                if key not in self.cassette:
                    self.cassette.append(key, line)
        return self.cassette.response(key, request)


class LiveGateway(Gateway):
    """OpenAI-style chat-completions HTTP backend.  The API key is read from
    the environment variable named in config — never from a file."""

    label = "live"

    def __init__(self, endpoint: str, credential_env: str):
        self._endpoint = endpoint
        self._credential_env = credential_env

    def complete(self, request: ChatRequest) -> str:
        from http.client import HTTPException
        from urllib.request import HTTPError, Request, urlopen

        api_key = os.environ.get(self._credential_env)
        if not api_key:
            raise ConfigError(
                f"credential env var {self._credential_env!r} not set")
        messages = []
        if request.system is not None:
            messages.append({"role": "system", "content": request.system})
        messages.append({"role": "user", "content": request.user})
        data = json.dumps({
            "model": request.model_id,
            "messages": messages,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }).encode()
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
            # One connection per call: urllib sends ``Connection: close``.
            # The key is not carried over to a redirect's target.
            try:
                post = Request(self._endpoint, data,
                               {"Content-Type": "application/json"})
                post.add_unredirected_header("Authorization",
                                             f"Bearer {api_key}")
                try:
                    resp = urlopen(post, timeout=120)
                except HTTPError as exc:     # a non-2xx reply
                    resp = exc
                with resp:
                    status, text = resp.status, resp.read()
            except (OSError, HTTPException, ValueError) as exc:
                last_error = TransportError(str(exc))
                continue
            if status == 429:
                last_error = RateLimited(f"429 after attempt {attempt + 1}")
                continue
            if status >= 500:
                last_error = TransportError(f"server error {status}")
                continue
            if status != 200:
                raise TransportError(
                    f"HTTP {status}: {text.decode(errors='replace')[:200]}")
            # A 200 with a body of another shape is recorded against the
            # instance, like any transport failure; it must not abort the run.
            try:
                content = json.loads(text)["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise TransportError(
                    f"malformed response body: {exc!r}") from exc
            if not isinstance(content, str) or not is_unicode(content):
                raise TransportError(
                    "malformed response body: content is not Unicode text")
            return content
        raise last_error

