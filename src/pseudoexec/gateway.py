"""Chat-completion gateway with live, record, replay, and mock backends.

Requests are content-addressed: a canonical serialization of the request is
hashed, and cassettes map digests to recorded responses.  Replay mode reads
only from a cassette file and never opens a socket, which is what makes the
whole pipeline testable offline.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .errors import CassetteMiss, ConfigError, RateLimited, TransportError

CANONICAL_VERSION = "v1"
DEFAULT_MAX_TOKENS = 2048


@dataclass(frozen=True)
class ChatRequest:
    role_tag: str                  # "instructor" or "reasoner"
    user: str
    system: str | None = None
    model_id: str = "mock-model"
    temperature: float = 0.0
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        if self.role_tag not in ("instructor", "reasoner"):
            raise ValueError(f"unknown role_tag {self.role_tag!r}")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")


def _request_fields(request: ChatRequest) -> dict:
    # Shared by the digest and the cassette line; the order is part of
    # every recorded digest.
    return {
        "role_tag": request.role_tag,
        "system": request.system,       # None vs "" survive JSON encoding
        "user": request.user,
        "model_id": request.model_id,
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
    }


def canonical_serialization(request: ChatRequest) -> str:
    """Fixed-field-order serialization; distinguishes absent from empty
    system text and preserves user text byte-for-byte."""
    payload = {"version": CANONICAL_VERSION, **_request_fields(request)}
    return json.dumps(payload, sort_keys=False, ensure_ascii=False)


def digest(request: ChatRequest) -> str:
    return hashlib.sha256(
        canonical_serialization(request).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CassetteEntry:
    digest: str
    request: ChatRequest
    response_text: str
    recorded_at: str
    backend_label: str


def _entry_to_json(entry: CassetteEntry) -> str:
    return json.dumps({
        "version": CANONICAL_VERSION,
        "digest": entry.digest,
        "request": _request_fields(entry.request),
        "response_text": entry.response_text,
        "recorded_at": entry.recorded_at,
        "backend_label": entry.backend_label,
    }, ensure_ascii=False)


def _entry_from_json(line: str) -> CassetteEntry:
    obj = json.loads(line)
    req = ChatRequest(**obj["request"])
    entry = CassetteEntry(
        digest=obj["digest"],
        request=req,
        response_text=obj["response_text"],
        recorded_at=obj["recorded_at"],
        backend_label=obj["backend_label"],
    )
    if digest(req) != entry.digest:
        raise ConfigError(
            f"cassette entry digest mismatch for {entry.digest[:12]}")
    return entry


def load_cassette(path: Path) -> dict[str, CassetteEntry]:
    index: dict[str, CassetteEntry] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entry = _entry_from_json(line)
                index[entry.digest] = entry
    return index


class Gateway:
    """Base interface: subclasses implement complete()."""

    label = "gateway"

    def complete(self, request: ChatRequest) -> str:
        raise NotImplementedError


class MockGateway(Gateway):
    """Fixture-table backend.  Fixtures are keyed by request digest, with an
    optional fallback responder function per role_tag."""

    label = "mock"

    def __init__(self,
                 fixtures: dict[str, str] | None = None,
                 responders: dict[str, Callable[[ChatRequest], str]] | None = None):
        self._fixtures = dict(fixtures or {})
        self._responders = dict(responders or {})

    def complete(self, request: ChatRequest) -> str:
        key = digest(request)
        if key in self._fixtures:
            return self._fixtures[key]
        responder = self._responders.get(request.role_tag)
        if responder is None:
            raise CassetteMiss(
                f"no mock fixture or responder for {request.role_tag} "
                f"request {key[:12]}")
        return responder(request)


class ReplayGateway(Gateway):
    """Cassette-only backend; performs no network access by construction."""

    label = "replay"

    def __init__(self, cassette_path: Path):
        self._index = load_cassette(Path(cassette_path))

    def complete(self, request: ChatRequest) -> str:
        key = digest(request)
        entry = self._index.get(key)
        if entry is None:
            raise CassetteMiss(f"request {key[:12]} not in cassette")
        return entry.response_text


class RecordGateway(Gateway):
    """Read-through cassette over another backend: a digest already in the
    cassette is answered from it, and only a miss reaches the inner backend
    and is appended.  Appends are serialized through a lock so the file
    stays line-consistent; under concurrent calls they land in completion
    order."""

    label = "record"

    def __init__(self, inner: Gateway, cassette_path: Path):
        self._inner = inner
        self._path = Path(cassette_path)
        self._lock = threading.Lock()
        self._responses: dict[str, str] = {}
        if self._path.exists():
            self._responses = {key: entry.response_text for key, entry
                               in load_cassette(self._path).items()}

    def complete(self, request: ChatRequest) -> str:
        key = digest(request)
        recorded = self._responses.get(key)
        if recorded is not None:
            return recorded
        response = self._inner.complete(request)
        entry = CassetteEntry(
            digest=key,
            request=request,
            response_text=response,
            recorded_at=datetime.now(timezone.utc).isoformat(),
            backend_label=self._inner.label,
        )
        with self._lock:
            # Two concurrent misses on one digest both pay; the first to
            # land is recorded and answers both, as a replay would.
            recorded = self._responses.get(key)
            if recorded is None:
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(_entry_to_json(entry) + "\n")
                recorded = self._responses[key] = response
        return recorded


class LiveGateway(Gateway):
    """OpenAI-style chat-completions HTTP backend.  The API key is read from
    the environment variable named in config — never from a file."""

    label = "live"

    def __init__(self, endpoint: str, credential_env: str,
                 max_attempts: int = 5, backoff_base_s: float = 1.0):
        self._endpoint = endpoint
        self._credential_env = credential_env
        self._max_attempts = max_attempts
        self._backoff_base_s = backoff_base_s

    def complete(self, request: ChatRequest) -> str:
        import requests

        api_key = os.environ.get(self._credential_env)
        if not api_key:
            raise ConfigError(
                f"credential env var {self._credential_env!r} not set")
        messages = []
        if request.system is not None:
            messages.append({"role": "system", "content": request.system})
        messages.append({"role": "user", "content": request.user})
        body = {
            "model": request.model_id,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        last_error: Exception | None = None
        for attempt in range(self._max_attempts):
            if attempt:
                time.sleep(min(self._backoff_base_s * 2 ** (attempt - 1), 30))
            try:
                resp = requests.post(
                    self._endpoint,
                    json=body,
                    headers={"Authorization": f"Bearer {api_key}"},
                    timeout=120,
                )
            except requests.RequestException as exc:
                last_error = TransportError(str(exc))
                continue
            if resp.status_code == 429:
                last_error = RateLimited(f"429 after attempt {attempt + 1}")
                continue
            if resp.status_code >= 500:
                last_error = TransportError(f"server error {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise TransportError(
                    f"HTTP {resp.status_code}: {resp.text[:200]}")
            # A 200 with a body of another shape is recorded against the
            # instance, like any transport failure; it must not abort the run.
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise TransportError(
                    f"malformed response body: {exc!r}") from exc
            if not isinstance(content, str):
                raise TransportError(
                    "malformed response body: content is not text")
            return content
        raise last_error if last_error else TransportError("no attempts made")

