"""Chat-completion gateway with live, record, replay, and mock backends.

Requests are content-addressed: a canonical serialization of the request is
hashed, and cassettes map digests to recorded responses.  Replay mode reads
only from a cassette file and never opens a socket, which is what makes the
whole pipeline testable offline.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import operator
import os
import struct
import sys
import threading
import time
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
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


class Cassette(Mapping):
    """A cassette file's lines as ``{digest: (offset, length)}`` byte spans,
    plus the SHA-256 of every byte indexed: loaded, appended by another
    writer or appended.  An index hit leaves its spans in the index's table,
    searched in place; lines parsed in full or appended go in a dict beside
    it, which wins for a digest both hold.  A line is parsed again only
    when it is served, and is checked then against the request it
    answers."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.sha256 = hashlib.sha256()
        self._size = 0
        self._newline_due = False       # the file's last line has no "\n"
        self._lock = threading.Lock()   # flock alone may not order threads
        self._lines: dict[str, tuple[int, int]] = {}
        # The table: ``_rows`` digests of 32 bytes in increasing order lead
        # ``_table``; their spans are the columns beside it.
        self._rows = 0
        self._table = memoryview(b"")
        self._offsets = self._lengths = ()

    def _digest(self, row: int) -> bytes:
        return self._table[32 * row:32 * row + 32].tobytes()

    def _row(self, key) -> int | None:
        """The table row of the hex digest ``key``, if it has one."""
        try:
            raw = bytes.fromhex(key)
        except (TypeError, ValueError):
            return None
        row = bisect_left(range(self._rows), raw, key=self._digest)
        if row < self._rows and self._digest(row) == raw \
                and raw.hex() == key:   # not upper case, not spaced
            return row
        return None

    def __getitem__(self, key) -> tuple[int, int]:
        span = self._lines.get(key)
        if span is None:
            row = self._row(key)
            if row is None:
                raise KeyError(key)
            span = self._offsets[row], self._lengths[row]
        return span

    def _added(self) -> list[str]:
        """The dict's digests that the table does not hold."""
        return [key for key in self._lines if self._row(key) is None]

    def __len__(self) -> int:
        return self._rows + len(self._added())

    def __iter__(self):
        yield from map(bytes.hex, map(self._digest, range(self._rows)))
        yield from self._added()

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
        """Write one entry line at the end of the file and index it.  Under
        an exclusive lock on the file, the lines other writers appended
        since this cassette last read it are indexed first; if one of them
        answers ``key``, nothing is written."""
        with self._lock, open(self.path, "ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)    # released when fh closes
            fh.seek(self._size)
            _index_lines(self, fh)
            if key in self:
                return
            prefix = b"\n" if self._newline_due else b""   # never fuse lines
            data = line.encode("utf-8") + b"\n"
            fh.write(prefix + data)
            self.sha256.update(prefix + data)
            self._size += len(prefix)
            self._lines[key] = (self._size, len(data))
            self._size += len(data)
            self._newline_due = False


# The sidecar index: written beside a cassette after a full parse, and
# trusted only for the exact bytes that parse read.  A JSON header line,
# then the table: the digests, 32 bytes each in increasing order, then the
# offsets and the lengths as columns of unsigned 64-bit integers in the
# header's byte order.
INDEX_FORMAT = "pseudoexec-cassette-index/2"


def index_path(path: Path) -> Path:
    return path.with_name(path.name + ".idx")


def load_cassette(path: Path) -> Cassette:
    """Index a cassette file.  When its sidecar index matches the file's
    SHA-256 and size, the spans are the index's table; otherwise every byte
    goes into the running SHA-256 and every line is parsed once, for its
    digest, and the index is written afresh."""
    cassette = Cassette(path)
    if _load_index(cassette):
        return cassette
    with open(cassette.path, "rb") as fh:
        _index_lines(cassette, fh)
    _write_index(cassette)
    return cassette


def _index_lines(cassette: Cassette, fh) -> None:
    """Hash and index every line from ``fh``'s position, which is the
    cassette's ``_size``, to the end of the file."""
    for line in fh:
        cassette.sha256.update(line)
        if line.strip():
            try:
                key = json.loads(line)["digest"]
                cassette._lines[key] = (cassette._size, len(line))
            except (ValueError, LookupError, TypeError) as exc:
                with open(cassette.path, "rb") as whole:
                    number = whole.read(cassette._size).count(b"\n") + 1
                raise ConfigError(f"{cassette.path} line {number}: "
                                  f"not a cassette entry: {exc}") from None
        cassette._size += len(line)
        cassette._newline_due = not line.endswith(b"\n")


def _load_index(cassette: Cassette) -> bool:
    """Give ``cassette`` its sidecar index's table if the index was written
    in this byte order for the bytes the file holds now; False leaves it
    untouched.  Each check is one C-level pass over the table, and no
    entry is kept as an object."""
    try:
        data = index_path(cassette.path).read_bytes()
        end = data.index(b"\n") + 1
        index = json.loads(data[:end])
        table = memoryview(data)[end:]      # read once, never copied
        rows = index["entries"]
        if (index["format"], index["byteorder"], type(rows)) != \
                (INDEX_FORMAT, sys.byteorder, int) or len(table) != 48 * rows:
            return False
        written = index["sha256"], index["size"]
    except (OSError, ValueError, LookupError, TypeError):
        return False            # absent, unreadable, garbled or foreign
    with open(cassette.path, "rb") as fh:
        sha256, size, newline_due = _hash_file(fh)
    if written != (sha256.hexdigest(), size):
        return False
    digests = table[:32 * rows]
    offsets = table[32 * rows:40 * rows].cast("Q")
    lengths = table[40 * rows:].cast("Q")
    increasing = map(operator.lt, struct.iter_unpack("32s", digests[:-32]),
                     struct.iter_unpack("32s", digests[32:]))
    if max(map(operator.add, offsets, lengths), default=0) > size \
            or not all(increasing):
        return False            # a span past the end, or keys out of order
    cassette._rows, cassette._table = rows, table
    cassette._offsets, cassette._lengths = offsets, lengths
    cassette.sha256, cassette._size = sha256, size
    cassette._newline_due = newline_due
    return True


def _hash_file(fh) -> tuple:
    """The SHA-256 and size of the open file ``fh``, hashed in one call over
    a map of it, and whether its last line lacks its newline."""
    if not os.fstat(fh.fileno()).st_size:
        return hashlib.sha256(), 0, False     # an empty file has no map
    import mmap     # here, so that only a cassette load pays for it
    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
        return hashlib.sha256(data), len(data), data[-1:] != b"\n"


def _write_index(cassette: Cassette) -> None:
    """Write the sidecar index of the bytes just parsed, atomically.  A
    location that cannot be written, or a digest that is not 64 lower-case
    hex digits, only means no index."""
    try:
        keys = sorted(cassette._lines)
        digests = b"".join(map(bytes.fromhex, keys))
        canonical = set(map(len, keys)) <= {64} and \
            digests.hex() == "".join(keys)
    except (TypeError, ValueError):
        canonical = False
    if not canonical:
        return
    columns = [cassette._lines[key][column] for column in (0, 1)
               for key in keys]            # the offsets, then the lengths
    header = json.dumps({
        "format": INDEX_FORMAT,
        "sha256": cassette.sha256.hexdigest(),
        "size": cassette._size,
        "entries": len(keys),
        "byteorder": sys.byteorder,
    }, separators=(",", ":")).encode()
    with contextlib.suppress(OSError):
        write_atomic(index_path(cassette.path), b"".join([
            header, b"\n", digests,
            struct.pack(f"{len(columns)}Q", *columns)]))


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
    and is appended.  Under concurrent calls the appends land in completion
    order."""

    label = "record"

    def __init__(self, inner: Gateway, cassette_path: Path):
        self._inner = inner
        path = Path(cassette_path)
        self.cassette = load_cassette(path) if path.exists() \
            else Cassette(path)

    def complete(self, request: ChatRequest) -> str:
        key = digest(request)
        if key not in self.cassette:
            # Only record mode stamps a time: other commands skip the import.
            from datetime import datetime, timezone
            line = _entry_line(key, request, self._inner.complete(request),
                               datetime.now(timezone.utc).isoformat(),
                               self._inner.label)
            # Two concurrent misses on one digest both pay; the first to
            # land is recorded and answers both, as a replay would.
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
        from http.client import HTTPException, InvalidURL
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
            except (ValueError, InvalidURL) as exc:
                # A URL that cannot be opened: no retry changes that.
                raise TransportError(str(exc)) from exc
            except (OSError, HTTPException) as exc:
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

