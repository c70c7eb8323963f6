"""Run configuration: JSON file with a flat schema, flag overrides, and the
fields a content-derived run id hashes."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from urllib.parse import urlsplit

from .baselines import DEFAULT_INTERPRETER, DEFAULT_TIMEOUT_MS, MethodId
from .errors import ConfigError, is_unicode
from .prompts import PSEUDOCODE_SOURCES
from .tasks import TaskId

MODES = ("live", "record", "replay", "mock")

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
DEFAULT_CREDENTIAL_ENV = "PSEUDOEXEC_API_KEY"
# One worker thread per concurrent instance; more only queue at the model.
MAX_PARALLEL_CEILING = 32
# The JSON value types each field annotation accepts; bool is not an int.
_JSON_TYPES = {"str": (str,), "str | None": (str, type(None)), "int": (int,),
               "list[str]": (list,)}


@dataclass
class RunConfig:
    dataset_dir: str = "."
    runs_dir: str = "runs"
    mode: str = "mock"
    cassette_path: str | None = None
    endpoint: str = DEFAULT_ENDPOINT
    credential_env: str = DEFAULT_CREDENTIAL_ENV
    instructor_model: str = "mock-model"
    reasoner_model: str = "mock-model"
    method: str = MethodId.THINK_AND_EXECUTE.value
    tasks: list[str] = field(
        default_factory=lambda: [t.value for t in TaskId])
    seed: int = 0
    max_parallel: int = 1
    pseudocode_source: str = "human"
    interpreter_command: list[str] = field(
        default_factory=lambda: list(DEFAULT_INTERPRETER))
    sandbox_timeout_ms: int = DEFAULT_TIMEOUT_MS

    def method_id(self) -> MethodId:
        try:
            return MethodId(self.method)
        except ValueError:
            raise ConfigError(f"unknown method {self.method!r}") from None

    def task_ids(self) -> list[TaskId]:
        try:
            return [TaskId(t) for t in self.tasks]
        except ValueError as exc:
            raise ConfigError(f"unknown task in config: {exc}") from None

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if not 1 <= self.max_parallel <= MAX_PARALLEL_CEILING:
            raise ConfigError(
                f"max_parallel must be between 1 and {MAX_PARALLEL_CEILING}")
        if not self.interpreter_command:
            raise ConfigError("interpreter_command must be non-empty")
        if self.pseudocode_source not in PSEUDOCODE_SOURCES:
            raise ConfigError(
                f"pseudocode_source must be one of {PSEUDOCODE_SOURCES}")
        if self.sandbox_timeout_ms <= 0:
            raise ConfigError("sandbox_timeout_ms must be positive")
        try:
            url = urlsplit(self.endpoint)
        except ValueError:          # e.g. an unclosed "[" in the host
            url = urlsplit("")
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError("endpoint must be an http or https URL with a "
                              f"host, not {self.endpoint!r}")
        if not self.tasks:
            raise ConfigError("tasks must be non-empty")
        if len(set(self.tasks)) < len(self.tasks):
            raise ConfigError("tasks must not list a task twice")
        self.method_id()
        self.task_ids()
        return self


def load_config(path: str | Path | None,
                overrides: dict | None = None) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file {path!r} not found") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for spec in fields(RunConfig):
        value = data.get(spec.name)
        if spec.name in data and (
                type(value) not in _JSON_TYPES[spec.type]
                or (type(value) is list
                    and not all(type(item) is str for item in value))):
            raise ConfigError(f"{spec.name} must be a JSON {spec.type}, "
                              f"not {type(value).__name__}")
        texts = value if type(value) is list else [value]
        if not all(is_unicode(t) for t in texts if type(t) is str):
            raise ConfigError(f"{spec.name} must be valid Unicode text "
                              "(a lone surrogate is not)")
    return RunConfig(**data).validate()


def run_id_fields(config: RunConfig, cassette_digest: str | None) -> dict:
    """What a run's id hashes: each config field the run's method and mode
    read; a field not named below stays in, so a new field splits runs.  A
    replay hashes its cassette's content; a record run hashes the path of
    the cassette it grows, so a resumed run lands in the same directory.
    The oracle opens no gateway, so it reads no gateway setting."""
    method = config.method_id()
    mode = config.mode if method is not MethodId.ORACLE else None
    pot = method is MethodId.ZERO_SHOT_POT
    model_call = mode in ("record", "live")
    read = {
        # Only Think reads these two.
        "seed": False, "instructor_model": False,
        # Parallelism and paths; the dataset's content is hashed instead.
        "max_parallel": False, "runs_dir": False, "dataset_dir": False,
        "mode": mode is not None,
        "pseudocode_source": method is MethodId.THINK_AND_EXECUTE,
        "interpreter_command": pot, "sandbox_timeout_ms": pot,
        "endpoint": model_call,
        # The sandbox scrubs the credential from its environment.
        "credential_env": model_call or pot,
        "cassette_path": mode == "record"}
    fields = {name: value for name, value in asdict(config).items()
              if read.get(name, True)}
    if mode == "replay":
        fields["cassette_digest"] = cassette_digest
    return fields


def run_id(fields: dict, dataset_digest: str) -> str:
    """Content-derived run id: reruns that read the same settings and data
    collide on purpose, at any parallelism and from any dataset path."""
    blob = (json.dumps(fields, sort_keys=True, ensure_ascii=False) + "\n"
            + dataset_digest)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
