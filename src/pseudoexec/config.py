"""Run configuration: JSON file with a flat schema, flag overrides, and a
canonical serialization used for content-derived run ids."""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .baselines import DEFAULT_TIMEOUT_MS, MethodId
from .errors import ConfigError
from .prompts import PSEUDOCODE_SOURCES
from .tasks import TaskId

MODES = ("live", "record", "replay", "mock")

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
DEFAULT_CREDENTIAL_ENV = "PSEUDOEXEC_API_KEY"
# One worker thread per concurrent instance; more only queue at the model.
MAX_PARALLEL_CEILING = 32
# Fields that cannot change a run's results: how many instances run at once,
# where runs are written, and the dataset path, whose content the run id
# carries through the dataset digest.
_NOT_IN_RUN_ID = ("max_parallel", "runs_dir", "dataset_dir")
# The JSON value types each field annotation accepts; bool is not an int.
_JSON_TYPES = {"str": (str,), "str | None": (str, type(None)), "int": (int,),
               "float": (int, float), "list[str]": (list,)}


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
        default_factory=lambda: ["python3"])
    sandbox_timeout_ms: int = DEFAULT_TIMEOUT_MS
    mock_corrupt_fraction: float = 0.2

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
        if (self.method == MethodId.ZERO_SHOT_POT.value
                and shutil.which(self.interpreter_command[0]) is None):
            raise ConfigError(
                f"interpreter {self.interpreter_command[0]!r} not found")
        if self.pseudocode_source not in PSEUDOCODE_SOURCES:
            raise ConfigError(
                f"pseudocode_source must be one of {PSEUDOCODE_SOURCES}")
        if self.sandbox_timeout_ms <= 0:
            raise ConfigError("sandbox_timeout_ms must be positive")
        if not 0 <= self.mock_corrupt_fraction <= 1:
            raise ConfigError("mock_corrupt_fraction must be between 0 and 1")
        if not Path(self.dataset_dir).is_dir():
            raise ConfigError(f"dataset_dir {self.dataset_dir!r} not found")
        if self.mode in ("record", "replay") and not self.cassette_path:
            raise ConfigError(f"mode {self.mode!r} requires cassette_path")
        if self.mode == "replay" and not Path(self.cassette_path).is_file():
            raise ConfigError(
                f"cassette {self.cassette_path!r} not found")
        if not self.tasks:
            raise ConfigError("tasks must be non-empty")
        if len(set(self.tasks)) < len(self.tasks):
            raise ConfigError("tasks must not list a task twice")
        self.method_id()
        self.task_ids()
        return self

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)


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
    return RunConfig(**data).validate()


def run_id(config: RunConfig, dataset_digest: str,
           cassette_digest: str | None) -> str:
    """Content-derived run id: reruns of the same effective config over the
    same dataset content collide on purpose, at any parallelism and from
    any dataset path.  A replay hashes its cassette's content in place of
    its path; a record run keeps the path, because its cassette grows
    during the run and a resumed run must land in the same directory."""
    fields = {name: value for name, value in asdict(config).items()
              if name not in _NOT_IN_RUN_ID}
    if config.mode == "replay":
        del fields["cassette_path"]
        fields["cassette_digest"] = cassette_digest
    blob = (json.dumps(fields, sort_keys=True, ensure_ascii=False) + "\n"
            + dataset_digest)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
