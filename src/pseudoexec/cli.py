"""Command-line surface: think, run, report, ablate."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from .baselines import MethodId, Sandbox, task_assets
from .config import MODES, RunConfig, load_config, run_id, run_id_fields
from .errors import ConfigError, MalformedDataset, PseudoexecError
from .evaluator import EvalReport, evaluate_run, render_report
from .gateway import (Gateway, LiveGateway, RecordGateway, ReplayGateway,
                      write_atomic)
from .mock import mock_gateway
from .prompts import (PSEUDOCODE_SOURCES, ablate_prompt, load_pseudocode,
                      run_think)
from .tasks import TaskId, TaskInstance, make_instance

TASK_CHOICES = [t.value for t in TaskId]


# --- dataset files -----------------------------------------------------------

def write_dataset(instances: list[TaskInstance], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    by_task: dict[TaskId, list[TaskInstance]] = {}
    for inst in instances:
        by_task.setdefault(inst.task, []).append(inst)
    for task, items in by_task.items():
        lines = [json.dumps({"task": task.value,
                             "input_text": inst.input_text,
                             "target": inst.target},
                            ensure_ascii=False)
                 for inst in items]
        (out_dir / f"{task.value}.jsonl").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")


def _parse_json(data: bytes):
    """``data`` as JSON in strict UTF-8, the one encoding a dataset file may
    have: ``json.loads`` would take UTF-16 and UTF-32 bytes too, and skip a
    UTF-8 byte order mark."""
    return json.loads(data.decode("utf-8"))


def _record_instance(task: TaskId, path: Path, index: int, record,
                     input_key: str) -> TaskInstance:
    """Record ``index`` of ``path`` (a JSON Lines record as its bytes) as an
    instance, or a MalformedDataset naming the record."""
    try:
        if isinstance(record, bytes):
            record = _parse_json(record)
        if not isinstance(record, dict) or \
                input_key not in record or "target" not in record:
            raise ValueError(f"needs {input_key!r} and 'target'")
        return make_instance(task, record[input_key], record["target"])
    except ValueError as exc:
        raise MalformedDataset(f"{path} record {index}: {exc}") from exc


def load_dataset(dataset_dir: str | Path, tasks: list[TaskId],
                 files: list[tuple[TaskId, bytes]] | None = None
                 ) -> list[TaskInstance]:
    """The instances of ``tasks``, in order, from each task's
    ``<task>.jsonl`` if there is one and else from its BIG-Bench Hard
    ``<task>.json``.  Each file is read once; with ``files`` given, its task
    and bytes are appended there, so the digest covers the bytes that were
    parsed."""
    if not Path(dataset_dir).is_dir():
        raise ConfigError(f"dataset_dir {str(dataset_dir)!r} not found")
    instances: list[TaskInstance] = []
    for task in tasks:
        path = Path(dataset_dir) / f"{task.value}.jsonl"
        if not path.is_file():
            if not path.with_suffix(".json").is_file():
                raise MalformedDataset(f"missing dataset file {path}")
            path = path.with_suffix(".json")
        data = path.read_bytes()
        if files is not None:
            files.append((task, data))
        if path.suffix == ".jsonl":
            key = "input_text"
            # Split bytes, not text: a U+2028 in a record does not end it.
            records = ((index, line) for index, line
                       in enumerate(data.splitlines()) if line.strip())
        else:
            key = "input"
            try:
                root = _parse_json(data)
            except ValueError as exc:   # not UTF-8, or not JSON
                raise MalformedDataset(f"{path}: {exc}") from exc
            records = root.get("examples") if isinstance(root, dict) else None
            if not isinstance(records, list):
                raise MalformedDataset(f"{path}: no 'examples' array")
            records = enumerate(records)
        count = len(instances)
        instances.extend(_record_instance(task, path, index, record, key)
                         for index, record in records)
        if len(instances) == count:
            raise MalformedDataset(f"{path} holds no instances")
    return instances


def dataset_digest(files: list[tuple[TaskId, bytes]]) -> str:
    hasher = hashlib.sha256()
    for task, data in files:
        hasher.update(task.value.encode())
        hasher.update(data)
    return hasher.hexdigest()


# --- gateway construction ----------------------------------------------------

def build_gateway(config: RunConfig,
                  instances: Iterable[TaskInstance] = ()) -> Gateway:
    """The configured backend; in mock mode the Reasoner answers for
    ``instances``."""
    if config.mode == "mock":
        return mock_gateway(instances, config=config)
    if config.mode in ("record", "replay") and not config.cassette_path:
        raise ConfigError(f"mode {config.mode!r} requires cassette_path")
    if config.mode == "replay":
        if not Path(config.cassette_path).is_file():
            raise ConfigError(f"cassette {config.cassette_path!r} not found")
        return ReplayGateway(Path(config.cassette_path))
    live = LiveGateway(config.endpoint, config.credential_env)
    if config.mode == "record":
        # The cassette itself is made at the first append.
        cassette = Path(config.cassette_path)
        if not cassette.parent.is_dir():
            raise ConfigError(
                f"cassette directory {str(cassette.parent)!r} not found")
        return RecordGateway(live, cassette)
    return live


def _cassette_digest(gateway: Gateway | None) -> str | None:
    """SHA-256 of the bytes the gateway's cassette holds, as loaded plus
    what it appended; None for a backend that never opens one."""
    cassette = gateway.cassette if gateway is not None else None
    return cassette.sha256.hexdigest() if cassette is not None else None


# --- transcript writers ------------------------------------------------------

def _write_file(path: str, data: bytes) -> None:
    """Leave ``data`` in ``path`` as ``Path.write_bytes`` would."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


class _WriterLanes:
    """A writer thread per directory, made with it at its first file, writes
    its files in ``put`` order.  ``put`` re-raises the first failed write,
    and ``close`` returns it once every lane has drained."""

    def __init__(self):
        self._errors: list[Exception] = []
        self._lanes: dict[str, tuple] = {}   # directory: (jobs, thread)

    def _drain(self, jobs) -> None:
        while (job := jobs.get()) is not None:
            try:
                _write_file(*job)
            except Exception as exc:   # kept; the calling thread raises it
                self._errors.append(exc)

    def put(self, directory: str, name: str, data: bytes) -> None:
        if self._errors:
            raise self._errors[0]
        lane = self._lanes.get(directory)
        if lane is None:
            import queue
            import threading
            os.makedirs(directory, exist_ok=True)
            jobs = queue.SimpleQueue()
            thread = threading.Thread(target=self._drain, args=(jobs,))
            thread.start()
            lane = self._lanes[directory] = (jobs, thread)
        lane[0].put((f"{directory}/{name}", data))

    def close(self) -> Exception | None:
        for jobs, _ in self._lanes.values():
            jobs.put(None)
        for _, thread in self._lanes.values():
            thread.join()
        return self._errors[0] if self._errors else None


def _print_report(text: str) -> None:
    """Print a rendered report; a character the terminal cannot encode (a
    not-run task's dash) is escaped rather than ending the command."""
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), end="")


# --- commands ----------------------------------------------------------------

def cmd_think(args, config: RunConfig) -> int:
    task = TaskId(args.task)
    analysis, pseudocode = run_think(
        task, build_gateway(config), config.seed,
        source=config.pseudocode_source, model_id=config.instructor_model)
    out_dir = Path(args.out) if args.out else \
        Path(config.runs_dir) / "think"
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis_path = out_dir / f"{task.value}.analysis.txt"
    code_path = out_dir / f"{task.value}.txt"
    for path, body in ((analysis_path, analysis.body),
                       (code_path, pseudocode.body)):
        path.write_text(body if body.endswith("\n") else body + "\n",
                        encoding="utf-8")
    print(f"analysis: {analysis_path}")
    print(f"pseudocode ({pseudocode.function_name}): {code_path}")
    return 0


def cmd_run(args, config: RunConfig) -> int:
    if config.method_id() is not MethodId.ZERO_SHOT_POT:
        return _run(config, None)
    # Opened first, so its start-up overlaps the run's set-up; closed before
    # the command returns, however the run ends.
    with Sandbox(config.interpreter_command, config.credential_env,
                 config.sandbox_timeout_ms) as sandbox:
        return _run(config, sandbox)


def _run(config: RunConfig, sandbox: Sandbox | None) -> int:
    method = config.method_id()
    files: list[tuple[TaskId, bytes]] = []
    instances = load_dataset(config.dataset_dir, config.task_ids(), files)
    digest = dataset_digest(files)
    gateway = (None if method is MethodId.ORACLE
               else build_gateway(config, instances))
    hashed = run_id_fields(config, _cassette_digest(gateway))
    rid = run_id(hashed, digest)
    run_dir = Path(config.runs_dir) / rid
    # The directories come with the first transcript; checked here, making
    # nothing, so one that cannot be made stops the run before any call.
    for existing in (run_dir, *run_dir.parents):
        if existing.exists():
            break
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"runs_dir {config.runs_dir!r} cannot be made: "
                          f"{str(existing)!r} is not a writable directory")
    numbered = dict.fromkeys(TaskId, 0)   # transcripts written per task
    lanes = _WriterLanes()

    def persist(index, instance, prediction, correct):
        # Predictions arrive in input order, so a transcript's number is
        # its instance's place within its task.
        task = instance.task
        idx = numbered[task]
        numbered[task] = idx + 1
        verdict = "correct" if correct else "incorrect"
        body = (f"# instance {idx} [{verdict}]"
                f" target={instance.target!r}"
                f" answer={prediction.final_answer!r}"
                f" failure={prediction.failure!r}\n"
                + prediction.transcript + "\n")
        lanes.put(f"{run_dir}/{task.value}", f"{idx}.txt",
                  body.encode("utf-8"))

    try:
        report = evaluate_run(
            method, instances, gateway,
            task_assets(method, config.task_ids(), config.pseudocode_source),
            model_id=config.reasoner_model, on_prediction=persist,
            max_parallel=config.max_parallel, sandbox=sandbox)
    finally:
        # On any abort too, every transcript handed over reaches the disk.
        failed = lanes.close()
    if failed is not None:
        raise failed

    manifest = {
        "run_id": rid,
        "dataset_digest": digest,
        "cassette_digest": _cassette_digest(gateway),
        "run_id_fields": hashed,
        "effective_config": asdict(config),
        **report.to_manifest(),
    }
    markdown = render_report(report, "markdown")
    # The manifest goes last, so it exists only for a run that completed.
    write_atomic(run_dir / "report.md", markdown.encode("utf-8"))
    write_atomic(run_dir / "report.csv",
                 render_report(report, "csv").encode("utf-8"))
    write_atomic(run_dir / "manifest.json", json.dumps(
        manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n")
    print(f"run {rid} complete")
    _print_report(markdown)
    return 0


def cmd_report(args, config: RunConfig) -> int:
    manifest_path = Path(config.runs_dir) / args.run_id / "manifest.json"
    if not manifest_path.is_file():
        raise PseudoexecError(f"no manifest at {manifest_path}")
    try:
        report = EvalReport.from_manifest(
            json.loads(manifest_path.read_text(encoding="utf-8")))
    except ValueError as exc:
        raise PseudoexecError(
            f"{manifest_path} is not a run manifest: {exc}") from None
    _print_report(render_report(report, args.format))
    return 0


def cmd_ablate(args) -> int:
    asset = load_pseudocode(TaskId(args.task), args.source)
    ablated = ablate_prompt(asset)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(ablated.body + "\n", encoding="utf-8")
        print(f"ablated prompt written to {args.out}")
    else:
        print(ablated.body)
    return 0


# --- argument parsing --------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    with_config = argparse.ArgumentParser(add_help=False)
    with_config.add_argument("--config", help="path to a JSON run config")

    parser = argparse.ArgumentParser(
        prog="pseudoexec",
        description="Deterministic Think/Execute pseudocode-prompt harness "
                    "for seven algorithmic reasoning tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("think", parents=[with_config],
                       help="generate analysis + pseudocode for one task")
    p.add_argument("--mode", choices=MODES, help="override gateway mode")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--task", required=True, choices=TASK_CHOICES)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_think)

    p = sub.add_parser("run", parents=[with_config],
                       help="evaluate the configured method over the dataset")
    p.add_argument("--mode", choices=MODES, help="override gateway mode")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("report", parents=[with_config],
                       help="re-render a stored run report")
    p.add_argument("run_id")
    p.add_argument("--format", choices=("markdown", "csv"),
                   default="markdown")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("ablate",
                       help="print a prompt with comments/semantics stripped")
    p.add_argument("--task", required=True, choices=TASK_CHOICES)
    p.add_argument("--source", choices=PSEUDOCODE_SOURCES,
                   default="human")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_ablate)
    return parser


def _load_effective_config(args) -> RunConfig:
    return load_config(args.config, {"seed": getattr(args, "seed", None),
                                     "mode": getattr(args, "mode", None)})


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if "config" not in args:   # a command that reads no settings
            return args.handler(args)
        return args.handler(args, _load_effective_config(args))
    except (PseudoexecError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
