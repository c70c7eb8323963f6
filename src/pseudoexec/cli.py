"""Command-line surface: ingest, think, run, oracle, report, ablate."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from .baselines import MethodId
from .config import MODES, RunConfig, load_config, run_id
from .errors import ConfigError, MalformedDataset, PseudoexecError
from .evaluator import (EvalReport, TaskTally, evaluate_run, render_report)
from .gateway import Gateway, LiveGateway, RecordGateway, ReplayGateway
from .mock import mock_gateway
from .prompts import (PSEUDOCODE_SOURCES, PromptAsset, ablate_prompt,
                      load_nl_plan, load_pseudocode, run_think)
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


def load_dataset(dataset_dir: Path, tasks: list[TaskId],
                 files: list[tuple[TaskId, bytes]] | None = None
                 ) -> list[TaskInstance]:
    """The instances of ``tasks``, in order.  Each file is read once; with
    ``files`` given, its task and bytes are appended there, so the digest
    covers the bytes that were parsed."""
    instances: list[TaskInstance] = []
    for task in tasks:
        path = dataset_dir / f"{task.value}.jsonl"
        if not path.is_file():
            raise MalformedDataset(f"missing dataset file {path}")
        data = path.read_bytes()
        if files is not None:
            files.append((task, data))
        count = len(instances)
        for index, line in enumerate(data.decode("utf-8").splitlines()):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("not a JSON object")
                instances.append(make_instance(
                    task, obj["input_text"], obj["target"]))
            except (KeyError, ValueError) as exc:
                raise MalformedDataset(
                    f"{path} record {index}: {exc}") from exc
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
        return mock_gateway(instances, config.mock_corrupt_fraction)
    if config.mode == "replay":
        return ReplayGateway(Path(config.cassette_path))
    if config.mode == "live" and not os.environ.get(config.credential_env):
        raise ConfigError(
            f"credential env var {config.credential_env!r} not set")
    live = LiveGateway(config.endpoint, config.credential_env)
    if config.mode == "record":
        return RecordGateway(live, Path(config.cassette_path))
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
    """One writer thread per lane; each lane writes what ``put`` hands it in
    the order it arrives.  ``put`` re-raises the first failed write, and
    ``close`` returns it once every lane has drained."""

    def __init__(self, count: int):
        import queue
        import threading
        self._errors: list[Exception] = []
        self._queues = [queue.SimpleQueue() for _ in range(count)]
        self._threads = [threading.Thread(target=self._drain, args=(jobs,))
                         for jobs in self._queues]
        for thread in self._threads:
            thread.start()

    def _drain(self, jobs) -> None:
        while (job := jobs.get()) is not None:
            try:
                _write_file(*job)
            except Exception as exc:   # kept; the calling thread raises it
                self._errors.append(exc)

    def put(self, lane: int, path: str, data: bytes) -> None:
        if self._errors:
            raise self._errors[0]
        self._queues[lane].put((path, data))

    def close(self) -> Exception | None:
        for jobs in self._queues:
            jobs.put(None)
        for thread in self._threads:
            thread.join()
        return self._errors[0] if self._errors else None


# --- commands ----------------------------------------------------------------

def cmd_ingest(args) -> int:
    src = Path(args.dataset_dir)
    out = Path(args.out) if args.out else src / "normalized"
    instances: list[TaskInstance] = []
    for task in TaskId:
        path = src / f"{task.value}.json"
        if not path.is_file():
            continue
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MalformedDataset(f"{path}: {exc}") from exc
        examples = data.get("examples") if isinstance(data, dict) else None
        if not isinstance(examples, list):
            raise MalformedDataset(f"{path}: no 'examples' array")
        count = 0
        for index, record in enumerate(examples):
            if not isinstance(record, dict) or \
                    "input" not in record or "target" not in record:
                raise MalformedDataset(
                    f"{path} record {index}: needs 'input' and 'target'")
            try:
                instances.append(make_instance(
                    task, record["input"], record["target"]))
            except ValueError as exc:
                raise MalformedDataset(
                    f"{path} record {index}: {exc}") from exc
            count += 1
        print(f"{task.value}: {count}")
    if not instances:
        raise MalformedDataset(f"no task files found under {src}")
    write_dataset(instances, out)
    print(f"normalized fixtures written to {out}")
    return 0


def cmd_think(args, config: RunConfig) -> int:
    task = TaskId(args.task)
    gateway = build_gateway(config)
    out_dir = Path(args.out) if args.out else \
        Path(config.runs_dir) / "think"
    analysis, pseudocode = run_think(
        task, gateway, config.seed, source=config.pseudocode_source,
        model_id=config.instructor_model, out_dir=out_dir)
    print(f"analysis: {out_dir / (task.value + '.analysis.txt')}")
    print(f"pseudocode ({pseudocode.function_name}): "
          f"{out_dir / (task.value + '.txt')}")
    return 0


def _task_assets(config: RunConfig) -> dict[TaskId, PromptAsset]:
    """The one task-level prompt each task's instances are run with."""
    method = config.method_id()
    if method is MethodId.THINK_AND_EXECUTE:
        return {task: load_pseudocode(task, config.pseudocode_source)
                for task in config.task_ids()}
    if method is MethodId.NL_PLANNING:
        return {task: load_nl_plan(task) for task in config.task_ids()}
    return {}


def cmd_run(args, config: RunConfig) -> int:
    tasks = config.task_ids()
    dataset_dir = Path(config.dataset_dir)
    files: list[tuple[TaskId, bytes]] = []
    instances = load_dataset(dataset_dir, tasks, files)
    digest = dataset_digest(files)
    method = config.method_id()
    gateway = (None if method is MethodId.ORACLE
               else build_gateway(config, instances))
    rid = run_id(config, digest, _cassette_digest(gateway))
    run_dir = Path(config.runs_dir) / rid
    run_dir.mkdir(parents=True, exist_ok=True)
    # Task k of the run is written by lane k mod L, so no two lanes ever
    # create files in the same directory.
    run_tasks = list(dict.fromkeys(instance.task for instance in instances))
    lane_count = min(config.max_parallel, len(run_tasks))
    lane_of = {task: k % lane_count for k, task in enumerate(run_tasks)}
    for task in run_tasks:
        (run_dir / task.value).mkdir(exist_ok=True)
    slots = []   # per instance: its number within its task, path and lane
    numbered = dict.fromkeys(run_tasks, 0)
    for instance in instances:
        idx = numbered[instance.task]
        numbered[instance.task] = idx + 1
        slots.append((idx, f"{run_dir}/{instance.task.value}/{idx}.txt",
                      lane_of[instance.task]))
    lanes = None

    def persist(index, instance, prediction, correct):
        nonlocal lanes
        if lanes is None:   # here, so the set-up starts no thread
            lanes = _WriterLanes(lane_count)
        idx, path, lane = slots[index]
        verdict = "correct" if correct else "incorrect"
        body = (f"# instance {idx} [{verdict}]"
                f" target={instance.target!r}"
                f" answer={prediction.final_answer!r}"
                f" failure={prediction.failure!r}\n"
                + prediction.transcript + "\n")
        lanes.put(lane, path, body.encode("utf-8"))

    try:
        report = evaluate_run(
            method, instances, gateway, _task_assets(config),
            model_id=config.reasoner_model, on_prediction=persist,
            max_parallel=config.max_parallel,
            interpreter_command=config.interpreter_command,
            sandbox_timeout_ms=config.sandbox_timeout_ms,
            credential_env=config.credential_env)
    finally:
        # On any abort too, every transcript handed over reaches the disk.
        failed = lanes.close() if lanes is not None else None
    if failed is not None:
        raise failed

    manifest = {
        "run_id": rid,
        "method": method.value,
        "model_id": config.reasoner_model,
        "dataset_digest": digest,
        "cassette_digest": _cassette_digest(gateway),
        "config_hash": hashlib.sha256(
            config.canonical_json().encode()).hexdigest(),
        "effective_config": json.loads(config.canonical_json()),
        "per_task": {
            task.value: {"correct": tally.correct, "total": tally.total,
                         "parse_unsupported": tally.parse_unsupported}
            for task, tally in sorted(report.per_task.items(),
                                      key=lambda kv: kv[0].value)
        },
        "average_accuracy": report.average_accuracy,
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (run_dir / "report.md").write_text(
        render_report(report, "markdown"), encoding="utf-8")
    (run_dir / "report.csv").write_text(
        render_report(report, "csv"), encoding="utf-8")
    print(f"run {rid} complete")
    print(render_report(report, "markdown"), end="")
    return 0


def cmd_oracle(args, config: RunConfig) -> int:
    tasks = config.task_ids()
    instances = load_dataset(Path(config.dataset_dir), tasks)
    report = evaluate_run(MethodId.ORACLE, instances, None)
    for task in tasks:
        tally = report.per_task.get(task, TaskTally())
        rate = (tally.parse_unsupported / tally.total * 100
                if tally.total else 0.0)
        print(f"{task.value}: {tally.accuracy * 100:.1f} "
              f"(parse_unsupported {rate:.1f}%)")
    print(f"average: {report.average_accuracy * 100:.1f}")
    return 0


def cmd_report(args, config: RunConfig) -> int:
    manifest_path = Path(config.runs_dir) / args.run_id / "manifest.json"
    if not manifest_path.is_file():
        raise PseudoexecError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    report = EvalReport(
        method=MethodId(manifest["method"]),
        model_id=manifest["model_id"],
        per_task={
            TaskId(name): TaskTally(correct=t["correct"], total=t["total"],
                                    parse_unsupported=t["parse_unsupported"])
            for name, t in manifest["per_task"].items()
        })
    print(render_report(report, args.format), end="")
    return 0


def cmd_ablate(args) -> int:
    asset = load_pseudocode(TaskId(args.task), args.source)
    ablated = ablate_prompt(asset)
    if args.out:
        Path(args.out).write_text(ablated.body + "\n", encoding="utf-8")
        print(f"ablated prompt written to {args.out}")
    else:
        print(ablated.body)
    return 0


# --- argument parsing --------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON run config")
    common.add_argument("--seed", type=int, help="override config seed")
    common.add_argument("--mode", choices=MODES,
                        help="override gateway mode")

    parser = argparse.ArgumentParser(
        prog="pseudoexec",
        description="Deterministic Think/Execute pseudocode-prompt harness "
                    "for seven algorithmic reasoning tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="normalize a BBH-format dataset directory")
    p.add_argument("dataset_dir")
    p.add_argument("--out")

    p = sub.add_parser("think", parents=[common],
                       help="generate analysis + pseudocode for one task")
    p.add_argument("--task", required=True, choices=TASK_CHOICES)
    p.add_argument("--out")

    sub.add_parser("run", parents=[common],
                   help="evaluate the configured method over the dataset")

    sub.add_parser("oracle", parents=[common],
                   help="oracle-solve the dataset and report accuracy")

    p = sub.add_parser("report", parents=[common],
                       help="re-render a stored run report")
    p.add_argument("run_id")
    p.add_argument("--format", choices=("markdown", "csv"),
                   default="markdown")

    p = sub.add_parser("ablate", parents=[common],
                       help="print a prompt with comments/semantics stripped")
    p.add_argument("--task", required=True, choices=TASK_CHOICES)
    p.add_argument("--source", choices=PSEUDOCODE_SOURCES,
                   default="human")
    p.add_argument("--out")
    return parser


def _load_effective_config(args) -> RunConfig:
    overrides = {
        "seed": getattr(args, "seed", None),
        "mode": getattr(args, "mode", None),
    }
    return load_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            return cmd_ingest(args)
        if args.command == "ablate":
            return cmd_ablate(args)
        config = _load_effective_config(args)
        if args.command == "think":
            return cmd_think(args, config)
        if args.command == "run":
            return cmd_run(args, config)
        if args.command == "oracle":
            return cmd_oracle(args, config)
        if args.command == "report":
            return cmd_report(args, config)
        raise PseudoexecError(f"unknown command {args.command!r}")
    except PseudoexecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
