"""Scoring with option-text tolerance, aggregation, and report rendering."""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, fields

from .baselines import FailureKind, MethodId, Prediction
from .engine import run_instance
from .errors import ParseUnsupported, PseudoexecError
from .prompts import PromptAsset
from .tasks import TASKS, TaskId, TaskInstance, solve


@dataclass
class TaskTally:
    correct: int = 0
    total: int = 0
    parse_unsupported: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass
class EvalReport:
    method: MethodId
    model_id: str
    per_task: dict[TaskId, TaskTally] = field(default_factory=dict)

    @property
    def average_accuracy(self) -> float:
        populated = [t for t in self.per_task.values() if t.total]
        if not populated:
            return 0.0
        return sum(t.accuracy for t in populated) / len(populated)

    def to_manifest(self) -> dict:
        """The report's fields of ``manifest.json``."""
        return {
            "method": self.method.value,
            "model_id": self.model_id,
            "per_task": {task.value: asdict(tally)
                         for task, tally in self.per_task.items()},
            "average_accuracy": self.average_accuracy,
        }

    @classmethod
    def from_manifest(cls, data) -> EvalReport:
        """The report a parsed ``manifest.json`` holds.  Fields other than
        ``method``, ``model_id`` and ``per_task`` are not read.  A
        ValueError names the first thing that is not as ``to_manifest``
        writes it: a JSON type, a method or task name, or a tally outside
        0 <= correct, parse_unsupported <= total."""
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        if not isinstance(data.get("model_id"), str):
            raise ValueError("model_id is not a string")
        if not isinstance(data.get("per_task"), dict):
            raise ValueError("per_task is not an object")
        report = cls(method=MethodId(data.get("method")),
                     model_id=data["model_id"])
        for name, counts in data["per_task"].items():
            task = TaskId(name)
            if not isinstance(counts, dict):
                raise ValueError(f"per_task {name!r} is not an object")
            values = [counts.get(f.name) for f in fields(TaskTally)]
            if any(type(value) is not int for value in values):
                raise ValueError(f"per_task {name!r}: a tally is not an "
                                 "integer")
            tally = TaskTally(*values)
            if not (0 <= tally.correct <= tally.total
                    and 0 <= tally.parse_unsupported <= tally.total):
                raise ValueError(f"per_task {name!r}: a tally is out of "
                                 "range")
            report.per_task[task] = tally
        return report


def _normalize(text: str) -> str:
    text = text.strip().casefold()
    if text.endswith("."):
        text = text[:-1].strip()
    return text


def score_prediction(prediction: Prediction, instance: TaskInstance) -> bool:
    """Exact match after normalization, with the multiple-choice tolerance:
    the tag alone, the full "(A) text" string, or the option text alone all
    count as naming the correct choice."""
    if prediction.final_answer is None:
        return False
    pred = _normalize(prediction.final_answer)
    accepted = {_normalize(instance.target)}
    for tag, text in instance.options:
        if tag == instance.target:
            accepted.add(_normalize(f"{tag} {text}"))
            accepted.add(_normalize(text))
    return pred in accepted


def evaluate_run(method: MethodId, instances: list[TaskInstance], gateway,
                 assets_by_task: dict[TaskId, PromptAsset] | None = None,
                 model_id: str = "mock-model",
                 on_prediction=None,
                 max_parallel: int = 1,
                 **run_kwargs) -> EvalReport:
    """Score every instance under one method.  Oracle mode routes through
    the task solvers and needs no gateway.  Up to ``max_parallel``
    predictions are made at once, in worker threads; tallies and
    ``on_prediction(index, instance, prediction, correct)`` follow input
    order on the calling thread, so what callers persist does not depend on
    the parallelism."""
    if not instances:
        raise ValueError("instances must be non-empty")
    if method is MethodId.ORACLE:
        predict = _oracle_prediction
    else:
        assets = assets_by_task or {}

        def predict(instance: TaskInstance) -> Prediction:
            return run_instance(method, instance, assets.get(instance.task),
                                gateway, model_id=model_id, **run_kwargs)

    # Imported here, like the HTTP client in the live gateway: commands
    # that never evaluate do not pay for it (it pulls in ``logging``).
    from concurrent.futures import ThreadPoolExecutor

    report = EvalReport(method=method, model_id=model_id)
    pool = ThreadPoolExecutor(max_workers=min(max_parallel, len(instances)))
    try:
        futures = [pool.submit(predict, instance) for instance in instances]
        for index, (instance, future) in enumerate(zip(instances, futures)):
            prediction = future.result()
            tally = report.per_task.setdefault(instance.task, TaskTally())
            tally.total += 1
            if prediction.kind is FailureKind.PARSE_UNSUPPORTED:
                tally.parse_unsupported += 1
            correct = score_prediction(prediction, instance)
            if correct:
                tally.correct += 1
            if on_prediction is not None:
                on_prediction(index, instance, prediction, correct)
    finally:
        # After an abort, queued instances must not reach the model.
        pool.shutdown(cancel_futures=True)
    return report


def _oracle_prediction(instance: TaskInstance) -> Prediction:
    try:
        answer = solve(instance.task, instance)
    except ParseUnsupported as exc:
        return Prediction(transcript=str(exc), final_answer=None,
                          kind=FailureKind.PARSE_UNSUPPORTED, detail=str(exc))
    except PseudoexecError as exc:
        return Prediction(transcript=str(exc), final_answer=None,
                          kind=FailureKind.SOLVER_ERROR, detail=str(exc))
    return Prediction(transcript=f"Final answer: {answer}",
                      final_answer=answer)


def _percent(value: float) -> str:
    return f"{100.0 * value:.1f}"


def _cell(tally: TaskTally | None) -> str:
    """A task's accuracy, or a dash for a task with no instances."""
    return _percent(tally.accuracy) if tally and tally.total else "—"


def render_report(report: EvalReport, format: str = "markdown") -> str:
    cells = [_cell(report.per_task.get(task)) for task in TaskId]
    cells.append(_percent(report.average_accuracy))
    headers = [TASKS[task].short_code for task in TaskId] + ["Avg"]
    method_name = report.method.value
    if format == "markdown":
        lines = [
            "| Method | " + " | ".join(headers) + " |",
            "|" + "---|" * (len(headers) + 1),
            "| " + method_name + " | " + " | ".join(cells) + " |",
        ]
        parse_un = sum(t.parse_unsupported for t in report.per_task.values())
        lines.append("")
        lines.append(f"Model: {report.model_id}. "
                     f"ParseUnsupported (counted incorrect): {parse_un}.")
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method"] + headers)
        writer.writerow([method_name] + cells)
        return buf.getvalue()
    raise ValueError(f"unknown report format {format!r}")
