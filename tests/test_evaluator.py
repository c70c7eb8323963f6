"""Scoring-rule table, aggregation, and report rendering."""

from __future__ import annotations

import csv
import io
import threading
import time

import pytest

from pseudoexec.baselines import FailureKind, MethodId
from pseudoexec.engine import Prediction
from pseudoexec.evaluator import (EvalReport, TaskTally, evaluate_run,
                                  render_report, score_prediction)
from pseudoexec.gateway import Gateway
from pseudoexec.tasks import TaskId, make_instance
from pseudoexec.tasks.generate import generate_instance


def _pred(answer: str | None) -> Prediction:
    if answer is None:
        return Prediction(transcript="", final_answer=None,
                          kind=FailureKind.NO_FINAL_ANSWER)
    return Prediction(transcript=f"Final answer: {answer}",
                      final_answer=answer)


COLORED = make_instance(
    TaskId.COLORED_OBJECTS,
    "What color is the thing? Options:\n(A) blue\n(B) red", "(A)")
SHUFFLED = make_instance(
    TaskId.SHUFFLED_OBJECTS,
    "Alice has a white ball. At the end of the game, Alice has the\n"
    "Options:\n(A) white ball\n(B) black ball", "(A)")
NAV = make_instance(
    TaskId.NAVIGATE, "do you return to the starting point? Take 1 step.",
    "No")
DYCK = make_instance(TaskId.DYCK_LANGUAGES, "Input: ( [", "] )")

# (prediction text, instance, expected verdict) — 30 cases
SCORING_TABLE = [
    # exact and tag matches
    ("(A)", COLORED, True),
    ("(A) blue", COLORED, True),
    ("blue", COLORED, True),            # option text without the tag
    ("Blue", COLORED, True),            # casefold
    (" blue ", COLORED, True),          # trim
    ("blue.", COLORED, True),           # one trailing period
    ("(a)", COLORED, True),             # casefolded tag
    ("(B)", COLORED, False),
    ("(B) red", COLORED, False),
    ("red", COLORED, False),
    ("blue..", COLORED, False),         # only ONE trailing period stripped
    ("bluee", COLORED, False),
    ("", COLORED, False),
    ("(A) red", COLORED, False),        # tag-text mismatch string
    ("(B) black ball", SHUFFLED, False),
    ("(A) white ball", SHUFFLED, True),
    ("white ball", SHUFFLED, True),
    ("Dave", SHUFFLED, False),
    ("(A)", SHUFFLED, True),
    ("ball", SHUFFLED, False),
    ("No", NAV, True),
    ("no", NAV, True),
    ("NO.", NAV, True),
    ("Yes", NAV, False),
    ("False", NAV, False),              # no boolean mapping at scoring time
    ("] )", DYCK, True),
    ("] ) ", DYCK, True),
    ("] ).", DYCK, True),
    (") ]", DYCK, False),
    ("]", DYCK, False),
]


def test_scoring_table():
    for text, instance, expected in SCORING_TABLE:
        got = score_prediction(_pred(text), instance)
        assert got is expected, (text, instance.task, expected)


def test_scoring_table_has_30_cases():
    assert len(SCORING_TABLE) == 30


def test_failed_predictions_score_false():
    assert not score_prediction(_pred(None), COLORED)


def test_trailing_whitespace_and_period_invariance():
    for text, instance, expected in SCORING_TABLE:
        if not text:
            continue
        assert score_prediction(_pred(text + "  "), instance) is expected
        if not text.endswith("."):
            assert score_prediction(_pred(text + "."), instance) is expected


def test_evaluate_run_rejects_empty():
    with pytest.raises(ValueError):
        evaluate_run(MethodId.ORACLE, [], None)


def test_evaluate_run_oracle_totals():
    instances = [generate_instance(TaskId.NAVIGATE, s, 3) for s in range(10)]
    report = evaluate_run(MethodId.ORACLE, instances, None)
    tally = report.per_task[TaskId.NAVIGATE]
    assert tally.total == 10
    assert tally.correct == 10
    assert tally.parse_unsupported == 0
    assert report.average_accuracy == 1.0


def test_evaluate_run_counts_parse_unsupported_as_incorrect():
    bad = make_instance(TaskId.NAVIGATE,
                        "do you return to the starting point? Moonwalk.",
                        "Yes")
    good = generate_instance(TaskId.NAVIGATE, 1, 3)
    for max_parallel in (1, 2):
        report = evaluate_run(MethodId.ORACLE, [bad, good], None,
                              max_parallel=max_parallel)
        tally = report.per_task[TaskId.NAVIGATE]
        assert tally.total == 2
        assert tally.correct == 1
        assert tally.parse_unsupported == 1


def test_oracle_run_records_an_inverted_time_span():
    good = generate_instance(TaskId.TEMPORAL_SEQUENCES, 1, 3)
    schedule = good.input_text
    for inverted in (schedule.replace("from 7am to 2pm", "from 9am to 1am"),
                     schedule.replace("closed after 5pm", "closed after 4am")):
        assert inverted != schedule
        bad = make_instance(TaskId.TEMPORAL_SEQUENCES, inverted, good.target)
        report = evaluate_run(MethodId.ORACLE, [bad, good], None)
        tally = report.per_task[TaskId.TEMPORAL_SEQUENCES]
        assert (tally.total, tally.correct, tally.parse_unsupported) == \
            (2, 1, 1)


def test_average_is_unweighted_across_tasks():
    report = EvalReport(method=MethodId.ORACLE, model_id="m", per_task={
        TaskId.NAVIGATE: TaskTally(correct=1, total=1),        # 100%
        TaskId.DYCK_LANGUAGES: TaskTally(correct=0, total=3),  # 0%
    })
    assert report.average_accuracy == pytest.approx(0.5)


def test_render_markdown_columns():
    report = EvalReport(method=MethodId.DIRECT, model_id="m")
    text = render_report(report, "markdown")
    assert "| Method | DL | GS | Nav | CO | TS | SO | WL | Avg |" in text
    assert "| direct | " + " | ".join(["—"] * 7 + ["0.0"]) + " |" in text


def test_render_marks_the_tasks_that_did_not_run():
    report = EvalReport(method=MethodId.DIRECT, model_id="m", per_task={
        TaskId.NAVIGATE: TaskTally(correct=4, total=5),
        TaskId.WEB_OF_LIES: TaskTally(correct=0, total=2)})
    assert "| direct | — | — | 80.0 | — | — | — | 0.0 | 40.0 |" in \
        render_report(report, "markdown")
    assert render_report(report, "csv").splitlines()[1] == \
        "direct,—,—,80.0,—,—,—,0.0,40.0"


def test_render_csv_round_trips_with_9_columns():
    report = EvalReport(method=MethodId.ORACLE, model_id="m", per_task={
        t: TaskTally(correct=1, total=1) for t in TaskId})
    rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
    assert rows[0] == ["method", "DL", "GS", "Nav", "CO", "TS", "SO", "WL",
                      "Avg"]
    assert len(rows[1]) == 9
    assert rows[1][1:] == ["100.0"] * 8


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_report(EvalReport(method=MethodId.DIRECT, model_id="m"),
                      "yaml")


def test_percentages_have_one_decimal():
    report = EvalReport(method=MethodId.DIRECT, model_id="m", per_task={
        TaskId.NAVIGATE: TaskTally(correct=1, total=3)})
    assert "33.3" in render_report(report, "csv")


class _SlowGateway(Gateway):
    """Answers the Direct prompt of each instance after ``delay_s(index)``,
    every odd instance wrongly, and logs the order answers finish in."""

    def __init__(self, instances, delay_s=lambda index: 0.0):
        self._instances = instances
        self._delay_s = delay_s
        self._lock = threading.Lock()
        self.finished: list[int] = []

    def complete(self, request):
        index = next(i for i, inst in enumerate(self._instances)
                     if inst.input_text in request.user)
        time.sleep(self._delay_s(index))
        with self._lock:
            self.finished.append(index)
        answer = self._instances[index].target if index % 2 == 0 else "?"
        return f"Final answer: {answer}"


def _task_mix(n: int):
    tasks = list(TaskId)
    return [generate_instance(tasks[i % len(tasks)], i, 3) for i in range(n)]


def _record(max_parallel: int, instances, gateway):
    seen = []
    report = evaluate_run(
        MethodId.DIRECT, instances, gateway, max_parallel=max_parallel,
        on_prediction=lambda i, inst, pred, ok: seen.append(
            (i, inst.input_text, pred.transcript, pred.final_answer, ok)))
    return report, seen


def test_parallel_run_keeps_input_order():
    instances = _task_mix(8)

    def later_first(index):
        return 0.01 * (len(instances) - index)

    serial_gateway = _SlowGateway(instances, later_first)
    serial, serial_seen = _record(1, instances, serial_gateway)
    parallel_gateway = _SlowGateway(instances, later_first)
    parallel, parallel_seen = _record(4, instances, parallel_gateway)
    assert serial_gateway.finished == list(range(len(instances)))
    assert parallel_gateway.finished != list(range(len(instances)))
    assert parallel_seen == serial_seen
    assert [i for i, *_ in serial_seen] == list(range(len(instances)))
    assert parallel.per_task == serial.per_task
    assert sum(t.correct for t in serial.per_task.values()) == 4


def test_abort_stops_queued_model_calls():
    instances = _task_mix(50)
    gateway = _SlowGateway(instances, lambda index: 0.05)

    def disk_full(index, instance, prediction, correct):
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space left"):
        evaluate_run(MethodId.DIRECT, instances, gateway, max_parallel=2,
                     on_prediction=disk_full)
    assert len(gateway.finished) <= 2 + 2


class _FailsFirst(Gateway):
    """Raises on its first call and answers every later one, each call
    after ``wait_s``."""

    def __init__(self, wait_s: float):
        self._wait_s = wait_s
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        time.sleep(self._wait_s)
        if self.calls == 1:
            raise RuntimeError("the first call fails")
        return "Final answer: (A)"


def test_no_instance_starts_after_a_prediction_raised():
    # A call made after the run has failed would be paid for nothing.  The
    # first call's wait lets every instance be queued before it raises, so
    # the worker is free to take the next one at once.
    gateway = _FailsFirst(wait_s=0.1)
    with pytest.raises(RuntimeError, match="the first call fails"):
        evaluate_run(MethodId.DIRECT, _task_mix(5), gateway, max_parallel=1)
    assert gateway.calls == 1
