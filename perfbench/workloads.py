"""Workload definitions: the seeded corpus, the stub's answer table, the
cassettes each workload starts from, and the checks on a finished run.

Everything here runs in the benchmark's own process before or after a
measured run; none of it is timed.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from pseudoexec import cli, engine, prompts
from pseudoexec.baselines import MethodId, build_baseline_prompt
from pseudoexec.gateway import (ChatRequest, MockGateway, RecordGateway,
                                digest)
from pseudoexec.tasks import (FUNCTION_NAMES, MULTIPLE_CHOICE_TASKS,
                              YES_NO_TASKS, TaskId, TaskInstance)
from pseudoexec.tasks.generate import generate_instance

SIZES = (5, 10, 50)
STUB_MODEL = "stub-model"
CREDENTIAL_ENV = "PERFBENCH_STUB_KEY"
# Answers the stub gets wrong, per method: the config default
# ``mock_corrupt_fraction``, the share the mock reasoner gets wrong.
WRONG_SHARE = 0.2
# PoT programs the stub writes that raise.  Not a measured rate: it makes
# every run take the sandbox-error path on a few instances.
RAISE_SHARE = 0.1
# Stub latency, log-normal.  The median is the fixed 20 ms delay at which
# the record path's per-instance cost was first measured.  It is a
# deliberate scale-down: a hosted model takes far longer to write an
# Execute trace, so live runs are more wait-bound than this workload, whose
# wait share is reported as ``stub.wait_share``.  The tail is an
# assumption, not a measurement: sigma 0.6 puts p99 at 4x the median.
DELAY_MEDIAN_MS = 20.0
DELAY_SIGMA = 0.6
# Methods a project cassette holds recordings for (every model-backed one).
PROJECT_METHODS = (MethodId.THINK_AND_EXECUTE, MethodId.DIRECT,
                   MethodId.ZERO_SHOT_COT, MethodId.PLAN_AND_SOLVE,
                   MethodId.NL_PLANNING, MethodId.ZERO_SHOT_POT)

CORRECT, INCORRECT, SANDBOX_ERROR = "correct", "incorrect", "sandbox_error"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    method: MethodId
    per_cell: int             # run instances per (task, size)
    cassette: str = ""        # "", "half" or "project"
    project_per_cell: int = 0


# Why each workload exists is recorded in BENCHMARK.json.  Run sizes keep
# one run to a few seconds on 2 vCPUs, so a 30 s measurement holds 4-10 runs.
WORKLOADS = {w.name: w for w in (
    Workload("mock_te", "mock", MethodId.THINK_AND_EXECUTE, per_cell=100),
    Workload("stub_record", "record", MethodId.THINK_AND_EXECUTE, per_cell=8,
             cassette="half"),
    Workload("replay_pot", "replay", MethodId.ZERO_SHOT_POT, per_cell=2,
             cassette="project", project_per_cell=100),
)}


def make_corpus(seed: int, per_cell: int) -> list[TaskInstance]:
    """Seven tasks x three sizes x ``per_cell``, in task order.  A smaller
    ``per_cell`` gives a prefix of every (task, size) cell."""
    return [generate_instance(task, seed * 100_000 + size * 1_000 + i, size)
            for task in TaskId for size in SIZES for i in range(per_cell)]


def reasoner_request(method: MethodId, instance: TaskInstance, assets: dict,
                     model_id: str = STUB_MODEL) -> ChatRequest:
    """The request the harness sends for one instance, built from the same
    public prompt functions the harness uses."""
    if method is MethodId.THINK_AND_EXECUTE:
        system, user = engine.build_execute_prompt(assets[instance.task],
                                                   instance)
    else:
        system, user = build_baseline_prompt(method, instance,
                                             assets.get(instance.task))
    return ChatRequest(role_tag="reasoner", system=system, user=user,
                       model_id=model_id)


def method_assets(method: MethodId) -> dict:
    if method is MethodId.THINK_AND_EXECUTE:
        return {t: prompts.load_pseudocode(t, "human") for t in TaskId}
    if method is MethodId.NL_PLANNING:
        return {t: prompts.load_nl_plan(t) for t in TaskId}
    return {}


def _wrong_answer(instance: TaskInstance) -> str:
    if instance.task in YES_NO_TASKS:
        return "No" if instance.target == "Yes" else "Yes"
    if instance.task in MULTIPLE_CHOICE_TASKS:
        return next(tag for tag, _ in instance.options
                    if tag != instance.target)
    return instance.target + " )"


def _response(method: MethodId, instance: TaskInstance, outcome: str) -> str:
    answer = instance.target if outcome == CORRECT else _wrong_answer(instance)
    if method is MethodId.ZERO_SHOT_POT:
        if outcome == SANDBOX_ERROR:
            body = "    raise RuntimeError('stub program failed')"
        else:
            literal = repr(answer == "Yes") if instance.task in YES_NO_TASKS \
                else repr(answer)
            body = f"    answer = {literal}\n    return answer"
        return f"```python\ndef solution():\n{body}\n```"
    words = len(instance.input_text.split())
    if method is MethodId.THINK_AND_EXECUTE:
        return (f"Calling {FUNCTION_NAMES[instance.task]}(input_text).\n"
                f"Parsed {words} tokens.\nFinal answer: {answer}")
    return f"Reading {words} tokens step by step.\nFinal answer: {answer}"


@dataclass
class Answers:
    """The stub's answer table for one method over one corpus."""
    requests: list[ChatRequest]      # one per instance, in corpus order
    outcome: dict[str, str]          # digest -> expected outcome
    text: dict[str, str]             # digest -> response text

    def expected(self, index: int) -> str:
        return self.outcome[digest(self.requests[index])]


def answer_table(seed: int, method: MethodId, corpus: list[TaskInstance],
                 in_run: list[bool] | None = None) -> Answers:
    """A fixed share of the distinct requests, drawn with the seed, is
    answered wrongly (and, for PoT, a fixed share raises).  The shares hold
    exactly within the requests a run sends (``in_run``) and within the
    rest, so every seed fails the same number of instances."""
    assets = method_assets(method)
    requests = [reasoner_request(method, inst, assets) for inst in corpus]
    keys = [digest(r) for r in requests]
    run_keys = {k for k, r in zip(keys, in_run or [True] * len(keys)) if r}
    rng = random.Random(f"outcomes:{seed}:{method.value}")
    outcome: dict[str, str] = {}
    for stratum in (sorted(run_keys), sorted(set(keys) - run_keys)):
        rng.shuffle(stratum)
        n_raise = round(RAISE_SHARE * len(stratum)) \
            if method is MethodId.ZERO_SHOT_POT else 0
        n_wrong = round(WRONG_SHARE * len(stratum))
        for i, key in enumerate(stratum):
            outcome[key] = (SANDBOX_ERROR if i < n_raise else
                            INCORRECT if i < n_raise + n_wrong else CORRECT)
    text = {k: _response(method, inst, outcome[k])
            for k, inst in zip(keys, corpus)}
    return Answers(requests, outcome, text)


def stub_table(seed: int, answers: Answers) -> dict[str, list]:
    """Stub table keyed on the SHA-256 of the user message.  Delays are the
    quantiles of a log-normal, dealt to the distinct requests in a seeded
    order: every seed gets the same delays with the same tail, on
    different requests."""
    users = sorted({r.user for r in answers.requests})
    dist = statistics.NormalDist()
    delays = [DELAY_MEDIAN_MS * math.exp(
        DELAY_SIGMA * dist.inv_cdf((i + 0.5) / len(users)))
        for i in range(len(users))]
    random.Random(f"delays:{seed}").shuffle(delays)
    delay_of = dict(zip(users, delays))
    return {hashlib.sha256(r.user.encode("utf-8")).hexdigest():
            [round(delay_of[r.user], 3), answers.text[digest(r)]]
            for r in answers.requests}


def write_cassette(path: Path, answers: list[Answers],
                   keep=lambda key: True) -> set[str]:
    """Record the kept requests through the harness's own RecordGateway."""
    fixtures = {k: t for a in answers for k, t in a.text.items()}
    recorder = RecordGateway(MockGateway(fixtures=fixtures), path)
    recorded = set()
    for a in answers:
        for request in a.requests:
            key = digest(request)
            if keep(key) and key not in recorded:
                recorder.complete(request)
                recorded.add(key)
    return recorded


@dataclass
class Prepared:
    corpus: list[TaskInstance]
    config: dict
    answers: Answers | None = None
    stub_table: dict | None = None
    cassette_base: Path | None = None   # copied afresh before each run
    properties: dict | None = None


def prepare(workload: Workload, seed: int, work: Path) -> Prepared:
    """Write the dataset, cassette and config a workload's runs start from."""
    corpus = make_corpus(seed, workload.per_cell)
    dataset = work / "dataset"
    cli.write_dataset(corpus, dataset)
    config = {
        "dataset_dir": str(dataset),
        "mode": workload.mode,
        "method": workload.method.value,
        "max_parallel": 2,
        "credential_env": CREDENTIAL_ENV,
    }
    prep = Prepared(corpus, config)
    cassette_keys: set[str] = set()
    if workload.mode == "mock":
        assets = method_assets(workload.method)
        requests = [reasoner_request(workload.method, inst, assets,
                                     model_id="mock-model")
                    for inst in corpus]
    else:
        config["reasoner_model"] = STUB_MODEL
        config["cassette_path"] = str(work / "cassette.jsonl")
        prep.answers = answer_table(seed, workload.method, corpus)
        requests = prep.answers.requests
    if workload.cassette == "half":
        prep.cassette_base = work / "cassette.base.jsonl"
        distinct = sorted({digest(r) for r in requests})
        random.Random(f"cassette:{seed}").shuffle(distinct)
        half = set(distinct[:len(distinct) // 2])
        cassette_keys = write_cassette(prep.cassette_base, [prep.answers],
                                       keep=half.__contains__)
        prep.stub_table = stub_table(seed, prep.answers)
    elif workload.cassette == "project":
        project = make_corpus(seed, workload.project_per_cell)
        in_run = [i % workload.project_per_cell < workload.per_cell
                  for i in range(len(project))]
        tables = [answer_table(seed, m, project, in_run)
                  for m in PROJECT_METHODS]
        # Replay only reads the cassette, so every run shares this copy.
        cassette_keys = write_cassette(Path(config["cassette_path"]), tables)
        pot = tables[PROJECT_METHODS.index(workload.method)]
        prep.answers = Answers(requests, pot.outcome, pot.text)
    prep.properties = input_properties(workload, requests, cassette_keys)
    return prep


def input_properties(workload: Workload, requests: list[ChatRequest],
                     cassette_keys: set[str]) -> dict:
    seen = set(cassette_keys)
    in_cassette = repeated = 0
    sent: set[str] = set()
    for request in requests:
        key = digest(request)
        in_cassette += key in seen
        repeated += key in sent
        sent.add(key)
        if workload.mode == "record":
            seen.add(key)
    n = len(requests)
    return {
        "instances": n,
        "per_task_and_size": workload.per_cell,
        "tasks": len(TaskId),
        "sizes": list(SIZES),
        "mean_request_bytes": round(statistics.fmean(
            len((r.system or "").encode()) + len(r.user.encode())
            for r in requests), 1),
        "in_cassette_when_sent": round(in_cassette / n, 4),
        "repeated_within_run": round(repeated / n, 4),
        "cassette_entries": len(cassette_keys),
    }


# --- checks on a finished run ------------------------------------------------

_MARKER_RE = re.compile(r"Final answer:[ \t]*(.*)")


def _normalize(text: str) -> str:
    text = text.strip().casefold()
    return text[:-1].strip() if text.endswith(".") else text


def rescore(transcript: str, instance: TaskInstance) -> bool:
    """The benchmark's own scoring: the last answer marker, compared with
    the target, the tagged option text or the option text alone."""
    found = _MARKER_RE.findall(transcript)
    if not found:
        return False
    accepted = {_normalize(instance.target)}
    for tag, text in instance.options:
        if tag == instance.target:
            accepted |= {_normalize(f"{tag} {text}"), _normalize(text)}
    return _normalize(found[-1]) in accepted


@dataclass
class RunCheck:
    reached: int = 0          # transcripts written
    mismatched: int = 0       # instances whose outcome the checks reject
    failures: dict = field(default_factory=dict)   # category -> count
    report: bytes | None = None
    tallies_ok: bool = False

    def failed(self, total: int) -> int:
        return self.mismatched + (total - self.reached)


def _read_transcript(path: Path) -> tuple[bool, str | None, str]:
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    verdict = header.split("[", 1)[1].startswith("correct]")
    failure = ast.literal_eval(header.rsplit(" failure=", 1)[1])
    return verdict, failure, body


def check_run(prep: Prepared, runs_dir: Path) -> RunCheck:
    """Compare a finished run's transcripts and manifest with what the
    corpus (mock) or the stub's answer table (stub, replay) predicts."""
    check = RunCheck()
    run_dirs = [p for p in runs_dir.glob("*") if p.is_dir()]
    if len(run_dirs) != 1:
        return check
    run_dir = run_dirs[0]
    expected_correct: dict[str, int] = {}
    expected_total: dict[str, int] = {}
    index_in_task: dict[TaskId, int] = {}
    for i, inst in enumerate(prep.corpus):
        idx = index_in_task.get(inst.task, 0)
        index_in_task[inst.task] = idx + 1
        task = inst.task.value
        expected_total[task] = expected_total.get(task, 0) + 1
        path = run_dir / task / f"{idx}.txt"
        if not path.is_file():
            continue
        check.reached += 1
        verdict, failure, body = _read_transcript(path)
        category = failure.split(":", 1)[0] if failure else None
        if category:
            check.failures[category] = check.failures.get(category, 0) + 1
        if prep.answers is None:
            expect_correct = rescore(body, inst)
            ok = verdict == expect_correct
        else:
            outcome = prep.answers.expected(i)
            expect_correct = outcome == CORRECT
            ok = verdict == expect_correct and category == (
                SANDBOX_ERROR if outcome == SANDBOX_ERROR else None)
        check.mismatched += not ok
        expected_correct[task] = expected_correct.get(task, 0) + expect_correct
    manifest_path = run_dir / "manifest.json"
    report_path = run_dir / "report.md"
    if manifest_path.is_file() and report_path.is_file():
        per_task = json.loads(manifest_path.read_text(encoding="utf-8"))[
            "per_task"]
        check.tallies_ok = per_task.keys() == expected_total.keys() and all(
            per_task[t]["total"] == expected_total[t]
            and per_task[t]["correct"] == expected_correct.get(t, 0)
            for t in expected_total)
        check.report = report_path.read_bytes()
    return check
