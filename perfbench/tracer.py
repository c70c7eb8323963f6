"""Span recorder that wraps pseudoexec's public functions from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``pseudoexec`` module that holds a reference to it, so calls made through a
``from .x import f`` binding are traced too.  Spans (name, start, end, parent
and the enclosing instance) are kept in memory and written once, by
``Tracer.write``, when the traced run ends.  ``summarize`` turns a span file
into per-layer totals; a layer's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# span name -> (module, attribute) of a public function or method.  Each
# span feeds a reported metric, or is a direct child of a span whose self
# time is reported (cli.main, engine.run_instance, evaluator.evaluate_run).
TRACED = {
    "cli.main": ("pseudoexec.cli", "main"),
    "config.load_config": ("pseudoexec.config", "load_config"),
    "cli.load_dataset": ("pseudoexec.cli", "load_dataset"),
    "cli.dataset_digest": ("pseudoexec.cli", "dataset_digest"),
    "cli.build_gateway": ("pseudoexec.cli", "build_gateway"),
    "prompts.load_pseudocode": ("pseudoexec.prompts", "load_pseudocode"),
    "prompts.load_asset_text": ("pseudoexec.prompts", "load_asset_text"),
    "prompts.render": ("pseudoexec.prompts", "render"),
    "tasks.make_instance": ("pseudoexec.tasks", "make_instance"),
    "tasks.solve": ("pseudoexec.tasks", "solve"),
    "gateway.digest": ("pseudoexec.gateway", "digest"),
    "gateway.load_cassette": ("pseudoexec.gateway", "load_cassette"),
    "gateway.mock": ("pseudoexec.gateway", "MockGateway.complete"),
    "gateway.replay": ("pseudoexec.gateway", "ReplayGateway.complete"),
    "gateway.record": ("pseudoexec.gateway", "RecordGateway.complete"),
    "gateway.http": ("pseudoexec.gateway", "LiveGateway.complete"),
    "engine.run_instance": ("pseudoexec.engine", "run_instance"),
    "engine.extract_final_answer": ("pseudoexec.engine",
                                    "extract_final_answer"),
    "engine.build_execute_prompt": ("pseudoexec.engine",
                                    "build_execute_prompt"),
    "baselines.run_pot_instance": ("pseudoexec.baselines",
                                   "run_pot_instance"),
    "baselines.build_baseline_prompt": ("pseudoexec.baselines",
                                        "build_baseline_prompt"),
    "baselines.extract_program": ("pseudoexec.baselines", "extract_program"),
    "baselines.execute_program": ("pseudoexec.baselines", "execute_program"),
    "baselines.pot_answer": ("pseudoexec.baselines", "pot_answer"),
    "evaluator.evaluate_run": ("pseudoexec.evaluator", "evaluate_run"),
    "evaluator.score_prediction": ("pseudoexec.evaluator",
                                   "score_prediction"),
    "evaluator.render_report": ("pseudoexec.evaluator", "render_report"),
}

# The span that bounds one instance; its descendants carry its id as root.
INSTANCE_SPAN = "engine.run_instance"

# Stages every workload passes through, by the spans that make them up on
# each path, so each stage time is measured on every workload.
STAGES = {
    # the backend that answers the reasoner: mock solver, cassette lookup
    # or the HTTP call (RecordGateway wraps one of these)
    "gateway.backend.s": ("gateway.mock", "gateway.replay", "gateway.http"),
    # building the reasoner request: Think/Execute or baseline template
    "prompts.build.s": ("engine.build_execute_prompt",
                        "baselines.build_baseline_prompt"),
    # turning the response into a prediction: marker extraction, or
    # program extraction, the sandbox run and reading its output
    "answer.s": ("engine.extract_final_answer", "baselines.extract_program",
                 "baselines.execute_program", "baselines.pot_answer"),
}


class Tracer:
    def __init__(self, cassette_digests: set[str] | None = None):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Digests in the cassette before the run; a paid call for one of
        # them buys nothing new.
        self._in_cassette = set(cassette_digests or ())

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        is_instance = name == INSTANCE_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent, root = stack[-1] if stack else (None, None)
            stack.append((sid, sid if is_instance else root))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              sid if is_instance else root))

        return traced

    def install(self) -> None:
        import pseudoexec.cli  # noqa: F401  (loads every traced module)

        wrappers = {}
        for name, (module_name, attr) in TRACED.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, method)
                wrapped = self.wrap(name, original)
                if name == "gateway.http":
                    wrapped = self._counting_http(wrapped)
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            if name == "gateway.load_cassette":
                wrapped = self._counting_load(wrapped)
            elif name == "evaluator.evaluate_run":
                wrapped = self._tracing_persist(wrapped)
            wrappers[id(original)] = (original, wrapped)
        gateway = sys.modules["pseudoexec.gateway"]
        self._digest = wrappers[id(gateway.digest)][0]
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("pseudoexec"):
                continue
            for key, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, key, pair[1])

    def _counting_load(self, load):
        def load_cassette(path):
            index = load(path)
            self.counts["gateway.load_cassette.entries"] += len(index)
            return index
        return load_cassette

    def _counting_http(self, complete):
        def http_complete(gateway, request):
            key = self._digest(request)
            with self._lock:
                useful = key not in self._in_cassette
                self._in_cassette.add(key)
                self.counts["gateway.http.useful"] += useful
            return complete(gateway, request)
        return http_complete

    def _tracing_persist(self, evaluate_run):
        def evaluate_run_traced(*args, on_prediction=None, **kwargs):
            if on_prediction is not None:
                on_prediction = self.wrap("cli.persist", on_prediction)
            return evaluate_run(*args, on_prediction=on_prediction, **kwargs)
        return evaluate_run_traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": dict(self.counts)}, fh)
            fh.write("\n")
            for sid, name, start, end, parent, root in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "root": root}) + "\n")


def read_spans(path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        counts = json.loads(fh.readline())["counts"]
        return counts, [json.loads(line) for line in fh if line.strip()]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(counts: dict, spans: list[dict]) -> dict[str, float]:
    """Per-layer totals from one traced run."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    instance_ms = []
    for span in spans:
        duration = span["end"] - span["start"]
        name = span["name"]
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration - covered[span["id"]]
        if name == INSTANCE_SPAN:
            instance_ms.append(duration * 1000.0)
    http_calls = calls["gateway.http"]
    metrics = {stage: sum(total[name] for name in names)
               for stage, names in STAGES.items()}
    metrics.update({
        "prompts.load_asset_text.calls": calls["prompts.load_asset_text"],
        "prompts.load_asset_text.s": total["prompts.load_asset_text"],
        "prompts.render.s": total["prompts.render"],
        "gateway.digest.calls": calls["gateway.digest"],
        "gateway.digest.s": total["gateway.digest"],
        "tasks.solve.calls": calls["tasks.solve"],
        "tasks.make_instance.calls": calls["tasks.make_instance"],
        "cli.load_dataset.s": total["cli.load_dataset"],
        "cli.persist.calls": calls["cli.persist"],
        "cli.persist.s": total["cli.persist"],
        "cli.main.self_s": self_time["cli.main"],
        "gateway.http.calls": http_calls,
        # No paid call means none was wasted.
        "gateway.http.useful_ratio": (counts.get("gateway.http.useful", 0)
                                      / http_calls if http_calls else 1.0),
        "gateway.load_cassette.entries":
            counts.get("gateway.load_cassette.entries", 0),
        "cli.build_gateway.s": total["cli.build_gateway"],
        "baselines.execute_program.calls": calls["baselines.execute_program"],
        "engine.run_instance.self_s": self_time["engine.run_instance"],
        "evaluator.score_prediction.s": total["evaluator.score_prediction"],
        "evaluator.evaluate_run.self_s": self_time["evaluator.evaluate_run"],
        "instance.samples": len(instance_ms),
        "instance.p50_ms": (statistics.median(instance_ms)
                            if instance_ms else 0.0),
        "instance.p99_ms": (_percentile(instance_ms, 0.99)
                            if instance_ms else 0.0),
    })
    return metrics
