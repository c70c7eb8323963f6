"""The deterministic model stand-ins behind mock mode.

Each answers from a table of the requests its run sends, built at its first
call.  The Reasoner finds the instance a request was built for and answers
with the task solver; the Instructor answers a task's two Think meta prompts
with its bundled analysis and generated pseudocode.  Any other request is a
``CassetteMiss``, which the engine records as a gateway error.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from typing import Iterable

from .baselines import REQUEST_BY_METHOD, MethodId, task_assets
from .config import RunConfig
from .engine import reasoner_request
from .errors import CassetteMiss
from .gateway import ChatRequest, MockGateway, digest
from .prompts import load_nl_plan, load_pseudocode, think_request
from .tasks import TASKS, TaskId, TaskInstance, solve

# The share of Reasoner requests answered wrongly, as in the bundled cassette.
CORRUPT_FRACTION = 0.2


def mock_gateway(instances: Iterable[TaskInstance] = (),
                 corrupt_fraction: float = CORRUPT_FRACTION,
                 config: RunConfig | None = None) -> MockGateway:
    """A gateway that answers a run with ``config`` (by default, under every
    model-backed method): the Reasoner for ``instances``, the Instructor for
    every task's Think calls.  A deterministic slice of Reasoner requests,
    keyed on the request digest, is answered wrongly; a test passes 0 for a
    mock that never is."""
    instances = list(instances)
    methods = [config.method_id()] if config else REQUEST_BY_METHOD
    config = config or RunConfig()
    threshold = int(corrupt_fraction * 10_000)
    lock = threading.Lock()     # so that each table is built once

    @functools.cache
    def reasoner_table() -> dict[int, list]:
        # Keyed by the request's hash, so no rendered request is held; a
        # hit is confirmed by building its request again.
        tasks = dict.fromkeys(instance.task for instance in instances)
        table: dict[int, list] = {}
        for method in methods:
            assets = task_assets(method, tasks, config.pseudocode_source)
            for instance in instances:
                asset = assets.get(instance.task)
                request = reasoner_request(method, instance, asset,
                                           config.reasoner_model)
                table.setdefault(hash(request), []).append(
                    (method, instance, asset))
        return table

    @functools.cache
    def instructor_table() -> dict[ChatRequest, str]:
        table = {}
        for task in TaskId:
            analysis = load_nl_plan(task).body
            code = load_pseudocode(task, "generated").body
            for name, answer in (("meta_analysis", analysis),
                                 ("meta_code", code)):
                table[think_request(name, task, config.seed,
                                    config.pseudocode_source,
                                    config.instructor_model,
                                    analysis)] = answer
        return table

    def reasoner(request: ChatRequest) -> str:
        with lock:
            candidates = reasoner_table().get(hash(request), ())
        for method, instance, asset in candidates:
            if reasoner_request(method, instance, asset,
                                config.reasoner_model) == request:
                break
        else:
            raise CassetteMiss("mock reasoner: no instance sends the request")
        key = int(hashlib.sha256(digest(request).encode()).hexdigest()[:8],
                  16)
        try:
            answer = solve(instance.task, instance)
        except Exception:     # a solver failure is a wrong answer, not a crash
            answer = "unknown"
        if key % 10_000 < threshold:
            answer = "unknown"
        if method is MethodId.ZERO_SHOT_POT:
            return (f"```python\ndef solution() -> str:\n"
                    f"    return {answer!r}\n```")
        return (f"Simulating {TASKS[instance.task].function_name} on the "
                f"given input.\nParsed input of length "
                f"{len(instance.input_text)}.\nFinal answer: {answer}")

    def instructor(request: ChatRequest) -> str:
        with lock:
            answer = instructor_table().get(request)
        if answer is None:
            raise CassetteMiss("mock instructor: no Think meta prompt matches")
        return answer

    return MockGateway(responders={"reasoner": reasoner,
                                   "instructor": instructor})
