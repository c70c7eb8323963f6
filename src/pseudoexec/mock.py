"""The deterministic model stand-ins behind mock mode.

Each reads a request through the template that rendered it.  The Reasoner
looks the ``input_text`` slot up in the run's own dataset and answers with
the task solver; the Instructor answers a task's two Think meta prompts with
its bundled analysis and generated pseudocode.  Any other request is a
``CassetteMiss``, which the engine records as a gateway error.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from .baselines import TEMPLATE_BY_METHOD
from .errors import CassetteMiss
from .gateway import ChatRequest, MockGateway, digest
from .prompts import (load_asset_text, load_nl_plan, load_pseudocode, parse,
                      task_slots, unescape_instance)
from .tasks import TASKS, TaskId, TaskInstance, solve

# The share of Reasoner requests answered wrongly, as in the bundled cassette.
CORRUPT_FRACTION = 0.2


def mock_gateway(instances: Iterable[TaskInstance] = (),
                 corrupt_fraction: float = CORRUPT_FRACTION) -> MockGateway:
    """A gateway that answers the Reasoner for ``instances`` and the
    Instructor for every task.  A deterministic slice of Reasoner requests,
    keyed on the request digest, is answered wrongly; a test passes 0 for a
    mock that never is."""
    by_question = {inst.input_text: inst for inst in instances}
    threshold = int(corrupt_fraction * 10_000)
    templates = _templates(TEMPLATE_BY_METHOD.values())

    def reasoner(request: ChatRequest) -> str:
        name, slots = _parse(templates, request)
        question = slots["input_text"]
        if name == "execute":   # the instance is an escaped string literal
            question = unescape_instance(question)
        instance = by_question.get(question)
        if instance is None:
            raise CassetteMiss("mock reasoner: question not in the dataset: "
                               f"{question[:60]!r}")
        key = int(hashlib.sha256(digest(request).encode()).hexdigest()[:8],
                  16)
        try:
            answer = solve(instance.task, instance)
        except Exception:     # a solver failure is a wrong answer, not a crash
            answer = "unknown"
        if key % 10_000 < threshold:
            answer = "unknown"
        if name == "pot":
            return (f"```python\ndef solution() -> str:\n"
                    f"    return {answer!r}\n```")
        return (f"Simulating {TASKS[instance.task].function_name} on the "
                f"given input.\nParsed input of length {len(question)}.\n"
                f"Final answer: {answer}")

    return MockGateway(responders={"reasoner": reasoner,
                                   "instructor": _instructor})


def _templates(names: Iterable[str]) -> dict[str, str]:
    return {name: load_asset_text(f"meta/{name}.txt") for name in names}


def _parse(templates: dict[str, str],
           request: ChatRequest) -> tuple[str, dict[str, str]]:
    """The first template that renders the request, and its slot values."""
    for name, template in templates.items():
        if (slots := parse(template, request.user)) is not None:
            return name, slots
    raise CassetteMiss(f"mock {request.role_tag}: request matches no template")


def _instructor(request: ChatRequest) -> str:
    """The bundled answer for the task, and in the code meta prompt for the
    bundled analysis, that the request was rendered with."""
    name, slots = _parse(_templates(("meta_analysis", "meta_code")), request)
    for task in TaskId:
        analysis = load_nl_plan(task).body
        expected = {**task_slots(task, "target"), "analysis_target": analysis}
        if all(slots.get(key, value) == value
               for key, value in expected.items()):
            return (analysis if name == "meta_analysis"
                    else load_pseudocode(task, "generated").body)
    raise CassetteMiss("mock instructor: no bundled task matches the request")
