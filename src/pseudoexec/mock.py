"""The deterministic model stand-ins behind mock mode.

The Reasoner reads the question from the one slot each prompt template puts
it in, looks it up exactly in the run's own dataset and answers with the task
solver.  The Instructor answers the two Think meta prompts with the bundled
analysis and generated pseudocode of the target task.  Any other request is a
``CassetteMiss``, which the engine records as a gateway error.
"""

from __future__ import annotations

import functools
import hashlib
import re
from typing import Iterable

from .errors import CassetteMiss
from .gateway import ChatRequest, MockGateway, digest
from .prompts import build_meta_prompt, load_nl_plan, load_pseudocode
from .tasks import TASKS, TaskId, TaskInstance, solve

# The question's slot in meta/execute.txt (quotes escaped), in the baseline
# templates and in meta/pot.txt; the group name says which one matched.
_QUESTION_RE = re.compile(
    r'^input_text = "(?P<execute>.*)"\nfinal_answer = \w+\(input_text\)$'
    r"|^text for the task: (?P<baseline>.*?)\nFinal answer should be"
    r"|^Q: (?P<pot>.*?)\n\n# solution using Python:",
    re.MULTILINE | re.DOTALL)
_CODE_META_RE = re.compile(r"The main function name should be '(\w+)'")
_BY_FUNCTION = {spec.function_name: task for task, spec in TASKS.items()}


def mock_gateway(instances: Iterable[TaskInstance] = (),
                 corrupt_fraction: float = 0.0) -> MockGateway:
    """A gateway that answers the Reasoner for ``instances`` and the
    Instructor for every task.  A deterministic slice of Reasoner requests,
    keyed on the request digest, is answered wrongly so recorded accuracies
    are not all 100%."""
    by_question = {inst.input_text: inst for inst in instances}
    threshold = int(corrupt_fraction * 10_000)

    def reasoner(request: ChatRequest) -> str:
        match = _QUESTION_RE.search(request.user)
        if match is None:
            raise CassetteMiss("mock reasoner: no question slot in request")
        question = match[match.lastgroup]
        if match.lastgroup == "execute":
            question = question.replace('\\"', '"')
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
        if match.lastgroup == "pot":
            return f"```python\ndef solution():\n    return {answer!r}\n```"
        function_name = TASKS[instance.task].function_name
        return "\n".join([
            f"Simulating {function_name} on the given input.",
            f"Parsed input of length {len(question)}.",
            f"Final answer: {answer}",
        ])

    return MockGateway(responders={"reasoner": reasoner,
                                   "instructor": _instructor})


def _instructor(request: ChatRequest) -> str:
    """The code meta prompt names its function; the analysis meta prompt
    ends with the target task's example block."""
    match = _CODE_META_RE.search(request.user)
    if match:
        task = _BY_FUNCTION.get(match[1])
        if task is not None:
            return load_pseudocode(task, "generated").body
    else:
        task = _task_by_example_block().get(
            request.user.rsplit("[Example 4]", 1)[-1])
        if task is not None:
            return load_nl_plan(task).body
    raise CassetteMiss("mock instructor: no bundled task matches the request")


@functools.cache
def _task_by_example_block() -> dict[str, TaskId]:
    """Each task's ``[Example 4]`` block of the analysis meta prompt, which
    depends on the target task alone."""
    return {build_meta_prompt("meta_analysis", task, 0).rsplit(
        "[Example 4]", 1)[1]: task for task in TaskId}
