"""Prompt assembly: template rendering, Think meta prompts, prompt assets
and the ablation."""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass, replace
from importlib import resources

from .errors import MalformedPseudocode, MissingAsset
from .gateway import ChatRequest, Gateway
from .tasks import TASKS, TaskId

# The bundled pseudocode prompt sets: assets/<source>/<task>.txt.
PSEUDOCODE_SOURCES = ("human", "generated")


@dataclass(frozen=True)
class PromptAsset:
    """A task-level prompt.  It is a pseudocode prompt exactly when it names
    its main function, which the body must then define; an analysis or NL
    plan names none."""
    body: str
    function_name: str | None = None

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("PromptAsset body must be non-empty")
        if self.function_name and not _defines(self.body, self.function_name):
            raise MalformedPseudocode(
                f"body does not define {self.function_name!r}")


def _defines(text: str, function_name: str) -> bool:
    """Whether a line of ``text`` opens the definition of the function."""
    return re.search(rf"^[ \t]*def[ \t]+{re.escape(function_name)}[ \t]*\(",
                     text, re.MULTILINE) is not None


# --- asset loading -----------------------------------------------------------

def _assets_root():
    return resources.files("pseudoexec") / "assets"


@functools.cache
def load_asset_text(relpath: str) -> str:
    """Read a bundled asset, once per process; files end with one newline
    which is not part of the asset body."""
    path = _assets_root() / relpath
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise MissingAsset(relpath) from exc
    return text[:-1] if text.endswith("\n") else text


def task_file(kind: str, task: TaskId, source: str = "human") -> str:
    """The bundled file of ``task``'s prompt of ``kind``: its ``source``
    ``pseudocode``, its ``nl_plan`` (the analysis) or its ``taskinfo``."""
    return {"pseudocode": f"{source}/{task.value}.txt",
            "nl_plan": f"analysis/{task.value}.txt",
            "taskinfo": f"taskinfo/{task.value}.json"}[kind]


def load_pseudocode(task: TaskId, source: str = "human") -> PromptAsset:
    if source not in PSEUDOCODE_SOURCES:
        raise ValueError(f"unknown pseudocode source {source!r}")
    return PromptAsset(
        body=load_asset_text(task_file("pseudocode", task, source)),
        function_name=TASKS[task].function_name)


def load_nl_plan(task: TaskId) -> PromptAsset:
    """The bundled per-task analysis.  It is both the NL plan of the
    ``nl_planning`` baseline and the demo analysis of the Think phase."""
    return PromptAsset(body=load_asset_text(task_file("nl_plan", task)))


def load_taskinfo(task: TaskId) -> dict:
    """A task's description, output format and example questions."""
    return json.loads(load_asset_text(task_file("taskinfo", task)))


# --- template rendering ------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


@functools.lru_cache(maxsize=32)
def _steps(template: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """``template`` as its leading text and (slot, text after it) pairs."""
    parts = _PLACEHOLDER_RE.split(template)
    return parts[0], tuple(zip(parts[1::2], parts[2::2]))


def render(template: str, mapping: dict[str, str]) -> str:
    """Single-pass placeholder substitution.  Substituted values are never
    rescanned, so braces inside pseudocode bodies survive untouched.  Every
    placeholder the template advertises must be supplied."""
    head, steps = _steps(template)
    missing = {name for name, _ in steps} - mapping.keys()
    if missing:
        raise KeyError(f"unfilled placeholders: {sorted(missing)}")
    return head + "".join(mapping[name] + text for name, text in steps)


def escape_instance(text: str) -> str:
    """Escaping for the embedded instance literal: backslash-escape double
    quotes; real newlines are kept."""
    return text.replace('"', '\\"')


# --- Think meta prompts ------------------------------------------------------

def sample_demos(seed: int, target_task: TaskId) -> list[TaskId]:
    """Pick 3 demo tasks from the other six, without replacement.  String
    seeding keeps the draw reproducible across platforms and processes."""
    eligible = sorted((t for t in TaskId if t != target_task),
                      key=lambda t: t.value)
    return random.Random(f"demos:{seed}").sample(eligible, 3)


def _call_lines() -> str:
    """The lines of ``meta/execute.txt`` that call the task's main function
    on the instance: from the one holding ``{input_text}`` to the one
    holding ``{function_name}``."""
    lines = load_asset_text("meta/execute.txt").splitlines()
    first = next(i for i, line in enumerate(lines) if "{input_text}" in line)
    last = next(i for i, line in enumerate(lines)
                if "{function_name}" in line)
    return "\n".join(lines[first:last + 1])


def _task_slots(task: TaskId, suffix: str) -> dict[str, str]:
    """A task's slots in a meta prompt: its description, its example
    questions as plain instances and as calls of its main function (the
    Execute request's own call lines), and its output format."""
    info = load_taskinfo(task)
    calls = _call_lines()
    function_name = TASKS[task].function_name
    return {
        f"description_{suffix}": info["description"],
        f"instances_{suffix}": "\n\n".join(info["example_questions"]),
        f"usages_{suffix}": "\n\n".join(
            render(calls, {"input_text": escape_instance(q),
                           "function_name": function_name})
            for q in info["example_questions"]),
        f"format_{suffix}": info["output_format"],
    }


def build_meta_prompt(name: str, target_task: TaskId, seed: int,
                      source: str = "human", analysis: str = "") -> str:
    """Render the Think meta prompt ``meta/<name>.txt``: three demo tasks
    drawn by ``seed`` from the other six, each with its bundled analysis
    and its ``source`` pseudocode, then the target task with ``analysis``.
    Each template reads the slots it names and ignores the rest."""
    mapping = _task_slots(target_task, "target")
    mapping["function_name"] = TASKS[target_task].function_name
    mapping["analysis_target"] = analysis
    for i, demo in enumerate(sample_demos(seed, target_task), start=1):
        mapping.update(_task_slots(demo, str(i)))
        mapping[f"analysis_{i}"] = load_nl_plan(demo).body
        mapping[f"code_{i}"] = load_pseudocode(demo, source).body
    return render(load_asset_text(f"meta/{name}.txt"), mapping)


# --- Think orchestration -----------------------------------------------------

# A fenced code block: an info string of at most one word (``python``,
# ``py``, ``Python3``), then the code up to the closing fence.
FENCE_RE = re.compile(r"```[^\s`]*\n(.*?)```", re.DOTALL)


def parse_pseudocode_response(response: str, function_name: str) -> str:
    """Pull the pseudocode body out of an Instructor response.  Fenced code
    blocks win; otherwise the raw response is accepted as-is so long as it
    defines the expected function."""
    for match in FENCE_RE.finditer(response):
        block = match.group(1)
        if _defines(block, function_name):
            return block
    if _defines(response, function_name):
        return response
    raise MalformedPseudocode(
        f"no definition of {function_name!r} in Instructor response")


def think_request(name: str, task: TaskId, seed: int, source: str,
                  model_id: str, analysis: str = "") -> ChatRequest:
    """The Instructor request of the Think meta prompt ``meta/<name>.txt``
    for ``task``, as ``build_meta_prompt`` renders it; no system message is
    sent."""
    return ChatRequest(role_tag="instructor", model_id=model_id,
                       user=build_meta_prompt(name, task, seed, source,
                                              analysis))


def run_think(target_task: TaskId, gateway: Gateway, seed: int,
              source: str = "human", model_id: str = "mock-model"
              ) -> tuple[PromptAsset, PromptAsset]:
    """The Think phase: one Instructor call for the analysis, one for the
    pseudocode prompt, whose demos show ``source`` pseudocode.  Returns the
    analysis and the pseudocode prompt; writing them is the caller's."""
    analysis_text = gateway.complete(think_request(
        "meta_analysis", target_task, seed, source, model_id))
    if not analysis_text.strip():
        raise MalformedPseudocode("empty analysis in Instructor response")
    analysis = PromptAsset(body=analysis_text)

    code_response = gateway.complete(think_request(
        "meta_code", target_task, seed, source, model_id, analysis_text))
    function_name = TASKS[target_task].function_name
    body = parse_pseudocode_response(code_response, function_name)
    return analysis, PromptAsset(body=body, function_name=function_name)


# --- ablation ----------------------------------------------------------------

def ablate_prompt(asset: PromptAsset) -> PromptAsset:
    """The comment-and-semantics ablation: remove comments and docstrings
    and rename user identifiers, the main function's name included, to
    meaningless ones."""
    if not asset.function_name:
        raise ValueError("only pseudocode assets can be ablated")
    from .pseudolex import ablate_text   # only ``ablate`` pays its import
    body, mapping = ablate_text(asset.body)
    new_name = mapping.get(asset.function_name, asset.function_name)
    return replace(asset, body=body, function_name=new_name)

