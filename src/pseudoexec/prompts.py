"""Think-phase prompt assembly: meta prompts, NL-plan prompts, prompt assets,
the comment/semantics ablation, and structural feature analysis."""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import MalformedPseudocode, MissingAsset
from .gateway import ChatRequest, Gateway
from .pseudolex import PromptFeatureReport, ablate_text, text_features
from .tasks import TASKS, TaskId

_DEF_RE = r"^[ \t]*def[ \t]+{name}[ \t]*\("
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
        if self.function_name:
            pattern = _DEF_RE.format(name=re.escape(self.function_name))
            if not re.search(pattern, self.body, re.MULTILINE):
                raise MalformedPseudocode(
                    f"body does not define {self.function_name!r}")


@dataclass(frozen=True)
class TaskInfo:
    description: str
    output_format: str
    example_questions: tuple[str, ...]


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


def load_pseudocode(task: TaskId, source: str = "human") -> PromptAsset:
    if source not in PSEUDOCODE_SOURCES:
        raise ValueError(f"unknown pseudocode source {source!r}")
    return PromptAsset(body=load_asset_text(f"{source}/{task.value}.txt"),
                       function_name=TASKS[task].function_name)


def load_nl_plan(task: TaskId) -> PromptAsset:
    """The bundled per-task analysis.  It is both the NL plan of the
    ``nl_planning`` baseline and the demo analysis of the Think phase."""
    return PromptAsset(body=load_asset_text(f"analysis/{task.value}.txt"))


def load_taskinfo(task: TaskId) -> TaskInfo:
    raw = json.loads(load_asset_text(f"taskinfo/{task.value}.json") + "\n")
    return TaskInfo(description=raw["description"],
                    output_format=raw["output_format"],
                    example_questions=tuple(raw["example_questions"]))


# --- template rendering ------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


def template_placeholders(template: str) -> set[str]:
    return set(_PLACEHOLDER_RE.findall(template))


def render(template: str, mapping: dict[str, str]) -> str:
    """Single-pass placeholder substitution.  Substituted values are never
    rescanned, so braces inside pseudocode bodies survive untouched.  Every
    placeholder the template advertises must be supplied."""
    missing = template_placeholders(template) - set(mapping)
    if missing:
        raise KeyError(f"unfilled placeholders: {sorted(missing)}")
    return _PLACEHOLDER_RE.sub(lambda m: mapping[m.group(1)], template)


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


def _task_slots(task: TaskId, suffix: str) -> dict[str, str]:
    """A task's slots in a meta prompt: its description, its example
    questions as plain instances and as calls of its main function, and
    its output format."""
    info = load_taskinfo(task)
    function_name = TASKS[task].function_name
    return {
        f"description_{suffix}": info.description,
        f"instances_{suffix}": "\n\n".join(info.example_questions),
        f"usages_{suffix}": "\n\n".join(
            f'input_text = "{escape_instance(q)}"\n'
            f"final_answer = {function_name}(input_text)"
            for q in info.example_questions),
        f"format_{suffix}": info.output_format,
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

FENCE_RE = re.compile(r"```(?:python)?\n(.*?)```", re.DOTALL)


def parse_pseudocode_response(response: str, function_name: str) -> str:
    """Pull the pseudocode body out of an Instructor response.  Fenced code
    blocks win; otherwise the raw response is accepted as-is so long as it
    defines the expected function."""
    pattern = _DEF_RE.format(name=re.escape(function_name))
    for match in FENCE_RE.finditer(response):
        block = match.group(1)
        if re.search(pattern, block, re.MULTILINE):
            return block
    if re.search(pattern, response, re.MULTILINE):
        return response
    raise MalformedPseudocode(
        f"no definition of {function_name!r} in Instructor response")


def run_think(target_task: TaskId, gateway: Gateway, seed: int,
              source: str = "human", model_id: str = "mock-model",
              out_dir: Path | None = None
              ) -> tuple[PromptAsset, PromptAsset]:
    """The Think phase: one Instructor call for the analysis, one for the
    pseudocode prompt, whose demos show ``source`` pseudocode.  No system
    message is sent for either call."""
    analysis_text = gateway.complete(ChatRequest(
        role_tag="instructor", model_id=model_id,
        user=build_meta_prompt("meta_analysis", target_task, seed, source)))
    if not analysis_text.strip():
        raise MalformedPseudocode("empty analysis in Instructor response")
    analysis = PromptAsset(body=analysis_text)

    code_prompt = build_meta_prompt("meta_code", target_task, seed, source,
                                    analysis_text)
    code_response = gateway.complete(ChatRequest(
        role_tag="instructor", user=code_prompt, model_id=model_id))
    function_name = TASKS[target_task].function_name
    body = parse_pseudocode_response(code_response, function_name)
    pseudocode = PromptAsset(body=body, function_name=function_name)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{target_task.value}.analysis.txt").write_text(
            analysis.body + "\n", encoding="utf-8")
        (out_dir / f"{target_task.value}.txt").write_text(
            pseudocode.body if pseudocode.body.endswith("\n")
            else pseudocode.body + "\n", encoding="utf-8")
    return analysis, pseudocode


# --- ablation and feature analysis -------------------------------------------

def ablate_prompt(asset: PromptAsset) -> PromptAsset:
    """The comment-and-semantics ablation: remove comments and docstrings
    and rename user identifiers, the main function's name included, to
    meaningless ones."""
    if not asset.function_name:
        raise ValueError("only pseudocode assets can be ablated")
    body, mapping = ablate_text(asset.body)
    new_name = mapping.get(asset.function_name, asset.function_name)
    return replace(asset, body=body, function_name=new_name)


def analyze_prompt_features(asset: PromptAsset) -> PromptFeatureReport:
    if not asset.function_name:
        raise ValueError("feature analysis applies to pseudocode assets")
    return text_features(asset.body, asset.function_name)
