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

from .errors import (InsufficientDemos, MalformedPseudocode, MissingAsset,
                     MissingFunctionName)
from .gateway import ChatRequest, Gateway
from .pseudolex import ablate_text, text_features
from .tasks import FUNCTION_NAMES, TaskId

_DEF_RE = r"^[ \t]*def[ \t]+{name}[ \t]*\("


@dataclass(frozen=True)
class PromptAsset:
    """A task-level prompt.  It is a pseudocode prompt exactly when it names
    its main function, which the body must then define; an analysis or NL
    plan names none."""
    body: str
    task: TaskId | None = None
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
    task: TaskId
    description: str
    output_format: str
    example_questions: tuple[str, ...]


@dataclass(frozen=True)
class PoolEntry:
    info: TaskInfo
    analysis: PromptAsset
    pseudocode: PromptAsset


@dataclass(frozen=True)
class PromptFeatureReport:
    has_loop: bool
    has_conditional: bool
    print_count: int
    comment_line_count: int
    helper_functions: tuple[str, ...]
    variable_names: tuple[str, ...]


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
    if source not in ("human", "generated"):
        raise ValueError(f"unknown pseudocode source {source!r}")
    return PromptAsset(body=load_asset_text(f"{source}/{task.value}.txt"),
                       task=task,
                       function_name=FUNCTION_NAMES[task])


def load_nl_plan(task: TaskId) -> PromptAsset:
    """The bundled per-task analysis.  It is both the NL plan of the
    ``nl_planning`` baseline and the demo analysis of the Think phase."""
    return PromptAsset(body=load_asset_text(f"analysis/{task.value}.txt"),
                       task=task)


def load_taskinfo(task: TaskId) -> TaskInfo:
    raw = json.loads(load_asset_text(f"taskinfo/{task.value}.json") + "\n")
    return TaskInfo(task=task,
                    description=raw["description"],
                    output_format=raw["output_format"],
                    example_questions=tuple(raw["example_questions"]))


def default_demo_pool(pseudocode_source: str = "human"
                      ) -> dict[TaskId, PoolEntry]:
    return {
        task: PoolEntry(info=load_taskinfo(task),
                        analysis=load_nl_plan(task),
                        pseudocode=load_pseudocode(task, pseudocode_source))
        for task in TaskId
    }


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


# --- demo sampling -----------------------------------------------------------

def sample_demos(demos: dict[TaskId, PoolEntry], seed: int,
                 target_task: TaskId | None = None) -> list[PoolEntry]:
    """Pick 3 demo tasks, excluding the target, without replacement.  String
    seeding keeps the draw reproducible across platforms and processes."""
    eligible = sorted(
        (t for t in demos if t != target_task),
        key=lambda t: t.value)
    if len(eligible) < 3:
        raise InsufficientDemos(
            f"need 3 demo tasks, have {len(eligible)}")
    rng = random.Random(f"demos:{seed}")
    chosen = rng.sample(eligible, 3)
    return [demos[t] for t in chosen]


def _instances_block(questions: tuple[str, ...] | list[str]) -> str:
    return "\n\n".join(questions)


def _usages_block(questions: tuple[str, ...] | list[str],
                  function_name: str) -> str:
    parts = [
        f'input_text = "{escape_instance(q)}"\n'
        f"final_answer = {function_name}(input_text)"
        for q in questions
    ]
    return "\n\n".join(parts)


# --- meta prompt builders ----------------------------------------------------

def build_analysis_meta_prompt(target_questions: list[str],
                               demos: dict[TaskId, PoolEntry], seed: int,
                               target_task: TaskId | None = None) -> str:
    if len(target_questions) != 3:
        raise ValueError("exactly 3 target questions required")
    picked = sample_demos(demos, seed, target_task)
    target_info = demos[target_task].info if target_task else None
    mapping: dict[str, str] = {
        "instances_target": _instances_block(target_questions),
        "format_target": target_info.output_format if target_info
        else "The final answer to the task instance.",
    }
    for i, entry in enumerate(picked, start=1):
        mapping[f"instances_{i}"] = _instances_block(
            entry.info.example_questions)
        mapping[f"format_{i}"] = entry.info.output_format
        mapping[f"analysis_{i}"] = entry.analysis.body
    return render(load_asset_text("meta/meta_analysis.txt"), mapping)


def build_code_meta_prompt(target_task: TaskId, analysis: str,
                           demos: dict[TaskId, PoolEntry], seed: int) -> str:
    if not analysis:
        raise ValueError("analysis must be non-empty")
    function_name = FUNCTION_NAMES.get(target_task)
    if not function_name:
        raise MissingFunctionName(str(target_task))
    picked = sample_demos(demos, seed, target_task)
    target_info = load_taskinfo(target_task)
    mapping: dict[str, str] = {
        "function_name": function_name,
        "description_target": target_info.description,
        "usages_target": _usages_block(target_info.example_questions,
                                       function_name),
        "format_target": target_info.output_format,
        "analysis_target": analysis,
    }
    for i, entry in enumerate(picked, start=1):
        mapping[f"description_{i}"] = entry.info.description
        mapping[f"usages_{i}"] = _usages_block(
            entry.info.example_questions, entry.pseudocode.function_name)
        mapping[f"format_{i}"] = entry.info.output_format
        mapping[f"analysis_{i}"] = entry.analysis.body
        mapping[f"code_{i}"] = entry.pseudocode.body
    return render(load_asset_text("meta/meta_code.txt"), mapping)


def build_nl_plan_prompt(target_questions: list[str],
                         demos: dict[TaskId, PoolEntry], seed: int,
                         target_task: TaskId | None = None) -> str:
    if len(target_questions) != 3:
        raise ValueError("exactly 3 target questions required")
    picked = sample_demos(demos, seed, target_task)
    target_info = demos[target_task].info if target_task else None
    mapping: dict[str, str] = {
        "instances_target": _instances_block(target_questions),
        "format_target": target_info.output_format if target_info
        else "The final answer to the task instance.",
    }
    for i, entry in enumerate(picked, start=1):
        mapping[f"description_{i}"] = entry.info.description
        mapping[f"instances_{i}"] = _instances_block(
            entry.info.example_questions)
        mapping[f"format_{i}"] = entry.info.output_format
        mapping[f"plan_{i}"] = entry.analysis.body
    return render(load_asset_text("meta/meta_nlplan.txt"), mapping)


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
              demos: dict[TaskId, PoolEntry] | None = None,
              model_id: str = "mock-model",
              out_dir: Path | None = None
              ) -> tuple[PromptAsset, PromptAsset]:
    """The Think phase: one Instructor call for the analysis, one for the
    pseudocode prompt.  No system message is sent for either call."""
    demos = demos if demos is not None else default_demo_pool()
    info = load_taskinfo(target_task)
    questions = list(info.example_questions)

    analysis_prompt = build_analysis_meta_prompt(
        questions, demos, seed, target_task)
    analysis_text = gateway.complete(ChatRequest(
        role_tag="instructor", user=analysis_prompt, model_id=model_id))
    analysis = PromptAsset(body=analysis_text, task=target_task)

    code_prompt = build_code_meta_prompt(
        target_task, analysis_text, demos, seed)
    code_response = gateway.complete(ChatRequest(
        role_tag="instructor", user=code_prompt, model_id=model_id))
    function_name = FUNCTION_NAMES[target_task]
    body = parse_pseudocode_response(code_response, function_name)
    pseudocode = PromptAsset(body=body, task=target_task,
                             function_name=function_name)

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
    feats = text_features(asset.body, asset.function_name)
    return PromptFeatureReport(
        has_loop=feats["has_loop"],
        has_conditional=feats["has_conditional"],
        print_count=feats["print_count"],
        comment_line_count=feats["comment_line_count"],
        helper_functions=tuple(feats["helper_functions"]),
        variable_names=tuple(feats["variable_names"]),
    )
