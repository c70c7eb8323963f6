"""Seven BBH algorithmic task families: the task table and instances.

Each task is one row of ``TASKS`` and one module holding its grammar,
``solve(instance)`` and ``generate(rng, size)``.  A module is imported only
when its task is solved or generated.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass, field
from enum import Enum

from ..errors import NoMatchingOption, is_unicode


class TaskId(Enum):
    DYCK_LANGUAGES = "dyck_languages"
    GEOMETRIC_SHAPES = "geometric_shapes"
    NAVIGATE = "navigate"
    COLORED_OBJECTS = "reasoning_about_colored_objects"
    TEMPORAL_SEQUENCES = "temporal_sequences"
    SHUFFLED_OBJECTS = "tracking_shuffled_objects"
    WEB_OF_LIES = "web_of_lies"


@dataclass(frozen=True)
class TaskSpec:
    """``module`` names the task's module; ``function_name`` is the main
    function each task-level prompt must define; ``short_code`` is the
    report column; ``answers`` is "choice" (an option tag), "yes_no" or
    "text".  These live here, not in the task modules, so that loading
    prompts and rendering reports imports no task module."""
    module: str
    function_name: str
    short_code: str
    answers: str


TASKS: dict[TaskId, TaskSpec] = {
    TaskId.DYCK_LANGUAGES:
        TaskSpec("dyck", "complete_dyck_languages", "DL", "text"),
    TaskId.GEOMETRIC_SHAPES:
        TaskSpec("geometric", "recognize_shape_from_svg", "GS", "choice"),
    TaskId.NAVIGATE:
        TaskSpec("navigate", "ends_up_at_start", "Nav", "yes_no"),
    TaskId.COLORED_OBJECTS:
        TaskSpec("colored", "solve_colored_objects", "CO", "choice"),
    TaskId.TEMPORAL_SEQUENCES:
        TaskSpec("temporal", "solve_temporal_sequences_quiz", "TS", "choice"),
    TaskId.SHUFFLED_OBJECTS:
        TaskSpec("shuffled", "track_swaps", "SO", "choice"),
    TaskId.WEB_OF_LIES:
        TaskSpec("weblies", "evaluate_boolean_word_problem", "WL", "yes_no"),
}

# Derived from TASKS only because perfbench/workloads.py imports these names.
FUNCTION_NAMES = {task: spec.function_name for task, spec in TASKS.items()}
MULTIPLE_CHOICE_TASKS = frozenset(
    task for task, spec in TASKS.items() if spec.answers == "choice")
YES_NO_TASKS = frozenset(
    task for task, spec in TASKS.items() if spec.answers == "yes_no")


@dataclass(frozen=True)
class TaskInstance:
    """One question: verbatim input text, canonical target, parsed options."""

    task: TaskId
    input_text: str
    target: str
    options: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.target:
            raise ValueError("target must be non-empty")
        answers = TASKS[self.task].answers
        if answers == "choice":
            tags = [tag for tag, _ in self.options]
            if not tags:
                raise ValueError(f"{self.task.value}: options must be non-empty")
            if self.target not in tags:
                raise ValueError(
                    f"{self.task.value}: target {self.target!r} not among option tags")
        if answers == "yes_no" and self.target not in ("Yes", "No"):
            raise ValueError(f"{self.task.value}: target must be Yes or No")

    def tag_of(self, text: str) -> str:
        """The tag of the option whose text is ``text``."""
        for tag, option in self.options:
            if option == text:
                return tag
        raise NoMatchingOption(f"{text!r} not among options")


def parse_options_block(input_text: str) -> tuple[tuple[str, str], ...]:
    """Extract ``(A) text`` pairs from the Options block of a question, if
    any.  Handles one-option-per-line blocks as well as the inline variant
    where all options share a single line."""
    if "Options:" in input_text:
        block = input_text.split("Options:", 1)[1]
    else:
        block = input_text
    pieces = re.split(r"(\([A-Z]\))", block)
    options = []
    for tag, text in zip(pieces[1::2], pieces[2::2]):
        options.append((tag, text.strip()))
    return tuple(options)


def make_instance(task: TaskId, input_text: str, target: str) -> TaskInstance:
    """Build a TaskInstance, parsing the options block out of the input text."""
    if not isinstance(input_text, str) or not isinstance(target, str):
        raise ValueError("input text and target must be strings")
    if not (is_unicode(input_text) and is_unicode(target)):
        raise ValueError("input text and target must be valid Unicode "
                         "(a lone surrogate is not)")
    return TaskInstance(task=task, input_text=input_text, target=target,
                        options=parse_options_block(input_text))


def task_module(task: TaskId):
    """The module holding *task*'s grammar, ``solve`` and ``generate``."""
    return importlib.import_module(f"{__name__}.{TASKS[task].module}")


def solve(task: TaskId, instance: TaskInstance) -> str:
    """Run the deterministic oracle solver for *task* on *instance*.

    Returns the canonical answer string: an option tag for multiple-choice
    tasks, "Yes"/"No" for boolean tasks, and the closing-bracket sequence
    for Dyck completion.
    """
    return task_module(task).solve(instance)
