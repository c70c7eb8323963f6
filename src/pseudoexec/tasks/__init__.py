"""Seven BBH algorithmic task families: types, registry, solvers, generators."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from ..errors import NoMatchingOption


class TaskId(Enum):
    DYCK_LANGUAGES = "dyck_languages"
    GEOMETRIC_SHAPES = "geometric_shapes"
    NAVIGATE = "navigate"
    COLORED_OBJECTS = "reasoning_about_colored_objects"
    TEMPORAL_SEQUENCES = "temporal_sequences"
    SHUFFLED_OBJECTS = "tracking_shuffled_objects"
    WEB_OF_LIES = "web_of_lies"


# Main function name each task-level prompt must define.
FUNCTION_NAMES = {
    TaskId.DYCK_LANGUAGES: "complete_dyck_languages",
    TaskId.GEOMETRIC_SHAPES: "recognize_shape_from_svg",
    TaskId.NAVIGATE: "ends_up_at_start",
    TaskId.COLORED_OBJECTS: "solve_colored_objects",
    TaskId.TEMPORAL_SEQUENCES: "solve_temporal_sequences_quiz",
    TaskId.SHUFFLED_OBJECTS: "track_swaps",
    TaskId.WEB_OF_LIES: "evaluate_boolean_word_problem",
}

# Column labels used in reports, in canonical order.
SHORT_CODES = {
    TaskId.DYCK_LANGUAGES: "DL",
    TaskId.GEOMETRIC_SHAPES: "GS",
    TaskId.NAVIGATE: "Nav",
    TaskId.COLORED_OBJECTS: "CO",
    TaskId.TEMPORAL_SEQUENCES: "TS",
    TaskId.SHUFFLED_OBJECTS: "SO",
    TaskId.WEB_OF_LIES: "WL",
}

MULTIPLE_CHOICE_TASKS = frozenset({
    TaskId.GEOMETRIC_SHAPES,
    TaskId.COLORED_OBJECTS,
    TaskId.TEMPORAL_SEQUENCES,
    TaskId.SHUFFLED_OBJECTS,
})

YES_NO_TASKS = frozenset({TaskId.NAVIGATE, TaskId.WEB_OF_LIES})

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
        if self.task in MULTIPLE_CHOICE_TASKS:
            tags = [tag for tag, _ in self.options]
            if not tags:
                raise ValueError(f"{self.task.value}: options must be non-empty")
            if self.target not in tags:
                raise ValueError(
                    f"{self.task.value}: target {self.target!r} not among option tags")
        if self.task in YES_NO_TASKS and self.target not in ("Yes", "No"):
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
    return TaskInstance(task=task, input_text=input_text, target=target,
                        options=parse_options_block(input_text))


def solve(task: TaskId, instance: TaskInstance) -> str:
    """Run the deterministic oracle solver for *task* on *instance*.

    Returns the canonical answer string: an option tag for multiple-choice
    tasks, "Yes"/"No" for boolean tasks, and the closing-bracket sequence
    for Dyck completion.
    """
    from . import colored, dyck, geometric, navigate, shuffled, temporal, weblies

    if task is TaskId.DYCK_LANGUAGES:
        return dyck.solve_dyck(instance.input_text)
    if task is TaskId.GEOMETRIC_SHAPES:
        return geometric.solve_geometric(instance)
    if task is TaskId.NAVIGATE:
        return navigate.solve_navigate(instance.input_text)
    if task is TaskId.COLORED_OBJECTS:
        return colored.solve_colored(instance)
    if task is TaskId.TEMPORAL_SEQUENCES:
        return temporal.solve_temporal(instance)
    if task is TaskId.SHUFFLED_OBJECTS:
        return shuffled.solve_shuffled(instance)
    if task is TaskId.WEB_OF_LIES:
        return weblies.solve_web_of_lies(instance.input_text)
    raise ValueError(f"unknown task: {task}")
