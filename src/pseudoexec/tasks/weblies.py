"""Web of lies: sequential truth propagation along a statement chain."""

from __future__ import annotations

import random
import re

from . import TaskId, TaskInstance, make_instance
from ..errors import ParseUnsupported
from .generate import NAMES

_GROUND = re.compile(r"^(?P<name>[A-Z][a-z]+) (?P<verb>tells the truth|lies)$")
_SAYS = re.compile(
    r"^(?P<speaker>[A-Z][a-z]+) says (?P<about>[A-Z][a-z]+) "
    r"(?P<verb>tells the truth|lies)$")
_QUESTION = re.compile(r"^Does (?P<name>[A-Z][a-z]+) tell the truth$")


def parse_chain(input_text: str):
    """Split into (statements, question-person)."""
    parts = [s.strip() for s in re.split(r"[.?]", input_text) if s.strip()]
    question = None
    statements = []
    for part in parts:
        m = _QUESTION.match(part)
        if m:
            question = m.group("name")
        else:
            statements.append(part)
    if question is None:
        raise ParseUnsupported("no final question found")
    return statements, question


def build_truth_map(statements: list[str]) -> dict[str, bool]:
    """Propagate truth values sequentially, grounding statement first."""
    truth: dict[str, bool] = {}
    for statement in statements:
        m = _GROUND.match(statement)
        if m:
            truth[m.group("name")] = m.group("verb") == "tells the truth"
            continue
        m = _SAYS.match(statement)
        if m:
            about = m.group("about")
            if about not in truth:
                raise ParseUnsupported(
                    f"{m.group('speaker')!r} references {about!r} before grounding")
            claimed = m.group("verb") == "tells the truth"
            truth[m.group("speaker")] = truth[about] == claimed
            continue
        raise ParseUnsupported(f"unsupported statement: {statement!r}")
    return truth


def solve(instance: TaskInstance) -> str:
    statements, question = parse_chain(instance.input_text)
    truth = build_truth_map(statements)
    if question not in truth:
        raise ParseUnsupported(f"question names unknown person {question!r}")
    return "Yes" if truth[question] else "No"


def generate(rng: random.Random, size: int) -> TaskInstance:
    n = max(1, min(size, 10))
    persons = rng.sample(NAMES, n)
    truth = {persons[0]: rng.random() < 0.5}
    statements = [f"{persons[0]} {'tells the truth' if truth[persons[0]] else 'lies'}."]
    for i in range(1, n):
        speaker = persons[i]
        about = rng.choice(persons[:i])
        value = rng.random() < 0.5
        truth[speaker] = value
        claimed = truth[about] if value else not truth[about]
        verb = "tells the truth" if claimed else "lies"
        statements.append(f"{speaker} says {about} {verb}.")
    queried = rng.choice(persons)
    target = "Yes" if truth[queried] else "No"
    text = " ".join(statements) + f" Does {queried} tell the truth?"
    return make_instance(TaskId.WEB_OF_LIES, text, target)
