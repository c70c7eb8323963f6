"""Web of lies: sequential truth propagation along a statement chain."""

from __future__ import annotations

import re

from ..errors import ParseUnsupported

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


def solve_web_of_lies(input_text: str) -> str:
    statements, question = parse_chain(input_text)
    truth = build_truth_map(statements)
    if question not in truth:
        raise ParseUnsupported(f"question names unknown person {question!r}")
    return "Yes" if truth[question] else "No"
