"""Navigate: simulate step/turn instructions from the origin."""

from __future__ import annotations

import random
import re

from . import TaskId, TaskInstance, make_instance
from ..errors import ParseUnsupported

# heading 0=N, 1=E, 2=S, 3=W; unit vectors east/north
_VECTORS = {0: (0, 1), 1: (1, 0), 2: (0, -1), 3: (-1, 0)}
_RELATIVE = {"forward": 0, "right": 1, "backward": 2, "left": 3}
_TURNS = {"left": 3, "right": 1, "around": 2}

_TAKE = re.compile(r"^Take (\d+) steps?(?: (forward|backward|left|right))?$")
_TURN = re.compile(r"^Turn (left|right|around)$")


def split_instructions(input_text: str) -> list[str]:
    """Drop the question preamble and split the instruction sentences."""
    text = input_text
    if "?" in text:
        text = text.rsplit("?", 1)[1]
    parts = [p.strip() for p in text.split(".")]
    return [p for p in parts if p]


def simulate(input_text: str) -> tuple[int, int]:
    """Run the instruction sequence and return the final position.

    Directional steps ("Take 2 steps left") translate relative to the
    current heading without changing it; this covers both the turn-based
    and the "Always face forward" BBH dialects.
    """
    x = y = heading = 0
    for sentence in split_instructions(input_text):
        if sentence == "Always face forward":
            heading = 0
            continue
        m = _TURN.match(sentence)
        if m:
            heading = (heading + _TURNS[m.group(1)]) % 4
            continue
        m = _TAKE.match(sentence)
        if m:
            count = int(m.group(1))
            direction = (heading + _RELATIVE[m.group(2) or "forward"]) % 4
            dx, dy = _VECTORS[direction]
            x += dx * count
            y += dy * count
            continue
        raise ParseUnsupported(f"unsupported instruction: {sentence!r}")
    return x, y


def solve(instance: TaskInstance) -> str:
    return "Yes" if simulate(instance.input_text) == (0, 0) else "No"


def generate(rng: random.Random, size: int) -> TaskInstance:
    if size == 0:
        instructions = ["Turn around."]
        target = "Yes"
    else:
        forward_only = rng.random() < 0.5
        force_return = rng.random() < 0.5
        instructions = []
        x = y = 0
        heading = 0
        if forward_only:
            instructions.append("Always face forward.")
        for _ in range(size):
            if not forward_only and rng.random() < 0.35:
                turn = rng.choice(["left", "right", "around"])
                heading = (heading + _TURNS[turn]) % 4
                instructions.append(f"Turn {turn}.")
            else:
                count = rng.randint(1, 9)
                if forward_only:
                    word = rng.choice(["forward", "backward", "left", "right"])
                    direction = (heading + _RELATIVE[word]) % 4
                    suffix = f" {word}"
                else:
                    direction = heading
                    suffix = ""
                dx, dy = _VECTORS[direction]
                x += dx * count
                y += dy * count
                plural = "s" if count != 1 else ""
                instructions.append(f"Take {count} step{plural}{suffix}.")
        if force_return:
            if forward_only:
                if x:
                    word = "left" if x > 0 else "right"
                    instructions.append(f"Take {abs(x)} step{'s' if abs(x) != 1 else ''} {word}.")
                if y:
                    word = "backward" if y > 0 else "forward"
                    instructions.append(f"Take {abs(y)} step{'s' if abs(y) != 1 else ''} {word}.")
            else:
                for value, face in ((x, 3), (y, 2)):
                    # face west to cancel positive x, south for positive y
                    if value == 0:
                        continue
                    want = face if value > 0 else (face + 2) % 4
                    while heading != want:
                        heading = (heading + 1) % 4
                        instructions.append("Turn right.")
                    instructions.append(
                        f"Take {abs(value)} step{'s' if abs(value) != 1 else ''}.")
            x = y = 0
        target = "Yes" if (x, y) == (0, 0) else "No"
    text = ("If you follow these instructions, do you return to the "
            "starting point? " + " ".join(instructions))
    return make_instance(TaskId.NAVIGATE, text, target)
