"""Dyck-4 completion: predict the closing brackets missing at the end."""

from __future__ import annotations

import random

from . import TaskId, TaskInstance, make_instance
from ..errors import ParseUnsupported

PAIRS = {"(": ")", "[": "]", "{": "}", "<": ">"}
CLOSERS = {v: k for k, v in PAIRS.items()}


def extract_sequence(input_text: str) -> list[str]:
    """Pull the whitespace-separated bracket sequence out of the question text.

    BBH phrasing puts the sequence after an ``Input:`` marker; bare bracket
    sequences are accepted too.
    """
    text = input_text.rsplit("Input:", 1)[1] if "Input:" in input_text else input_text
    chars = text.split()
    if not chars:
        raise ParseUnsupported("no bracket sequence found")
    for ch in chars:
        if ch not in PAIRS and ch not in CLOSERS:
            raise ParseUnsupported(f"not a bracket: {ch!r}")
    return chars


def solve(instance: TaskInstance) -> str:
    """Return the shortest closing sequence that balances the input.

    The result is space-separated; an already balanced input yields "".
    """
    stack = []
    for ch in extract_sequence(instance.input_text):
        if ch in PAIRS:
            stack.append(ch)
        else:
            if not stack:
                raise ParseUnsupported(f"{ch!r} with empty stack")
            if PAIRS[stack[-1]] != ch:
                raise ParseUnsupported(f"{ch!r} does not match open {stack[-1]!r}")
            stack.pop()
    return " ".join(PAIRS[ch] for ch in reversed(stack))


def generate(rng: random.Random, size: int) -> TaskInstance:
    n_ops = max(1, size)
    stack: list[str] = []
    tokens: list[str] = []
    for _ in range(n_ops):
        if stack and rng.random() < 0.4:
            tokens.append(PAIRS[stack.pop()])
        else:
            opener = rng.choice(list(PAIRS))
            stack.append(opener)
            tokens.append(opener)
    if not stack:
        opener = rng.choice(list(PAIRS))
        stack.append(opener)
        tokens.append(opener)
    target = " ".join(PAIRS[ch] for ch in reversed(stack))
    text = ("Complete the rest of the sequence, making sure that the "
            "parentheses are closed properly. Input: " + " ".join(tokens))
    return make_instance(TaskId.DYCK_LANGUAGES, text, target)
