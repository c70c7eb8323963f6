"""Tracking shuffled objects: apply pairwise swaps to initial holdings."""

from __future__ import annotations

import random
import re

from . import TaskId, TaskInstance, make_instance
from ..errors import ParseUnsupported
from .colored import COLOR_POOL
from .generate import NAMES, render_options

_INITIAL = re.compile(r"(?P<name>[A-Z][a-z]+) has an? (?P<item>[a-z ]+?)(?=,|\.|$)")
_SWAP = re.compile(r"(?P<a>[A-Z][a-z]+) and (?P<b>[A-Z][a-z]+) swap (?:balls|books|gifts|places|partners)")
_QUERY = re.compile(r"At the end of the (?:game|semester|party|event), (?P<name>[A-Z][a-z]+) has the")


def parse_holdings(input_text: str) -> dict[str, str]:
    holdings = {m.group("name"): m.group("item").strip()
                for m in _INITIAL.finditer(input_text)}
    if not holdings:
        raise ParseUnsupported("no initial holdings found")
    return holdings


def parse_swaps(input_text: str) -> list[tuple[str, str]]:
    return [(m.group("a"), m.group("b")) for m in _SWAP.finditer(input_text)]


def final_holdings(input_text: str) -> dict[str, str]:
    """Apply each swap as a transposition, in order of appearance."""
    holdings = parse_holdings(input_text)
    for a, b in parse_swaps(input_text):
        if a not in holdings:
            raise ParseUnsupported(f"unknown party {a!r}")
        if b not in holdings:
            raise ParseUnsupported(f"unknown party {b!r}")
        holdings[a], holdings[b] = holdings[b], holdings[a]
    return holdings


def solve(instance: TaskInstance) -> str:
    """Return the tag of the option naming the queried party's final item."""
    holdings = final_holdings(instance.input_text)
    m = _QUERY.search(instance.input_text)
    if not m:
        raise ParseUnsupported("no final query found")
    name = m.group("name")
    if name not in holdings:
        raise ParseUnsupported(f"unknown party {name!r}")
    return instance.tag_of(holdings[name])


def generate(rng: random.Random, size: int) -> TaskInstance:
    parties = rng.sample(NAMES, 5)
    colors = rng.sample(COLOR_POOL, 5)
    items = [f"{c} ball" for c in colors]
    holdings = dict(zip(parties, items))
    swaps = [tuple(rng.sample(parties, 2)) for _ in range(size)]
    for a, b in swaps:
        holdings[a], holdings[b] = holdings[b], holdings[a]
    queried = rng.choice(parties)

    initial = ", ".join(f"{p} has a {item}" for p, item in zip(parties, items))
    sentences = []
    for i, (a, b) in enumerate(swaps):
        opener = "First" if i == 0 else ("Finally" if i == len(swaps) - 1 else "Then")
        sentences.append(f"{opener}, {a} and {b} swap balls.")
    narration = (" As the game progresses, pairs of players trade balls. "
                 + " ".join(sentences)) if swaps else ""
    block, tags = render_options(items)
    target = tags[items.index(holdings[queried])]
    text = (", ".join(parties[:-1]) + f", and {parties[-1]} are playing a "
            f"game. At the start of the game, they are each holding a ball: "
            f"{initial}.{narration} At the end of the game, {queried} has "
            f"the\n{block}")
    return make_instance(TaskId.SHUFFLED_OBJECTS, text, target)
