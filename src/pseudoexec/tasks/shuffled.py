"""Tracking shuffled objects: apply pairwise swaps to initial holdings."""

from __future__ import annotations

import re

from . import TaskInstance
from ..errors import ParseUnsupported

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


def solve_shuffled(instance: TaskInstance) -> str:
    """Return the tag of the option naming the queried party's final item."""
    holdings = final_holdings(instance.input_text)
    m = _QUERY.search(instance.input_text)
    if not m:
        raise ParseUnsupported("no final query found")
    name = m.group("name")
    if name not in holdings:
        raise ParseUnsupported(f"unknown party {name!r}")
    return instance.tag_of(holdings[name])
