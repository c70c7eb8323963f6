"""Reasoning about colored objects: inventories, removals, and rows."""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import TaskInstance
from ..errors import ParseUnsupported

COLORS = (
    "red", "orange", "yellow", "green", "blue", "purple", "magenta",
    "pink", "black", "white", "brown", "gray", "grey", "silver", "gold",
    "teal", "turquoise", "burgundy", "mauve", "fuchsia",
)

NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen",
)
_WORD_TO_NUMBER = {w: i for i, w in enumerate(NUMBER_WORDS)}


@dataclass(frozen=True)
class Item:
    count: int
    color: str
    noun: str  # singular form, e.g. "cat toy"


def _singular(noun: str) -> str:
    return noun[:-1] if noun.endswith("s") and not noun.endswith("ss") else noun


def _parse_item(phrase: str) -> Item:
    words = phrase.split()
    if len(words) < 3:
        raise ParseUnsupported(f"bad item phrase: {phrase!r}")
    count_word, color = words[0], words[1]
    if count_word not in _WORD_TO_NUMBER or color not in COLORS:
        raise ParseUnsupported(f"bad item phrase: {phrase!r}")
    count = _WORD_TO_NUMBER[count_word]
    noun = " ".join(words[2:])
    return Item(count, color, _singular(noun) if count != 1 else noun)


def _parse_row_item(phrase: str) -> Item:
    words = phrase.split()
    if len(words) < 3 or words[0] not in ("a", "an") or words[1] not in COLORS:
        raise ParseUnsupported(f"bad row item phrase: {phrase!r}")
    return Item(1, words[1], " ".join(words[2:]))


def _split_listing(listing: str) -> list[str]:
    listing = listing.replace(", and ", ", ")
    if " and " in listing and ", " not in listing:
        return listing.split(" and ")
    return [p.strip() for p in listing.split(", ") if p.strip()]


_INVENTORY = re.compile(
    r"^(?:On|In) the (?P<surface>[a-z ]+), there (?:is|are) (?P<items>.+)$")
_ROW = re.compile(
    r"^On the (?P<surface>[a-z ]+), you see a set of things arranged in a row: "
    r"(?P<items>.+)$")

_Q_REMOVE_COUNT = re.compile(
    r"^If I remove all the (?P<what>[a-z ]+) from the (?:[a-z ]+), "
    r"how many (?P<color>[a-z]+) objects remain on it$")
_Q_COUNT = re.compile(r"^How many (?P<color>[a-z]+) objects are there$")
_Q_IDENTIFY = re.compile(r"^What color is the (?P<noun>[a-z ]+)$")
_Q_NEIGHBOR = re.compile(
    r"^What is the color of the thing directly to the (?P<side>left|right) "
    r"of the (?P<noun>[a-z ]+)$")
_Q_EXTREME = re.compile(
    r"^What is the color of the (?P<side>leftmost|rightmost) thing$")


def _split_scene_and_question(input_text: str) -> tuple[str, str]:
    body = input_text.split("\nOptions:", 1)[0].split(" Options:", 1)[0]
    if "?" not in body:
        raise ParseUnsupported("no question found")
    body = body.rsplit("?", 1)[0]
    scene, _, question = body.rpartition(". ")
    if not scene:
        raise ParseUnsupported("no scene sentence found")
    return scene.strip(), question.strip()


def answer_colored(input_text: str) -> str:
    """Compute the raw answer (a color word or a count number word)."""
    scene, question = _split_scene_and_question(input_text)

    m = _ROW.match(scene)
    if m:
        items = [_parse_row_item(p) for p in _split_listing(m.group("items"))]
        q = _Q_NEIGHBOR.match(question)
        if q:
            index = next((i for i, it in enumerate(items)
                          if it.noun == q.group("noun")), None)
            if index is None:
                raise ParseUnsupported(f"unknown row object: {q.group('noun')!r}")
            index += -1 if q.group("side") == "left" else 1
            if not 0 <= index < len(items):
                raise ParseUnsupported("no neighbor on that side")
            return items[index].color
        q = _Q_EXTREME.match(question)
        if q:
            return (items[0] if q.group("side") == "leftmost" else items[-1]).color
        raise ParseUnsupported(f"unsupported row question: {question!r}")

    m = _INVENTORY.match(scene)
    if m:
        items = [_parse_item(p) for p in _split_listing(m.group("items"))]
        q = _Q_REMOVE_COUNT.match(question)
        if q:
            what = q.group("what")
            removed_noun = _singular(what)
            kept = [it for it in items
                    if it.noun != removed_noun and it.color != what]
            total = sum(it.count for it in kept if it.color == q.group("color"))
            if total >= len(NUMBER_WORDS):
                raise ParseUnsupported(f"count {total} beyond number-word range")
            return NUMBER_WORDS[total]
        q = _Q_COUNT.match(question)
        if q:
            total = sum(it.count for it in items if it.color == q.group("color"))
            if total >= len(NUMBER_WORDS):
                raise ParseUnsupported(f"count {total} beyond number-word range")
            return NUMBER_WORDS[total]
        q = _Q_IDENTIFY.match(question)
        if q:
            matches = [it for it in items if it.noun == q.group("noun")]
            if len(matches) != 1:
                raise ParseUnsupported(f"object {q.group('noun')!r} not unique")
            return matches[0].color
        raise ParseUnsupported(f"unsupported inventory question: {question!r}")

    raise ParseUnsupported(f"unsupported scene layout: {scene!r}")


def solve_colored(instance: TaskInstance) -> str:
    return instance.tag_of(answer_colored(instance.input_text))
