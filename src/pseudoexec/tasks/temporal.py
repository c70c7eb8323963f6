"""Temporal sequences: find the free slot in a day's sighting schedule."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from . import TaskId, TaskInstance, make_instance
from ..errors import NoMatchingOption, ParseUnsupported
from .generate import NAMES, render_options

_WAKE = re.compile(r"woke up at (\d{1,2}(?:am|pm))")
_SIGHTING = re.compile(r"from (\d{1,2}(?:am|pm)) to (\d{1,2}(?:am|pm))")
_CLOSED = re.compile(r"closed after (\d{1,2}(?:am|pm))")
_SPAN = re.compile(r"^(\d{1,2}(?:am|pm)) to (\d{1,2}(?:am|pm))$")


@dataclass(frozen=True)
class Interval:
    """Half-open [start, end) in minutes since midnight."""

    start_minute: int
    end_minute: int

    def overlaps(self, other: "Interval") -> bool:
        return self.start_minute < other.end_minute and other.start_minute < self.end_minute

    def within(self, other: "Interval") -> bool:
        return other.start_minute <= self.start_minute and self.end_minute <= other.end_minute


def parse_clock(text: str) -> int:
    """"10am" -> 600. Noon is 720, midnight 0."""
    m = re.match(r"^(\d{1,2})(am|pm)$", text)
    if not m:
        raise ParseUnsupported(f"bad clock time: {text!r}")
    hour = int(m.group(1))
    if not 1 <= hour <= 12:
        raise ParseUnsupported(f"bad clock hour: {text!r}")
    hour %= 12
    if m.group(2) == "pm":
        hour += 12
    return hour * 60


def _clock_span(start: str, end: str) -> Interval:
    """The interval between two clock times read from instance text."""
    start_minute, end_minute = parse_clock(start), parse_clock(end)
    if start_minute >= end_minute:
        raise ParseUnsupported(f"span ends before it starts: {start} to {end}")
    return Interval(start_minute, end_minute)


def parse_span(text: str) -> Interval:
    m = _SPAN.match(text.strip())
    if not m:
        raise ParseUnsupported(f"bad time span: {text!r}")
    return _clock_span(m.group(1), m.group(2))


def parse_schedule(input_text: str) -> tuple[Interval, list[Interval]]:
    """Return the open window [wake, close] and the occupied intervals."""
    body = input_text.split("Options:", 1)[0]
    wake = _WAKE.search(body)
    closed = _CLOSED.search(body)
    if not wake:
        raise ParseUnsupported("no wake-up statement found")
    if not closed:
        raise ParseUnsupported("no closing statement found")
    window = _clock_span(wake.group(1), closed.group(1))
    busy = [_clock_span(a, b) for a, b in _SIGHTING.findall(body)]
    return window, busy


def solve(instance: TaskInstance) -> str:
    """Return the tag of the unique option interval that is free."""
    window, busy = parse_schedule(instance.input_text)
    free = []
    for tag, text in instance.options:
        slot = parse_span(text)
        if slot.within(window) and not any(slot.overlaps(b) for b in busy):
            free.append(tag)
    if not free:
        raise NoMatchingOption("every option conflicts with the schedule")
    if len(free) > 1:
        raise NoMatchingOption(f"multiple free options: {free}")
    return free[0]


_PLACES = ("movies", "bakery", "museum", "library", "market")
_ACTIVITIES = ("getting a coffee at the cafe",
               "walking in the park",
               "reading at the library",
               "buying a phone at the electronics store",
               "playing tennis at the court")


def _clock(hour: int) -> str:
    suffix = "am" if hour < 12 else "pm"
    display = hour % 12 or 12
    return f"{display}{suffix}"


def generate(rng: random.Random, size: int) -> TaskInstance:
    person = rng.choice(NAMES)
    place = rng.choice(_PLACES)
    bounds = sorted(rng.sample(range(5, 23), 5))
    slots = [(bounds[i], bounds[i + 1]) for i in range(4)]
    free_index = rng.randrange(4)
    sightings = []
    for i, (start, end) in enumerate(slots):
        if i == free_index:
            continue
        witness = rng.choice([n for n in NAMES if n != person])
        activity = rng.choice(_ACTIVITIES)
        sightings.append(f"{witness} saw {person} {activity} "
                         f"from {_clock(start)} to {_clock(end)}.")
    option_texts = [f"{_clock(a)} to {_clock(b)}" for a, b in slots]
    order = list(range(4))
    rng.shuffle(order)
    shuffled_texts = [option_texts[i] for i in order]
    block, tags = render_options(shuffled_texts)
    target = tags[order.index(free_index)]
    text = (f"Today, {person} went to the {place}. Between what times could "
            f"they have gone? We know that: {person} woke up at "
            f"{_clock(bounds[0])}. " + " ".join(sightings) +
            f" The {place} was closed after {_clock(bounds[4])}. "
            f"Between what times could {person} have gone to the {place}?\n"
            + block)
    return make_instance(TaskId.TEMPORAL_SEQUENCES, text, target)
