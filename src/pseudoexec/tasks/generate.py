"""Seeded instance generators: the answer is built first, then rendered.

Every generator renders text that parses under the corresponding solver's
grammar, so generated corpora double as grammar-coverage tests.
"""

from __future__ import annotations

import math
import random

from . import TaskId, TaskInstance, make_instance
from .colored import COLORS, NUMBER_WORDS
from .dyck import PAIRS
from .geometric import classify_path, parse_path

MAX_SIZE = 200

_NAMES = ("Alice", "Bob", "Claire", "Dave", "Eve", "Fred", "Gertrude",
          "Helen", "Isaac", "Jamey", "Karl", "Lola", "Melvin", "Nadia",
          "Oscar", "Patricia", "Quentin", "Rodrigo", "Sara", "Tom")

_GEOMETRIC_OPTIONS = ("circle", "heptagon", "hexagon", "kite", "line",
                      "octagon", "pentagon", "rectangle", "sector", "triangle")

_COLOR_POOL = tuple(c for c in COLORS if c != "gray")

_NOUNS = ("cat toy", "notebook", "pen", "mug", "crayon", "puzzle",
          "textbook", "paperclip", "keychain", "booklet")

_PLACES = ("movies", "bakery", "museum", "library", "market")
_ACTIVITIES = ("getting a coffee at the cafe",
               "walking in the park",
               "reading at the library",
               "buying a phone at the electronics store",
               "playing tennis at the court")


def _check_size(size: int) -> None:
    if not 0 <= size <= MAX_SIZE:
        raise ValueError(f"size {size} outside [0, {MAX_SIZE}]")


def generate_instance(task: TaskId, seed: int, size: int) -> TaskInstance:
    _check_size(size)
    # str seeds hash deterministically inside Random (unlike tuple hashes)
    rng = random.Random(f"{task.value}:{seed}")
    return _GENERATORS[task](rng, size)


def _render_options(options: list[str]) -> tuple[str, list[str]]:
    tags = [f"({chr(ord('A') + i)})" for i in range(len(options))]
    block = "Options:\n" + "\n".join(f"{t} {o}" for t, o in zip(tags, options))
    return block, tags


# --- Dyck ---

def _gen_dyck(rng: random.Random, size: int) -> TaskInstance:
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


# --- Geometric shapes ---

def _fmt_point(p: tuple[float, float]) -> str:
    return f"{p[0]:.2f},{p[1]:.2f}"


def _polygon_path(rng: random.Random, n: int) -> str:
    cx, cy = rng.uniform(30, 70), rng.uniform(30, 70)
    radius = rng.uniform(12, 30)
    rotation = rng.uniform(0, 2 * math.pi)
    points = [(cx + radius * math.cos(rotation + 2 * math.pi * i / n),
               cy + radius * math.sin(rotation + 2 * math.pi * i / n))
              for i in range(n)]
    points.append(points[0])
    return "M " + " L ".join(_fmt_point(p) for p in points)


def _shape_path(rng: random.Random, shape: str) -> str:
    if shape == "line":
        a = (rng.uniform(0, 80), rng.uniform(0, 80))
        b = (a[0] + rng.uniform(5, 40), a[1] + rng.uniform(5, 40))
        return f"M {_fmt_point(a)} L {_fmt_point(b)}"
    if shape == "rectangle":
        x, y = rng.randint(0, 50), rng.randint(0, 50)
        w, h = rng.randint(3, 40), rng.randint(3, 40)
        pts = [(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)]
        return "M " + " L ".join(_fmt_point(p) for p in pts)
    if shape == "kite":
        cx, cy = rng.randint(20, 60), rng.randint(20, 60)
        a, b = rng.randint(5, 15), rng.randint(5, 15)
        c = a + rng.randint(3, 12)
        pts = [(cx, cy - a), (cx + b, cy), (cx, cy + c), (cx - b, cy),
               (cx, cy - a)]
        return "M " + " L ".join(_fmt_point(p) for p in pts)
    if shape == "circle":
        cx, cy = rng.uniform(30, 60), rng.uniform(30, 60)
        r = rng.uniform(5, 20)
        a = (cx - r, cy)
        b = (cx + r, cy)
        return (f"M {_fmt_point(a)} A {r:.2f},{r:.2f} 0 1 0 {_fmt_point(b)} "
                f"A {r:.2f},{r:.2f} 0 1 0 {_fmt_point(a)}")
    if shape == "sector":
        cx, cy = rng.uniform(30, 60), rng.uniform(30, 60)
        r = rng.uniform(10, 25)
        t1 = rng.uniform(0, math.pi)
        t2 = t1 + rng.uniform(0.5, 2.0)
        p1 = (cx + r * math.cos(t1), cy + r * math.sin(t1))
        p2 = (cx + r * math.cos(t2), cy + r * math.sin(t2))
        return (f"M {_fmt_point((cx, cy))} L {_fmt_point(p1)} "
                f"A {r:.2f},{r:.2f} 0 0 1 {_fmt_point(p2)} "
                f"L {_fmt_point((cx, cy))}")
    if shape == "triangle":
        sides = {"triangle": 3}
    else:
        sides = {"pentagon": 5, "hexagon": 6, "heptagon": 7, "octagon": 8}
    return _polygon_path(rng, sides[shape])


def _gen_geometric(rng: random.Random, size: int) -> TaskInstance:
    shape = _GEOMETRIC_OPTIONS[(size + rng.randrange(len(_GEOMETRIC_OPTIONS)))
                               % len(_GEOMETRIC_OPTIONS)]
    while True:
        d = _shape_path(rng, shape)
        if classify_path(parse_path(d)) == shape:
            break
    block, tags = _render_options(list(_GEOMETRIC_OPTIONS))
    target = tags[_GEOMETRIC_OPTIONS.index(shape)]
    text = f'This SVG path element <path d="{d}"/> draws a\n{block}'
    return make_instance(TaskId.GEOMETRIC_SHAPES, text, target)


# --- Navigate ---

_HEADING_VECTORS = {0: (0, 1), 1: (1, 0), 2: (0, -1), 3: (-1, 0)}


def _gen_navigate(rng: random.Random, size: int) -> TaskInstance:
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
                heading = (heading + {"left": 3, "right": 1, "around": 2}[turn]) % 4
                instructions.append(f"Turn {turn}.")
            else:
                count = rng.randint(1, 9)
                if forward_only:
                    word = rng.choice(["forward", "backward", "left", "right"])
                    direction = (heading + {"forward": 0, "right": 1,
                                            "backward": 2, "left": 3}[word]) % 4
                    suffix = f" {word}"
                else:
                    direction = heading
                    suffix = ""
                dx, dy = _HEADING_VECTORS[direction]
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


# --- Colored objects ---

def _item_phrase(count: int, color: str, noun: str) -> str:
    plural = noun + "s" if count != 1 else noun
    return f"{NUMBER_WORDS[count]} {color} {plural}"


def _listing(phrases: list[str]) -> str:
    if len(phrases) == 1:
        return phrases[0]
    return ", ".join(phrases[:-1]) + ", and " + phrases[-1]


def _gen_colored(rng: random.Random, size: int) -> TaskInstance:
    kind = rng.choice(["remove_count", "identify", "row_neighbor", "row_extreme"])
    n_items = max(2, min(2 + size, 8))

    if kind in ("row_neighbor", "row_extreme"):
        nouns = rng.sample(_NOUNS, n_items)
        colors = rng.sample(_COLOR_POOL, n_items)
        phrases = [f"a {c} {n}" for c, n in zip(colors, nouns)]
        scene = ("On the desk, you see a set of things arranged in a row: "
                 + _listing(phrases) + ".")
        if kind == "row_neighbor":
            index = rng.randrange(1, n_items) if rng.random() < 0.5 else rng.randrange(n_items - 1)
            side = "left" if index >= 1 and rng.random() < 0.5 else "right"
            if side == "right" and index == n_items - 1:
                side = "left"
            if side == "left" and index == 0:
                side = "right"
            question = (f"What is the color of the thing directly to the "
                        f"{side} of the {nouns[index]}?")
            answer = colors[index - 1] if side == "left" else colors[index + 1]
        else:
            side = rng.choice(["leftmost", "rightmost"])
            question = f"What is the color of the {side} thing?"
            answer = colors[0] if side == "leftmost" else colors[-1]
        option_texts = sorted(colors)
    elif kind == "identify":
        nouns = rng.sample(_NOUNS, n_items)
        colors = [rng.choice(_COLOR_POOL) for _ in range(n_items)]
        counts = [rng.randint(1, 3) for _ in range(n_items)]
        phrases = [_item_phrase(k, c, n) for k, c, n in zip(counts, colors, nouns)]
        scene = "On the floor, there is " + _listing(phrases) + "."
        index = rng.randrange(n_items)
        question = f"What color is the {nouns[index]}?"
        answer = colors[index]
        option_texts = sorted(set(colors) | set(rng.sample(_COLOR_POOL, 3)))
    else:
        nouns = rng.sample(_NOUNS, min(4, n_items))
        items = []
        for _ in range(n_items):
            # counts capped at 2 so totals stay within the number-word range
            items.append((rng.randint(1, 2), rng.choice(_COLOR_POOL),
                          rng.choice(nouns)))
        phrases = [_item_phrase(*it) for it in items]
        scene = "On the floor, there is " + _listing(phrases) + "."
        removed = rng.choice(nouns)
        query_color = rng.choice([c for _, c, _ in items])
        kept_total = sum(k for k, c, n in items
                         if n != removed and c == query_color)
        question = (f"If I remove all the {removed}s from the floor, "
                    f"how many {query_color} objects remain on it?")
        answer = NUMBER_WORDS[kept_total]
        option_texts = list(NUMBER_WORDS)

    block, tags = _render_options(option_texts)
    target = tags[option_texts.index(answer)]
    text = f"{scene} {question} {block}"
    return make_instance(TaskId.COLORED_OBJECTS, text, target)


# --- Temporal sequences ---

def _clock(hour: int) -> str:
    suffix = "am" if hour < 12 else "pm"
    display = hour % 12 or 12
    return f"{display}{suffix}"


def _gen_temporal(rng: random.Random, size: int) -> TaskInstance:
    person = rng.choice(_NAMES)
    place = rng.choice(_PLACES)
    bounds = sorted(rng.sample(range(5, 23), 5))
    slots = [(bounds[i], bounds[i + 1]) for i in range(4)]
    free_index = rng.randrange(4)
    sightings = []
    for i, (start, end) in enumerate(slots):
        if i == free_index:
            continue
        witness = rng.choice([n for n in _NAMES if n != person])
        activity = rng.choice(_ACTIVITIES)
        sightings.append(f"{witness} saw {person} {activity} "
                         f"from {_clock(start)} to {_clock(end)}.")
    option_texts = [f"{_clock(a)} to {_clock(b)}" for a, b in slots]
    order = list(range(4))
    rng.shuffle(order)
    shuffled_texts = [option_texts[i] for i in order]
    block, tags = _render_options(shuffled_texts)
    target = tags[order.index(free_index)]
    text = (f"Today, {person} went to the {place}. Between what times could "
            f"they have gone? We know that: {person} woke up at "
            f"{_clock(bounds[0])}. " + " ".join(sightings) +
            f" The {place} was closed after {_clock(bounds[4])}. "
            f"Between what times could {person} have gone to the {place}?\n"
            + block)
    return make_instance(TaskId.TEMPORAL_SEQUENCES, text, target)


# --- Tracking shuffled objects ---

def _gen_shuffled(rng: random.Random, size: int) -> TaskInstance:
    parties = rng.sample(_NAMES, 5)
    colors = rng.sample(_COLOR_POOL, 5)
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
    block, tags = _render_options(items)
    target = tags[items.index(holdings[queried])]
    text = (", ".join(parties[:-1]) + f", and {parties[-1]} are playing a "
            f"game. At the start of the game, they are each holding a ball: "
            f"{initial}.{narration} At the end of the game, {queried} has "
            f"the\n{block}")
    return make_instance(TaskId.SHUFFLED_OBJECTS, text, target)


# --- Web of lies ---

def _gen_weblies(rng: random.Random, size: int) -> TaskInstance:
    n = max(1, min(size, 10))
    persons = rng.sample(_NAMES, n)
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


_GENERATORS = {
    TaskId.DYCK_LANGUAGES: _gen_dyck,
    TaskId.GEOMETRIC_SHAPES: _gen_geometric,
    TaskId.NAVIGATE: _gen_navigate,
    TaskId.COLORED_OBJECTS: _gen_colored,
    TaskId.TEMPORAL_SEQUENCES: _gen_temporal,
    TaskId.SHUFFLED_OBJECTS: _gen_shuffled,
    TaskId.WEB_OF_LIES: _gen_weblies,
}
