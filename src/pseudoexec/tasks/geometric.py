"""SVG path micro-parser and polygon/arc shape classification."""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from enum import Enum

from . import TaskId, TaskInstance, make_instance
from ..errors import NoMatchingOption, ParseUnsupported
from .generate import render_options

# Absolute tolerance for coordinate equality and for right-angle tests on
# unit-normalized dot products.
TOL = 1e-6

_D_ATTR = re.compile(r'd="([^"]*)"')
_COMMAND = re.compile(r"([A-Za-z])([^A-Za-z]*)")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


class Opcode(Enum):
    MOVE_TO = "M"
    LINE_TO = "L"
    ARC = "A"


@dataclass(frozen=True)
class PathCommand:
    opcode: Opcode
    params: tuple[float, ...]

    @property
    def endpoint(self) -> tuple[float, float]:
        return (self.params[-2], self.params[-1])


def parse_path(d: str) -> list[PathCommand]:
    """Parse an SVG path ``d`` attribute restricted to M/L/A commands."""
    commands = []
    for letter, body in _COMMAND.findall(d):
        nums = [float(x) for x in _NUMBER.findall(body)]
        if letter in ("M", "L"):
            if len(nums) != 2:
                raise ParseUnsupported(f"{letter} expects one endpoint, got {nums}")
            commands.append(PathCommand(Opcode(letter), tuple(nums)))
        elif letter == "A":
            if len(nums) != 7:
                raise ParseUnsupported(f"A expects 7 parameters, got {nums}")
            commands.append(PathCommand(Opcode.ARC, tuple(nums)))
        else:
            raise ParseUnsupported(f"unsupported SVG opcode {letter!r}")
    if not commands or commands[0].opcode is not Opcode.MOVE_TO:
        raise ParseUnsupported("path must start with a MoveTo")
    return commands


def _close(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return abs(a[0] - b[0]) <= TOL and abs(a[1] - b[1]) <= TOL


def _distinct_vertices(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for p in points:
        if not any(_close(p, q) for q in out):
            out.append(p)
    return out


def _right_angle(prev, corner, nxt) -> bool:
    ux, uy = prev[0] - corner[0], prev[1] - corner[1]
    vx, vy = nxt[0] - corner[0], nxt[1] - corner[1]
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu <= TOL or nv <= TOL:
        return False
    return abs((ux * vx + uy * vy) / (nu * nv)) <= TOL


def _side_lengths(vertices):
    n = len(vertices)
    return [math.hypot(vertices[(i + 1) % n][0] - vertices[i][0],
                       vertices[(i + 1) % n][1] - vertices[i][1])
            for i in range(n)]


def _is_kite(vertices) -> bool:
    """Two distinct pairs of equal adjacent sides."""
    s = _side_lengths(vertices)
    ab = abs(s[0] - s[1]) <= TOL and abs(s[2] - s[3]) <= TOL
    bc = abs(s[1] - s[2]) <= TOL and abs(s[3] - s[0]) <= TOL
    if ab:
        return abs(s[1] - s[2]) > TOL  # all-equal is a rhombus, not two pairs
    if bc:
        return abs(s[2] - s[3]) > TOL
    return False


_POLYGON_NAMES = {3: "triangle", 5: "pentagon", 6: "hexagon",
                  7: "heptagon", 8: "octagon"}


def classify_path(commands: list[PathCommand]) -> str | list[str]:
    """Name the shape drawn by the commands.

    Returns a single name, or an ordered candidate list for 4-gons that are
    neither rectangles nor kites (resolved against the listed options).
    """
    arcs = [c for c in commands if c.opcode is Opcode.ARC]
    lines = [c for c in commands if c.opcode is Opcode.LINE_TO]
    if arcs:
        start = commands[0].endpoint
        closed = _close(commands[-1].endpoint, start)
        if not lines and closed:
            return "circle"
        return "sector"

    points = [c.endpoint for c in commands]
    closed = len(points) > 2 and _close(points[0], points[-1])
    if not closed:
        if len(points) == 2:
            return "line"
        raise ParseUnsupported("open polyline with more than one segment")

    vertices = _distinct_vertices(points[:-1])
    n = len(vertices)
    if n == 4:
        corners_right = all(
            _right_angle(vertices[i - 1], vertices[i], vertices[(i + 1) % 4])
            for i in range(4))
        if corners_right:
            return "rectangle"
        if _is_kite(vertices):
            return "kite"
        return ["rectangle", "kite"]
    if n in _POLYGON_NAMES:
        return _POLYGON_NAMES[n]
    raise ParseUnsupported(f"no shape name for {n} vertices")


def solve(instance: TaskInstance) -> str:
    """Classify the path in the instance and return the matching option tag."""
    m = _D_ATTR.search(instance.input_text)
    if not m:
        raise ParseUnsupported("no SVG path d attribute found")
    shape = classify_path(parse_path(m.group(1)))
    candidates = [shape] if isinstance(shape, str) else shape
    for name in candidates:
        for tag, text in instance.options:
            if text == name:
                return tag
    raise NoMatchingOption(f"shape {candidates} not among options")


_GEOMETRIC_OPTIONS = ("circle", "heptagon", "hexagon", "kite", "line",
                      "octagon", "pentagon", "rectangle", "sector", "triangle")


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


def generate(rng: random.Random, size: int) -> TaskInstance:
    shape = _GEOMETRIC_OPTIONS[(size + rng.randrange(len(_GEOMETRIC_OPTIONS)))
                               % len(_GEOMETRIC_OPTIONS)]
    while True:
        d = _shape_path(rng, shape)
        if classify_path(parse_path(d)) == shape:
            break
    block, tags = render_options(list(_GEOMETRIC_OPTIONS))
    target = tags[_GEOMETRIC_OPTIONS.index(shape)]
    text = f'This SVG path element <path d="{d}"/> draws a\n{block}'
    return make_instance(TaskId.GEOMETRIC_SHAPES, text, target)
