"""SVG path micro-parser and polygon/arc shape classification."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from . import TaskInstance
from ..errors import NoMatchingOption, ParseUnsupported

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


def solve_geometric(instance: TaskInstance) -> str:
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
