"""Seeded instance generation, and what the task generators share.

Each task module's ``generate(rng, size)`` builds the answer first, then
renders text that parses under the same module's grammar, so generated
corpora double as grammar-coverage tests.
"""

from __future__ import annotations

import random

from . import TaskId, TaskInstance, task_module

MAX_SIZE = 200

NAMES = ("Alice", "Bob", "Claire", "Dave", "Eve", "Fred", "Gertrude",
         "Helen", "Isaac", "Jamey", "Karl", "Lola", "Melvin", "Nadia",
         "Oscar", "Patricia", "Quentin", "Rodrigo", "Sara", "Tom")


def generate_instance(task: TaskId, seed: int, size: int) -> TaskInstance:
    if not 0 <= size <= MAX_SIZE:
        raise ValueError(f"size {size} outside [0, {MAX_SIZE}]")
    # str seeds hash deterministically inside Random (unlike tuple hashes)
    rng = random.Random(f"{task.value}:{seed}")
    return task_module(task).generate(rng, size)


def render_options(options: list[str]) -> tuple[str, list[str]]:
    tags = [f"({chr(ord('A') + i)})" for i in range(len(options))]
    block = "Options:\n" + "\n".join(f"{t} {o}" for t, o in zip(tags, options))
    return block, tags
