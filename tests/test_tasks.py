"""Task-suite unit tests: grammars, solvers, generators."""

from __future__ import annotations

import pytest

from pseudoexec.cli import load_dataset, write_dataset
from pseudoexec.errors import NoMatchingOption, ParseUnsupported
from pseudoexec.tasks import (TASKS, TaskId, make_instance,
                              parse_options_block, solve)
from pseudoexec.tasks.generate import MAX_SIZE, generate_instance
from pseudoexec.tasks.geometric import classify_path, parse_path
from pseudoexec.tasks.temporal import parse_clock


def _solve_text(task: TaskId, text: str) -> str:
    return solve(task, make_instance(task, text, "No"))


def test_paper_fixtures_solve_to_attested_targets(paper_fixture_dir):
    instances = load_dataset(paper_fixture_dir, list(TaskId))
    assert len(instances) == 7
    for inst in instances:
        assert solve(inst.task, inst) == inst.target, inst.task


def test_options_block_line_format():
    opts = parse_options_block("Q?\nOptions:\n(A) circle\n(B) line")
    assert opts == (("(A)", "circle"), ("(B)", "line"))


def test_options_block_inline_format():
    opts = parse_options_block("Q? Options: (A) zero (B) one (C) two")
    assert opts == (("(A)", "zero"), ("(B)", "one"), ("(C)", "two"))


def test_instance_invariants():
    with pytest.raises(ValueError):
        make_instance(TaskId.NAVIGATE, "text", "Maybe")
    with pytest.raises(ValueError):
        make_instance(TaskId.GEOMETRIC_SHAPES,
                      "draws a\nOptions:\n(A) circle", "(B)")


def test_dyck_solver_and_unbalanced():
    dyck = TaskId.DYCK_LANGUAGES
    assert _solve_text(dyck, "Input: ( { { } }") == ")"
    assert _solve_text(dyck, "Input: < [ (") == ") ] >"
    with pytest.raises(ParseUnsupported,
                       match=r"']' does not match open '\('"):
        _solve_text(dyck, "Input: ( ]")
    with pytest.raises(ParseUnsupported, match=r"'\)' with empty stack"):
        _solve_text(dyck, "Input: )")


def test_geometric_classify_paper_octagon():
    d = ("M 38.00,62.00 L 48.00,60.00 L 51.00,49.00 L 54.00,60.00 "
         "L 65.00,62.00 L 54.00,64.00 L 51.00,74.00 L 48.00,64.00 "
         "L 38.00,62.00")
    assert classify_path(parse_path(d)) == "octagon"


def test_geometric_unsupported_opcode():
    with pytest.raises(ParseUnsupported, match="unsupported SVG opcode 'C'"):
        parse_path("M 0,0 C 1,1 2,2 3,3")


def test_navigate_paper_example():
    text = ("If you follow these instructions, do you return to the "
            "starting point? Take 3 steps. Turn around. Take 5 steps. "
            "Turn right. Turn right. Take 1 step. Take 1 step.")
    assert _solve_text(TaskId.NAVIGATE, text) == "Yes"


def test_navigate_unknown_command():
    with pytest.raises(ParseUnsupported):
        _solve_text(TaskId.NAVIGATE,
                    "do you return to the starting point? Jump twice.")


def test_web_of_lies_chain():
    assert _solve_text(
        TaskId.WEB_OF_LIES, "Vina tells the truth. Helene says Vina lies. "
        "Does Helene tell the truth?") == "No"


def test_temporal_no_free_slot():
    text = ("Today, Amy went to the market. We know that: Amy woke up "
            "at 9am.\nBob saw Amy walking in the park from 9am to 5pm.\n"
            "The market was closed after 5pm.\n"
            "Between what times could Amy have gone to the market?\n"
            "Options:\n(A) 9am to 5pm\n(B) 10am to 11am\n(C) 1pm to 2pm\n"
            "(D) 3pm to 4pm")
    inst = make_instance(TaskId.TEMPORAL_SEQUENCES, text, "(A)")
    with pytest.raises(NoMatchingOption,
                       match="every option conflicts with the schedule"):
        solve(TaskId.TEMPORAL_SEQUENCES, inst)


def test_shuffled_unknown_party():
    text = ("Alice, Bob, Claire, Dave, and Eve are playing a game. At the "
            "start of the game, they are each holding a ball: Alice has a "
            "red ball, Bob has a blue ball, Claire has a green ball, Dave "
            "has a pink ball, and Eve has a white ball.\nAs the game "
            "progresses, pairs of players trade balls. First, Alice and "
            "Zed swap balls. At the end of the game, Alice has the\n"
            "Options:\n(A) red ball\n(B) blue ball\n(C) green ball\n"
            "(D) pink ball\n(E) white ball")
    inst = make_instance(TaskId.SHUFFLED_OBJECTS, text, "(A)")
    with pytest.raises(ParseUnsupported, match="unknown party 'Zed'"):
        solve(TaskId.SHUFFLED_OBJECTS, inst)


_CO, _GS = TaskId.COLORED_OBJECTS, TaskId.GEOMETRIC_SHAPES
_SO, _TS = TaskId.SHUFFLED_OBJECTS, TaskId.TEMPORAL_SEQUENCES
_DL, _WL = TaskId.DYCK_LANGUAGES, TaskId.WEB_OF_LIES
_COUNTS = " Options: (A) zero (B) one (C) two (D) three"
_COLORS = " Options: (A) blue (B) red"
_ROW = ("On the desk, you see a set of things arranged in a row: a red pen, "
        "a blue mug. ")
_SHAPES = "\nOptions:\n(A) kite\n(B) line\n(C) rectangle\n(D) triangle"
_BALLS = "\nOptions:\n(A) red ball\n(B) blue ball"
_HOLDINGS = "Alice has a red ball, Bob has a blue ball. "
_DAY = "Amy woke up at 9am. The market was closed after 5pm. "


def _svg(d: str, options: str = _SHAPES) -> str:
    return f'This SVG path element <path d="{d}"/> draws a{options}'


# One instance of each form a solver takes that no other test reaches, with
# its answer worked out by hand, or the error it raises.
SOLVER_FORMS = [
    ("colored-and-listing-count", _CO,
     "On the desk, there is one red pen and two blue mugs. How many blue "
     "objects are there?" + _COUNTS, "(C)"),
    ("colored-count-beyond-words", _CO,
     "On the desk, there are sixteen red pens and two red mugs. How many "
     "red objects are there?" + _COUNTS,
     (ParseUnsupported, "count 18 beyond number-word range")),
    ("colored-remove-beyond-words", _CO,
     "On the desk, there are sixteen red pens and two red mugs. If I "
     "remove all the cups from the desk, how many red objects remain on "
     "it?" + _COUNTS, (ParseUnsupported, "count 18 beyond number-word range")),
    ("colored-item-too-short", _CO,
     "On the desk, there is one pen and two blue mugs. How many blue "
     "objects are there?" + _COUNTS,
     (ParseUnsupported, "bad item phrase: 'one pen'")),
    ("colored-item-no-count", _CO,
     "On the desk, there is a red pen and two blue mugs. How many blue "
     "objects are there?" + _COUNTS,
     (ParseUnsupported, "bad item phrase: 'a red pen'")),
    ("colored-row-item-count", _CO,
     "On the desk, you see a set of things arranged in a row: one red pen, "
     "a blue mug. What is the color of the leftmost thing?" + _COLORS,
     (ParseUnsupported, "bad row item phrase: 'one red pen'")),
    ("colored-no-question", _CO, "On the desk, there is one red pen." + _COLORS,
     (ParseUnsupported, "no question found")),
    ("colored-no-scene", _CO, "How many red objects are there?" + _COUNTS,
     (ParseUnsupported, "no scene sentence found")),
    ("colored-row-unknown-object", _CO,
     _ROW + "What is the color of the thing directly to the left of the "
     "cup?" + _COLORS, (ParseUnsupported, "unknown row object: 'cup'")),
    ("colored-row-no-neighbor", _CO,
     _ROW + "What is the color of the thing directly to the left of the "
     "pen?" + _COLORS, (ParseUnsupported, "no neighbor on that side")),
    ("colored-row-count-question", _CO,
     _ROW + "How many red objects are there?" + _COUNTS,
     (ParseUnsupported,
      "unsupported row question: 'How many red objects are there'")),
    ("colored-not-unique", _CO,
     "On the desk, there is one red pen and one blue pen. What color is the "
     "pen?" + _COLORS, (ParseUnsupported, "object 'pen' not unique")),
    ("colored-inventory-question", _CO,
     "On the desk, there is one red pen and one blue mug. Which object is "
     "the largest?" + _COLORS,
     (ParseUnsupported,
      "unsupported inventory question: 'Which object is the largest'")),
    ("colored-scene-layout", _CO,
     "Under the desk lies one red pen. What color is the pen?" + _COLORS,
     (ParseUnsupported,
      "unsupported scene layout: 'Under the desk lies one red pen'")),
    ("dyck-empty", _DL, "Input:",
     (ParseUnsupported, "no bracket sequence found")),
    ("dyck-not-a-bracket", _DL, "Input: ( x",
     (ParseUnsupported, "not a bracket: 'x'")),
    # Sides sqrt 5, sqrt 5, sqrt 2, sqrt 2: the first two pairs are equal.
    ("geometric-kite-first-pair", _GS,
     _svg("M -1,0 L 0,2 L 1,0 L 0,-1 L -1,0"), "(A)"),
    # Sides 4, sqrt 10, sqrt 20, sqrt 26 and no right angle: a rectangle
    # or a kite, whichever is offered first in that order.
    ("geometric-quadrilateral", _GS, _svg("M 0,0 L 4,0 L 5,3 L 1,5 L 0,0"),
     "(C)"),
    ("geometric-quadrilateral-kite", _GS,
     _svg("M 0,0 L 4,0 L 5,3 L 1,5 L 0,0", "\nOptions:\n(A) kite\n(B) line"),
     "(A)"),
    # Four sides of sqrt 5 and no right angle: a rhombus, not two pairs.
    ("geometric-rhombus", _GS, _svg("M 0,0 L 2,1 L 4,0 L 2,-1 L 0,0"), "(C)"),
    ("geometric-line-arity", _GS, _svg("M 0,0 L 1"),
     (ParseUnsupported, r"L expects one endpoint, got \[1.0\]")),
    ("geometric-arc-arity", _GS, _svg("M 0,0 A 1,1 0 0 1"),
     (ParseUnsupported, "A expects 7 parameters, got")),
    ("geometric-no-move", _GS, _svg("L 0,0 L 1,1"),
     (ParseUnsupported, "path must start with a MoveTo")),
    ("geometric-open-polyline", _GS, _svg("M 0,0 L 1,0 L 1,1"),
     (ParseUnsupported, "open polyline with more than one segment")),
    ("geometric-two-vertices", _GS, _svg("M 0,0 L 1,0 L 0,0"),
     (ParseUnsupported, "no shape name for 2 vertices")),
    ("geometric-no-path", _GS, "A drawing." + _SHAPES,
     (ParseUnsupported, "no SVG path d attribute found")),
    ("geometric-shape-not-offered", _GS,
     _svg("M 0,0 L 4,0 L 0,3 L 0,0", "\nOptions:\n(A) circle\n(B) line"),
     (NoMatchingOption, r"shape \['triangle'\] not among options")),
    ("shuffled-no-holdings", _SO,
     "Nobody holds a thing. At the end of the game, Alice has the" + _BALLS,
     (ParseUnsupported, "no initial holdings found")),
    ("shuffled-unknown-first-party", _SO,
     _HOLDINGS + "Then Carol and Bob swap balls. At the end of the game, "
     "Alice has the" + _BALLS, (ParseUnsupported, "unknown party 'Carol'")),
    ("shuffled-no-query", _SO,
     _HOLDINGS + "Then Alice and Bob swap balls. Who has the red ball?"
     + _BALLS, (ParseUnsupported, "no final query found")),
    ("shuffled-unknown-queried-party", _SO,
     _HOLDINGS + "Then Alice and Bob swap balls. At the end of the game, "
     "Dave has the" + _BALLS, (ParseUnsupported, "unknown party 'Dave'")),
    ("temporal-bad-hour", _TS,
     "Amy woke up at 13pm. The market was closed after 5pm.\nOptions:\n"
     "(A) 1pm to 2pm", (ParseUnsupported, "bad clock hour: '13pm'")),
    ("temporal-bad-span", _TS, _DAY + "\nOptions:\n(A) noon to 2pm",
     (ParseUnsupported, "bad time span: 'noon to 2pm'")),
    ("temporal-no-wake", _TS,
     "The market was closed after 5pm.\nOptions:\n(A) 1pm to 2pm",
     (ParseUnsupported, "no wake-up statement found")),
    ("temporal-no-close", _TS, "Amy woke up at 9am.\nOptions:\n(A) 1pm to 2pm",
     (ParseUnsupported, "no closing statement found")),
    ("temporal-two-free", _TS,
     _DAY + "\nOptions:\n(A) 9am to 10am\n(B) 11am to 12pm",
     (NoMatchingOption, r"multiple free options: \['\(A\)', '\(B\)'\]")),
    ("weblies-no-question", _WL, "Vina tells the truth. Alice says Vina lies.",
     (ParseUnsupported, "no final question found")),
    ("weblies-ungrounded", _WL,
     "Alice says Vina lies. Does Alice tell the truth?",
     (ParseUnsupported, "'Alice' references 'Vina' before grounding")),
    ("weblies-unsupported-statement", _WL,
     "Vina tells the truth. Alice thinks Vina lies. Does Alice tell the "
     "truth?",
     (ParseUnsupported, "unsupported statement: 'Alice thinks Vina lies'")),
    ("weblies-unknown-person", _WL,
     "Vina tells the truth. Does Bob tell the truth?",
     (ParseUnsupported, "question names unknown person 'Bob'")),
]


@pytest.mark.parametrize("task, text, expected",
                         [case[1:] for case in SOLVER_FORMS],
                         ids=[case[0] for case in SOLVER_FORMS])
def test_each_solver_form_gives_its_answer_or_error(task, text, expected):
    # The target is not read: each instance gets any target its task takes.
    options = parse_options_block(text)
    target = {"yes_no": "Yes", "text": ")"}.get(TASKS[task].answers)
    instance = make_instance(task, text, target or options[0][0])
    if isinstance(expected, str):
        assert solve(task, instance) == expected
    else:
        error, message = expected
        with pytest.raises(error, match=f"^{message}"):
            solve(task, instance)


def test_a_clock_time_the_instance_grammar_never_yields_is_refused():
    # Every time an instance holds matches parse_clock's own pattern, so
    # only a direct call reaches this error.
    with pytest.raises(ParseUnsupported, match="^bad clock time: 'noon'$"):
        parse_clock("noon")


def test_generator_size_bounds():
    with pytest.raises(ValueError, match=f"size {MAX_SIZE + 1} outside"):
        generate_instance(TaskId.NAVIGATE, 0, MAX_SIZE + 1)
    with pytest.raises(ValueError, match="size -1 outside"):
        generate_instance(TaskId.NAVIGATE, 0, -1)


def test_generator_determinism_and_roundtrip():
    for task in TaskId:
        for seed in range(40):
            size = (seed % 12) + 1
            a = generate_instance(task, seed, size)
            b = generate_instance(task, seed, size)
            assert a == b
            assert solve(task, a) == a.target


def test_generator_size_zero_navigate():
    inst = generate_instance(TaskId.NAVIGATE, 1, 0)
    assert inst.target == "Yes"
    assert solve(TaskId.NAVIGATE, inst) == "Yes"


def test_multiple_choice_targets_are_tags():
    for task in (t for t, spec in TASKS.items() if spec.answers == "choice"):
        inst = generate_instance(task, 3, 4)
        assert inst.target in [tag for tag, _ in inst.options]


def test_generators_reproduce_the_bundled_corpus(replay_fixture_dir, tmp_path):
    # tools/make_bundled_data.py writes the corpus with this same call.
    write_dataset([generate_instance(task, 2000 + k, k % 10 + 1)
                   for task in TaskId for k in range(20)], tmp_path)
    for task in TaskId:
        name = f"{task.value}.jsonl"
        assert (tmp_path / name).read_bytes() == \
            (replay_fixture_dir / name).read_bytes(), name
