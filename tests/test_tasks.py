"""Task-suite unit tests: grammars, solvers, generators."""

from __future__ import annotations

import pytest

from pseudoexec.cli import load_dataset, write_dataset
from pseudoexec.errors import NoMatchingOption, ParseUnsupported
from pseudoexec.tasks import (TASKS, TaskId, make_instance,
                              parse_options_block, solve)
from pseudoexec.tasks.generate import MAX_SIZE, generate_instance
from pseudoexec.tasks.geometric import classify_path, parse_path


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
