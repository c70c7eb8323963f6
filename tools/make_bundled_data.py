"""Regenerate the bundled deterministic artifacts:

- assets/fixtures/paper/<task>.jsonl   seven attested single-instance files
- assets/fixtures/replay/<task>.jsonl  20 generated instances per task
- assets/replay/cassette.jsonl         mock-recorded exchanges for the corpus
                                       plus the web_of_lies think exchange
- assets/replay/manifest.json          accuracies recorded at record time
- assets/golden/*.txt                  audited golden prompt instantiations

Run from the repository root: python3 tools/make_bundled_data.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pseudoexec.baselines import MethodId, build_baseline_prompt  # noqa: E402
from pseudoexec.cli import write_dataset  # noqa: E402
from pseudoexec.engine import build_execute_prompt  # noqa: E402
from pseudoexec.evaluator import evaluate_run  # noqa: E402
from pseudoexec.gateway import RecordGateway  # noqa: E402
from pseudoexec.mock import mock_gateway  # noqa: E402
from pseudoexec.prompts import (build_meta_prompt, load_nl_plan,  # noqa: E402
                                load_pseudocode, run_think)
from pseudoexec.tasks import TaskId, TaskInstance, make_instance  # noqa: E402
from pseudoexec.tasks.generate import generate_instance  # noqa: E402

ASSETS = ROOT / "src" / "pseudoexec" / "assets"

CORPUS_SIZE = 20
CORPUS_SEED_BASE = 2000
CORRUPT_FRACTION = 0.2
MODEL_ID = "mock-model"

# Attested single instances (input text and target), one per task.
PAPER_FIXTURES: dict[TaskId, tuple[str, str]] = {
    TaskId.DYCK_LANGUAGES: (
        "Complete the rest of the sequence, making sure that the parentheses "
        "are closed properly. Input: ( { { } }",
        ")"),
    TaskId.GEOMETRIC_SHAPES: (
        'This SVG path element <path d="M 38.00,62.00 L 48.00,60.00 L '
        "51.00,49.00 L 54.00,60.00 L 65.00,62.00 L 54.00,64.00 L 51.00,74.00 "
        'L 48.00,64.00 L 38.00,62.00"/> draws a\n'
        "Options:\n(A) circle\n(B) heptagon\n(C) hexagon\n(D) kite\n"
        "(E) line\n(F) octagon\n(G) pentagon\n(H) rectangle\n(I) sector\n"
        "(J) triangle",
        "(F)"),
    TaskId.NAVIGATE: (
        "If you follow these instructions, do you return to the starting "
        "point? Take 3 steps. Turn around. Take 5 steps. Turn right. "
        "Turn right. Take 1 step. Take 1 step.",
        "Yes"),
    TaskId.COLORED_OBJECTS: (
        "On the floor, there is one mauve cat toy, two purple cat toys, "
        "three grey cat toys, two mauve notebooks, three grey notebooks, "
        "three burgundy cat toys, and one purple notebook. If I remove all "
        "the notebooks from the floor, how many grey objects remain on it? "
        "Options: (A) zero (B) one (C) two (D) three (E) four (F) five "
        "(G) six (H) seven (I) eight (J) nine (K) ten (L) eleven (M) twelve "
        "(N) thirteen (O) fourteen (P) fifteen (Q) sixteen",
        "(D)"),
    TaskId.TEMPORAL_SEQUENCES: (
        "Today, Jason went to the movies. Between what times could they "
        "have gone? We know that: Jason woke up at 10am.\n"
        "Linda saw Jason getting a coffee at the cafe from 10am to 3pm.\n"
        "Jennifer saw Jason walking towards the Statue of Liberty from 6pm "
        "to 7pm.\n"
        "Sean saw Jason buying a phone at the electronics store from 7pm to "
        "10pm.\n"
        "The movies was closed after 10pm.\n"
        "Between what times could Jason have gone to the movies?\n"
        "Options:\n(A) 3pm to 6pm\n(B) 10am to 3pm\n(C) 7pm to 10pm\n"
        "(D) 6pm to 7pm",
        "(A)"),
    TaskId.SHUFFLED_OBJECTS: (
        "Alice, Bob, Claire, Dave, and Eve are playing a game. At the start "
        "of the game, they are each holding a ball: Alice has a orange "
        "ball, Bob has a black ball, Claire has a pink ball, Dave has a "
        "white ball, and Eve has a red ball.\n"
        "As the game progresses, pairs of players trade balls. First, Alice "
        "and Dave swap balls. Then, Bob and Claire swap balls. Then, Claire "
        "and Dave swap balls. Then, Dave and Bob swap balls. Finally, Alice "
        "and Eve swap balls. At the end of the game, Claire has the\n"
        "Options:\n(A) orange ball\n(B) black ball\n(C) pink ball\n"
        "(D) white ball\n(E) red ball",
        "(A)"),
    TaskId.WEB_OF_LIES: (
        "Vina tells the truth. Helene says Vina lies. Kandi says Helene "
        "tells the truth. Jamey says Kandi lies. Ka says Jamey lies. "
        "Does Ka tell the truth?",
        "No"),
}


def make_paper_fixtures() -> None:
    write_dataset([make_instance(task, text, target)
                   for task, (text, target) in PAPER_FIXTURES.items()],
                  ASSETS / "fixtures" / "paper")
    print("paper fixtures: 7 files")


def make_replay_corpus() -> dict[TaskId, list[TaskInstance]]:
    corpus: dict[TaskId, list[TaskInstance]] = {}
    for task in TaskId:
        corpus[task] = [
            generate_instance(task, CORPUS_SEED_BASE + k, (k % 10) + 1)
            for k in range(CORPUS_SIZE)]
    write_dataset([inst for task in TaskId for inst in corpus[task]],
                  ASSETS / "fixtures" / "replay")
    print(f"replay corpus: {CORPUS_SIZE} instances x 7 tasks")
    return corpus


def record_cassette(corpus: dict[TaskId, list[TaskInstance]]) -> None:
    cassette = ASSETS / "replay" / "cassette.jsonl"
    cassette.parent.mkdir(parents=True, exist_ok=True)
    if cassette.exists():
        cassette.unlink()
    instances = [inst for task in TaskId for inst in corpus[task]]
    recorder = RecordGateway(mock_gateway(instances, CORRUPT_FRACTION),
                             cassette)

    # Think exchange for web_of_lies (seed 0, human demo pseudocode).
    run_think(TaskId.WEB_OF_LIES, recorder, 0, model_id=MODEL_ID)

    assets = {task: load_pseudocode(task) for task in TaskId}
    report = evaluate_run(MethodId.THINK_AND_EXECUTE, instances, recorder,
                          assets, model_id=MODEL_ID)
    manifest = {
        "model_id": MODEL_ID,
        "method": MethodId.THINK_AND_EXECUTE.value,
        "corrupt_fraction": CORRUPT_FRACTION,
        "per_task": {
            task.value: {"correct": tally.correct, "total": tally.total}
            for task, tally in sorted(report.per_task.items(),
                                      key=lambda kv: kv[0].value)
        },
        "average_accuracy": report.average_accuracy,
    }
    (ASSETS / "replay" / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"cassette recorded; average accuracy "
          f"{report.average_accuracy * 100:.1f}")


def make_goldens() -> None:
    golden = ASSETS / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    target = TaskId.WEB_OF_LIES
    files = {
        "analysis_meta_web_of_lies_seed0.txt":
            build_meta_prompt("meta_analysis", target, 0),
        "code_meta_web_of_lies_seed0.txt":
            build_meta_prompt("meta_code", target, 0,
                              analysis=load_nl_plan(target).body),
        "nl_plan_web_of_lies_seed0.txt":
            build_meta_prompt("meta_nlplan", target, 0),
    }
    dyck_inst = make_instance(TaskId.DYCK_LANGUAGES,
                              *PAPER_FIXTURES[TaskId.DYCK_LANGUAGES])
    system, user = build_execute_prompt(
        load_pseudocode(TaskId.DYCK_LANGUAGES), dyck_inst)
    files["execute_dyck_paper.txt"] = user
    files["execute_system.txt"] = system

    nav_inst = make_instance(TaskId.NAVIGATE,
                             *PAPER_FIXTURES[TaskId.NAVIGATE])
    for method, name in [
            (MethodId.DIRECT, "direct_navigate_paper.txt"),
            (MethodId.ZERO_SHOT_COT, "cot_navigate_paper.txt"),
            (MethodId.PLAN_AND_SOLVE, "plan_and_solve_navigate_paper.txt"),
            (MethodId.ZERO_SHOT_POT, "pot_navigate_paper.txt")]:
        _, user = build_baseline_prompt(method, nav_inst)
        files[name] = user
    _, user = build_baseline_prompt(MethodId.NL_PLANNING, nav_inst,
                                    load_nl_plan(TaskId.NAVIGATE))
    files["nl_planning_navigate_paper.txt"] = user

    for name, body in files.items():
        (golden / name).write_text(body + "\n", encoding="utf-8")
    print(f"golden prompts: {len(files)} files")


def main() -> None:
    make_paper_fixtures()
    corpus = make_replay_corpus()
    record_cassette(corpus)
    make_goldens()


if __name__ == "__main__":
    main()
