"""Regenerate the bundled deterministic artifacts:

- assets/fixtures/replay/<task>.jsonl  20 generated instances per task
- assets/replay/cassette.jsonl         mock-recorded exchanges for the corpus
                                       plus the web_of_lies think exchange
- assets/replay/manifest.json          accuracies recorded at record time
- assets/golden/*.txt                  audited golden prompt instantiations

The seven attested single instances in assets/fixtures/paper/ are committed
data, not generated: the goldens read them, and this tool never rewrites
them.

Run from the repository root: python3 tools/make_bundled_data.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pseudoexec.baselines import MethodId, build_baseline_prompt  # noqa: E402
from pseudoexec.cli import load_dataset, write_dataset  # noqa: E402
from pseudoexec.evaluator import evaluate_run  # noqa: E402
from pseudoexec.gateway import RecordGateway  # noqa: E402
from pseudoexec.mock import CORRUPT_FRACTION, mock_gateway  # noqa: E402
from pseudoexec.prompts import (build_meta_prompt, load_nl_plan,  # noqa: E402
                                load_pseudocode, run_think)
from pseudoexec.tasks import TaskId, TaskInstance  # noqa: E402
from pseudoexec.tasks.generate import generate_instance  # noqa: E402

ASSETS = ROOT / "src" / "pseudoexec" / "assets"

CORPUS_SIZE = 20
CORPUS_SEED_BASE = 2000
MODEL_ID = "mock-model"


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
    recorder = RecordGateway(mock_gateway(instances), cassette)

    # Think exchange for web_of_lies (seed 0, human demo pseudocode).
    run_think(TaskId.WEB_OF_LIES, recorder, 0, model_id=MODEL_ID)

    assets = {task: load_pseudocode(task) for task in TaskId}
    report = evaluate_run(MethodId.THINK_AND_EXECUTE, instances, recorder,
                          assets, model_id=MODEL_ID)
    manifest = {**report.to_manifest(), "corrupt_fraction": CORRUPT_FRACTION}
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
    paper = {inst.task: inst for inst in load_dataset(
        ASSETS / "fixtures" / "paper", list(TaskId))}
    system, user = build_baseline_prompt(
        MethodId.THINK_AND_EXECUTE, paper[TaskId.DYCK_LANGUAGES],
        load_pseudocode(TaskId.DYCK_LANGUAGES))
    files["execute_dyck_paper.txt"] = user
    files["execute_system.txt"] = system

    nav_plan = load_nl_plan(TaskId.NAVIGATE)
    for method, name in [
            (MethodId.DIRECT, "direct"),
            (MethodId.ZERO_SHOT_COT, "cot"),
            (MethodId.PLAN_AND_SOLVE, "plan_and_solve"),
            (MethodId.ZERO_SHOT_POT, "pot"),
            (MethodId.NL_PLANNING, "nl_planning")]:
        _, user = build_baseline_prompt(method, paper[TaskId.NAVIGATE],
                                        nav_plan)
        files[f"{name}_navigate_paper.txt"] = user

    for name, body in files.items():
        (golden / name).write_text(body + "\n", encoding="utf-8")
    print(f"golden prompts: {len(files)} files")


def main() -> None:
    corpus = make_replay_corpus()
    record_cassette(corpus)
    make_goldens()


if __name__ == "__main__":
    main()
