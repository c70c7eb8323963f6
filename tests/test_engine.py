"""Execute-engine tests: template instantiation, the request bytes of every
method, marker extraction, run_instance failure handling."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoexec import baselines, prompts
from pseudoexec.baselines import (REQUEST_BY_METHOD, FailureKind, MethodId,
                                  SandboxResult, asset_digests,
                                  build_baseline_prompt, pot_answer,
                                  task_assets)
from pseudoexec.cli import load_dataset
from pseudoexec.engine import (Prediction, build_execute_prompt,
                               extract_final_answer, reasoner_request,
                               run_instance)
from pseudoexec.errors import CassetteMiss, MissingAsset
from pseudoexec.evaluator import evaluate_run
from pseudoexec.gateway import (ChatRequest, Gateway, MockGateway,
                                ReplayGateway, digest)
from pseudoexec.mock import mock_gateway
from pseudoexec.prompts import (PSEUDOCODE_SOURCES, load_nl_plan,
                                load_pseudocode)
from pseudoexec.tasks import TaskId, make_instance
from pseudoexec.tasks.generate import generate_instance


def _dyck_instance():
    return make_instance(
        TaskId.DYCK_LANGUAGES,
        "Complete the rest of the sequence, making sure that the "
        "parentheses are closed properly. Input: ( { { } }",
        ")")


def test_execute_prompt_layout():
    asset = load_pseudocode(TaskId.DYCK_LANGUAGES)
    system, user = build_execute_prompt(asset, _dyck_instance())
    assert system == ("Generate the expected outputs (from all print() "
                      "functions) of the code.")
    assert user.startswith(asset.body)
    assert "final_answer = complete_dyck_languages(input_text)" in user
    assert 'print("Final answer:"+ final_answer)' in user
    assert user.endswith(
        "Generate the expected execution output (output from all print() "
        "functions) of the code. You don't have to actually run the code "
        "and do not care about 'not implemented error'.")


def test_execute_prompt_escapes_double_quotes():
    asset = load_pseudocode(TaskId.WEB_OF_LIES)
    inst = make_instance(
        TaskId.WEB_OF_LIES,
        'Quoted "Vina" tells the truth. Does Vina tell the truth?'
        .replace("Quoted ", ""),
        "Yes")
    text = 'Says "hi". ' + inst.input_text
    inst2 = make_instance(TaskId.WEB_OF_LIES, text, "Yes")
    _, user = build_execute_prompt(asset, inst2)
    assert 'input_text = "Says \\"hi\\". ' in user
    # Every double quote, and nothing else, is escaped.
    embedded = user.split('input_text = "', 1)[1].split(
        '"\nfinal_answer', 1)[0]
    assert embedded == text.replace('"', '\\"')


_TEXT = st.lists(st.sampled_from(
    ['"', "\\", '\\"', "\n", "\u2028", "a", " ",
     '<path d="M 31,29 L 34,76"/>']), max_size=24).map("".join)


@settings(max_examples=300)
@given(texts=st.tuples(_TEXT, _TEXT))
def test_the_execute_instance_literal_round_trips(texts):
    """Execute embeds the instance as an escaped string literal; two
    instances get the same request only if their texts are the same, so a
    request finds the one instance it was built for.  A geometric_shapes
    instance quotes its SVG path data."""
    shapes = generate_instance(TaskId.GEOMETRIC_SHAPES, 0, 3)
    asset = load_pseudocode(TaskId.GEOMETRIC_SHAPES)
    instances = [dataclasses.replace(shapes, input_text=text +
                                     shapes.input_text) for text in texts]
    built = {reasoner_request(MethodId.THINK_AND_EXECUTE, instance, asset,
                              "mock-model"): instance
             for instance in instances}
    assert built[reasoner_request(MethodId.THINK_AND_EXECUTE, instances[0],
                                  asset, "mock-model")] == instances[0]
    assert len(built) == len(set(texts))


def test_extract_last_marker():
    assert extract_final_answer(
        "Final answer: Yes\nmore\nFinal answer: (F) octagon") == \
        "(F) octagon"
    assert extract_final_answer("Final answer:No") == "No"
    assert extract_final_answer("Final answer:  spaced  ") == "spaced"


def test_extract_missing_marker():
    assert extract_final_answer("no marker here") is None
    assert extract_final_answer(
        "final answer: lowercase is not the marker") is None


@settings(max_examples=300)
@given(prefix=st.text(max_size=80).filter(lambda s: "Final answer:" not in s),
       answer=st.text(alphabet=st.characters(exclude_characters="\n",
                                             exclude_categories=("C",)),
                      max_size=40))
def test_extract_single_marker_property(prefix, answer):
    transcript = prefix + "\nFinal answer: " + answer
    assert extract_final_answer(transcript) == answer.strip()


def test_prediction_invariant():
    with pytest.raises(ValueError):
        Prediction(transcript="", final_answer="x",
                   kind=FailureKind.NO_FINAL_ANSWER)
    with pytest.raises(ValueError):
        Prediction(transcript="", final_answer=None)


def test_run_instance_think_and_execute_mock():
    inst = generate_instance(TaskId.NAVIGATE, 3, 4)
    gateway = MockGateway(responders={
        "reasoner": lambda r: "step\nFinal answer: Yes"})
    pred = run_instance(MethodId.THINK_AND_EXECUTE, inst,
                        load_pseudocode(TaskId.NAVIGATE),
                        gateway)
    assert pred.final_answer == "Yes"


def test_run_instance_records_missing_marker_as_failure():
    inst = generate_instance(TaskId.NAVIGATE, 3, 4)
    gateway = MockGateway(responders={"reasoner": lambda r: "no marker"})
    pred = run_instance(MethodId.THINK_AND_EXECUTE, inst,
                        load_pseudocode(TaskId.NAVIGATE),
                        gateway)
    assert pred.final_answer is None
    assert pred.failure == "no_final_answer"


def test_run_instance_records_gateway_failure():
    inst = generate_instance(TaskId.NAVIGATE, 3, 4)
    pred = run_instance(MethodId.THINK_AND_EXECUTE, inst,
                        load_pseudocode(TaskId.NAVIGATE),
                        MockGateway())
    assert pred.failure is not None
    assert pred.failure.startswith("gateway_error")


def test_run_instance_pot_gateway_failure_skips_sandbox(monkeypatch):
    def no_sandbox(*args, **kwargs):
        raise AssertionError("the sandbox ran without a program")

    monkeypatch.setattr(baselines, "execute_program", no_sandbox)
    inst = generate_instance(TaskId.NAVIGATE, 3, 4)
    pred = run_instance(MethodId.ZERO_SHOT_POT, inst, None, MockGateway())
    assert pred.final_answer is None
    assert pred.failure.startswith("gateway_error")


def test_failure_text_of_every_kind(tmp_path):
    """The exact text each failure kind leaves in a transcript header's
    ``failure=``; perfbench classifies runs by the part before ":"."""
    nav = generate_instance(TaskId.NAVIGATE, 3, 4)
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    _, user = build_baseline_prompt(MethodId.DIRECT, nav)
    key = digest(ChatRequest(role_tag="reasoner", user=user))

    def sandbox(stdout="", stderr="", exit_status=0, timed_out_after_ms=None):
        return pot_answer(SandboxResult(stdout, stderr, exit_status,
                                        timed_out_after_ms), nav)

    oracle = []
    evaluate_run(MethodId.ORACLE, [
        make_instance(TaskId.DYCK_LANGUAGES, "Input: ( ]", ")"),
        make_instance(TaskId.COLORED_OBJECTS,
                      "On the floor, there is one grey textbook. What color "
                      "is the textbook? Options:\n(A) burgundy\n(B) green",
                      "(A)")], None,
                 on_prediction=lambda i, inst, pred, ok: oracle.append(pred))
    cases = [
        (run_instance(MethodId.THINK_AND_EXECUTE, nav,
                      load_pseudocode(TaskId.NAVIGATE),
                      MockGateway(responders={"reasoner": lambda r: "no"})),
         "no_final_answer"),
        (run_instance(MethodId.DIRECT, nav, None,
                      ReplayGateway(tmp_path / "empty.jsonl")),
         f"gateway_error: request {key[:12]} not in cassette"),
        (sandbox(exit_status=-9, timed_out_after_ms=700),
         "sandbox_error: timed out after 700ms"),
        (sandbox(stderr="Traceback:\nValueError: boom\n", exit_status=1),
         "sandbox_error: exit 1: ValueError: boom"),
        (sandbox(exit_status=3), "sandbox_error: exit 3: no stderr"),
        (sandbox(stdout="\n"), "sandbox_error: empty stdout"),
        (oracle[0], "parse_unsupported: ']' does not match open '('"),
        (oracle[1], "solver_error: 'grey' not among options"),
    ]
    for prediction, text in cases:
        assert prediction.final_answer is None
        assert prediction.failure == text
    assert {prediction.kind for prediction, _ in cases} == set(FailureKind)


def test_run_instance_missing_asset_raises():
    inst = generate_instance(TaskId.NAVIGATE, 3, 4)
    with pytest.raises(MissingAsset):
        run_instance(MethodId.THINK_AND_EXECUTE, inst, None, MockGateway())


def test_run_instance_direct_lowercase_answer():
    inst = make_instance(
        TaskId.NAVIGATE,
        "If you follow these instructions, do you return to the starting "
        "point? Take 3 steps. Turn around. Take 5 steps. Turn right. "
        "Turn right. Take 1 step. Take 1 step.",
        "Yes")
    gateway = MockGateway(responders={
        "reasoner": lambda r: "Final answer: no"})
    pred = run_instance(MethodId.DIRECT, inst, None, gateway)
    assert pred.final_answer == "no"


def test_run_instance_deterministic_under_mock():
    inst = generate_instance(TaskId.WEB_OF_LIES, 5, 5)
    gateway = mock_gateway([inst], 0.3)
    asset = load_pseudocode(TaskId.WEB_OF_LIES)
    a = run_instance(MethodId.THINK_AND_EXECUTE, inst, asset, gateway)
    b = run_instance(MethodId.THINK_AND_EXECUTE, inst, asset, gateway)
    assert a == b


# SHA-256 over the request digests of every model-backed method for the 147
# bundled instances, Think-and-Execute under both prompt sets.  A changed
# byte in any request changes it, and with it every recorded cassette key.
REQUESTS_SHA256 = \
    "fce6d150c57f50b7352eacda827cc088b1a700a23bac865285608c22fad0d258"


def test_every_method_sends_the_pinned_requests(paper_fixture_dir,
                                                replay_fixture_dir):
    sent = []

    class Capture(Gateway):
        def complete(self, request):
            sent.append(digest(request))
            raise CassetteMiss("captured")

    instances = (load_dataset(replay_fixture_dir, list(TaskId))
                 + load_dataset(paper_fixture_dir, list(TaskId)))
    runs = [(method, {}) for method in (
        MethodId.DIRECT, MethodId.ZERO_SHOT_COT, MethodId.PLAN_AND_SOLVE,
        MethodId.ZERO_SHOT_POT)]
    runs.append((MethodId.NL_PLANNING,
                 {task: load_nl_plan(task) for task in TaskId}))
    runs += [(MethodId.THINK_AND_EXECUTE,
              {task: load_pseudocode(task, source) for task in TaskId})
             for source in ("human", "generated")]
    for method, assets in runs:
        for inst in instances:
            run_instance(method, inst, assets.get(inst.task), Capture())
    assert len(sent) == 7 * 147
    assert hashlib.sha256("\n".join(sent).encode()).hexdigest() == \
        REQUESTS_SHA256


def test_the_run_id_hashes_the_files_each_request_reads(
        monkeypatch, assets_dir, replay_fixture_dir):
    """``asset_digests`` names exactly the bundled files that building a
    method's requests reads, under either pseudocode source."""
    tasks = [TaskId.NAVIGATE, TaskId.WEB_OF_LIES]
    instances = load_dataset(replay_fixture_dir, tasks)
    read = set()

    class Root:
        def __truediv__(self, relpath):
            read.add(relpath)
            return assets_dir / relpath

    monkeypatch.setattr(prompts, "_assets_root", Root)
    try:
        for source in PSEUDOCODE_SOURCES:
            for method in REQUEST_BY_METHOD:
                read.clear()
                prompts.load_asset_text.cache_clear()
                assets = task_assets(method, tasks, source)
                for instance in instances:
                    reasoner_request(method, instance,
                                     assets.get(instance.task), "mock-model")
                built_from = set(read)
                assert built_from == set(
                    asset_digests(method, tasks, source)), (source, method)
    finally:
        prompts.load_asset_text.cache_clear()
