"""Execute-engine tests: template instantiation, the request bytes of every
method, marker extraction, run_instance failure handling."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoexec import baselines
from pseudoexec.baselines import (FailureKind, MethodId, SandboxResult,
                                  build_baseline_prompt, pot_answer)
from pseudoexec.cli import load_dataset
from pseudoexec.engine import (Prediction, build_execute_prompt,
                               extract_final_answer, run_instance)
from pseudoexec.errors import CassetteMiss, MissingAsset
from pseudoexec.evaluator import evaluate_run
from pseudoexec.gateway import (ChatRequest, Gateway, MockGateway,
                                ReplayGateway, digest)
from pseudoexec.mock import mock_gateway
from pseudoexec.prompts import (load_asset_text, load_nl_plan,
                                load_pseudocode, parse, unescape_instance)
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
    # unescape round-trips to the original text
    embedded = user.split('input_text = "', 1)[1].split(
        '"\nfinal_answer', 1)[0]
    assert unescape_instance(embedded) == text


@settings(max_examples=300)
@given(text=st.lists(st.sampled_from(
    ['"', "\\", '\\"', "\n", "\u2028", "a", " ",
     '<path d="M 31,29 L 34,76"/>']), max_size=24).map("".join))
def test_the_execute_instance_literal_round_trips(text):
    """What Execute embeds in its request, read back through the template
    that wrote it and unescaped, is the instance text; a geometric_shapes
    instance quotes its SVG path data."""
    shapes = generate_instance(TaskId.GEOMETRIC_SHAPES, 0, 3)
    text += shapes.input_text
    instance = dataclasses.replace(shapes, input_text=text)
    _, user = baselines.build_baseline_prompt(
        MethodId.THINK_AND_EXECUTE, instance,
        load_pseudocode(TaskId.GEOMETRIC_SHAPES))
    slots = parse(load_asset_text("meta/execute.txt"), user)
    assert unescape_instance(slots["input_text"]) == text


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

    def sandbox(stdout="", stderr="", exit_status=0, timed_out=False):
        return pot_answer(SandboxResult(stdout, stderr, exit_status,
                                        timed_out, wall_time_ms=700), nav)

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
        (sandbox(exit_status=-1, timed_out=True),
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
