"""Prompt-forge tests: meta prompt builders, demo sampling, Think flow."""

from __future__ import annotations

import pytest

from pseudoexec.errors import CassetteMiss, MalformedPseudocode
from pseudoexec.gateway import MockGateway
from pseudoexec.prompts import (PoolEntry, build_analysis_meta_prompt,
                                build_code_meta_prompt, build_nl_plan_prompt,
                                default_demo_pool, load_pseudocode,
                                load_taskinfo, parse_pseudocode_response,
                                render, run_think, sample_demos,
                                template_placeholders)
from pseudoexec.tasks import TaskId


@pytest.fixture(scope="module")
def pool() -> dict[TaskId, PoolEntry]:
    return default_demo_pool()


@pytest.fixture(scope="module")
def wol_questions(pool) -> list[str]:
    return list(load_taskinfo(TaskId.WEB_OF_LIES).example_questions)


def test_analysis_meta_prompt_shape(pool, wol_questions):
    text = build_analysis_meta_prompt(wol_questions, pool, 0,
                                      TaskId.WEB_OF_LIES)
    assert text.startswith(
        "Generate an explanation, analyzation, and plan to generate code "
        "prompt for the last task")
    assert text.endswith("Explanation:")
    for i in (1, 2, 3, 4):
        assert f"[Example {i}]" in text


def test_analysis_meta_excludes_target(pool):
    questions = list(load_taskinfo(TaskId.NAVIGATE).example_questions)
    text = build_analysis_meta_prompt(questions, pool, 0, TaskId.NAVIGATE)
    # demo analyses never come from the target task: the navigate analysis
    # asset starts with this distinctive phrase
    demo_section = text.rsplit("[Example 4]", 1)[0]
    from pseudoexec.prompts import load_nl_plan

    assert load_nl_plan(TaskId.NAVIGATE).body not in demo_section


def test_sampling_reproducible_and_exclusive(pool):
    a = sample_demos(pool, 7, TaskId.DYCK_LANGUAGES)
    b = sample_demos(pool, 7, TaskId.DYCK_LANGUAGES)
    assert [e.info.task for e in a] == [e.info.task for e in b]
    assert TaskId.DYCK_LANGUAGES not in [e.info.task for e in a]
    assert len({e.info.task for e in a}) == 3


def test_insufficient_demos():
    with pytest.raises(ValueError, match="need 3 demo tasks, have 0"):
        sample_demos({}, 0, None)


def test_code_meta_prompt_contains_function_name(pool):
    text = build_code_meta_prompt(TaskId.WEB_OF_LIES, "analysis body",
                                  pool, 0)
    assert ("The main function name should be "
            "'evaluate_boolean_word_problem'") in text
    assert text.endswith("Code prompt:")


def test_code_meta_prompt_rejects_empty_analysis(pool):
    with pytest.raises(ValueError):
        build_code_meta_prompt(TaskId.WEB_OF_LIES, "", pool, 0)


def test_nl_plan_prompt_shape(pool, wol_questions):
    text = build_nl_plan_prompt(wol_questions, pool, 0, TaskId.WEB_OF_LIES)
    assert text.startswith("Generate a plan for the last task")
    assert text.endswith("Plan:")


def test_no_unreplaced_placeholders_in_any_builder(pool, wol_questions):
    import re

    builders = [
        build_analysis_meta_prompt(wol_questions, pool, 0,
                                   TaskId.WEB_OF_LIES),
        build_code_meta_prompt(TaskId.WEB_OF_LIES, "analysis", pool, 0),
        build_nl_plan_prompt(wol_questions, pool, 0, TaskId.WEB_OF_LIES),
    ]
    slots = re.compile(
        r"\{(instances|format|analysis|plan|description|usages|code)_"
        r"(\d|target)\}|\{function_name\}")
    for text in builders:
        assert not slots.search(text)


def test_render_rejects_missing_placeholder():
    with pytest.raises(KeyError):
        render("a {x} b {y}", {"x": "1"})


def test_render_single_pass():
    # a substituted value containing a placeholder-shaped token is not
    # replaced again
    assert render("{a} {b}", {"a": "{b}", "b": "2"}) == "{b} 2"


def test_template_placeholders():
    assert template_placeholders("{a} {b} {a}") == {"a", "b"}


def test_parse_pseudocode_response_variants():
    body = "def f(input_text):\n    return input_text\n"
    assert parse_pseudocode_response(body, "f") == body
    fenced = f"Here you go:\n```python\n{body}```\n"
    assert parse_pseudocode_response(fenced, "f") == body
    with pytest.raises(MalformedPseudocode):
        parse_pseudocode_response("no code here", "f")


def test_prompt_asset_must_define_the_function_it_names():
    from pseudoexec.prompts import PromptAsset

    assert PromptAsset(body="def f(input_text):\n    pass",
                       function_name="f").function_name == "f"
    assert PromptAsset(body="a plan, no code").function_name is None
    with pytest.raises(MalformedPseudocode):
        PromptAsset(body="def g(input_text):\n    pass", function_name="f")
    with pytest.raises(ValueError):
        PromptAsset(body="")


def test_run_think_replay_matches_bundled_listing(cassette_path):
    from pseudoexec.gateway import ReplayGateway

    gateway = ReplayGateway(cassette_path)
    analysis, pseudocode = run_think(TaskId.WEB_OF_LIES, gateway, 0)
    assert pseudocode.body == \
        load_pseudocode(TaskId.WEB_OF_LIES, "generated").body
    assert pseudocode.function_name == "evaluate_boolean_word_problem"


def test_run_think_malformed_response():
    gateway = MockGateway(responders={
        "instructor": lambda req: "sorry, no code"})
    with pytest.raises(MalformedPseudocode):
        run_think(TaskId.WEB_OF_LIES, gateway, 0)


def test_run_think_echo_roundtrip(tmp_path):
    body = load_pseudocode(TaskId.NAVIGATE).body

    def responder(request):
        if "The main function name should be" in request.user:
            return body
        return "analysis text"

    gateway = MockGateway(responders={"instructor": responder})
    _, pseudocode = run_think(TaskId.NAVIGATE, gateway, 0,
                              out_dir=tmp_path / "think")
    assert pseudocode.body == body
    assert (tmp_path / "think" / "navigate.txt").read_text() == body + "\n"


def test_run_think_propagates_gateway_errors():
    gateway = MockGateway()           # no fixtures, no responders
    with pytest.raises(CassetteMiss):
        run_think(TaskId.WEB_OF_LIES, gateway, 0)
