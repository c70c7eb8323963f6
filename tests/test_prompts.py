"""Prompt-forge tests: the meta prompt builder, demo sampling, Think flow."""

from __future__ import annotations

import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoexec import baselines, cli, prompts
from pseudoexec.baselines import (TEMPLATE_BY_METHOD, MethodId,
                                  build_baseline_prompt)
from pseudoexec.errors import CassetteMiss, MalformedPseudocode
from pseudoexec.gateway import MockGateway
from pseudoexec.prompts import (build_meta_prompt, load_asset_text,
                                load_nl_plan, load_pseudocode, parse,
                                parse_pseudocode_response, render, run_think,
                                sample_demos)
from pseudoexec.tasks import TASKS, TaskId

TEMPLATES = ("meta_analysis", "meta_code", "meta_nlplan")


def test_analysis_meta_prompt_shape():
    text = build_meta_prompt("meta_analysis", TaskId.WEB_OF_LIES, 0)
    assert text.startswith(
        "Generate an explanation, analyzation, and plan to generate code "
        "prompt for the last task")
    assert text.endswith("Explanation:")
    for i in (1, 2, 3, 4):
        assert f"[Example {i}]" in text


def test_analysis_meta_excludes_target():
    text = build_meta_prompt("meta_analysis", TaskId.NAVIGATE, 0)
    # demo analyses never come from the target task: the navigate analysis
    # asset starts with this distinctive phrase
    demo_section = text.rsplit("[Example 4]", 1)[0]
    assert load_nl_plan(TaskId.NAVIGATE).body not in demo_section


def test_sampling_reproducible_and_exclusive():
    a = sample_demos(7, TaskId.DYCK_LANGUAGES)
    assert a == sample_demos(7, TaskId.DYCK_LANGUAGES)
    assert TaskId.DYCK_LANGUAGES not in a
    assert len(set(a)) == 3


def test_code_meta_prompt_contains_function_name():
    text = build_meta_prompt("meta_code", TaskId.WEB_OF_LIES, 0,
                             analysis="analysis body")
    assert ("The main function name should be "
            "'evaluate_boolean_word_problem'") in text
    assert text.endswith("Code prompt:")


def test_think_rejects_an_empty_analysis(tmp_path, capsys, monkeypatch):
    gateway = MockGateway(responders={"instructor": lambda request: ""})
    monkeypatch.setattr(cli, "build_gateway", lambda config: gateway)
    assert cli.main(["think", "--task", "web_of_lies", "--mode", "mock",
                     "--out", str(tmp_path / "think")]) == 2
    assert "error: MalformedPseudocode: empty analysis" in \
        capsys.readouterr().err
    assert not (tmp_path / "think").exists()


def test_nl_plan_prompt_shape():
    text = build_meta_prompt("meta_nlplan", TaskId.WEB_OF_LIES, 0)
    assert text.startswith("Generate a plan for the last task")
    assert text.endswith("Plan:")


def test_no_unreplaced_placeholders_in_any_builder():
    slots = re.compile(
        r"\{(instances|format|analysis|plan|description|usages|code)_"
        r"(\d|target)\}|\{function_name\}")
    for name in TEMPLATES:
        for task in TaskId:
            text = build_meta_prompt(name, task, 0, analysis="analysis")
            assert not slots.search(text), (name, task)


def test_render_rejects_missing_placeholder():
    with pytest.raises(KeyError):
        render("a {x} b {y}", {"x": "1"})


def test_render_single_pass():
    # a substituted value containing a placeholder-shaped token is not
    # replaced again
    assert render("{a} {b}", {"a": "{b}", "b": "2"}) == "{b} 2"


def test_parse_inverts_render():
    template = "x={a}; y={b}; again {a}."
    assert parse(template, render(template, {"a": "1", "b": "{a}"})) == \
        {"a": "1", "b": "{a}"}
    assert parse(template, "x=1; y=2; again 3.") is None   # {a} repeats
    assert parse(template, "x=1; y=2; again 1") is None


@pytest.fixture(scope="module")
def rendered(paper_fixture_dir) -> list[tuple[str, dict, str]]:
    """(template, mapping, text) of every render the request builders make:
    the six model-backed methods over the paper fixtures, and the Think
    meta prompts of every task at seeds 0-2."""
    original, calls = prompts.render, []

    def recording(template, mapping):
        text = original(template, mapping)
        calls.append((template, dict(mapping), text))
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prompts, "render", recording)
        patch.setattr(baselines, "render", recording)
        for instance in cli.load_dataset(paper_fixture_dir, list(TaskId)):
            assets = {"nl_planning": load_nl_plan(instance.task),
                      "think_and_execute": load_pseudocode(instance.task)}
            for method in TEMPLATE_BY_METHOD:
                build_baseline_prompt(method, instance,
                                      assets.get(method.value))
        for task in TaskId:
            for seed in range(3):
                for name in TEMPLATES:
                    build_meta_prompt(name, task, seed, "generated",
                                      load_nl_plan(task).body)
    return calls


def test_parse_returns_the_mapping_each_builder_rendered(rendered,
                                                         assets_dir):
    # meta/execute_system.txt has no slot and is sent as it is; the Think
    # demos' usages render execute.txt's call lines on their own.
    assert {template for template, _, _ in rendered} == {
        load_asset_text(f"meta/{path.name}")
        for path in (assets_dir / "meta").glob("*.txt")
        if path.name != "execute_system.txt"} | {prompts._call_lines()}
    for template, mapping, text in rendered:
        slots = parse(template, text)
        assert slots == {key: mapping[key] for key in slots}
        assert render(template, slots) == text


def _regex_parse(template: str, text: str) -> dict[str, str] | None:
    """The reference for ``parse``: a regex of ``template``'s text, with a
    lazy named group for each slot and a backreference for each repeat."""
    parts = prompts._PLACEHOLDER_RE.split(template)   # text, slot, ..., text
    names = parts[1::2]
    groups = [f"(?P={name})" if name in names[:i] else f"(?P<{name}>.*?)"
              for i, name in enumerate(names)]
    match = re.fullmatch("".join(re.escape(literal) + group for literal, group
                                 in zip(parts[::2], groups + [""])),
                         text, re.DOTALL)
    return match.groupdict() if match else None


def test_the_leftmost_parse_is_the_regexs_on_every_rendering(rendered):
    for template, _, text in rendered:
        assert parse(template, text) == _regex_parse(template, text)


@pytest.mark.parametrize("template, text, slots", [
    # {b}'s value holds the text after {a}; the leftmost split is the
    # regex's.
    ("A{a}B{b}C{c}", "AxByBzCw", {"a": "x", "b": "yBz", "c": "w"}),
    # The leftmost {a} is not repeated at the end, so the search goes on.
    ("{a}-{b}-{a}", "p-q-r-p-q", {"a": "p-q", "b": "r"}),
    ("{a}-{b}-{a}", "p-q-r-p-x", None),
    ("x={a}; again {a}.", "x=1; again 2.", None),
    ("x={a}; y={b}", "x=1; y=", {"a": "1", "b": ""}),
    ("head {a}", "hea", None),
])
def test_parse_agrees_with_the_regex_on_ambiguous_texts(template, text,
                                                        slots):
    assert _regex_parse(template, text) == slots
    assert parse(template, text) == slots


_TEXT = st.text("ab-", max_size=2)


@settings(max_examples=500)
@given(head=_TEXT, steps=st.lists(st.tuples(st.sampled_from("xyz"), _TEXT),
                                  min_size=1, max_size=5),
       values=st.fixed_dictionaries(
           {name: st.text("ab-{}", max_size=3) for name in "xyz"}),
       text=st.text("ab-{}", max_size=10))
def test_parse_and_render_are_the_regexs_on_random_templates(head, steps,
                                                             values, text):
    # Repeated, adjacent and empty-bordered slots, and braces in values.
    template = head + "".join(f"{{{name}}}{literal}"
                              for name, literal in steps)
    rendering = render(template, values)
    assert rendering == prompts._PLACEHOLDER_RE.sub(
        lambda match: values[match.group(1)], template)
    assert parse(template, rendering) is not None
    for candidate in (rendering, text):
        slots = parse(template, candidate)
        assert slots == _regex_parse(template, candidate)
        if slots is not None:
            assert render(template, slots) == candidate


@pytest.mark.parametrize("assignment", ["final_answer = ", "result = "])
def test_think_demos_call_the_function_as_the_execute_request_does(
        tmp_path, monkeypatch, assets_dir, paper_fixture_dir, assignment):
    copy = tmp_path / "assets"
    shutil.copytree(assets_dir, copy)
    execute = copy / "meta" / "execute.txt"
    text = execute.read_text(encoding="utf-8")
    execute.write_text(text.replace("\nfinal_answer = ", "\n" + assignment),
                       encoding="utf-8")
    monkeypatch.setattr(prompts, "_assets_root", lambda: copy)
    prompts.load_asset_text.cache_clear()
    try:
        instance, = cli.load_dataset(paper_fixture_dir, [TaskId.NAVIGATE])[:1]
        _, request = build_baseline_prompt(
            MethodId.THINK_AND_EXECUTE, instance,
            load_pseudocode(TaskId.NAVIGATE))
        meta = build_meta_prompt("meta_code", TaskId.NAVIGATE, 0)
    finally:
        prompts.load_asset_text.cache_clear()
    call = "\n{}{}(input_text)\n"
    assert call.format(assignment, TASKS[TaskId.NAVIGATE].function_name) in \
        request
    for task in [TaskId.NAVIGATE, *sample_demos(0, TaskId.NAVIGATE)]:
        assert call.format(assignment, TASKS[task].function_name) in meta
    assert ("final_answer" in meta) == (assignment == "final_answer = ")


def test_parse_rejects_another_templates_text(rendered):
    templates = {template for template, _, _ in rendered}
    for template, _, text in rendered:
        for other in templates - {template}:
            assert parse(other, text) is None


def test_parse_pseudocode_response_variants():
    body = "def f(input_text):\n    return input_text\n"
    assert parse_pseudocode_response(body, "f") == body
    for info in ("python", "Python", "py", "python3", ""):
        fenced = f"Here you go:\n```{info}\n{body}```\n"
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


def test_run_think_echo_roundtrip(tmp_path, monkeypatch, capsys):
    body = load_pseudocode(TaskId.NAVIGATE).body
    out = tmp_path / "think"
    for response in (body, body + "\n"):
        def responder(request, response=response):
            if "The main function name should be" in request.user:
                return response
            return "analysis text"

        gateway = MockGateway(responders={"instructor": responder})
        _, pseudocode = run_think(TaskId.NAVIGATE, gateway, 0)
        assert pseudocode.body == response
        # `think` writes what run_think returns, ending in one newline.
        monkeypatch.setattr(cli, "build_gateway", lambda config: gateway)
        assert cli.main(["think", "--task", "navigate", "--out",
                         str(out)]) == 0
        assert (out / "navigate.txt").read_text() == body + "\n"
        assert (out / "navigate.analysis.txt").read_text() == \
            "analysis text\n"
        assert capsys.readouterr().out == (
            f"analysis: {out / 'navigate.analysis.txt'}\n"
            f"pseudocode ({pseudocode.function_name}): "
            f"{out / 'navigate.txt'}\n")
        shutil.rmtree(out)


def test_run_think_propagates_gateway_errors():
    gateway = MockGateway()           # no fixtures, no responders
    with pytest.raises(CassetteMiss):
        run_think(TaskId.WEB_OF_LIES, gateway, 0)
