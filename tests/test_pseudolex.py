"""Lexer, ablation, and feature-analysis tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoexec.prompts import (ablate_prompt, analyze_prompt_features,
                                load_pseudocode)
from pseudoexec.pseudolex import (TokKind, ablate_text, detokenize,
                                  text_features, tokenize)
from pseudoexec.tasks import TaskId


def test_tokenize_is_lossless_on_all_bundled_prompts():
    for task in TaskId:
        for source in ("human", "generated"):
            body = load_pseudocode(task, source).body
            assert detokenize(tokenize(body)) == body


@settings(max_examples=200)
@given(st.text(max_size=200).filter(lambda s: s == "" or s.isprintable()))
def test_tokenize_is_lossless_on_arbitrary_text(text):
    # plus the whitespace controls the lexer does accept
    text = text + "\n\t \r"
    assert detokenize(tokenize(text)) == text


def test_control_bytes_raise_lex_error():
    with pytest.raises(ValueError,
                       match=r"untokenizable byte '\\x1f' at offset 0"):
        tokenize("\x1f")


def test_comment_and_rename_example():
    result, mapping = ablate_text("stack = []  # init stack\n")
    assert result == "X1 = []\n"
    assert mapping == {"stack": "X1"}


def test_unterminated_string_closes_at_line_end():
    tokens = tokenize('print(f"oops)\nnext = 1\n')
    strings = [t for t in tokens if t.kind is TokKind.STRING]
    assert strings[0].text == 'f"oops)'
    names = [t.text for t in tokens if t.kind is TokKind.NAME]
    assert "next" in names


def test_fstrings_are_opaque():
    body = 'x = 1\nprint(f"value {x} end")\n'
    result, _ = ablate_text(body)
    # the identifier inside the f-string is string content, not a variable
    assert result == 'X1 = 1\nprint(f"value {x} end")\n'


def test_docstring_lines_are_removed():
    body = 'def f(a):\n    """Docstring."""\n    return a\n'
    result, _ = ablate_text(body)
    assert result == "def X1(X2):\n    return X2\n"


def test_comment_only_lines_disappear():
    body = "# header comment\nx = 1\n"
    result, _ = ablate_text(body)
    assert result == "X1 = 1\n"


def test_method_names_are_preserved():
    result, _ = ablate_text("parts = line.split(', ')\n")
    assert result == "X1 = X2.split(', ')\n"


def test_reserved_names_are_preserved():
    result, mapping = ablate_text("for i in range(len(items)):\n    print(i)\n")
    assert "range" not in mapping and "len" not in mapping
    assert "print" not in mapping
    assert result == "for X1 in range(len(X2)):\n    print(X1)\n"


def test_ablation_idempotent_on_all_bundled_prompts():
    for task in TaskId:
        for source in ("human", "generated"):
            once, _ = ablate_text(load_pseudocode(task, source).body)
            twice, _ = ablate_text(once)
            assert once == twice


def test_ablate_prompt_renames_function_name():
    asset = load_pseudocode(TaskId.DYCK_LANGUAGES)
    ablated = ablate_prompt(asset)
    assert ablated.function_name != asset.function_name
    assert ablated.function_name.startswith("X")
    # the renamed main function is still defined in the ablated body
    assert f"def {ablated.function_name}(" in ablated.body


def test_ablate_prompt_rejects_non_pseudocode():
    from pseudoexec.prompts import PromptAsset

    with pytest.raises(ValueError):
        ablate_prompt(PromptAsset(body="text"))


def test_features_human_dyck_prompt():
    report = analyze_prompt_features(load_pseudocode(TaskId.DYCK_LANGUAGES))
    assert report.has_loop
    assert report.has_conditional
    assert report.print_count >= 4
    assert report.comment_line_count > 0


def test_features_empty_text_all_zero():
    feats = text_features("")
    assert feats.print_count == 0
    assert feats.comment_line_count == 0
    assert not feats.has_loop and not feats.has_conditional
    assert feats.helper_functions == () and feats.variable_names == ()


def test_features_generated_web_of_lies_has_no_helpers():
    report = analyze_prompt_features(
        load_pseudocode(TaskId.WEB_OF_LIES, "generated"))
    assert report.helper_functions == ()


def test_features_counts_helper_functions():
    feats = text_features(
        "def helper(x):\n    return x\n\ndef main(y):\n    return helper(y)\n",
        main_function="main")
    assert feats.helper_functions == ("helper",)


def test_features_after_ablation_zero_comments():
    for task in TaskId:
        ablated = ablate_prompt(load_pseudocode(task))
        assert analyze_prompt_features(ablated).comment_line_count == 0
