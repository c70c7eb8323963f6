"""Lexer and ablation tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoexec.prompts import ablate_prompt, load_pseudocode
from pseudoexec.pseudolex import (TokKind, ablate_text, detokenize,
                                 strip_comments, tokenize)
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


def test_the_three_line_rule_cases():
    for body, expected in [
            ('x = """a\nb"""  # c\ny = 1\n', 'X1 = """a\nb"""\nX2 = 1\n'),
            ('def f():\n    """a\n    b"""\n    return 1\n',
             "def X1():\n    return 1\n"),
            ("x = 1  # c", "X1 = 1")]:
        assert ablate_text(body)[0] == expected


_TEXT = st.text(alphabet="ab #:x", max_size=6)
_ATOMS = st.one_of(
    st.from_regex(r"[a-z_][a-z0-9_]{0,4}", fullmatch=True),
    st.integers(0, 999).map(str),
    _TEXT.map(lambda s: f'"{s}"'),
    st.text(alphabet="ab #\n", max_size=8).map(lambda s: f'"""{s}"""'))
_INDENT = st.sampled_from(["", "    ", "\t"])
_COMMENT = st.tuples(st.sampled_from([" ", "  ", "\t"]), _TEXT).map(
    lambda pad_text: f"{pad_text[0]}# {pad_text[1]}")


@st.composite
def _pseudocode_line(draw) -> tuple[str, str | None]:
    """A line without its newline, and what stripping comments keeps of it
    (None: the line goes)."""
    kind = draw(st.sampled_from(["code", "comment", "docstring", "blank"]))
    indent = draw(_INDENT)
    if kind == "blank":
        return indent, indent
    if kind == "comment":
        return indent + draw(_COMMENT).lstrip(" \t"), None
    trailing = draw(st.one_of(st.just(""), _COMMENT))
    if kind == "docstring":
        text = draw(st.text(alphabet="ab #\n", max_size=8))
        return f'{indent}"""{text}"""{trailing}', None
    code = (indent + draw(_ATOMS.filter(str.isidentifier)) + " = "
            + " + ".join(draw(st.lists(_ATOMS, min_size=1, max_size=3))))
    return code + trailing, code


@settings(max_examples=200)
@given(st.lists(_pseudocode_line(), max_size=8), st.booleans())
def test_the_ablation_keeps_each_line_of_code_on_a_line_of_its_own(
        lines, final_newline):
    ends = ["\n"] * len(lines)
    if ends and not final_newline:
        ends[-1] = ""
    source = "".join(line + end for (line, _), end in zip(lines, ends))
    kept = [(code, end) for (_, code), end in zip(lines, ends)
            if code is not None]
    # Each line of code stays, minus its comment and the comment's padding.
    stripped = detokenize(strip_comments(tokenize(source)))
    assert stripped == "".join(code + end for code, end in kept)
    ablated, _ = ablate_text(source)
    assert ablated == ablate_text(stripped)[0]
    assert sum(t.kind is TokKind.NEWLINE for t in tokenize(ablated)) == \
        sum(end == "\n" for _, end in kept)
    assert ablate_text(ablated)[0] == ablated
