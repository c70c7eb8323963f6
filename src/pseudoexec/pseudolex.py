"""Lexer and transforms for Python-like pseudocode prompts.

The prompts are *pseudocode*: they look like Python but need not compile
(calls to never-defined helpers, narrative comments, and so on).  The lexer
therefore works on a token surface rather than an AST, and is deliberately
forgiving: a single- or double-quoted string missing its closing quote is
implicitly closed at the end of the line, and an unterminated triple-quoted
string is closed at end of input.
"""

from __future__ import annotations

import keyword
from dataclasses import dataclass
from enum import Enum


class TokKind(Enum):
    COMMENT = "comment"
    STRING = "string"        # includes f-strings, which are kept opaque
    NAME = "name"
    NUMBER = "number"
    OP = "op"
    WS = "ws"
    NEWLINE = "newline"


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str


@dataclass(frozen=True)
class PromptFeatureReport:
    has_loop: bool
    has_conditional: bool
    print_count: int
    comment_line_count: int
    helper_functions: tuple[str, ...]
    variable_names: tuple[str, ...]


_STRING_PREFIXES = {"f", "r", "b", "u", "fr", "rf", "br", "rb"}

# Names that are never renamed by the ablation: language keywords, builtins
# commonly called in the prompts, and keyword-argument names of those builtins.
RESERVED_NAMES = frozenset(keyword.kwlist) | frozenset({
    "print", "len", "range", "enumerate", "str", "int", "float", "bool",
    "list", "dict", "set", "tuple", "sorted", "reversed", "zip", "map",
    "filter", "sum", "min", "max", "abs", "any", "all", "ord", "chr",
    "isinstance", "type", "input", "repr", "round", "format",
    "end", "sep", "key", "reverse", "start", "default",
})


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into a lossless token stream (concatenation of token
    texts reproduces the input exactly)."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token(TokKind.NEWLINE, "\n"))
            i += 1
        elif ch in " \t":
            j = i
            while j < n and text[j] in " \t":
                j += 1
            tokens.append(Token(TokKind.WS, text[i:j]))
            i = j
        elif ch == "#":
            j = text.find("\n", i)
            j = n if j < 0 else j
            tokens.append(Token(TokKind.COMMENT, text[i:j]))
            i = j
        elif ch in "'\"":
            i = _scan_string(text, i, i, tokens)
        elif _is_name_start(ch):
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            word = text[i:j]
            if (word.lower() in _STRING_PREFIXES and j < n
                    and text[j] in "'\""):
                i = _scan_string(text, i, j, tokens)
            else:
                tokens.append(Token(TokKind.NAME, word))
                i = j
        elif ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(Token(TokKind.NUMBER, text[i:j]))
            i = j
        elif ch.isprintable() or ch in "\r\f\v":
            tokens.append(Token(TokKind.OP, ch))
            i += 1
        else:
            raise ValueError(f"untokenizable byte {ch!r} at offset {i}")
    return tokens


def _scan_string(text: str, start: int, quote_at: int,
                 tokens: list[Token]) -> int:
    """Scan a string literal beginning at ``quote_at`` (prefix at ``start``),
    append its token, and return the index just past it."""
    n = len(text)
    quote = text[quote_at]
    if text.startswith(quote * 3, quote_at):
        closer = quote * 3
        j = text.find(closer, quote_at + 3)
        end = n if j < 0 else j + 3          # unterminated: close at EOF
    else:
        j = quote_at + 1
        while j < n and text[j] not in (quote, "\n"):
            j += 2 if text[j] == "\\" and j + 1 < n else 1
        end = j + 1 if j < n and text[j] == quote else j   # close at EOL
    tokens.append(Token(TokKind.STRING, text[start:end]))
    return end


def detokenize(tokens: list[Token]) -> str:
    return "".join(t.text for t in tokens)


def _split_lines(tokens: list[Token]) -> list[list[Token]]:
    """Group tokens into lines; each NEWLINE token ends the line it is on."""
    lines: list[list[Token]] = [[]]
    for tok in tokens:
        lines[-1].append(tok)
        if tok.kind is TokKind.NEWLINE or "\n" in tok.text:
            lines.append([])
    if not lines[-1]:
        lines.pop()
    return lines


def _is_docstring_line(line: list[Token]) -> bool:
    """A line whose only content is a triple-quoted string (the idiom the
    prompts use for docstrings)."""
    content = [t for t in line if t.kind not in (TokKind.WS, TokKind.NEWLINE)]
    return (len(content) == 1 and content[0].kind is TokKind.STRING
            and content[0].text.lstrip("fFrRbBuU")[:3] in ("'''", '"""'))


def strip_comments(tokens: list[Token]) -> list[Token]:
    """Drop comments and docstring lines.  Lines that held only a comment or
    a docstring disappear entirely; trailing comments leave no padding."""
    out: list[Token] = []
    for line in _split_lines(tokens):
        if _is_docstring_line(line):
            continue
        kept = [t for t in line if t.kind is not TokKind.COMMENT]
        content = [t for t in kept
                   if t.kind not in (TokKind.WS, TokKind.NEWLINE)]
        had_content = any(t.kind not in (TokKind.WS, TokKind.NEWLINE,
                                         TokKind.COMMENT) for t in line)
        if not content and not had_content and len(kept) != len(line):
            continue                       # the line was comment-only
        # drop whitespace that only existed to pad a removed trailing comment
        while (len(kept) != len(line) and len(kept) >= 2
               and kept[-1].kind is TokKind.NEWLINE
               and kept[-2].kind is TokKind.WS):
            kept.pop(-2)
        out.extend(kept)
    return out


def rename_identifiers(tokens: list[Token]) -> tuple[list[Token], dict[str, str]]:
    """Rename every non-reserved identifier to X1, X2, ... in order of first
    appearance.  Names reached through attribute access (``obj.split``) are
    method/builtin references and stay as they are."""
    mapping: dict[str, str] = {}
    out: list[Token] = []
    prev_sig: Token | None = None
    for tok in tokens:
        if (tok.kind is TokKind.NAME and tok.text not in RESERVED_NAMES
                and not (prev_sig is not None and prev_sig.text == ".")):
            if tok.text not in mapping:
                mapping[tok.text] = f"X{len(mapping) + 1}"
            out.append(Token(TokKind.NAME, mapping[tok.text]))
        else:
            out.append(tok)
        if tok.kind not in (TokKind.WS, TokKind.NEWLINE):
            prev_sig = tok
    return out, mapping


def ablate_text(text: str) -> tuple[str, dict[str, str]]:
    """The "strip comments and semantics" transform: remove comments and
    docstrings, then rename user identifiers to meaningless ones."""
    tokens = strip_comments(tokenize(text))
    tokens, mapping = rename_identifiers(tokens)
    result = detokenize(tokens)
    tokenize(result)                       # must still lex cleanly
    return result, mapping


def _def_names(tokens: list[Token]) -> list[str]:
    names: list[str] = []
    sig = [t for t in tokens if t.kind not in (TokKind.WS, TokKind.NEWLINE)]
    for prev, tok in zip(sig, sig[1:]):
        if prev.kind is TokKind.NAME and prev.text == "def" \
                and tok.kind is TokKind.NAME:
            names.append(tok.text)
    return names


def text_features(text: str,
                  main_function: str | None = None) -> PromptFeatureReport:
    """Count the structural features of a pseudocode body."""
    tokens = tokenize(text)
    lines = _split_lines(tokens)
    sig = [t for t in tokens if t.kind not in (TokKind.WS, TokKind.NEWLINE)]
    defs = _def_names(tokens)
    main = main_function if main_function is not None else \
        (defs[0] if defs else None)

    print_count = sum(
        1 for prev, tok in zip(sig, sig[1:])
        if prev.kind is TokKind.NAME and prev.text == "print"
        and tok.text == "(")
    comment_lines = sum(
        1 for line in lines
        if any(t.kind is TokKind.COMMENT for t in line)
        or _is_docstring_line(line))
    keywords_used = {t.text for t in sig if t.kind is TokKind.NAME}
    return PromptFeatureReport(
        has_loop=bool(keywords_used & {"for", "while"}),
        has_conditional=bool(keywords_used & {"if", "elif", "else"}),
        print_count=print_count,
        comment_line_count=comment_lines,
        helper_functions=tuple(d for d in defs if d != main),
        variable_names=tuple(name for name in rename_identifiers(tokens)[1]
                             if name not in defs))
