"""Concrete syntax: tokenizer, parser and pretty-printer.

Grammar (loosest to tightest): ``|[a,b]|`` parallel, ``[]`` external choice,
``\\/`` disjunction, ``/\\`` conjunction, ``a.`` / ``tau.`` prefix.  All
binary operators associate to the left; parentheses override.  Atoms are
``0``, ``bot``, uppercase variables and ``<X | X = t, Y = s>`` recursions.
Visible actions are lowercase identifiers other than the reserved words
``tau`` and ``bot``.

The binary operators and their precedence are written once, in ``_BINARY``.
The parser is one operator-precedence loop over that table, with a stack of
the parentheses and recursions still open; the printer reads the same table
on the explicit-stack walk ``terms._walk``.  Neither recurses on input depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .terms import (
    TAU,
    Bottom,
    Conj,
    Disj,
    ExtChoice,
    GuardednessError,
    Nil,
    Parallel,
    Prefix,
    Rec,
    RecSpec,
    Term,
    Var,
    _commas,
    _into_subterms,
    _join,
    _walk,
    first_guard_violation,
    normalize,
    rec_specs,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __str__(self) -> str:
        return f"{self.start}..{self.end}"


@dataclass(frozen=True)
class ParseError(Exception):
    span: SourceSpan
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.message} at {self.span}{hint}"


class _Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


# The binary operators, loosest first and all left-associative: token, binding
# level and constructor.  Tokenizer, parser and printer all read this table.
# Prefixes and atoms bind tighter than any of them, at ``_TIGHT``.
_BINARY = (
    ("|[", 1, Parallel),
    ("[]", 2, ExtChoice),
    ("\\/", 3, Disj),
    ("/\\", 4, Conj),
)
_TIGHT = 5
_OF_TOKEN = {token: (level, cls) for token, level, cls in _BINARY}
_OF_TYPE = {cls: (token, level) for token, level, cls in _BINARY}
_ATOMS = {"0": Nil(), "bot": Bottom()}
_ATOM_TEXT = {t: text for text, t in _ATOMS.items()}


# Two-character tokens; the first character of one, left alone, is stray.
_PAIRS = {"]|": "PARR", **{token: "OP" for token, _, _ in _BINARY}}
_SIMPLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "=": "EQ",
    ".": "DOT",
    "<": "LANGLE",
    ">": "RANGLE",
    "|": "BAR",
    "0": "ZERO",
}

_RESERVED = {"tau": "TAU", "bot": "BOT"}
_KIND_OF = {**_PAIRS, **_SIMPLE, **_RESERVED}

# An identifier: an action, a variable or a reserved word.
_IDENT = re.compile("[A-Za-z_][A-Za-z0-9_]*")

# One token, or whitespace (no group), or a character that starts none.  The
# two-character tokens come first, so a stray character is the first one of a
# pair left alone.  Whitespace is ASCII only, so offsets are byte offsets.
_TOKEN = re.compile(
    r"[ \t\r\n\f\v]+"
    f"|(?P<pair>{'|'.join(map(re.escape, _PAIRS))})"
    f"|(?P<simple>[{re.escape(''.join(_SIMPLE))}])"
    r"|(?P<stray>[\[\]/\\])"
    f"|(?P<word>{_IDENT.pattern})"
    "|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        if group is None:
            continue
        word = m.group()
        kind = _KIND_OF.get(word)
        if kind is None:
            if group == "stray":
                expected = next(p for p in _PAIRS if p[0] == word)
                raise ParseError(SourceSpan(*m.span()), f"stray '{word}'", (expected,))
            if group == "bad":
                raise ParseError(SourceSpan(*m.span()), f"unexpected character {word!r}")
            kind = "VAR" if word[0].isupper() else "ACT"
        out.append(_Token(kind, word, *m.span()))
    out.append(_Token("EOF", "", len(text), len(text)))
    return out


def _unexpected(tok: _Token, expected: tuple[str, ...]) -> ParseError:
    return ParseError(
        tok.span, f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", expected
    )


class _Group:
    """The whole input, a parenthesis or a recursion, while still open: its
    pending operators and operands, and a recursion's equations so far."""

    def __init__(self, opener: _Token | None):
        self.opener, self.ops, self.operands = opener, [], []
        self.var, self.name, self.equations = "", "", {}

    def reduce(self, level: int) -> None:
        """Apply the pending operators that bind at least as tight as ``level``."""
        ops, operands = self.ops, self.operands
        while ops and ops[-1][0] >= level:
            _, cls, head = ops.pop()
            n = 1 if cls is Prefix else 2
            operands[-n:] = [cls(*head, *operands[-n:])]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.peek().kind != kind:
            raise _unexpected(self.peek(), (what,))
        return self.advance()

    def sync_set(self) -> frozenset[str]:
        names: list[str] = []
        if self.peek().kind == "ACT":
            names.append(self.advance().text)
            while self.peek().kind == "COMMA":
                self.advance()
                names.append(self.expect("ACT", "action name").text)
        elif self.peek().kind != "PARR":
            tok = self.peek()
            raise ParseError(tok.span, f"unexpected {tok.text!r} in synchronisation set", ("action name", "]|"))
        self.expect("PARR", "]|")
        return frozenset(names)

    def equation(self, group: _Group) -> None:
        """Read ``Name =``, the start of an equation of ``group``."""
        name_tok = self.expect("VAR", "equation variable")
        if name_tok.text in group.equations:
            raise ParseError(name_tok.span, f"duplicate equation for {name_tok.text!r}")
        self.expect("EQ", "=")
        group.name = name_tok.text

    def parse(self) -> Term:
        group, stack = _Group(None), []
        while True:
            # an operand: prefixes, then an atom or the opening of a group
            while (tok := self.advance()).kind in ("ACT", "TAU"):
                if self.peek().kind != "DOT":
                    raise ParseError(tok.span, f"action {tok.text!r} must be followed by '.'", (".",))
                self.advance()
                group.ops.append((_TIGHT, Prefix, (TAU if tok.kind == "TAU" else tok.text,)))
            if tok.kind in ("LPAREN", "LANGLE"):
                stack.append(group)
                group = _Group(tok)
                if tok.kind == "LANGLE":
                    group.var = self.expect("VAR", "recursion variable").text
                    self.expect("BAR", "|")
                    self.equation(group)
                continue
            atom = Var(tok.text) if tok.kind == "VAR" else _ATOMS.get(tok.text)
            if atom is None:
                raise _unexpected(tok, ("0", "bot", "variable", "prefix", "(", "<"))
            group.operands.append(atom)
            # after an operand: a binary operator, or the end of groups
            while (tok := self.peek()).kind != "OP":
                group.reduce(0)
                t = group.operands.pop()
                if group.opener is None:
                    if tok.kind != "EOF":
                        raise ParseError(tok.span, f"unexpected {tok.text!r} after term")
                    return t
                if group.opener.kind == "LPAREN":
                    self.expect("RPAREN", ")")
                else:
                    group.equations[group.name] = t
                    if tok.kind == "COMMA":
                        self.advance()
                        self.equation(group)
                        break
                    end = self.expect("RANGLE", ">")
                    if group.var not in group.equations:
                        raise ParseError(
                            SourceSpan(group.opener.span.start, end.span.end),
                            f"recursion variable {group.var!r} has no equation",
                        )
                    t = Rec(group.var, RecSpec(group.equations))
                group = stack.pop()
                group.operands.append(t)
            else:
                self.advance()
                level, cls = _OF_TOKEN[tok.text]
                group.reduce(level)
                group.ops.append((level, cls, (self.sync_set(),) if cls is Parallel else ()))


def parse(text: str) -> Term:
    """Parse, normalise and validate a term.

    Raises ParseError for grammar violations, UnboundRecVar for a recursion
    head without an equation, and GuardednessError when a bound variable has
    an unguarded occurrence.
    """
    t = normalize(_Parser(text).parse())
    for _, spec in rec_specs(t):
        violation = first_guard_violation(spec)
        if violation is not None:
            raise GuardednessError(*violation)
    return t


def _fit(part: tuple[list, int], need: int) -> list:
    pieces, level = part
    return ["(", pieces, ")"] if level < need else pieces


def _text_of(t: Term, parts: list[tuple[list, int]]) -> tuple[list, int]:
    """``leave`` of ``print_term``: ``t``'s text, as a tree for
    ``terms._join``, and its binding level."""
    cls = type(t)
    if cls in _OF_TYPE:
        token, level = _OF_TYPE[cls]
        if cls is Parallel:
            token += ",".join(sorted(t.sync)) + "]|"
        return [_fit(parts[0], level), f" {token} ", _fit(parts[1], level + 1)], level
    if cls is Prefix:
        return [f"{t.action}.", _fit(parts[0], _TIGHT)], _TIGHT
    if cls is Rec:
        eqs = [[f"{n} = ", pieces] for (n, _), (pieces, _) in zip(t.spec.equations, parts)]
        return [f"<{t.var} | ", _commas(eqs), ">"], _TIGHT
    text = t.name if cls is Var else _ATOM_TEXT.get(t)
    if text is None:
        raise TypeError(f"not a term: {t!r}")
    return [text], _TIGHT


def print_term(t: Term) -> str:
    """Canonical text with minimal parentheses; parses back to ``t``."""
    return _join(_walk(t, None, _into_subterms, _text_of)[0])
