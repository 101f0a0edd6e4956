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

Tokens come from one ``findall`` of ``_SCAN``, whose pattern absorbs the
whitespace before each token, as two lists read by index: the token texts,
and their kinds, read from ``_KIND_OF`` by the whole text or, for an
identifier, its first character.  Offsets are not kept: a ``ParseError``
finds its span by scanning the text again up to the token's index
(``_span``).  ``parse`` then calls ``normalize``, which returns the parsed
term itself when no bound name is free in it and distinct equation systems
bind disjoint names, and the guard check.  Both find the equation systems
with ``rec_specs``, which enters only the subterms with a binder below.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice

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
    _join,
    _walk,
    collector_paused,
    first_guard_violation,
    normalize,
    rec_specs,
    subterms,
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
_STRAY = {pair[0]: pair for pair in _PAIRS if pair[0] not in _SIMPLE}

_RESERVED = {"tau": "TAU", "bot": "BOT"}

# An identifier: an action, a variable or a reserved word.
_IDENT = re.compile("[A-Za-z_][A-Za-z0-9_]*")

# The kind of every token with a fixed text, of a stray character, and of each
# character an identifier starts with, which is also the kind of that one
# letter alone.  A token found nowhere here is a bad character.
_KIND_OF = {
    **{c: "VAR" if c.isupper() else "ACT" for c in map(chr, range(128)) if _IDENT.match(c)},
    **_PAIRS,
    **_SIMPLE,
    **_RESERVED,
    **dict.fromkeys(_STRAY, "BAD"),
}

# One token after any whitespace: a two-character token first, so that a stray
# character is the first one of a pair left alone, then a one-character token,
# an identifier, or any other character but whitespace.  Whitespace is ASCII
# only, so offsets are byte offsets.
_SCAN = re.compile(
    r"[ \t\r\n\f\v]*("
    f"{'|'.join(map(re.escape, _PAIRS))}"
    f"|[{re.escape(''.join(_SIMPLE))}]"
    f"|{_IDENT.pattern}"
    r"|[^ \t\r\n\f\v])"
)


def _span(text: str, first: int, last: int | None = None) -> SourceSpan:
    """From the start of token ``first`` of ``text`` to the end of token
    ``last`` (``first`` by default), found by scanning the text again; the
    end of input, the token after the last, is the empty span at the end."""
    last = first if last is None else last
    spans = [m.span(1) for m in islice(_SCAN.finditer(text), last + 1)]
    spans += [(len(text), len(text))] * (last + 1 - len(spans))
    return SourceSpan(spans[first][0], spans[last][1])


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The texts and kinds of the tokens of ``text``, ending in the end of
    input: the empty text of kind ``EOF``."""
    words = _SCAN.findall(text)
    kind_of = _KIND_OF.get
    kinds = [kind_of(word) or kind_of(word[0], "BAD") for word in words]
    if "BAD" in kinds:
        i = kinds.index("BAD")
        word = words[i]
        if word in _STRAY:
            raise ParseError(_span(text, i), f"stray '{word}'", (_STRAY[word],))
        raise ParseError(_span(text, i), f"unexpected character {word!r}")
    words.append("")
    kinds.append("EOF")
    return words, kinds


class _Group:
    """The whole input, a parenthesis or a recursion, while still open: the
    index of the token that opened it, its pending operators and operands,
    and a recursion's equations so far."""

    def __init__(self, opener: int | None):
        self.opener, self.ops, self.operands = opener, [], []
        self.var, self.name, self.equations = "", "", {}

    def reduce(self, level: int) -> None:
        """Apply the pending operators that bind at least as tight as ``level``."""
        ops, operands = self.ops, self.operands
        while ops and ops[-1][0] >= level:
            _, cls, head = ops.pop()
            if cls is Prefix:
                operands[-1] = Prefix(*head, operands[-1])
            else:
                right = operands.pop()
                operands[-1] = cls(*head, operands[-1], right)


class _Parser:
    """Reads the token lists by index: each step takes the index of the token
    it starts at and returns the index after the tokens it read."""

    def __init__(self, text: str):
        self.text = text
        self.words, self.kinds = _tokenize(text)

    def error(self, i: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(_span(self.text, i), message, expected)

    def unexpected(self, i: int, expected: tuple[str, ...]) -> ParseError:
        word = self.words[i]
        return self.error(i, f"unexpected {word!r}" if word else "unexpected end of input", expected)

    def expect(self, i: int, kind: str, what: str) -> int:
        if self.kinds[i] != kind:
            raise self.unexpected(i, (what,))
        return i + 1

    def sync_set(self, i: int) -> tuple[frozenset[str], int]:
        words, kinds = self.words, self.kinds
        names: list[str] = []
        if kinds[i] == "ACT":
            names.append(words[i])
            i += 1
            while kinds[i] == "COMMA":
                i = self.expect(i + 1, "ACT", "action name")
                names.append(words[i - 1])
        elif kinds[i] != "PARR":
            raise self.error(
                i, f"unexpected {words[i]!r} in synchronisation set", ("action name", "]|")
            )
        return frozenset(names), self.expect(i, "PARR", "]|")

    def equation(self, group: _Group, i: int) -> int:
        """Read ``Name =``, the start of an equation of ``group``."""
        i = self.expect(i, "VAR", "equation variable")
        name = self.words[i - 1]
        if name in group.equations:
            raise self.error(i - 1, f"duplicate equation for {name!r}")
        group.name = name
        return self.expect(i, "EQ", "=")

    def parse(self) -> Term:
        words, kinds = self.words, self.kinds
        group, stack, i = _Group(None), [], 0
        while True:
            # an operand: prefixes, then an atom or the opening of a group
            while (kind := kinds[i]) == "ACT" or kind == "TAU":
                if kinds[i + 1] != "DOT":
                    raise self.error(i, f"action {words[i]!r} must be followed by '.'", (".",))
                group.ops.append((_TIGHT, Prefix, (words[i],)))
                i += 2
            if kind == "LPAREN" or kind == "LANGLE":
                stack.append(group)
                group = _Group(i)
                i += 1
                if kind == "LANGLE":
                    i = self.expect(i, "VAR", "recursion variable")
                    group.var = words[i - 1]
                    i = self.equation(group, self.expect(i, "BAR", "|"))
                continue
            atom = Var(words[i]) if kind == "VAR" else _ATOMS.get(words[i])
            if atom is None:
                raise self.unexpected(i, ("0", "bot", "variable", "prefix", "(", "<"))
            group.operands.append(atom)
            i += 1
            # after an operand: a binary operator, or the end of groups
            while (kind := kinds[i]) != "OP":
                group.reduce(0)
                t = group.operands.pop()
                if group.opener is None:
                    if kind != "EOF":
                        raise self.error(i, f"unexpected {words[i]!r} after term")
                    return t
                if kinds[group.opener] == "LPAREN":
                    i = self.expect(i, "RPAREN", ")")
                else:
                    group.equations[group.name] = t
                    if kind == "COMMA":
                        i = self.equation(group, i + 1)
                        break
                    i = self.expect(i, "RANGLE", ">")
                    if group.var not in group.equations:
                        raise ParseError(
                            _span(self.text, group.opener, i - 1),
                            f"recursion variable {group.var!r} has no equation",
                        )
                    t = Rec(group.var, RecSpec(group.equations))
                group = stack.pop()
                group.operands.append(t)
            else:
                level, cls = _OF_TOKEN[words[i]]
                group.reduce(level)
                head, i = (), i + 1
                if cls is Parallel:
                    sync, i = self.sync_set(i)
                    head = (sync,)
                group.ops.append((level, cls, head))


@collector_paused
def parse(text: str) -> Term:
    """Parse, normalise and validate a term.

    Raises ParseError for grammar violations, UnboundRecVar for a recursion
    head without an equation, and GuardednessError when a bound variable has
    an unguarded occurrence.
    """
    # Called through this module's globals: ``bench/tracing.py`` wraps the
    # three helpers here, and ``tests/test_bench_contract.py`` relies on it.
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
    return print_terms((t,))[t]


def print_terms(terms: Iterable[Term]) -> dict[Term, str]:
    """``print_term`` of each of ``terms``, with one table from term to text
    and binding level for them all, so each distinct subterm is printed once
    and its text is built from its operands' texts.  The text of each of
    ``terms``, and of a subterm met again, is joined once, and the terms
    above it copy it whole: a path of nested states costs the length of its
    text, not its number of states times the length."""
    wanted = dict.fromkeys(terms)
    table: dict[Term, tuple] = {}

    def enter(u: Term, _):
        done = table.get(u)
        if done is None:
            return u, subterms(u), None
        if type(done[0]) is not str:  # met again: join it once
            done = table[u] = (_join(done[0]), done[1])
        return done, None, None

    def leave(u: Term, parts: list) -> tuple:
        pieces, level = done = _text_of(u, parts)
        if u in wanted:
            done = (_join(pieces), level)
        table[u] = done
        return done

    for t in wanted:
        _walk(t, None, enter, leave)
    return {t: table[t][0] for t in wanted}
