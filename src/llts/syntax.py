"""Concrete syntax: tokenizer, parser and pretty-printer.

Grammar (loosest to tightest): ``|[a,b]|`` parallel, ``[]`` external choice,
``\\/`` disjunction, ``/\\`` conjunction, ``a.`` / ``tau.`` prefix.  All
binary operators associate to the left; parentheses override.  Atoms are
``0``, ``bot``, uppercase variables and ``<X | X = t, Y = s>`` recursions.
Visible actions are lowercase identifiers other than the reserved words
``tau`` and ``bot``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


_SIMPLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "=": "EQ",
    ".": "DOT",
    "<": "LANGLE",
    ">": "RANGLE",
}

_RESERVED = {"tau": "TAU", "bot": "BOT"}


def _is_ident_start(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z" or c == "_"


def _is_ident_char(c: str) -> bool:
    return _is_ident_start(c) or "0" <= c <= "9"


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        # ASCII whitespace only, so reported offsets are byte offsets
        if c in " \t\r\n\f\v":
            i += 1
            continue
        start = i
        if c in _SIMPLE:
            out.append(_Token(_SIMPLE[c], c, SourceSpan(i, i + 1)))
            i += 1
        elif c == "[":
            if text[i : i + 2] != "[]":
                raise ParseError(SourceSpan(i, i + 1), "stray '['", ("[]",))
            out.append(_Token("CHOICE", "[]", SourceSpan(i, i + 2)))
            i += 2
        elif c == "]":
            if text[i : i + 2] != "]|":
                raise ParseError(SourceSpan(i, i + 1), "stray ']'", ("]|",))
            out.append(_Token("PARR", "]|", SourceSpan(i, i + 2)))
            i += 2
        elif c == "|":
            if text[i : i + 2] == "|[":
                out.append(_Token("PARL", "|[", SourceSpan(i, i + 2)))
                i += 2
            else:
                out.append(_Token("BAR", "|", SourceSpan(i, i + 1)))
                i += 1
        elif c == "/":
            if text[i : i + 2] != "/\\":
                raise ParseError(SourceSpan(i, i + 1), "stray '/'", ("/\\",))
            out.append(_Token("CONJ", "/\\", SourceSpan(i, i + 2)))
            i += 2
        elif c == "\\":
            if text[i : i + 2] != "\\/":
                raise ParseError(SourceSpan(i, i + 1), "stray '\\'", ("\\/",))
            out.append(_Token("DISJ", "\\/", SourceSpan(i, i + 2)))
            i += 2
        elif c == "0":
            out.append(_Token("ZERO", "0", SourceSpan(i, i + 1)))
            i += 1
        elif _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            span = SourceSpan(i, j)
            if word in _RESERVED:
                out.append(_Token(_RESERVED[word], word, span))
            elif word[0].isupper():
                out.append(_Token("VAR", word, span))
            else:
                out.append(_Token("ACT", word, span))
            i = j
        else:
            raise ParseError(SourceSpan(i, i + 1), f"unexpected character {c!r}")
    out.append(_Token("EOF", "", SourceSpan(n, n)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                tok.span, f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", (what,)
            )
        return self.advance()

    def parse(self) -> Term:
        t = self.parse_parallel()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(tok.span, f"unexpected {tok.text!r} after term")
        return t

    def parse_parallel(self) -> Term:
        t = self.parse_choice()
        while self.peek().kind == "PARL":
            self.advance()
            sync = self.parse_sync_set()
            self.expect("PARR", "]|")
            t = Parallel(sync, t, self.parse_choice())
        return t

    def parse_sync_set(self) -> frozenset[str]:
        names: list[str] = []
        if self.peek().kind == "ACT":
            names.append(self.advance().text)
            while self.peek().kind == "COMMA":
                self.advance()
                names.append(self.expect("ACT", "action name").text)
        elif self.peek().kind not in ("PARR",):
            tok = self.peek()
            raise ParseError(tok.span, f"unexpected {tok.text!r} in synchronisation set", ("action name", "]|"))
        return frozenset(names)

    def parse_choice(self) -> Term:
        t = self.parse_disj()
        while self.peek().kind == "CHOICE":
            self.advance()
            t = ExtChoice(t, self.parse_disj())
        return t

    def parse_disj(self) -> Term:
        t = self.parse_conj()
        while self.peek().kind == "DISJ":
            self.advance()
            t = Disj(t, self.parse_conj())
        return t

    def parse_conj(self) -> Term:
        t = self.parse_prefix()
        while self.peek().kind == "CONJ":
            self.advance()
            t = Conj(t, self.parse_prefix())
        return t

    def parse_prefix(self) -> Term:
        actions = []
        while (tok := self.peek()).kind in ("ACT", "TAU"):
            if self.peek(1).kind != "DOT":
                raise ParseError(tok.span, f"action {tok.text!r} must be followed by '.'", (".",))
            self.advance()
            self.advance()
            actions.append(TAU if tok.kind == "TAU" else tok.text)
        t = self.parse_atom()
        for action in reversed(actions):
            t = Prefix(action, t)
        return t

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ZERO":
            self.advance()
            return Nil()
        if tok.kind == "BOT":
            self.advance()
            return Bottom()
        if tok.kind == "VAR":
            self.advance()
            return Var(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            t = self.parse_parallel()
            self.expect("RPAREN", ")")
            return t
        if tok.kind == "LANGLE":
            return self.parse_rec()
        raise ParseError(
            tok.span,
            f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
            ("0", "bot", "variable", "prefix", "(", "<"),
        )

    def parse_rec(self) -> Term:
        open_tok = self.expect("LANGLE", "<")
        var = self.expect("VAR", "recursion variable").text
        self.expect("BAR", "|")
        equations: dict[str, Term] = {}
        while True:
            name_tok = self.expect("VAR", "equation variable")
            if name_tok.text in equations:
                raise ParseError(name_tok.span, f"duplicate equation for {name_tok.text!r}")
            self.expect("EQ", "=")
            equations[name_tok.text] = self.parse_parallel()
            if self.peek().kind == "COMMA":
                self.advance()
                continue
            break
        self.expect("RANGLE", ">")
        if var not in equations:
            raise ParseError(
                SourceSpan(open_tok.span.start, self.tokens[self.pos - 1].span.end),
                f"recursion variable {var!r} has no equation",
            )
        return Rec(var, RecSpec(equations))


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


_LEVEL_PARALLEL = 1
_LEVEL_CHOICE = 2
_LEVEL_DISJ = 3
_LEVEL_CONJ = 4
_LEVEL_PREFIX = 5
_LEVEL_ATOM = 6


def _pp(t: Term, min_level: int) -> str:
    match t:
        case Nil():
            return "0"
        case Bottom():
            return "bot"
        case Var(name):
            return name
        case Rec(var, spec):
            eqs = ", ".join(f"{n} = {_pp(b, _LEVEL_PARALLEL)}" for n, b in spec.equations)
            return f"<{var} | {eqs}>"
        case Prefix(action, body):
            text = f"{action}.{_pp(body, _LEVEL_PREFIX)}"
            level = _LEVEL_PREFIX
        case Conj(l, r):
            text = f"{_pp(l, _LEVEL_CONJ)} /\\ {_pp(r, _LEVEL_CONJ + 1)}"
            level = _LEVEL_CONJ
        case Disj(l, r):
            text = f"{_pp(l, _LEVEL_DISJ)} \\/ {_pp(r, _LEVEL_DISJ + 1)}"
            level = _LEVEL_DISJ
        case ExtChoice(l, r):
            text = f"{_pp(l, _LEVEL_CHOICE)} [] {_pp(r, _LEVEL_CHOICE + 1)}"
            level = _LEVEL_CHOICE
        case Parallel(sync, l, r):
            acts = ",".join(sorted(sync))
            text = f"{_pp(l, _LEVEL_PARALLEL)} |[{acts}]| {_pp(r, _LEVEL_PARALLEL + 1)}"
            level = _LEVEL_PARALLEL
        case _:
            raise TypeError(f"not a term: {t!r}")
    return f"({text})" if level < min_level else text


def print_term(t: Term) -> str:
    """Canonical text with minimal parentheses; parses back to ``t``."""
    return _pp(t, _LEVEL_PARALLEL)
