import contextlib
import gc
import random

import pytest

from llts import syntax, terms
from llts.properties import GenConfig, _gen_term_trial
from llts.syntax import ParseError, parse, print_term
from llts.terms import (
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
    UnboundRecVar,
    Var,
)

CFG = GenConfig(seed=5, max_depth=4)


class TestParse:
    def test_conjunction(self):
        assert parse("a.0 /\\ b.0") == Conj(Prefix("a", Nil()), Prefix("b", Nil()))

    def test_recursion(self):
        assert parse("<X | X = tau.X>") == Rec("X", {"X": Prefix(TAU, Var("X"))})

    def test_unguarded_rejected(self):
        with pytest.raises(GuardednessError) as err:
            parse("<X | X = X [] a.0>")
        assert err.value.var == "X"

    def test_weakly_guarded_accepted(self):
        parse("<X | X = X \\/ 0>")

    def test_parallel_empty_sync(self):
        assert parse("0 |[]| bot") == Parallel(frozenset(), Nil(), Bottom())

    def test_parallel_sync_set(self):
        assert parse("a.0 |[a,b]| b.0") == Parallel(
            {"a", "b"}, Prefix("a", Nil()), Prefix("b", Nil())
        )

    def test_precedence_chain(self):
        t = parse("a.0 /\\ b.0 \\/ c.0 [] tau.0 |[a]| 0")
        assert isinstance(t, Parallel)
        assert isinstance(t.left, ExtChoice)
        assert isinstance(t.left.left, Disj)
        assert isinstance(t.left.left.left, Conj)

    def test_left_associative(self):
        t = parse("a.0 [] b.0 [] c.0")
        assert t == ExtChoice(
            ExtChoice(Prefix("a", Nil()), Prefix("b", Nil())), Prefix("c", Nil())
        )

    def test_parentheses(self):
        t = parse("a.(b.0 [] c.0)")
        assert t == Prefix("a", ExtChoice(Prefix("b", Nil()), Prefix("c", Nil())))

    def test_prefix_chain(self):
        assert parse("a.b.0") == Prefix("a", Prefix("b", Nil()))

    def test_multi_equation(self):
        t = parse("<X | X = a.Y, Y = b.X>")
        assert t == Rec("X", RecSpec({"X": Prefix("a", Var("Y")), "Y": Prefix("b", Var("X"))}))

    def test_unbound_rec_var(self):
        with pytest.raises(ParseError):
            parse("<X | Y = a.Y>")

    def test_normalizes_clashing_binder(self):
        t = parse("X [] <X | X = a.X>")
        assert isinstance(t.right, Rec) and t.right.var != "X"
        # the first fresh name is taken too, so the search goes on to the next
        assert parse("X [] X1 [] <X | X = a.X>") is parse("X [] X1 [] <X2 | X2 = a.X2>")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
            [
            "",
            "a.0 [",
            "a.0 [] ",
            "(a.0",
            "a.0)",
            "a",  # action without dot
            "tau",
            "0 |[tau]| 0",
            "0 |[bot]| 0",
            "0 |[X]| 0",
            "<X | X = a.X, X = b.X>",  # duplicate equation
            "<x | x = a.x>",  # lowercase variable
            "a.0 /-",
            "a.0 ? b.0",
            "1.0",
        ],
    )
    def test_structured_errors(self, text):
        with pytest.raises(ParseError):
            parse(text)

    # one malformed input per place the parser raises: message, span, expected
    EXACT = [
        ("a 0", "action 'a' must be followed by '.' at 0..1 (expected .)", (0, 1), (".",)),
        ("a.", "unexpected end of input at 2..2 (expected 0, bot, variable, prefix, (, <)",
         (2, 2), ("0", "bot", "variable", "prefix", "(", "<")),
        ("((a.0)", "unexpected end of input at 6..6 (expected ))", (6, 6), (")",)),
        ("a.0)", "unexpected ')' after term at 3..4", (3, 4), ()),
        ("0 |[a b]| 0", "unexpected 'b' at 6..7 (expected ]|)", (6, 7), ("]|",)),
        ("0 |[a", "unexpected end of input at 5..5 (expected ]|)", (5, 5), ("]|",)),
        ("0 |[,]| 0", "unexpected ',' in synchronisation set at 4..5 (expected action name, ]|)",
         (4, 5), ("action name", "]|")),
        ("0 |[a,]| 0", "unexpected ']|' at 6..8 (expected action name)", (6, 8), ("action name",)),
        ("<0 | X = 0>", "unexpected '0' at 1..2 (expected recursion variable)", (1, 2),
         ("recursion variable",)),
        ("<X X = 0>", "unexpected 'X' at 3..4 (expected |)", (3, 4), ("|",)),
        ("<X | 0>", "unexpected '0' at 5..6 (expected equation variable)", (5, 6),
         ("equation variable",)),
        ("<X | X 0>", "unexpected '0' at 7..8 (expected =)", (7, 8), ("=",)),
        ("<X | X = a.0", "unexpected end of input at 12..12 (expected >)", (12, 12), (">",)),
        ("<X | X = a.X, X = b.X>", "duplicate equation for 'X' at 14..15", (14, 15), ()),
        ("<X | Y = a.X>", "recursion variable 'X' has no equation at 0..13", (0, 13), ()),
        ("0 [] [] 0", "unexpected '[]' at 5..7 (expected 0, bot, variable, prefix, (, <)",
         (5, 7), ("0", "bot", "variable", "prefix", "(", "<")),
        ("", "unexpected end of input at 0..0 (expected 0, bot, variable, prefix, (, <)",
         (0, 0), ("0", "bot", "variable", "prefix", "(", "<")),
        # the tokenizer's errors, which come before any parser error
        ("a.0 [ b.0", "stray '[' at 4..5 (expected [])", (4, 5), ("[]",)),
        ("a.0 ] b.0", "stray ']' at 4..5 (expected ]|)", (4, 5), ("]|",)),
        ("a.0 / b.0", "stray '/' at 4..5 (expected /\\)", (4, 5), ("/\\",)),
        ("a.0 \\ b.0", "stray '\\' at 4..5 (expected \\/)", (4, 5), ("\\/",)),
        ("a 0 ? b.0", "unexpected character '?' at 4..5", (4, 5), ()),
        ("a.0\xa0[] 0", "unexpected character '\\xa0' at 3..4", (3, 4), ()),
        ("\t\n a.0 ]", "stray ']' at 7..8 (expected ]|)", (7, 8), ("]|",)),
        ("a. ", "unexpected end of input at 3..3 (expected 0, bot, variable, prefix, (, <)",
         (3, 3), ("0", "bot", "variable", "prefix", "(", "<")),
        pytest.param("a." * 20_000 + "0)", "unexpected ')' after term at 40001..40002",
                     (40_001, 40_002), (), id="last-token-of-20000-prefixes"),
    ]

    @pytest.mark.parametrize("text, message, span, expected", EXACT)
    def test_exact_error(self, text, message, span, expected):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message
        assert (err.value.span.start, err.value.span.end) == span
        assert err.value.expected == expected

    def test_span_reported(self):
        with pytest.raises(ParseError) as err:
            parse("a.0 ?? 0")
        assert err.value.span.start == 4
        assert "4" in str(err.value)

    def test_totality_fuzz(self):
        rng = random.Random(7)
        chars = "ab0.<>|[]()/\\ =,XYtau bot"
        for _ in range(400):
            text = "".join(rng.choice(chars) for _ in range(rng.randrange(0, 24)))
            try:
                parse(text)
            except (ParseError, GuardednessError, UnboundRecVar):
                pass


class TestCollectorPause:
    """``parse`` runs with the cyclic collector off and leaves it as it found
    it, whether it returns or raises."""

    @pytest.mark.parametrize(
        "text, error",
        [("<X | X = a.X> [] b.0", None), ("a.0 [] (b.0 /\\ ", ParseError)],
        ids=["returns", "parse-error"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_restored(self, monkeypatch, text, error, enabled):
        seen = []
        tokenize = syntax._tokenize
        monkeypatch.setattr(syntax, "_tokenize", lambda t: seen.append(gc.isenabled()) or tokenize(t))
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(error) if error else contextlib.nullcontext():
                parse(text)
            assert seen == [False]
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestPrint:
    def test_conjunction(self):
        assert print_term(Conj(Prefix("a", Nil()), Prefix("b", Nil()))) == "a.0 /\\ b.0"

    def test_recursion(self):
        assert print_term(Rec("X", {"X": Prefix(TAU, Var("X"))})) == "<X | X = tau.X>"

    def test_parallel(self):
        assert print_term(Parallel(frozenset(), Nil(), Bottom())) == "0 |[]| bot"

    def test_minimal_parentheses(self):
        t = parse("(a.0 [] b.0) [] c.0")
        assert print_term(t) == "a.0 [] b.0 [] c.0"
        t2 = parse("a.0 [] (b.0 [] c.0)")
        assert print_term(t2) == "a.0 [] (b.0 [] c.0)"

    def test_prefix_body_parenthesised(self):
        t = Prefix("a", ExtChoice(Nil(), Nil()))
        assert print_term(t) == "a.(0 [] 0)"

    @pytest.mark.parametrize("seed", range(150))
    def test_round_trip(self, seed):
        t = _gen_term_trial(CFG, seed)
        assert parse(print_term(t)) == t

    @pytest.mark.parametrize("seed", range(20))
    def test_one_table_prints_as_one_walk_per_term(self, seed):
        # every subterm of a few generated terms, the shared ones included,
        # in either order, against the text of a plain walk of each alone
        def walked(t):
            return terms._join(terms._walk(t, None, terms._into_subterms, syntax._text_of)[0])

        batch = [_gen_term_trial(CFG, 5 * seed + k) for k in range(5)]
        batch += [Conj(t, t) for t in batch] + [Prefix("a", Disj(t, t)) for t in batch]
        every = []
        for t in batch:
            todo = [t]
            while todo:
                u = todo.pop()
                every.append(u)
                todo += terms.subterms(u)
        expected = {t: walked(t) for t in every}
        for order in (every, every[::-1]):
            assert syntax.print_terms(order) == expected
