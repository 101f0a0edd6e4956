import gc
import os
import subprocess
import sys
import threading
import time
from functools import cache

import pytest

import llts
from llts.properties import GenConfig, _gen_term_trial, gen_context, gen_equation_body
from llts.semantics import BuildLimits, build_lts, step
from llts.syntax import parse, print_term
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
    StratRank,
    UnboundRecVar,
    Var,
    all_names,
    collector_paused,
    degree,
    first_guard_violation,
    folding_number,
    free_vars,
    is_multi_unfolding,
    normalize,
    operands,
    plug,
    rank_inconsistent,
    rank_transition,
    rebuild,
    rec_specs,
    substitute,
    subterms,
    syntactic_flag,
    unfold_one,
    unfold_rec,
    unguarded_free_vars,
    unguarded_rec_count,
    variable_status,
)
from llts import terms
from llts.terms import _BOUND, _CLOSED, _into_subterms, _named, _occurrences, _walk
from test_semantics import FACTS

CFG = GenConfig(seed=11, max_depth=4)


def gen(k, depth=4):
    return _gen_term_trial(CFG, k, depth=depth)


class TestFreeVars:
    def test_var(self):
        assert free_vars(Var("X")) == {"X"}

    def test_closed_leaves(self):
        assert free_vars(Nil()) == frozenset()
        assert free_vars(Bottom()) == frozenset()

    def test_rec_binds(self):
        t = Rec("X", {"X": ExtChoice(Prefix("a", Var("X")), Var("Y"))})
        assert free_vars(t) == {"Y"}


class TestVariableStatus:
    def test_one_active_beside_recursion(self):
        t = ExtChoice(Rec("Y", {"Y": Prefix("a", Var("Y"))}), Var("X"))
        st = variable_status(t, "X")
        assert st.one_active and st.active and st.unfolded

    def test_prefix_strongly_guards(self):
        st = variable_status(Prefix("a", Var("X")), "X")
        assert st.strongly_guarded and not st.active

    def test_disjunction_weakly_guards(self):
        st = variable_status(Disj(Var("X"), Prefix("b", Nil())), "X")
        assert st.weakly_guarded and not st.active

    def test_recursion_scope_blocks_unfolding(self):
        t = Rec("Y", {"Y": ExtChoice(Prefix("a", Var("X")), Prefix("b", Var("Y")))})
        st = variable_status(t, "X")
        assert st.free and not st.unfolded and st.strongly_guarded

    def test_absent_variable(self):
        st = variable_status(Nil(), "X")
        assert not st.free and st.occurrence_count == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_flag_implications(self, seed):
        t = gen(seed)
        for x in sorted(free_vars(t) | {"Zmissing"}):
            st = variable_status(t, x)
            if st.one_active:
                assert st.active
            if st.active and st.occurrence_count:
                assert st.unfolded
            if st.strongly_guarded and st.occurrence_count:
                assert not st.active


class TestGuardedness:
    def test_strong_guard(self):
        assert first_guard_violation(RecSpec({"X": Prefix("a", Var("X"))})) is None

    def test_unguarded_choice(self):
        assert (
            first_guard_violation(RecSpec({"X": ExtChoice(Var("X"), Prefix("a", Nil()))}))
            is not None
        )

    def test_disjunction_guards(self):
        assert first_guard_violation(RecSpec({"X": Disj(Var("X"), Nil())})) is None

    def test_nested_scope_counts(self):
        # X unguarded inside a nested recursion body
        inner = RecSpec({"Y": ExtChoice(Var("X"), Prefix("b", Var("Y")))})
        assert first_guard_violation(RecSpec({"X": Rec("Y", inner)})) is not None


def _reference_violation(spec):
    """The first unguarded bound occurrence, found one variable's
    occurrences at a time."""
    for eq_name, body in spec.equations:
        for var in sorted(spec.names):
            for occ in _occurrences(body, var):
                if not occ.strong and not occ.weak:
                    return (var, eq_name)
    return None


def _guard_corpus():
    """Every recursion of the fact table and of 200 generated terms, each as
    written and with one name made unguarded in its last equation."""
    config = GenConfig(seed=23, max_depth=4)
    terms = [parse(text) for text, _ in FACTS]
    terms += [_gen_term_trial(config, k) for k in range(200)]
    for t in terms:
        for rec, spec in rec_specs(t):
            yield rec
            (last, body), names = spec.equations[-1], sorted(spec.names)
            for x in (names[0], names[-1]):
                yield Rec(rec.var, {**dict(spec.equations), last: ExtChoice(body, Var(x))})
                yield Rec(rec.var, {**dict(spec.equations), last: Conj(Disj(Var(x), body), Var(x))})


class TestGuardCheck:
    def test_same_first_violation_as_occurrence_walk(self):
        recs = list(_guard_corpus())
        assert sum(_reference_violation(rec.spec) is not None for rec in recs) > 100
        for rec in recs:
            assert first_guard_violation(rec.spec) == _reference_violation(rec.spec)

    def test_same_parse_error_as_occurrence_walk(self):
        for rec in _guard_corpus():
            violations = (_reference_violation(spec) for _, spec in rec_specs(normalize(rec)))
            expected = next((v for v in violations if v is not None), None)
            if expected is None:
                assert parse(print_term(rec)) is normalize(rec)
                continue
            with pytest.raises(GuardednessError) as err:
                parse(print_term(rec))
            assert str(err.value) == str(GuardednessError(*expected))

    def test_nested_recursions_naming_every_outer_variable(self):
        # <X0 | X0 = a.<X1 | X1 = a. ... a.(X0 [] ... [] X1999)>...>
        names = [f"X{i}" for i in range(2000)]
        text = "".join(f"<{x} | {x} = a." for x in names)
        text += "(" + " [] ".join(names) + ")" + ">" * len(names)
        start = time.perf_counter()
        assert len(rec_specs(parse(text))) == len(names)
        assert time.perf_counter() - start < 10


def _reference_facts(t):
    """Every subterm of ``t`` mapped to its (free names, unguarded free
    names, whether a name occurs, whether a binder occurs, inconsistency
    flag), folded over its subterms in one walk that reads no recorded
    facts.  The flag is the paper's F where only operand flags decide it:
    ``0`` false, ``bot`` true, a prefix its body's, a disjunction both
    operands', a choice or parallel either operand's.  It is None at a
    variable, a recursion or a conjunction, and above any None."""
    out = {}

    def leave(node, parts):
        if isinstance(node, Var):
            out[node] = {node.name}, {node.name}, True, False, None
            return out[node]
        free = set().union(*(f for f, _, _, _, _ in parts))
        unguarded = set()
        if not isinstance(node, (Prefix, Disj)):
            unguarded = unguarded.union(*(u for _, u, _, _, _ in parts))
        if isinstance(node, Rec):
            free -= node.spec.names
            unguarded -= node.spec.names
        named = isinstance(node, Rec) or any(n for _, _, n, _, _ in parts)
        binder = isinstance(node, Rec) or any(b for _, _, _, b, _ in parts)
        flags = [f for _, _, _, _, f in parts]
        if isinstance(node, (Rec, Conj)) or None in flags:
            flag = None
        elif isinstance(node, Nil):
            flag = False
        elif isinstance(node, Bottom):
            flag = True
        elif isinstance(node, Prefix):
            flag = flags[0]
        elif isinstance(node, Disj):
            flag = flags[0] and flags[1]
        else:
            flag = flags[0] or flags[1]
        out[node] = free, unguarded, named, binder, flag
        return out[node]

    _walk(t, None, _into_subterms, leave)
    return out


def _nested(names):
    """One recursion per name, the first innermost.  The innermost body
    names every name and a free Y unguarded, and each body also names its
    own variable under a prefix."""
    t = Var("Y")
    for x in names:
        t = ExtChoice(t, Var(x))
    for x in names:
        t = Rec(x, {x: ExtChoice(t, Prefix("a", Var(x)))})
    return t


def _facts_corpus():
    config = GenConfig(seed=23, max_depth=4)
    yield from (parse(text) for text, _ in FACTS)
    for k in range(50):
        yield _gen_term_trial(config, k)
        yield gen_context(config, k)
        yield gen_equation_body(config, k, "RX")
    yield _nested(["X"] * 20)
    yield _nested([f"X{i}" for i in range(20)])
    # each operator over closed, bound, guarded and unguarded operands:
    # the shapes where a constructor shares an operand's facts, and those
    # where it must not
    kinds = [
        Prefix("a", Nil()),
        LOOP,
        Prefix("b", Var("X")),
        Var("Y"),
        ExtChoice(Var("X"), LOOP),
        Disj(Var("X"), Prefix("c", Var("Y"))),
    ]
    for left in kinds:
        yield Prefix("d", left)
        for right in kinds:
            for op in (ExtChoice, Conj, Disj, lambda p, q: Parallel({"a"}, p, q)):
                yield op(left, right)
    yield parse(_recursion_chain(2750))


def _recursion_chain(depth):
    """check-build's consistent recursion chain: ``<X | X = x0. ... .(X [] y.0)>``."""
    return f"<X | X = {'.'.join(f'x{i}' for i in range(depth))}.(X [] y.0)>"


class TestNameFacts:
    def test_same_as_reference_fold_on_every_subterm(self):
        seen = set()
        for root in _facts_corpus():
            for t, (free, unguarded, named, binder, flag) in _reference_facts(root).items():
                seen.add(t)
                assert free_vars(t) == free
                assert unguarded_free_vars(t) == unguarded
                assert _named(t) == named
                assert t._facts.binder == binder
                assert syntactic_flag(t) is flag
                # _named tests identity with the _CLOSED object of the flag
                if not free:
                    assert t._facts is (_BOUND if binder else _CLOSED[flag])
        assert sum(bool(unguarded_free_vars(t)) for t in seen) > 100
        # each closed object without a binder is met: consistent,
        # inconsistent, and with a conjunction below
        assert {id(t._facts) for t in seen} >= {id(f) for f in _CLOSED.values()}

    def test_chain_prefixes_share_their_facts(self):
        # the innermost prefix computes its facts and every prefix above
        # shares that object: the chain holds one, not one per prefix
        t = parse(_recursion_chain(2750)).spec.body("X")
        facts = set()
        while isinstance(t, Prefix):
            facts.add(id(t._facts))
            t = t.body
        assert len(facts) == 1


class TestMeasures:
    def test_degree_leaves(self):
        assert degree(Nil()) == 1
        assert degree(Bottom()) == 1
        assert degree(Rec("X", {"X": Prefix("a", Var("X"))})) == 1

    def test_degree_prefix(self):
        assert degree(Prefix("a", Nil())) == 2

    def test_degree_choice(self):
        assert degree(ExtChoice(Prefix("a", Nil()), Prefix("b", Nil()))) == 5

    def test_measures_walk_distinct_nodes(self):
        # 42 distinct nodes standing for a tree of 3 * 2**40 - 1
        t = Prefix("a", Nil())
        for i in range(40):
            t = (ExtChoice, Conj)[i % 2](t, t)
        assert degree(t) == 3 * 2**40 - 1
        assert unguarded_rec_count(t) == 0
        rec = Rec("X", {"X": Prefix("a", Var("X"))})
        for _ in range(40):
            rec = Conj(rec, rec)
        assert unguarded_rec_count(rec) == 2**40

    def test_rec_count_rec(self):
        rec = Rec("X", {"X": Prefix("a", Var("X"))})
        assert unguarded_rec_count(rec) == 1

    def test_rec_count_guarded(self):
        rec = Rec("X", {"X": Prefix("a", Var("X"))})
        assert unguarded_rec_count(Prefix("a", rec)) == 0

    def test_rec_count_sums(self):
        rec1 = Rec("X", {"X": Prefix("a", Var("X"))})
        rec2 = Rec("Y", {"Y": Prefix("b", Var("Y"))})
        assert unguarded_rec_count(ExtChoice(rec1, rec2)) == 2

    def test_rec_count_through_bodies(self):
        # u(<X | E>) = 1 + u(E_X): the body's unguarded recursions count,
        # its guarded ones and its variables do not
        inner = Rec("Y", {"Y": Prefix("a", Var("Y"))})
        assert unguarded_rec_count(Rec("X", {"X": ExtChoice(inner, Prefix("b", Nil()))})) == 2
        assert unguarded_rec_count(Rec("X", {"X": Prefix("a", inner)})) == 1
        both = Rec("X", {"X": Conj(Prefix("b", Var("Z")), inner), "Z": ExtChoice(inner, inner)})
        assert unguarded_rec_count(both) == 2
        assert unguarded_rec_count(Rec("Z", both.spec)) == 3

    def test_rank_examples(self):
        assert rank_transition(Prefix("a", Nil())) == StratRank(False, 0, 2)
        rec = Rec("X", {"X": Prefix("a", Var("X"))})
        assert rank_transition(rec) == StratRank(False, 1, 1)
        assert rank_inconsistent().top
        assert rank_transition(rec) < rank_inconsistent()


class TestPlug:
    def test_nested_example(self):
        # t = X [] a.<Y | Y = X [] Y>, E = {X = c.X}
        t = ExtChoice(
            Var("X"),
            Prefix("a", Rec("Y", {"Y": ExtChoice(Var("X"), Var("Y"))})),
        )
        spec = RecSpec({"X": Prefix("c", Var("X"))})
        rec_x = Rec("X", spec)
        expected = ExtChoice(
            Var("X"),
            Prefix("a", Rec("Y", {"Y": ExtChoice(rec_x, Var("Y"))})),
        )
        expected = substitute(expected, {"X": rec_x})
        got = plug(t, spec)
        assert got == ExtChoice(
            rec_x, Prefix("a", Rec("Y", {"Y": ExtChoice(rec_x, Var("Y"))}))
        )
        assert got == expected

    def test_bound_variable_becomes_recursion(self):
        spec = RecSpec({"X": Prefix("a", Var("X"))})
        assert plug(Var("X"), spec) == Rec("X", spec)

    def test_closed_term_unchanged(self):
        spec = RecSpec({"X": Prefix("a", Var("X"))})
        assert plug(Nil(), spec) is Nil()

    @pytest.mark.parametrize("seed", range(20))
    def test_plug_identity_without_bound_vars(self, seed):
        t = gen(seed)
        spec = RecSpec({"Zfresh": Prefix("a", Var("Zfresh"))})
        assert plug(t, spec) == t

    def test_binds_only_the_names_free_in_the_body(self, monkeypatch):
        # the ring Xi = ring.X(i+1 mod 50): each unfolding names one variable
        n = 50
        ring = Rec("X0", {f"X{i}": Prefix("ring", Var(f"X{(i + 1) % n}")) for i in range(n)})
        calls = []

        def recorded(t, bindings):
            calls.append((free_vars(t), set(bindings)))
            return substitute(t, bindings)

        monkeypatch.setattr(llts.terms, "substitute", recorded)
        assert sum(build_lts(ring).reachable) == n
        assert len(calls) == n
        assert all(names <= free for free, names in calls)

    def test_one_guard_check_per_system(self, monkeypatch):
        # the ring's n recursions read the check its system recorded; they do
        # not each scan the n equations again
        n = 500
        ring = Rec("X0", {f"X{i}": Prefix("ring", Var(f"X{(i + 1) % n}")) for i in range(n)})
        scanned = []
        scan = llts.terms.unguarded_free_vars
        monkeypatch.setattr(llts.terms, "unguarded_free_vars", lambda t: scanned.append(t) or scan(t))
        assert sum(build_lts(ring).reachable) == n
        assert len(scanned) <= n


class TestSubstitute:
    def test_simple(self):
        c = ExtChoice(Var("X"), Prefix(TAU, Nil()))
        assert substitute(c, {"X": Prefix("a", Nil())}) == ExtChoice(
            Prefix("a", Nil()), Prefix(TAU, Nil())
        )

    def test_both_occurrences(self):
        c = Conj(Prefix("a", Var("X")), Prefix("a", Var("X")))
        assert substitute(c, {"X": Nil()}) == Conj(
            Prefix("a", Nil()), Prefix("a", Nil())
        )

    def test_inside_recursion_scope(self):
        c = ExtChoice(
            Rec("Y", {"Y": ExtChoice(Var("X"), Prefix("b", Var("Y")))}), Var("X")
        )
        value = Disj(Prefix("c", Nil()), Prefix("e", Nil()))
        got = substitute(c, {"X": value})
        assert got == ExtChoice(
            Rec("Y", {"Y": ExtChoice(value, Prefix("b", Var("Y")))}), value
        )

    def test_shadowed_occurrences_untouched(self):
        inner = Rec("X", {"X": Prefix("a", Var("X"))})
        c = ExtChoice(inner, Var("X"))
        got = substitute(c, {"X": Nil()})
        assert got == ExtChoice(inner, Nil())

    def test_open_value_renames_capturing_binder(self):
        c = Rec("Y", {"Y": ExtChoice(Var("X"), Prefix("b", Var("Y")))})
        open_value = Prefix("a", Var("Y"))  # free Y would be captured
        got = substitute(c, {"X": open_value})
        assert isinstance(got, Rec)
        assert got.var != "Y"
        assert "Y" in free_vars(got)


class TestUnfoldOne:
    def test_single_clause(self):
        rec = Rec("X", {"X": Prefix("a", Var("X"))})
        assert unfold_one(rec) == [Prefix("a", rec)]

    def test_nested_scope_not_unfolded(self):
        # (<X | X = a.X [] b.<Y|Y=c.Y>> [] d.0) [] Z
        inner = Rec("Y", {"Y": Prefix("c", Var("Y"))})
        spec = RecSpec(
            {"X": ExtChoice(Prefix("a", Var("X")), Prefix("b", inner))}
        )
        outer = Rec("X", spec)
        t = ExtChoice(ExtChoice(outer, Prefix("d", Nil())), Var("Z"))
        expansion = ExtChoice(Prefix("a", outer), Prefix("b", inner))
        assert unfold_one(t) == [
            ExtChoice(ExtChoice(expansion, Prefix("d", Nil())), Var("Z"))
        ]

    def test_no_recursion(self):
        assert unfold_one(Nil()) == []


class TestFoldingNumber:
    def test_example_pair(self):
        # <X | X = a.X \/ Y1> [] <Z | Z = c.Z [] Y2>
        left = Rec("X", {"X": Disj(Prefix("a", Var("X")), Var("Y1"))})
        right = Rec("Z", {"Z": ExtChoice(Prefix("c", Var("Z")), Var("Y2"))})
        t = ExtChoice(left, right)
        assert folding_number(t, "Y1") == 0
        assert folding_number(t, "Y2") == 1

    def test_leaves(self):
        assert folding_number(Nil(), "X") == 0
        assert folding_number(Bottom(), "X") == 0

    def test_nested_depth(self):
        inner = Rec("Z", {"Z": ExtChoice(Var("Y"), Prefix("a", Var("Z")))})
        outer = Rec("X", {"X": ExtChoice(Prefix("b", Var("X")), inner)})
        assert folding_number(outer, "Y") == 2


class TestUnfoldingLaws:
    """Single-step unfolding preserves variable placement."""

    @pytest.mark.parametrize("seed", range(60))
    def test_placement_preserved(self, seed):
        t = gen(seed)
        for x in sorted(free_vars(t)):
            st = variable_status(t, x)
            for s in unfold_one(t):
                st2 = variable_status(s, x)
                if st.unfolded:
                    assert st2.unfolded
                    assert st2.occurrence_count == st.occurrence_count
                if st.strongly_guarded:
                    assert st2.strongly_guarded
                if st2.in_conjunction_scope:
                    assert st.in_conjunction_scope

    @pytest.mark.parametrize("seed", range(60))
    def test_free_vars_never_grow(self, seed):
        t = gen(seed)
        for s in unfold_one(t):
            assert free_vars(s) <= free_vars(t)

    @pytest.mark.parametrize("seed", range(60))
    def test_unguarded_occurrences_never_grow(self, seed):
        t = gen(seed)

        def unguarded_count(t, x):
            from llts.terms import _occurrences

            return sum(1 for o in _occurrences(t, x) if not o.strong and not o.weak)

        for x in sorted(free_vars(t)):
            for s in unfold_one(t):
                assert unguarded_count(s, x) <= unguarded_count(t, x)

    @pytest.mark.parametrize("seed", range(40))
    def test_stabilisation_measure_decreases(self, seed):
        t = gen(seed)
        from llts.terms import _occurrences

        def measure(t):
            return sum(folding_number(t, x) for x in unguarded_free_vars(t))

        def all_unguarded_unfolded(t):
            return all(
                o.unfolded
                for x in free_vars(t)
                for o in _occurrences(t, x)
                if not o.strong and not o.weak
            )

        steps = 0
        while not all_unguarded_unfolded(t):
            m = measure(t)
            assert m > 0
            candidates = [
                s for s in unfold_one(t) if measure(s) < m
            ]
            assert candidates, f"no decreasing unfolding from {t}"
            t = candidates[0]
            steps += 1
            assert steps < 200


class TestUnfoldingEdgeCases:
    def test_guarded_occurrences_may_duplicate(self):
        # <X | X = a.X /\ b.Y> expands to a.<X|...> /\ b.Y: the guarded Y
        # count doubles, which is why only unguarded counts are monotone
        spec = RecSpec({"X": Conj(Prefix("a", Var("X")), Prefix("b", Var("Y")))})
        t = Rec("X", spec)
        [s] = unfold_one(t)
        assert s == Conj(Prefix("a", t), Prefix("b", Var("Y")))
        assert variable_status(t, "Y").occurrence_count == 1
        assert variable_status(s, "Y").occurrence_count == 2
        assert variable_status(s, "Y").strongly_guarded

    def test_free_variables_may_disappear(self):
        # <X1 | X1 = a.0, X2 = b.X1 [] Y> expands to a.0: Y vanishes
        spec = RecSpec(
            {
                "X1": Prefix("a", Nil()),
                "X2": ExtChoice(Prefix("b", Var("X1")), Var("Y")),
            }
        )
        t = Rec("X1", spec)
        assert free_vars(t) == {"Y"}
        [s] = unfold_one(t)
        assert s == Prefix("a", Nil())
        assert free_vars(s) == frozenset()


def _bounded_unfoldings(t, steps=8):
    """The reference for ``is_multi_unfolding``, a bounded breadth-first
    search: the terms reached from ``t`` by chains of at most ``steps``
    ``unfold_one`` steps, stopping once more than 2 000 terms are seen.  It
    answers ``s in _bounded_unfoldings(t)``, which can be a false no beyond
    its bounds; the co-walk must agree with it wherever it is checked."""
    frontier, seen = [t], {t}
    for _ in range(steps):
        nxt = []
        for u in frontier:
            for v in unfold_one(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > 2000:
                        return seen
        frontier = nxt
    return seen


def _small_terms(leaves, size):
    """Every term up to ``size`` nodes over ``leaves``, with prefixes
    ``a`` and ``tau`` and the binary operators over the sync sets of
    ``{a}``."""
    by_size = {1: list(leaves)}
    for n in range(2, size + 1):
        out = [Prefix(a, t) for a in ("a", TAU) for t in by_size[n - 1]]
        for i in range(1, n - 1):
            for left in by_size[i]:
                for right in by_size[n - 1 - i]:
                    out += [ExtChoice(left, right), Conj(left, right), Disj(left, right)]
                    out += [Parallel(sync, left, right) for sync in ((), ("a",))]
        by_size[n] = out
    return [t for n in sorted(by_size) for t in by_size[n]]


class TestMultiUnfolding:
    def test_reflexive(self):
        t = gen(0)
        assert is_multi_unfolding(t, t)

    def test_one_step(self):
        rec = Rec("X", {"X": Prefix("a", Var("X"))})
        assert is_multi_unfolding(rec, Prefix("a", rec))
        assert is_multi_unfolding(rec, Prefix("a", Prefix("a", rec)))
        assert not is_multi_unfolding(Prefix("a", rec), rec)

    @pytest.mark.parametrize(
        "t",
        [Rec("X", {"X": Var("X")}), Rec("X", {"X": Var("Y"), "Y": Var("X")})],
        ids=repr,
    )
    def test_a_chain_that_comes_back_reaches_nothing_else(self, t):
        assert _bounded_unfoldings(t) == _bounded_unfoldings(t, 2)
        for s in _bounded_unfoldings(t):
            assert is_multi_unfolding(t, s)
        assert not is_multi_unfolding(t, Nil())
        assert not is_multi_unfolding(t, Prefix("a", t))

    def test_agrees_with_the_bounded_search_on_the_unfolding_row(self, monkeypatch):
        from llts import properties

        path = os.path.join(os.path.dirname(__file__), "..", "baselines", "regression.json")
        [(seed, trials)] = [
            (seed, trials)
            for theorem, seed, trials in properties.load_baseline(path)
            if theorem == "unfolding"
        ]
        calls = []

        def recording(t, s):
            calls.append((t, s))
            return is_multi_unfolding(t, s)

        monkeypatch.setattr(properties, "is_multi_unfolding", recording)
        report = properties.check_unfolding_equiv(GenConfig(seed=seed), trials)
        assert report.passed and not report.skipped
        reach = {}
        answers = []
        for t, s in calls:
            if t not in reach:
                reach[t] = _bounded_unfoldings(t)
            answers.append(is_multi_unfolding(t, s))
            assert answers[-1] == (s in reach[t]), (t, s)
        assert len(calls) == 484 and sum(answers) == 318

    def test_agrees_with_the_bounded_search_exhaustively(self):
        # every closed term of up to 4 nodes over a loop and a recursion
        # whose body is a recursion, paired with the terms up to 3 steps
        # away and with every term of the family
        loop = parse("<X | X = a.X>")
        nested = parse("<X | X = <Y | Y = a.X [] tau.0>>")
        family = _small_terms([Nil(), Bottom(), loop, nested], 4)
        assert len(family) == len(set(family)) == 620
        near = yes = 0
        for t in family:
            reach = _bounded_unfoldings(t)
            for s in _bounded_unfoldings(t, 3):
                near += 1
                assert s in reach and is_multi_unfolding(t, s), (t, s)
            for s in family:
                answer = is_multi_unfolding(t, s)
                assert answer == (s in reach), (t, s)
                yes += answer
        assert (near, yes) == (2810, 671)


class TestNormalize:
    def test_free_name_clash_renames_binder(self):
        t = ExtChoice(Var("X"), Rec("X", {"X": Prefix("a", Var("X"))}))
        got = normalize(t)
        assert isinstance(got.right, Rec)
        assert got.left == Var("X")
        assert got.right.var != "X"
        assert free_vars(got) == {"X"}

    def test_shadowing_renamed(self):
        inner = Rec("X", {"X": Prefix("b", Var("X"))})
        outer = Rec("X", {"X": Prefix("a", inner)})
        got = normalize(outer)
        body = got.spec.body(got.var)
        assert isinstance(body.body, Rec)
        assert body.body.var != got.var

    def test_nested_same_name_binders(self):
        # each binder clashes with every one around it: X, X1, ..., X3999
        n = 4000
        t = Nil()
        for _ in range(n):
            t = Rec("X", {"X": Prefix("a", t)})
        t = normalize(t)
        names = []
        while isinstance(t, Rec):
            names.append(t.var)
            t = t.spec.body(t.var).body
        assert names == ["X"] + [f"X{i}" for i in range(1, n)]

    def test_distinct_sibling_specs_renamed(self):
        a = Rec("X", {"X": Prefix("a", Var("X"))})
        b = Rec("X", {"X": Prefix("b", Var("X"))})
        got = normalize(ExtChoice(a, b))
        assert got.left.var != got.right.var

    def test_identical_sibling_specs_share(self):
        a = Rec("X", {"X": Prefix("a", Var("X"))})
        got = normalize(ExtChoice(a, a))
        assert got.left == got.right == a

    def test_idempotent_on_generated(self):
        for seed in range(30):
            t = gen(seed)
            assert normalize(t) == t

    def test_systems_sharing_one_of_several_names(self):
        # <X | X = a.Y, Y = b.X> [] <Y | Y = c.Y>
        xy = Rec("X", {"X": Prefix("a", Var("Y")), "Y": Prefix("b", Var("X"))})
        got = normalize(ExtChoice(xy, Rec("Y", {"Y": Prefix("c", Var("Y"))})))
        assert got == ExtChoice(xy, Rec("Y1", {"Y1": Prefix("c", Var("Y1"))}))

    def test_free_name_bound_by_multi_equation_system(self):
        # Y [] <X | X = a.Y, Y = b.X>
        rec = Rec("X", {"X": Prefix("a", Var("Y")), "Y": Prefix("b", Var("X"))})
        got = normalize(ExtChoice(Var("Y"), rec))
        renamed = Rec("X", {"X": Prefix("a", Var("Y1")), "Y1": Prefix("b", Var("X"))})
        assert got == ExtChoice(Var("Y"), renamed)

    def test_returns_input_when_no_binder_clashes(self, monkeypatch):
        # <X | X = a.<Y | Y = b.Y>> [] <Y | Y = b.Y>: one system nested and beside
        inner = Rec("Y", {"Y": Prefix("b", Var("Y"))})
        t = ExtChoice(Rec("X", {"X": Prefix("a", inner)}), inner)
        rebuilt = []

        def counted(u, parts):
            rebuilt.append(u)
            return rebuild(u, parts)

        monkeypatch.setattr(llts.terms, "rebuild", counted)
        assert normalize(t) is t
        assert rebuilt == []

    def test_binder_searches_skip_binder_free_bodies(self, monkeypatch):
        # <X | X = x0. ... .x2749.(X [] y.0)>: one binder over a long body
        # that holds none, so each search enters the recursion alone
        body = ExtChoice(Var("X"), Prefix("y", Nil()))
        for i in reversed(range(2750)):
            body = Prefix(f"x{i}", body)
        t = Rec("X", {"X": body})
        entered = []

        def counted(u):
            entered.append(u)
            return subterms(u)

        monkeypatch.setattr(llts.terms, "subterms", counted)
        assert rec_specs(t) == [(t, t.spec)]
        assert len(entered) <= 2
        entered.clear()
        assert normalize(t) is t
        assert len(entered) <= 2


class TestNestedScopes:
    """Unfolding a specification whose body nests another recursion re-inserts
    the outer operator under the inner binder; scope-aware traversal keeps the
    copies literal so state graphs stay finite."""

    def setup_method(self):
        inner = Rec("Y", {"Y": ExtChoice(Prefix("b", Var("Y")), Prefix("c", Var("X")))})
        self.spec = RecSpec({"X": Prefix("a", inner)})
        self.rec = Rec("X", self.spec)

    def test_guarded(self):
        assert first_guard_violation(self.spec) is None

    def test_unfolding_creates_shadowed_copy(self):
        expansion = plug(self.spec.body("X"), self.spec)
        # the inner specification now contains the original one, which nests
        # a second Y binder inside the new Y scope
        assert free_vars(expansion) == frozenset()
        inner = expansion.body
        assert isinstance(inner, Rec) and inner.var == "Y"
        assert self.rec in {
            inner.spec.body("Y").right.body,
        }

    def test_unfolding_cycles_back_to_identical_term(self):
        expansion = plug(self.spec.body("X"), self.spec)
        inner = expansion.body
        inner_expansion = plug(inner.spec.body("Y"), inner.spec)
        # the c-branch target is the original recursion, the very same term
        assert inner_expansion.right.body is self.rec

    def test_finite_graph(self):
        lts = build_lts(self.rec)
        assert len(lts.state_ids()) == 2
        assert len(lts.terms) <= 8

    def test_reparse_of_shadowed_state_is_equivalent(self):
        from llts.refinement import equivalent

        expansion = plug(self.spec.body("X"), self.spec)
        inner = expansion.body
        reparsed = parse(print_term(inner))
        # the parser renames the shadowed inner binder: alpha-variant,
        # structurally different, behaviourally the same
        assert reparsed != inner
        assert equivalent(reparsed, inner)


class TestConstruction:
    def test_unbound_rec_var(self):
        with pytest.raises(UnboundRecVar):
            Rec("X", {"Y": Prefix("a", Var("Y"))})

    def test_empty_spec(self):
        with pytest.raises(ValueError):
            RecSpec({})

    def test_tau_in_sync_set(self):
        with pytest.raises(ValueError):
            Parallel({TAU}, Nil(), Nil())

    def test_structural_equality_order_insensitive_spec(self):
        s1 = RecSpec({"X": Var("Y"), "Y": Prefix("a", Var("X"))})
        s2 = RecSpec({"Y": Prefix("a", Var("X")), "X": Var("Y")})
        assert s1 == s2 and hash(s1) == hash(s2)

    def test_body_looks_up_every_name_and_only_those(self):
        names = ("X", "X1", "X10", "X2", "Y")
        bodies = {name: Prefix(f"a{i}", Var(name)) for i, name in enumerate(names)}
        spec = RecSpec(bodies)
        for name in names:
            assert spec.body(name) is bodies[name]
        for name in ("X0", "X3", "A", "Z"):
            with pytest.raises(KeyError):
                spec.body(name)

    def test_interned_per_class_and_fields(self):
        a, b = Prefix("a", Nil()), Prefix("b", Nil())
        assert ExtChoice(a, b) is ExtChoice(a, b)
        assert ExtChoice(a, b) is not Conj(a, b)
        assert Parallel(["a"], a, b) is Parallel({"a"}, a, b)
        equations = {"X": Prefix("a", Var("X"))}
        assert Rec("X", equations) is Rec("X", RecSpec(equations))

    def test_empty_names(self):
        with pytest.raises(ValueError):
            Prefix("", Nil())
        with pytest.raises(ValueError):
            Var("")

    @pytest.mark.parametrize(
        "make,error,message",
        [
            (lambda: Prefix("", Nil()), ValueError, "action name must be nonempty"),
            (lambda: Var(""), ValueError, "variable name must be nonempty"),
            (
                lambda: Parallel({"a", TAU}, Nil(), Prefix("a", Nil())),
                ValueError,
                "synchronisation sets contain visible actions only",
            ),
            (
                lambda: Rec("Y", LOOP.spec),
                UnboundRecVar,
                "recursion variable 'Y' is not bound by its equations",
            ),
            (lambda: RecSpec({}), ValueError, "recursive specification must be nonempty"),
            (lambda: Rec("X", {}), ValueError, "recursive specification must be nonempty"),
        ],
    )
    def test_failed_check_raises_and_interns_nothing(self, make, error, message):
        before = len(terms._INTERN)
        with pytest.raises(ValueError) as err:
            make()
        assert type(err.value) is error and str(err.value) == message
        assert len(terms._INTERN) == before

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Nil(Nil()),
            lambda: Bottom(Nil()),
            lambda: Prefix("a"),
            lambda: Prefix("a", Nil(), Nil()),
            lambda: ExtChoice(Nil()),
            lambda: Conj(Nil(), Nil(), Nil()),
            lambda: Disj(),
            lambda: Parallel({"a"}, Nil()),
            lambda: Var(),
            lambda: Var("X", "Y"),
            lambda: Rec("X"),
            lambda: RecSpec(),
        ],
    )
    def test_wrong_arity_raises_type_error(self, make):
        before = len(terms._INTERN)
        with pytest.raises(TypeError):
            make()
        assert len(terms._INTERN) == before

    def test_sync_set_of_any_iterable_is_one_term(self):
        # operands no term holds yet, so the first construction is a miss
        p, q = Prefix("sync-fresh-a", Nil()), Prefix("sync-fresh-b", Nil())
        t = Parallel(["a"], p, q)
        assert t is Parallel({"a"}, p, q) is Parallel(frozenset("a"), p, q)
        assert type(t.sync) is frozenset


class TestRebuild:
    @pytest.mark.parametrize(
        "t",
        [
            Nil(),
            Bottom(),
            Var("X"),
            Prefix("a", Nil()),
            ExtChoice(Prefix("a", Nil()), Bottom()),
            Conj(Prefix("a", Nil()), Bottom()),
            Disj(Prefix("a", Nil()), Bottom()),
            Parallel({"a"}, Prefix("a", Nil()), Bottom()),
            Rec("X", {"X": Prefix("a", Var("Y")), "Y": Prefix("b", Var("X"))}),
        ],
        ids=repr,
    )
    def test_own_parts_give_the_same_term(self, t):
        assert rebuild(t, operands(t)) is t
        assert rebuild(t, subterms(t)) is t

    @pytest.mark.parametrize("seed", range(40))
    def test_own_parts_give_the_same_term_generated(self, seed):
        todo = [gen(seed)]
        while todo:
            t = todo.pop()
            assert rebuild(t, operands(t)) is t
            assert rebuild(t, subterms(t)) is t
            todo.extend(subterms(t))


DEEP = 50_000
LOOP = Rec("X", {"X": Prefix("a", Var("X"))})


# the operators that guard nothing come first
WRAPS = [
    lambda t: ExtChoice(t, Nil()),
    lambda t: Conj(Prefix("b", Nil()), t),
    lambda t: Parallel({"a"}, t, Nil()),
    lambda t: Prefix("a", t),
    lambda t: Disj(Nil(), t),
]


@cache
def _deep(leaf, guarded=True):
    """``leaf`` under DEEP operators, cycling through every operator, or
    with ``guarded`` False through those that guard nothing."""
    wraps = WRAPS if guarded else WRAPS[:3]
    t = leaf
    for i in range(DEEP):
        t = wraps[i % len(wraps)](t)
    return t


def _normalize():
    # the free X clashes with the binder, renamed all the way down its body
    t = normalize(ExtChoice(Var("X"), Rec("X", {"X": _deep(Var("X"))})))
    return t.right.var == "X1" and free_vars(t) == {"X"}


def _variable_status():
    st = variable_status(_deep(Var("X")), "X")
    return st.occurrence_count == 1 and st.strongly_guarded and st.weakly_guarded


def _folding_number():
    inner = Rec("Y", {"Y": ExtChoice(Var("X"), Prefix("a", Var("Y")))})
    return folding_number(_deep(inner, guarded=False), "X") == 1


def _repr():
    # each level adds the text its operator puts around a hole
    heads, tails = [], []
    for i in range(DEEP):
        head, tail = repr(WRAPS[i % len(WRAPS)](Var("HOLE"))).split("Var('HOLE')")
        heads.append(head)
        tails.append(tail)
    return repr(_deep(LOOP)) == "".join(reversed(heads)) + repr(LOOP) + "".join(tails)


def _nested_recursions():
    n = 20_000
    text = "".join(f"<X{i} | X{i} = a." for i in range(n)) + "0" + ">" * n
    return len(rec_specs(parse(text))) == n


def _build_lts_unguarded():
    with pytest.raises(GuardednessError):
        build_lts(Rec("X", {"X": _deep(Var("X"), guarded=False)}))
    return True


def _build_lts():
    # every level and the loop's unfolding; the conjunction's b blocks a
    lts = build_lts(_deep(LOOP, guarded=False), BuildLimits(max_states=100_000))
    return len(lts.terms) == DEEP + 4 and lts.inconsistent[lts.root]


DEEP_CHECKS = {
    "normalize": _normalize,
    "substitute": lambda: substitute(_deep(Var("X")), {"X": Bottom()}) is _deep(Bottom()),
    "plug": lambda: plug(_deep(Var("X")), LOOP.spec) is _deep(LOOP),
    "unfold_one": lambda: unfold_one(_deep(LOOP)) == [_deep(unfold_rec(LOOP))],
    "is_multi_unfolding": lambda: is_multi_unfolding(_deep(LOOP), _deep(unfold_rec(LOOP)))
    and not is_multi_unfolding(_deep(unfold_rec(LOOP)), _deep(LOOP)),
    "free_vars": lambda: free_vars(_deep(Var("X"))) == {"X"},
    "all_names": lambda: all_names(_deep(LOOP)) == {"X"},
    "rec_specs": lambda: rec_specs(_deep(LOOP)) == [(LOOP, LOOP.spec)],
    "first_guard_violation": lambda: first_guard_violation(
        RecSpec({"X": _deep(Var("X"), guarded=False)})
    )
    == ("X", "X"),
    "variable_status": _variable_status,
    # per five levels: choice 2, conjunction 3, parallel 2, prefix 1, disjunction 2
    "degree": lambda: degree(_deep(Nil())) == 2 * DEEP + 1,
    "unguarded_rec_count": lambda: unguarded_rec_count(_deep(LOOP, guarded=False)) == 1
    and unguarded_rec_count(Rec("Y", {"Y": _deep(LOOP, guarded=False)})) == 2,
    "folding_number": _folding_number,
    "repr": _repr,
    "parse_parentheses": lambda: parse("(" * DEEP + "0" + ")" * DEEP) is Nil(),
    "parse_recursions": _nested_recursions,
    "print_term": lambda: parse(print_term(_deep(LOOP))) is _deep(LOOP),
    "step": lambda: step(_deep(LOOP, guarded=False)) == [],
    "build_lts": _build_lts,
    "build_lts_unguarded": _build_lts_unguarded,
}


class TestDeepTerms:
    """Term functions, the parser, the printer and ``step`` keep their own
    stack: a term deeper than the interpreter's recursion limit is no
    harder than a shallow one."""

    @pytest.mark.parametrize("name", sorted(DEEP_CHECKS))
    def test_deeper_than_recursion_limit(self, name):
        assert sys.getrecursionlimit() < DEEP
        assert DEEP_CHECKS[name]()

    def test_import_keeps_the_recursion_limit(self):
        # a fresh interpreter, so no other import has set the limit first
        code = (
            "import sys; limit = sys.getrecursionlimit(); import llts; "
            "assert sys.getrecursionlimit() == limit, sys.getrecursionlimit()"
        )
        src = os.path.dirname(os.path.dirname(llts.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


WIDE = 5000


def _wide(op, operand):
    return f" {op} ".join(operand.format(i=i) for i in range(WIDE))


class TestWideTerms:
    """Inputs 5000 operands wide parse, print back and are checked."""

    @pytest.mark.parametrize("op", ["[]", "\\/"])
    def test_wide_recursion(self, op):
        text = f"<X | X = {_wide(op, 'a{i}.X')}>"
        t = parse(text)
        assert parse(print_term(t)) is t
        assert [first_guard_violation(spec) for _, spec in rec_specs(t)] == [None]
        with pytest.raises(GuardednessError):
            parse(f"<X | X = {_wide(op, 'a{i}.X')} [] X>")

    def test_wide_disjunction_consistent(self):
        t = parse(_wide("\\/", "a{i}.0"))
        assert parse(print_term(t)) is t
        lts = build_lts(t)
        assert not lts.inconsistent[lts.root]

    def test_wide_conjunction_inconsistent(self):
        t = parse(_wide("/\\", "a{i}.0"))
        assert parse(print_term(t)) is t
        lts = build_lts(t)
        assert lts.inconsistent[lts.root]

    def test_wide_choice_builds_fast(self):
        # only the root and its targets are states: the nested choices are
        # support-only and store no moves, so the root's 3000 are all
        branches = [f"x{i}.0" for i in range(3000)]
        start = time.perf_counter()
        lts = build_lts(parse(" [] ".join(branches)))
        assert time.perf_counter() - start < 4
        assert not lts.inconsistent[lts.root]
        assert sum(map(len, lts.transitions)) == 3000
        assert len({id(p) for succ in lts.transitions for p in succ}) == 3000
        branches[1500] = "bot"
        lts = build_lts(parse(" [] ".join(branches)))
        assert lts.inconsistent[lts.root]


class TestRepr:
    def test_fields_in_order(self):
        t = Parallel({"a"}, Nil(), ExtChoice(Bottom(), LOOP))
        assert repr(t) == (
            "Parallel(frozenset({'a'}), Nil(), ExtChoice(Bottom(), "
            "Rec('X', RecSpec({'X': Prefix('a', Var('X'))}))))"
        )

    @pytest.mark.parametrize("hash_seed", ["11", "977"])
    def test_sync_set_sorted_under_any_hash_seed(self, hash_seed):
        # a fresh interpreter per seed: set order follows the string hashes
        code = (
            "from llts.terms import Nil, Parallel; "
            "print(repr(Parallel({'a', 'b', 'c'}, Nil(), Nil())))"
        )
        src = os.path.dirname(os.path.dirname(llts.__file__))
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        ).stdout
        assert out == "Parallel(frozenset({'a', 'b', 'c'}), Nil(), Nil())\n"

    def test_equations_as_in_the_spec(self):
        rec = Rec("X", {"Y": Prefix("b", Var("X")), "X": Prefix("a", Var("Y"))})
        assert repr(rec) == f"Rec('X', {rec.spec!r})"


def test_collector_pause_overlapping_threads():
    # Thread A's paused call is inside while the main thread's paused call
    # runs and returns: that one finds the collector off, so it leaves it
    # off, and A turns it on again as it ends.
    inside, release = threading.Event(), threading.Event()
    seen = []

    def hold():
        seen.append(gc.isenabled())
        inside.set()
        assert release.wait(timeout=60)

    a = threading.Thread(target=collector_paused(hold))
    assert gc.isenabled()
    try:
        a.start()
        assert inside.wait(timeout=60)
        collector_paused(lambda: seen.append(gc.isenabled()))()
        assert not gc.isenabled()
        release.set()
        a.join(timeout=60)
        assert not a.is_alive()
        assert gc.isenabled()
        assert seen == [False, False]
    finally:
        release.set()
        gc.enable()


def test_collector_pause_across_threads():
    # More threads than cores, switching often, each pausing the collector
    # over and over.  A call that found the switch off, because another call
    # was paused, and then touched it, turning it off after that one had
    # turned it on, would leave the collector off for good.
    paused = collector_paused(lambda: None)

    def work():
        for _ in range(5000):
            paused()

    interval = sys.getswitchinterval()
    deadline = time.perf_counter() + 1.0
    sys.setswitchinterval(1e-4)
    try:
        while gc.isenabled() and time.perf_counter() < deadline:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        gc.enable()
