import gc
import json
import time

import pytest

from llts import terms
from llts.properties import (
    GenConfig,
    _gen_term_trial,
    inconsistent_fixpoint_naive,
)
from llts.refinement import refines
from llts.semantics import (
    RULES,
    BuildLimits,
    UNSTORED,
    Lts,
    StateBoundExceeded,
    _closed_step,
    build_combined,
    build_lts,
    compute_inconsistent,
    consistency_law_violations,
    lts_to_dot,
    lts_to_json,
    step,
    stratification_violations,
    used_rule_instances,
    validate_llts,
    weak_visible_step,
)
from llts.refinement import largest_stable_sim
from llts.syntax import parse, print_term
from llts.terms import (
    TAU,
    Conj,
    Disj,
    ExtChoice,
    GuardednessError,
    Nil,
    Parallel,
    Prefix,
    Rec,
    Var,
    operands,
    unfold_rec,
)

CFG = GenConfig(seed=23, max_depth=4)


def _states(lts):
    """The ids of the states, found with ``step`` from their definition: the
    closure under moves of the roots, of every conjunction and recursion in
    the universe and of each conjunction's operands.  Checks that exactly
    these store moves, and every other term's entry is ``UNSTORED``."""
    todo = [lts.terms[r] for r in lts.roots]
    for u in lts.terms:
        if isinstance(u, (Conj, Rec)):
            todo += [u, *operands(u)] if isinstance(u, Conj) else [u]
    seen = set()
    while todo:
        u = todo.pop()
        if u not in seen:
            seen.add(u)
            todo += [s for _, s in step(u)]
    ids = sorted(lts.index[u] for u in seen)
    assert [i for i, succ in enumerate(lts.transitions) if succ is not UNSTORED] == ids
    return ids


def _level_by_level(t, memo):
    """``t``'s moves by the rule table applied to every operator node on its
    own, its first occurrences kept in rule order: the reference for the
    order of ``step``'s moves."""
    if t not in memo:
        moves = []
        for _, _, batch in RULES[type(t)].moves(t, lambda u: _level_by_level(u, memo)):
            moves += batch
        memo[t] = tuple(dict.fromkeys(moves))
    return memo[t]


def oracle_step(root):
    """Independent evaluation of the operational rules: saturate the internal
    moves of every premise source by naive iteration, then the visible moves
    with the blocking side conditions read off the finished internal relation.
    """
    universe = []
    stack = [root]
    seen = set()
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        universe.append(t)
        stack.extend(operands(t))
        if isinstance(t, Rec):
            stack.append(unfold_rec(t))

    tau: dict = {t: set() for t in universe}
    changed = True
    while changed:
        changed = False
        for t in universe:
            new = set()
            if isinstance(t, Prefix) and t.action == TAU:
                new.add(t.body)
            elif isinstance(t, Disj):
                new.add(t.left)
                new.add(t.right)
            elif isinstance(t, ExtChoice):
                new |= {ExtChoice(y, t.right) for y in tau[t.left]}
                new |= {ExtChoice(t.left, y) for y in tau[t.right]}
            elif isinstance(t, Conj):
                new |= {Conj(y, t.right) for y in tau[t.left]}
                new |= {Conj(t.left, y) for y in tau[t.right]}
            elif isinstance(t, Parallel):
                new |= {Parallel(t.sync, y, t.right) for y in tau[t.left]}
                new |= {Parallel(t.sync, t.left, y) for y in tau[t.right]}
            elif isinstance(t, Rec):
                new |= tau[unfold_rec(t)]
            if not new <= tau[t]:
                tau[t] |= new
                changed = True

    vis: dict = {t: set() for t in universe}
    changed = True
    while changed:
        changed = False
        for t in universe:
            new = set()
            if isinstance(t, Prefix) and t.action != TAU:
                new.add((t.action, t.body))
            elif isinstance(t, ExtChoice):
                if not tau[t.right]:
                    new |= vis[t.left]
                if not tau[t.left]:
                    new |= vis[t.right]
            elif isinstance(t, Conj):
                for a, y1 in vis[t.left]:
                    for b, y2 in vis[t.right]:
                        if a == b:
                            new.add((a, Conj(y1, y2)))
            elif isinstance(t, Parallel):
                if not tau[t.right]:
                    new |= {
                        (a, Parallel(t.sync, y, t.right))
                        for a, y in vis[t.left]
                        if a not in t.sync
                    }
                if not tau[t.left]:
                    new |= {
                        (a, Parallel(t.sync, t.left, y))
                        for a, y in vis[t.right]
                        if a not in t.sync
                    }
                for a, y1 in vis[t.left]:
                    if a in t.sync:
                        for b, y2 in vis[t.right]:
                            if a == b:
                                new.add((a, Parallel(t.sync, y1, y2)))
            elif isinstance(t, Rec):
                new |= vis[unfold_rec(t)]
            if not new <= vis[t]:
                vis[t] |= new
                changed = True

    return {(TAU, y) for y in tau[root]} | vis[root]


def moves(text):
    return {(a, print_term(t)) for a, t in step(parse(text))}


class TestStep:
    def test_prefix(self):
        assert moves("a.0") == {("a", "0")}

    def test_disjunction_is_internal_choice(self):
        assert moves("a.0 \\/ b.0") == {(TAU, "a.0"), (TAU, "b.0")}

    def test_internal_move_blocks_visible(self):
        # Hand enumeration: the choice rules offer b only while the left
        # operand has no internal move; tau.a.0 has one, so only the internal
        # move of the composition remains.
        assert moves("tau.a.0 [] b.0") == {(TAU, "a.0 [] b.0")}

    def test_conjunction_needs_shared_action(self):
        assert moves("a.0 /\\ b.0") == set()

    def test_conjunction_synchronises(self):
        assert moves("a.b.0 /\\ a.c.0") == {("a", "b.0 /\\ c.0")}

    def test_parallel_interleaves_and_synchronises(self):
        assert moves("a.0 |[]| b.0") == {
            ("a", "0 |[]| b.0"),
            ("b", "a.0 |[]| 0"),
        }
        assert moves("a.0 |[a]| a.b.0") == {("a", "0 |[a]| b.0")}

    def test_recursion_delegates(self):
        rec = parse("<X | X = a.X>")
        assert step(rec) == [("a", rec)]

    def test_determinism_and_storage_agreement(self):
        for seed in range(30):
            t = _gen_term_trial(CFG, seed)
            first = step(t)
            assert first == step(t)
            try:
                lts = build_lts(t)
            except StateBoundExceeded:
                continue
            for i in _states(lts):
                stored = [(a, lts.terms[j]) for a, j in lts.transitions[i]]
                assert stored == step(lts.terms[i])

    @pytest.mark.parametrize("seed", range(120))
    def test_matches_independent_oracle(self, seed):
        t = _gen_term_trial(CFG, seed)
        assert set(step(t)) == oracle_step(t)

    @pytest.mark.parametrize(
        "text",
        [
            "tau.a.0 [] b.0",
            "a.b.0 /\\ a.c.0",
            "tau.a.0 |[a]| a.0",
            "a.0 |[]| tau.b.0",
            "<X | X = a.X [] tau.X>",
            "(a.0 \\/ b.0) /\\ a.0",
        ],
    )
    def test_oracle_on_blocking_cases(self, text):
        t = parse(text)
        assert set(step(t)) == oracle_step(t)

    @pytest.mark.parametrize(
        "seed, depth", [(23, 4), (37, 3), (7, 5), (3, 5)], ids=["23-4", "37-3", "7-5", "3-5"]
    )
    def test_order_matches_rules_level_by_level(self, seed, depth):
        config, memo = GenConfig(seed=seed, max_depth=depth), {}
        for trial in range(300):
            todo = [_gen_term_trial(config, trial)]
            while todo:
                u = todo.pop()
                assert step(u) == list(_level_by_level(u, memo))
                todo += operands(u)

    @pytest.mark.parametrize(
        "text",
        [
            "a.0 [] a.0 [] b.0",
            "tau.a.0 [] b.0 [] tau.c.0",
            "a.0 [] (b.0 [] (c.0 [] a.0))",
            "(a.0 [] tau.b.0) [] (c.0 [] (b.0 [] tau.d.0))",
            "(a.0 [] b.0) [] (c.0 [] (b.0 [] d.0))",
            "0 [] bot [] a.0 [] 0",
            "<X | X = a.X [] b.0> [] c.0 [] <Y | Y = tau.(a.Y \\/ d.0)>",
            "(a.0 [] b.0 [] c.0) /\\ (a.0 [] b.0)",
            "(a.0 [] b.0) /\\ (a.0 [] b.0 [] c.0)",
            "(a.0 [] b.0) [] ((a.0 [] b.0) /\\ tau.c.0)",
            "(a.0 [] b.0) [] ((a.0 [] b.0) /\\ c.0)",
        ],
    )
    def test_order_on_choice_chains(self, text):
        t = parse(text)
        assert step(t) == list(_level_by_level(t, {}))

    @pytest.mark.parametrize("first, levels", [("a.0", 40), ("tau.a.0", 8)])
    def test_order_on_shared_chain_nodes(self, first, levels):
        # each level is the one below twice over: 2**levels leaves, but
        # levels + 1 distinct choices (with 2**levels internal moves on top)
        t = ExtChoice(parse(first), parse("b.0"))
        for _ in range(levels):
            t = ExtChoice(t, t)
        got, expected = step(t), list(_level_by_level(t, {}))  # t's text is 2**levels long
        assert got == expected

    def test_open_term_rejected(self):
        with pytest.raises(ValueError):
            step(Var("X"))

    def test_substituted_choice_context_moves(self):
        # (a.0 \/ X) [] X with d.0 plugged in: the disjunction drives
        # internal moves that keep the choice context
        c = parse("(a.0 \\/ d.0) [] d.0")
        assert (TAU, parse("a.0 [] d.0")) in set(step(c))
        assert (TAU, parse("d.0 [] d.0")) in set(step(c))

    def test_substituted_recursion_context_moves(self):
        # <Y | Y = X [] b.Y> [] X with c.0 \/ e.0 plugged in: one copy of the
        # substitution surfaces through the unfolding and then moves
        b = parse("<Y | Y = (c.0 \\/ e.0) [] b.Y> [] (c.0 \\/ e.0)")
        target = parse("(e.0 [] b.<Y | Y = (c.0 \\/ e.0) [] b.Y>) [] (c.0 \\/ e.0)")
        assert (TAU, target) in set(step(b))

    def test_three_way_visible_activation(self):
        # ((a.0 /\ <Y|Y=a.Y>) [] a.b.0) |[b]| (a.0 /\ a.c.0): the context
        # alone, the substitution alone, and both together each yield an
        # a-move
        t = parse("((a.0 /\\ <Y | Y = a.Y>) [] a.b.0) |[b]| (a.0 /\\ a.c.0)")
        expected = {
            ("a", parse("(0 /\\ <Y | Y = a.Y>) |[b]| (a.0 /\\ a.c.0)")),
            ("a", parse("b.0 |[b]| (a.0 /\\ a.c.0)")),
            ("a", parse("((a.0 /\\ <Y | Y = a.Y>) [] a.b.0) |[b]| (0 /\\ c.0)")),
        }
        assert set(step(t)) == expected

    def test_growing_derivative_process(self):
        # derivatives of this loop keep duplicating the parallel context, so
        # the state space is infinite and the bound is the answer
        with pytest.raises(StateBoundExceeded):
            build_lts(parse("<X | X = a.X |[]| a.b.X>"), BuildLimits(max_states=500))
        moves = step(parse("<X | X = a.X |[]| a.b.X>"))
        assert {a for a, _ in moves} == {"a"}


def wide_recursions(op: str, n: int = 1001) -> str:
    """``n`` one-state loops, each its own recursion, joined by ``op``."""
    return f" {op} ".join(f"<X{i} | X{i} = a{i}.X{i}>" for i in range(n))


def nested_recursions(n: int = 1500) -> str:
    """``n`` recursions, each the whole body of the one around it."""
    return "".join(f"<X{i} | X{i} = " for i in range(n)) + f"a.X{n - 1}" + ">" * n


# guarded inputs one step of which expands more than a thousand recursions
MANY_RECURSIONS = {
    "choice": wide_recursions("[]"),
    "interleaving": wide_recursions("|[]|"),
    "nesting": nested_recursions(),
}

# API-built unguarded systems, each with the violation ``parse`` reports
UNGUARDED = {
    "loop": (Rec("X", {"X": Var("X")}), ("X", "X")),
    "choice": (Rec("X", {"X": ExtChoice(Var("X"), Prefix("a", Nil()))}), ("X", "X")),
    # the head never reaches the bad equation, which is rejected all the same
    "unreached": (Rec("X", {"X": Prefix("a", Var("X")), "Y": Var("Y")}), ("Y", "Y")),
}


class TestGuardedRecursion:
    """Guardedness bounds every step: each recursion a step meets is checked
    guarded, so a step expands any number of recursions, and an unguarded
    system is rejected with the error ``parse`` raises."""

    def test_memoised_sources_do_not_skip_the_check(self):
        # the rules are applied without the walk once every premise source
        # is memoised, and a recursion's equations are checked on both paths
        a0 = Prefix("a", Nil())
        loop = UNGUARDED["loop"][0]
        unreached = Rec("X", {"X": a0, "Y": Var("Y")})  # expands to a.0
        for t in (Parallel((), a0, loop), Parallel((), loop, a0), unreached):
            memo = {}
            _closed_step(a0, memo)
            with pytest.raises(GuardednessError):
                _closed_step(t, memo)

    def test_memo_holds_terms_only(self):
        # the step memo keeps moves: it marks no equation system checked
        memo = {}
        for text in ("<X | X = a.X>", "<X | X = a.Y, Y = b.X> |[a]| <Z | Z = a.Z>"):
            for _, target in _closed_step(parse(text), memo):
                _closed_step(target, memo)
        assert memo and all(isinstance(k, terms.Term) for k in memo)

    @pytest.mark.parametrize("name", sorted(MANY_RECURSIONS))
    def test_many_recursions_in_one_step(self, name):
        lts = build_lts(parse(MANY_RECURSIONS[name]))
        assert not lts.inconsistent[lts.root]
        assert validate_llts(lts).ok

    @pytest.mark.parametrize("name", sorted(UNGUARDED))
    def test_same_violation_as_parse(self, name):
        t, violation = UNGUARDED[name]
        with pytest.raises(GuardednessError) as parsed:
            parse(print_term(t))
        assert (parsed.value.var, parsed.value.equation) == violation
        for run in (step, build_lts, lambda u: refines(Prefix("a", Nil()), u)):
            with pytest.raises(GuardednessError) as err:
                run(t)
            assert (err.value.var, err.value.equation) == violation
            assert str(err.value) == str(parsed.value)


class TestBuild:
    def test_disjunction_universe(self):
        # Hand enumeration: root plus operands a.0, b.0 plus target 0.
        lts = build_lts(parse("a.0 \\/ b.0"))
        assert sorted(print_term(t) for t in lts.terms) == ["0", "a.0", "a.0 \\/ b.0", "b.0"]
        assert len(lts.state_ids()) == 4
        assert not any(lts.inconsistent)

    def test_recursion_single_state_loop(self):
        lts = build_lts(parse("<X | X = a.X>"))
        assert lts.state_ids() == [lts.root]
        assert lts.transitions[lts.root] == (("a", lts.root),)
        assert not lts.inconsistent[lts.root]

    def test_state_bound(self):
        with pytest.raises(StateBoundExceeded):
            build_lts(parse("<X | X = a.(X |[]| X)>"), BuildLimits(max_states=100))

    def test_roots_preserved_in_combined(self):
        p, q = parse("a.0"), parse("b.0")
        lts = build_combined([p, q])
        assert lts.terms[lts.roots[0]] == p
        assert lts.terms[lts.roots[1]] == q


FACTS = [
    ("bot", True),
    ("0", False),
    ("a.0 /\\ b.0", True),
    ("a.b.0 /\\ a.c.0", True),
    ("<X | X = tau.X>", True),
    ("<X | X = X \\/ 0> /\\ a.0", True),
    ("<X | X = X \\/ 0>", False),
    ("<X | X = a.X>", False),
    ("a.bot", True),
    ("bot \\/ 0", False),
    ("bot \\/ bot", True),
    ("bot [] a.0", True),
    ("bot |[]| a.0", True),
]


class TestInconsistency:
    @pytest.mark.parametrize("text,expected", FACTS)
    def test_fact(self, text, expected):
        lts = build_lts(parse(text))
        assert lts.inconsistent[lts.root] is expected

    def test_worklist_order_irrelevant(self):
        # number the states backwards, so the saturation meets the axioms and
        # the clauses in the opposite order, and map the flags back
        for seed in range(25):
            t = _gen_term_trial(CFG, seed)
            try:
                lts = build_lts(t)
            except StateBoundExceeded:
                continue
            last = len(lts.terms) - 1
            terms = lts.terms[::-1]
            transitions = [
                tuple((a, last - j) for a, j in succ) for succ in lts.transitions[::-1]
            ]
            index = {u: i for i, u in enumerate(terms)}
            roots = [last - r for r in lts.roots]
            mirrored = Lts(terms, index, roots, transitions, lts.limits)
            compute_inconsistent(mirrored)
            assert mirrored.inconsistent[::-1] == lts.inconsistent

    def test_naive_saturation_agrees(self):
        for seed in range(40):
            t = _gen_term_trial(CFG, seed, depth=3)
            try:
                lts = build_lts(t)
            except StateBoundExceeded:
                continue
            worklist = frozenset(i for i, f in enumerate(lts.inconsistent) if f)
            assert inconsistent_fixpoint_naive(lts) == worklist


class TestDescendants:
    def test_disjunction(self):
        lts = build_lts(parse("a.0 \\/ b.0"))
        got = {print_term(lts.terms[i]) for i in lts.consistent_stable_descendants()[lts.root]}
        assert got == {"a.0", "b.0"}

    def test_inconsistent_start_blocked(self):
        lts = build_lts(parse("bot"))
        assert lts.consistent_stable_descendants()[lts.root] == frozenset()

    def test_stable_state_reaches_itself(self):
        lts = build_lts(parse("a.0"))
        assert lts.consistent_stable_descendants()[lts.root] == {lts.root}

    def test_weak_step(self):
        lts = build_lts(parse("a.(b.0 \\/ c.0)"))
        got = {print_term(lts.terms[i]) for i in weak_visible_step(lts, lts.root, "a")}
        assert got == {"b.0", "c.0"}

    def test_weak_step_inconsistent_target(self):
        lts = build_lts(parse("a.bot"))
        assert weak_visible_step(lts, lts.root, "a") == frozenset()

    def test_weak_step_no_transition(self):
        lts = build_lts(parse("0"))
        assert weak_visible_step(lts, lts.root, "a") == frozenset()

    @pytest.mark.parametrize("seed", range(60))
    def test_descendants_match_naive_search(self, seed):
        # independent oracle: plain search per state over the internal moves,
        # between consistent states only when ``consistent`` is set
        t = _gen_term_trial(CFG, seed)
        try:
            lts = build_lts(t)
        except StateBoundExceeded:
            return

        def naive(i, consistent):
            blocked = lts.inconsistent if consistent else [False] * len(lts.terms)
            if blocked[i]:
                return frozenset()
            seen = {i}
            queue = [i]
            out = set()
            while queue:
                j = queue.pop()
                if lts.stable[j]:
                    out.add(j)
                for a, k in lts.transitions[j]:
                    if a == TAU and not blocked[k] and k not in seen:
                        seen.add(k)
                        queue.append(k)
            return frozenset(out)

        states = _states(lts)
        for i in states:
            assert lts.consistent_stable_descendants()[i] == naive(i, True)
            assert lts.stable_tau_descendants(i) == naive(i, False)
        # the relation is filled on demand, so a fresh graph asked in another
        # order must give the same sets
        fresh = Lts(lts.terms, lts.index, lts.roots, lts.transitions, lts.limits)
        for i in reversed(states):
            assert fresh.stable_tau_descendants(i) == naive(i, False)

    # a cycle of internal moves 0 -> 1 -> 2 -> 0, entered from state 3
    CYCLE = [parse("tau." * n + "0") for n in range(1, 5)]
    CYCLE_MOVES = [((TAU, 1),), ((TAU, 2),), ((TAU, 0),), ((TAU, 0),)]

    def test_tau_cycle_with_stable_exit(self):
        terms = self.CYCLE + [parse("0")]
        transitions = [((TAU, 1), (TAU, 4)), *self.CYCLE_MOVES[1:], ()]
        lts = _handmade_lts(terms, transitions, [False] * 5)
        csd = lts.consistent_stable_descendants()
        assert csd == [{4}] * 5
        assert csd[0] is csd[1] is csd[2]  # one component, one set
        assert [lts.stable_tau_descendants(i) for i in (3, 1, 0, 4, 2)] == [{4}] * 5
        # an inconsistent exit blocks only the consistent relation
        lts = _handmade_lts(terms, transitions, [False] * 4 + [True])
        assert lts.consistent_stable_descendants() == [set()] * 5
        assert [lts.stable_tau_descendants(i) for i in (2, 4, 3, 0, 1)] == [{4}] * 5

    def test_tau_cycle_without_exit(self):
        lts = _handmade_lts(self.CYCLE, self.CYCLE_MOVES, [False] * 4)
        assert lts.consistent_stable_descendants() == [set()] * 4
        assert [lts.stable_tau_descendants(i) for i in (1, 3, 0, 2)] == [set()] * 4

    def test_long_internal_chains_build_fast(self):
        # every conjunction state of the product reads its stable internal
        # descendants, so a search per state is quadratic in the chain length
        chain = "tau." * 100 + "a.0"
        start = time.perf_counter()
        lts = build_lts(parse(f"{chain} /\\ {chain}"), BuildLimits(max_states=20_000))
        assert time.perf_counter() - start < 3
        assert len(lts.terms) == 10_304
        assert not lts.inconsistent[lts.root]


def _handmade_lts(terms, transitions, inconsistent):
    """Assemble a graph directly, bypassing the builder, with the given
    inconsistency flags: the validators meet structures the semantics can
    never produce, and the descendant relations meet hand-drawn cycles."""
    index = {t: i for i, t in enumerate(terms)}
    lts = Lts(list(terms), index, [0], [tuple(t) for t in transitions], BuildLimits())
    lts.inconsistent = list(inconsistent)
    return lts


class TestValidate:
    @pytest.mark.parametrize("seed", range(30))
    def test_built_graphs_validate(self, seed):
        t = _gen_term_trial(CFG, seed)
        try:
            lts = build_lts(t)
        except StateBoundExceeded:
            return
        report = validate_llts(lts)
        assert report.ok, report.counterexamples

    def test_handcrafted_tau_purity_violation(self):
        terms = [parse("a.0 [] tau.0"), parse("0")]
        lts = _handmade_lts(terms, [(("a", 1), (TAU, 1)), ()], [False, False])
        # ``stable`` reads every move, not the first: this graph is impure
        assert lts.stable == [False, True]
        report = validate_llts(lts)
        assert not report.tau_pure
        assert any(prop == "tau-purity" for _, prop in report.counterexamples)

    def test_handcrafted_divergence_violation(self):
        terms = [parse("tau.0"), parse("0 [] 0")]
        lts = _handmade_lts(terms, [((TAU, 1),), ((TAU, 0),)], [False, False])
        report = validate_llts(lts)
        assert not report.lts2

    def test_handcrafted_lts1_violation(self):
        terms = [parse("a.bot"), parse("bot")]
        lts = _handmade_lts(terms, [(("a", 1),), ()], [False, True])
        report = validate_llts(lts)
        assert not report.lts1

    def test_handcrafted_forward_violation(self):
        terms = [parse("tau.0 [] tau.0"), parse("0")]
        lts = _handmade_lts(terms, [((TAU, 1),), ()], [True, False])
        report = validate_llts(lts)
        assert not report.forward_tau_f


class TestCompositionalLaws:
    @pytest.mark.parametrize("seed", range(40))
    def test_generated(self, seed):
        t = _gen_term_trial(CFG, seed)
        try:
            lts = build_lts(t)
        except StateBoundExceeded:
            return
        assert consistency_law_violations(lts) == []


def _published_unguarded_rec_count(t):
    """The published count: recursions not under a prefix or a disjunction,
    each counting 1 without a look into its body."""
    if isinstance(t, (Prefix, Disj)):
        return 0
    return isinstance(t, Rec) + sum(map(_published_unguarded_rec_count, operands(t)))


class TestStratification:
    def test_clean_everywhere_without_nested_recursion(self):
        for text in ["a.0", "<X | X = a.X>", "tau.a.0 [] b.0", "a.0 /\\ b.0", "<X | X = tau.X>"]:
            lts = build_lts(parse(text))
            assert stratification_violations(lts) == []

    def test_published_rank_fails_at_nested_recursion(self, monkeypatch):
        # The published pair rank is not a stratification at the
        # recursion-expansion rule once an equation body holds another
        # unguarded recursion; the count through bodies is.
        lts = build_lts(parse("<X | X = <Y | Y = a.Y> [] b.0>"))
        with monkeypatch.context() as m:
            m.setattr(terms, "unguarded_rec_count", _published_unguarded_rec_count)
            bad = stratification_violations(lts)
        assert bad and all(inst.rule == "rec-unfold" for inst, _, _ in bad)
        assert all(kind == "positive-premise-above-conclusion" for _, _, kind in bad)
        assert stratification_violations(lts) == []

    @pytest.mark.parametrize("seed", range(30))
    def test_negated_premises_always_below(self, seed):
        # and positive premises never above, at every rule
        t = _gen_term_trial(CFG, seed)
        try:
            lts = build_lts(t)
        except StateBoundExceeded:
            return
        assert stratification_violations(lts) == []

    @pytest.mark.parametrize("seed, depth", [(23, 4), (7, 5), (3, 5)])
    def test_sweep_stratified_where_published_rank_fails(self, seed, depth, monkeypatch):
        # the first 300 trials of each generator hold graphs (2, 4 and 7)
        # where the published count breaks the rank discipline
        config, published_bad = GenConfig(seed=seed, max_depth=depth), 0
        for k in range(300):
            lts = build_lts(_gen_term_trial(config, k))
            assert stratification_violations(lts) == [], k
            with monkeypatch.context() as m:
                m.setattr(terms, "unguarded_rec_count", _published_unguarded_rec_count)
                published_bad += bool(stratification_violations(lts))
        assert published_bad


class TestRuleTable:
    @pytest.mark.parametrize("seed", range(30))
    def test_instances_agree_with_graph(self, seed):
        # the table's instance view and the built graph must give the same
        # moves and the same inconsistency flags, state by state
        t = _gen_term_trial(CFG, seed)
        try:
            lts = build_lts(t)
        except StateBoundExceeded:
            return
        moves = {u: set() for u in lts.terms}
        flagged = set()
        for inst in used_rule_instances(lts):
            if inst.conclusion[0] == "t":
                _, src, a, dst = inst.conclusion
                moves[src].add((a, dst))
            else:
                flagged.add(inst.conclusion[1])
        # instances justify the moves of support-only terms too
        for i, u in enumerate(lts.terms):
            assert moves[u] == set(step(u))
            assert (u in flagged) == lts.inconsistent[i]
        for i in _states(lts):
            assert moves[lts.terms[i]] == {(a, lts.terms[j]) for a, j in lts.transitions[i]}


# Operands that move internally, leaves first: a prefix, a disjunction and a
# recursion whose expansion is a disjunction.  Visible or stuck ones follow.
_INTERNAL = ("tau.a.0", "(b.0 \\/ c.0)", "<X | X = (a.X \\/ b.0)>")
_VISIBLE = ("a.0", "b.a.0", "0", "bot", "<X | X = a.(b.X \\/ c.X)>")


def _mixed_operands():
    """Internal and visible operands under ``[]``, ``|[..]|`` and ``/\\``,
    nested to the left, to the right and balanced, with the internal leaf
    first, in the middle or last, and with duplicate moves."""
    i, v = _INTERNAL, _VISIBLE
    threes = [
        (i[0], v[0], v[1]),
        (v[0], i[1], v[0]),
        (v[0], v[1], i[2]),
        (v[0], v[0], v[1]),
        (i[0], i[1], i[0]),
        (v[2], v[3], v[4]),
        (i[2], v[4], i[0]),
    ]
    fours = [
        (i[0], v[0], v[1], v[0]),
        (v[0], v[1], i[1], v[4]),
        (v[0], v[0], v[0], v[1]),
        (i[0], i[0], i[2], v[2]),
    ]
    out = []
    for op in ("[]", "|[a]|", "|[]|", "/\\"):
        for x, y, z in threes:
            out.append(f"({x} {op} {y}) {op} {z}")
            out.append(f"{x} {op} ({y} {op} {z})")
        for w, x, y, z in fours:
            out.append(f"({w} {op} {x}) {op} ({y} {op} {z})")
    return out + [
        "a.0 [] a.0 [] b.0",
        "(tau.a.0 [] b.0) |[a]| (a.0 /\\ (c.0 \\/ a.0))",
        "(a.0 |[a]| tau.a.0) [] (a.b.0 /\\ a.c.0)",
        "(a.0 \\/ b.0) /\\ (a.0 [] b.0)",
    ]


def _assert_pure(moves):
    """The purity lemma: a term's moves are all internal or all visible."""
    assert len({a == TAU for a, _ in moves}) <= 1, moves


class TestOperandRules:
    """The composition rules decide from an operand's first move whether it
    moves internally, which the purity lemma allows."""

    @pytest.mark.parametrize("text", _mixed_operands())
    def test_rules_exact_on_mixed_operands(self, text):
        t = parse(text)
        assert set(step(t)) == oracle_step(t)
        lts = build_lts(t)
        instance_moves = {u: [] for u in lts.terms}
        for inst in used_rule_instances(lts):
            if inst.conclusion[0] == "t":
                _, src, a, dst = inst.conclusion
                instance_moves[src].append((a, dst))
        for i in _states(lts):
            u = lts.terms[i]
            stored = [(a, lts.terms[j]) for a, j in lts.transitions[i]]
            assert stored == step(u)
            _assert_pure(stored)
            assert list(dict.fromkeys(instance_moves[u])) == stored
        assert validate_llts(lts).ok

    def test_duplicate_moves_stored_once(self):
        lts = build_lts(parse("a.0 [] a.0 [] b.0"))
        root = [(a, print_term(lts.terms[j])) for a, j in lts.transitions[lts.root]]
        assert root == [("a", "0"), ("b", "0")]

    @pytest.mark.parametrize(
        "config", [GenConfig(seed=23, max_depth=4), GenConfig(seed=7, max_depth=5)]
    )
    def test_purity_on_generated_terms(self, config):
        for trial in range(200):
            t = _gen_term_trial(config, trial)
            _assert_pure(step(t))
            try:
                lts = build_lts(t)
            except StateBoundExceeded:
                continue
            for u in lts.terms:
                _assert_pure(step(u))


class TestExport:
    def test_json_schema(self):
        lts = build_lts(parse("a.0 \\/ bot"))
        doc = json.loads(lts_to_json(lts))
        assert set(doc) == {"root", "states", "transitions"}
        assert all(set(s) == {"id", "term", "stable", "inconsistent"} for s in doc["states"])
        assert all(set(t) == {"src", "label", "dst"} for t in doc["transitions"])
        assert any(t["label"] == "tau" for t in doc["transitions"])
        assert doc["root"] in {s["id"] for s in doc["states"]}

    def test_dot_styling(self):
        lts = build_lts(parse("tau.bot"))
        dot = lts_to_dot(lts)
        assert "doublecircle" in dot  # inconsistent states
        assert "style=dashed" in dot  # internal moves
        assert dot.startswith("digraph")

    def test_output_stable(self):
        a = lts_to_json(build_lts(parse("a.0 \\/ b.0")))
        b = lts_to_json(build_lts(parse("a.0 \\/ b.0")))
        assert a == b


def _interleaving(n):
    return " |[]| ".join(["<X | X = a.(b.X \\/ c.X)>"] * n)


GENERATED = pytest.mark.parametrize(
    "seed, depth", [(23, 4), (37, 3), (7, 5), (3, 5)], ids=["23-4", "37-3", "7-5", "3-5"]
)


def _generated_graphs(seed, depth):
    """The graphs of 300 generated terms, less those over the state bound."""
    config = GenConfig(seed=seed, max_depth=depth)
    for trial in range(300):
        try:
            yield build_lts(_gen_term_trial(config, trial))
        except StateBoundExceeded:
            continue


def _lazy_shapes(lts):
    """``lts.shapes()`` read off the terms, as on a graph made by hand."""
    return Lts(lts.terms, lts.index, lts.roots, lts.transitions, lts.limits).shapes()


class TestLazyUniverse:
    """Moves are stored for the states only; support-only terms keep their
    universe id and flag."""

    def test_wide_choice_storage_linear(self):
        # the 999 nested choices are support-only: only the root stores moves
        lts = build_lts(parse(" [] ".join(f"x{i}.0" for i in range(1000))))
        assert sum(map(len, lts.transitions)) <= 2000
        assert len(_states(lts)) == 2
        assert len(lts.terms) == 2000

    def test_wide_choice_step_memo_linear(self):
        # a chain without internal moves is stepped as one node: its nested
        # choices get no memo entry
        k, memo = 3000, {}
        t = parse(" [] ".join(f"x{i}.0" for i in range(k)))
        _closed_step(t, memo)
        assert sum(map(len, memo.values())) <= 2 * k

    @GENERATED
    def test_generated_states_and_flags(self, seed, depth):
        for lts in _generated_graphs(seed, depth):
            for i in _states(lts):
                assert [(a, lts.terms[j]) for a, j in lts.transitions[i]] == step(lts.terms[i])
            for u in lts.terms:
                assert all(c in lts.index for c in operands(u))
                assert not isinstance(u, Rec) or unfold_rec(u) in lts.index
            flagged = frozenset(i for i, f in enumerate(lts.inconsistent) if f)
            assert flagged == inconsistent_fixpoint_naive(lts)
            assert validate_llts(lts).ok
            assert consistency_law_violations(lts) == []

    @GENERATED
    def test_recorded_shapes_equal_lazy_ones(self, seed, depth):
        for lts in _generated_graphs(seed, depth):
            assert lts.shapes() == _lazy_shapes(lts)

    def test_recorded_shape_of_a_term_explored_again(self):
        # ``c`` enters the universe as a support-only operand of the root
        # choice; the conjunction's operand, it is explored again as a state
        a0 = Prefix("a", Nil())
        c = ExtChoice(a0, Prefix("b", Nil()))
        conj = Conj(c, a0)
        lts = build_lts(ExtChoice(c, conj))
        assert lts.index[c] < lts.index[conj]
        assert lts.transitions[lts.index[c]] is not UNSTORED
        assert lts.shapes() == _lazy_shapes(lts)

    @GENERATED
    def test_step_does_not_depend_on_memo_order(self, seed, depth):
        # a term whose premise sources are memoised is stepped without the
        # walk, whichever order they were stepped in
        for lts in _generated_graphs(seed, depth):
            for order in (lts.terms, lts.terms[::-1]):
                memo = {}
                for u in order:
                    assert list(_closed_step(u, memo)) == step(u)

    @pytest.mark.parametrize(
        "text",
        [" [] ".join(f"x{i}.0" for i in range(300)), _interleaving(3)],
        ids=["wide-choice", "interleaving"],
    )
    def test_traced_benchmark_reads(self, text):
        # the reads the traced benchmark makes of every graph an op builds:
        # the length of every stored entry, and a copy from the five fields
        # on which the fixpoint, the descendants and the simulation run cold
        lts = build_combined([parse(text), parse(text)])
        stored = sum(len(succ) for succ in lts.transitions)
        assert stored == sum(len(lts.transitions[i]) for i in _states(lts))
        fresh = Lts(lts.terms, lts.index, lts.roots, lts.transitions, lts.limits)
        compute_inconsistent(fresh)
        assert fresh.inconsistent == lts.inconsistent
        assert fresh.consistent_stable_descendants() == lts.consistent_stable_descendants()
        assert largest_stable_sim(fresh).pairs == largest_stable_sim(lts).pairs


@pytest.mark.parametrize(
    "text",
    [
        " [] ".join(f"x{i}.0" for i in range(300)),
        "(a.b.0 [] c.0 [] tau.d.0) /\\ (a.0 [] c.0)",
        _interleaving(3),
    ],
    ids=["wide-choice", "conjunction", "interleaving"],
)
def test_no_cyclic_garbage(text):
    # reference cycles left by every call are the collector's to find, in
    # passes whose cost grows with the heap
    t = parse(text)
    gc.collect()
    gc.disable()
    try:
        step(t)
        build_lts(t)
        assert gc.collect() == 0
    finally:
        gc.enable()
