import hashlib
import json
from itertools import product
from types import SimpleNamespace

import pytest

import golden
from llts import refinement, syntax

from llts.properties import (
    GenConfig,
    _gen_term_trial,
    enumerate_stable_sim_pairs,
)
from llts.refinement import (
    REASON_NO_DESCENDANT,
    REASON_READY,
    Counterexample,
    SimRelation,
    _weak_moves,
    alt_refines,
    check_verdict,
    equivalent,
    largest_stable_sim,
    refines,
    stable_refines,
    verdict_to_json,
)
from llts.semantics import BuildLimits, StateBoundExceeded, build_combined, weak_visible_step
from llts.syntax import parse
from llts.terms import TAU, Disj, Parallel, Prefix, Rec, Var, unfold_rec

CFG = GenConfig(seed=37, max_depth=3)


def build(*texts):
    return build_combined([parse(s) for s in texts])


def _holding(lts, rel):
    """A holding verdict with witness ``rel``, as ``check_verdict`` reads it."""
    return SimpleNamespace(holds=True, witness=SimRelation(lts, rel))


def _assert_simulation(lts, rel, ip, iq):
    """``rel`` is a stable ready simulation on ``lts`` that gives every
    stable consistent descendant of ``ip`` a partner among those of ``iq``."""
    assert check_verdict(lts, ip, iq, _holding(lts, rel)) is None


class TestLargestStableSim:
    def test_reflexive_pair_retained(self):
        lts = build("a.0", "a.0")
        rel = largest_stable_sim(lts).pairs
        i = lts.roots[0]
        assert (i, i) in rel

    def test_ready_set_mismatch_deleted(self):
        lts = build("a.0", "b.0")
        rel = largest_stable_sim(lts).pairs
        assert (lts.roots[0], lts.roots[1]) not in rel

    def test_inconsistent_left_retained_right_deleted(self):
        lts = build("bot", "0")
        rel = largest_stable_sim(lts).pairs
        bot, nil = lts.roots
        assert (bot, nil) in rel
        assert (nil, bot) not in rel

    def test_inconsistent_stable_states_by_definition(self):
        # every stable state simulates an inconsistent one, and no consistent
        # state is simulated by an inconsistent one
        lts = build("bot", "a.0", "0", "b.0 [] bot")
        rel = largest_stable_sim(lts).pairs
        stable = [i for i in range(len(lts.terms)) if lts.stable[i]]
        bad = [i for i in stable if lts.inconsistent[i]]
        good = [i for i in stable if not lts.inconsistent[i]]
        bot, _, _, bot_choice = lts.roots
        assert {bot, bot_choice} <= set(bad) and good
        assert set(product(bad, stable)) <= rel
        assert not any((p, q) in rel for p in good for q in (bot, bot_choice))

    @pytest.mark.parametrize("seed", range(25))
    def test_witness_is_simulation(self, seed):
        p = _gen_term_trial(CFG, 2 * seed)
        q = _gen_term_trial(CFG, 2 * seed + 1)
        try:
            lts = build_combined([p, q])
        except StateBoundExceeded:
            return
        ip = lts.roots[0]
        _assert_simulation(lts, largest_stable_sim(lts).pairs, ip, ip)


class TestRefines:
    def test_branch_into_disjunction(self):
        assert refines(parse("a.0"), parse("a.0 \\/ b.0")).holds

    def test_disjunction_not_refined_by_branch(self):
        verdict = refines(parse("a.0 \\/ b.0"), parse("a.0"))
        assert not verdict.holds
        assert verdict.counterexample.reason == REASON_READY

    def test_inconsistent_refines_everything(self):
        assert refines(parse("bot"), parse("<X | X = a.X>")).holds
        assert refines(parse("bot"), parse("0")).holds

    def test_nothing_consistent_refines_inconsistent(self):
        v = refines(parse("<X | X = a.X>"), parse("bot"))
        assert not v.holds
        v2 = refines(parse("0"), parse("bot"))
        assert not v2.holds

    def test_inconsistent_partner_is_no_descendant(self):
        v = refines(parse("a.0"), parse("bot"))
        assert not v.holds
        assert v.counterexample.reason == REASON_NO_DESCENDANT

    def test_witness_present_iff_holds(self):
        held = refines(parse("a.0"), parse("a.0"))
        assert held.holds and held.witness is not None and held.counterexample is None
        refuted = refines(parse("a.0"), parse("b.0"))
        assert not refuted.holds and refuted.witness is None
        assert refuted.counterexample is not None

    def test_counterexample_path_starts_with_descendant(self):
        v = refines(parse("a.b.0"), parse("a.c.0"))
        assert not v.holds
        path = v.counterexample.path
        assert path[0][0] == "eps"

    def test_deep_counterexample(self):
        v = refines(parse("a.b.c.0"), parse("a.b.e.0"))
        assert not v.holds
        assert len(v.counterexample.path) >= 2


class TestEquivalence:
    def test_internal_prefix_invisible(self):
        assert equivalent(parse("tau.a.0"), parse("a.0"))

    def test_unfolding_equivalent(self):
        assert equivalent(parse("<X | X = a.X>"), parse("a.<X | X = a.X>"))

    def test_distinct_ready_sets_not_equivalent(self):
        assert not equivalent(parse("a.0"), parse("b.0"))

    def test_stable_variant(self):
        assert stable_refines(parse("a.0"), parse("a.0"))
        assert not stable_refines(parse("tau.a.0"), parse("a.0"))  # left unstable
        assert stable_refines(parse("a.0 [] b.0"), parse("b.0 [] a.0"))
        assert stable_refines(parse("b.0 [] a.0"), parse("a.0 [] b.0"))

    def test_stable_variant_with_inconsistent_roots(self):
        assert stable_refines(parse("bot"), parse("a.0"))
        assert stable_refines(parse("bot"), parse("bot"))
        assert not stable_refines(parse("a.0"), parse("bot"))

    @pytest.mark.parametrize("seed", range(20))
    def test_reflexive_on_generated(self, seed):
        p = _gen_term_trial(CFG, seed)
        try:
            assert refines(p, p).holds
        except StateBoundExceeded:
            pass


class TestAlternative:
    def test_agrees_on_named_pairs(self):
        cases = [
            ("a.0", "a.0 \\/ b.0"),
            ("a.0 \\/ b.0", "a.0"),
            ("bot", "<X | X = a.X>"),
            ("<X | X = a.X>", "bot"),
            ("tau.a.0", "a.0"),
        ]
        for p_text, q_text in cases:
            p, q = parse(p_text), parse(q_text)
            assert refines(p, q).holds == alt_refines(p, q)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_on_generated(self, seed):
        p = _gen_term_trial(CFG, 2 * seed)
        q = _gen_term_trial(CFG, 2 * seed + 1)
        try:
            assert refines(p, q).holds == alt_refines(p, q)
        except StateBoundExceeded:
            pass


class TestBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_enumeration_matches_iteration(self, seed):
        p = _gen_term_trial(CFG, 2 * seed, depth=2)
        q = _gen_term_trial(CFG, 2 * seed + 1, depth=2)
        try:
            lts = build_combined([p, q])
        except StateBoundExceeded:
            return
        if sum(lts.stable) > 4:
            return
        enumerated = enumerate_stable_sim_pairs(lts)
        if enumerated is None:
            return
        assert enumerated == largest_stable_sim(lts).pairs


class TestCounterexampleFuzz:
    @pytest.mark.parametrize("seed", range(60))
    def test_refuted_verdicts_carry_valid_traces(self, seed):
        p = _gen_term_trial(CFG, 2 * seed)
        q = _gen_term_trial(CFG, 2 * seed + 1)
        try:
            verdict = refines(p, q)
        except StateBoundExceeded:
            return
        assert check_verdict(verdict.lts, *verdict.lts.roots, verdict) is None
        if verdict.holds:
            assert verdict.witness is not None
            return
        cex = verdict.counterexample
        assert cex is not None
        assert cex.reason in ("ready-set-mismatch", "no-stable-descendant-match")
        right_inconsistent = verdict.lts.inconsistent[verdict.lts.roots[1]]
        assert (cex.reason == "no-stable-descendant-match") == right_inconsistent
        assert cex.path and cex.path[0][0] == "eps"
        assert all(isinstance(state, str) and state for _, state in cex.path)
        assert len(cex.path) < 10_000


class TestSerialization:
    def test_holds_schema(self):
        doc = json.loads(verdict_to_json(refines(parse("a.0"), parse("a.0"))))
        assert doc["holds"] is True
        assert "witness_pairs" in doc and doc["witness_pairs"]

    def test_witness_renders_each_state_once(self, monkeypatch):
        # copies with actions of their own, so that no two states are one
        # class of ``|[]|``; the first copy starts as either of two bisimilar
        # states, so a state is in more than one pair
        copies = [parse(f"<X | X = a{j}.(b{j}.X \\/ c{j}.X)>") for j in range(3)]
        first = Disj(copies[0], unfold_rec(copies[0]))
        p = Parallel((), Parallel((), first, copies[1]), copies[2])
        witness = refines(p, p).witness
        terms = witness.lts.terms
        states = {terms[i] for pair in witness.pairs for i in pair}
        expected = sorted((str(terms[i]), str(terms[j])) for i, j in witness.pairs)
        plain, printed = syntax._text_of, []
        monkeypatch.setattr(syntax, "_text_of", lambda t, parts: printed.append(t) or plain(t, parts))
        assert witness.term_pairs() == expected
        assert len(states) < len(witness.pairs)
        # the states share their copies' subterms, each printed once
        assert len(printed) == len(set(printed)) and states <= set(printed)

    def test_long_path_prints_each_state_once(self, monkeypatch):
        # refines(a^n.0, a^n.b.0): a path of n + 1 states, each a subterm of
        # the one before, printed once each, not once per state above it
        n = 1000
        p, q = parse("0"), parse("b.0")
        for _ in range(n):
            p, q = Prefix("a", p), Prefix("a", q)
        verdict = refines(p, q)
        plain, printed = syntax._text_of, []
        monkeypatch.setattr(syntax, "_text_of", lambda t, parts: printed.append(t) or plain(t, parts))
        cex = verdict.counterexample
        assert len(printed) == len(set(printed)) == n + 1
        monkeypatch.setattr(syntax, "_text_of", plain)
        states = [p]
        while type(states[-1]) is Prefix:
            states.append(states[-1].body)
        assert cex.reason == REASON_READY
        assert cex.path == (("eps", str(p)), *(("a", str(t)) for t in states[1:]))
        assert check_verdict(verdict.lts, *verdict.lts.roots, verdict) is None

    def test_refuted_schema(self):
        doc = json.loads(verdict_to_json(refines(parse("a.0"), parse("b.0"))))
        assert doc["holds"] is False
        assert doc["counterexample"]["reason"] == REASON_READY
        assert isinstance(doc["counterexample"]["path"], list)


# (reason, path) of refines(P, P') and refines(P', P), where P is
# ``golden._interleaving(3)`` and P' swaps copy k
PINNED = {
    (0, "P<=Q"): (
        "ready-set-mismatch",
        [
            ("eps", "<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)>"),
        ],
    ),
    (0, "Q<=P"): (
        "ready-set-mismatch",
        [
            ("eps", "<X | X = a.(b.X [] c.X)> |[]| <X1 | X1 = a.(b.X1 \\/ c.X1)> |[]| <X2 | X2 = a.(b.X2 \\/ c.X2)>"),
            ("a", "b.<X | X = a.(b.X [] c.X)> [] c.<X | X = a.(b.X [] c.X)> |[]| <X1 | X1 = a.(b.X1 \\/ c.X1)> |[]| <X2 | X2 = a.(b.X2 \\/ c.X2)>"),
        ],
    ),
    (1, "P<=Q"): (
        "ready-set-mismatch",
        [
            ("eps", "<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)>"),
        ],
    ),
    (1, "Q<=P"): (
        "ready-set-mismatch",
        [
            ("eps", "<X | X = a.(b.X \\/ c.X)> |[]| <X1 | X1 = a.(b.X1 [] c.X1)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "<X | X = a.(b.X \\/ c.X)> |[]| b.<X1 | X1 = a.(b.X1 [] c.X1)> [] c.<X1 | X1 = a.(b.X1 [] c.X1)> |[]| <X | X = a.(b.X \\/ c.X)>"),
        ],
    ),
    (2, "P<=Q"): (
        "ready-set-mismatch",
        [
            ("eps", "<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)>"),
            ("a", "b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)> |[]| b.<X | X = a.(b.X \\/ c.X)>"),
        ],
    ),
    (2, "Q<=P"): (
        "ready-set-mismatch",
        [
            ("eps", "<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)> |[]| <X1 | X1 = a.(b.X1 [] c.X1)>"),
            ("a", "<X | X = a.(b.X \\/ c.X)> |[]| <X | X = a.(b.X \\/ c.X)> |[]| b.<X1 | X1 = a.(b.X1 [] c.X1)> [] c.<X1 | X1 = a.(b.X1 [] c.X1)>"),
        ],
    ),
}


def _weak_by_action(lts, i):
    """Reference for ``_weak_moves``: ``weak_visible_step`` action by action,
    sorted, the actions with a target kept."""
    steps = {a: weak_visible_step(lts, i, a) for a in sorted(lts.visible_ready(i))}
    return {a: targets for a, targets in steps.items() if targets}


_UNMATCHED = "no-matching-move"  # the reference's tag for a deletion by an unmatched move


def _round_robin_sim(lts):
    """Reference for the simulation on states: check every stable pair in
    sorted order, sweep after sweep, until a sweep deletes nothing.  Returns
    the relation and, per deleted pair, (sequence number, reason, action,
    successor)."""
    stable = [i for i in range(len(lts.terms)) if lts.stable[i]]
    weak = {i: _weak_by_action(lts, i) for i in stable}
    F = lts.inconsistent
    relation, deleted = set(), {}
    for pair in product(stable, stable):
        p, q = pair
        if F[p] or not (F[q] or lts.ready(p) != lts.ready(q)):
            relation.add(pair)
        else:
            reason = "consistency-violation" if F[q] else REASON_READY
            deleted[pair] = (len(deleted), reason, None, None)
    changed = True
    while changed:
        changed = False
        for pair in sorted(relation):
            p, q = pair
            if pair not in relation or F[p]:
                continue
            for a, targets in weak[p].items():
                q_targets = weak[q].get(a, ())
                unmatched = [
                    p2
                    for p2 in sorted(targets)
                    if not any((p2, q2) in relation for q2 in q_targets)
                ]
                if unmatched:
                    relation.discard(pair)
                    deleted[pair] = (len(deleted), _UNMATCHED, a, unmatched[0])
                    changed = True
                    break
    return relation, deleted


def _round_robin_counterexample(lts, deleted, p0, candidates):
    """Reference for counterexamples: from ``p0``, follow the candidate
    partner whose pair ``_round_robin_sim`` deleted last, to the successor
    its deletion record names, until a record gives another reason or no
    candidate is left."""
    path = [("eps", str(lts.terms[p0]))]
    p, quorum = p0, candidates
    while quorum:
        partner = max(quorum, key=lambda q: deleted[p, q][0])
        _, reason, a, p = deleted[p, partner]
        if reason != _UNMATCHED:
            return Counterexample(tuple(path), reason)
        path.append((a, str(lts.terms[p])))
        quorum = _weak_by_action(lts, partner).get(a, ())
    return Counterexample(tuple(path), _UNMATCHED if len(path) > 1 else REASON_NO_DESCENDANT)


def _generated_pairs(seed):
    """A generated pair and a holding one, (p, p \\/ q)."""
    p = _gen_term_trial(CFG, 2 * seed)
    q = _gen_term_trial(CFG, 2 * seed + 1)
    return [(p, q), (p, Disj(p, q))]


# sha256 of verdict_to_json(refines(P, P')) at n copies, the same for every
# swapped copy k
PINNED_DIGESTS = {
    4: "bb3840e0f40d88be7cb7cbbc4be6020d3e1bca974ad1d5b897cf2f5975340ca7",
    5: "1121f86dba9bc266e6eb56e9e6ffb4a355607dfb4cca4f98633086dff658a18c",
}


class TestEngine:
    @pytest.mark.parametrize("k,direction", sorted(PINNED))
    def test_pinned_counterexample(self, k, direction):
        p, q = parse(golden._interleaving(3)), parse(golden._interleaving(3, k))
        if direction == "Q<=P":
            p, q = q, p
        reason, path = PINNED[k, direction]
        doc = {"holds": False, "counterexample": {"path": [list(s) for s in path], "reason": reason}}
        assert verdict_to_json(refines(p, q)) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("seed", range(40))
    def test_replays_round_robin_deletions(self, seed):
        # the counterexample read off the blocks follows the deletions that
        # the round-robin fixpoint over every stable pair makes on states
        if seed < 3:
            p, q = parse(golden._interleaving(3)), parse(golden._interleaving(3, seed))
        else:
            p, q = _generated_pairs(seed)[0]
        try:
            verdict = refines(p, q)
        except StateBoundExceeded:
            return
        lts = verdict.lts
        relation, deleted = _round_robin_sim(lts)
        ip, iq = lts.roots
        csd = lts.consistent_stable_descendants()
        unmatched = [p1 for p1 in sorted(csd[ip]) if not any((p1, q1) in relation for q1 in csd[iq])]
        assert verdict.holds == (not unmatched)
        if unmatched:
            expected = _round_robin_counterexample(lts, deleted, unmatched[0], csd[iq])
            assert verdict.counterexample == expected

    @pytest.mark.parametrize("n", sorted(PINNED_DIGESTS))
    def test_pinned_interleaving_counterexamples(self, n):
        # the paths depend on which partner block was deleted last, so on
        # how ``_partition`` numbers blocks
        p = parse(golden._interleaving(n))
        for k in range(n):
            text = verdict_to_json(refines(p, parse(golden._interleaving(n, k))))
            assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[n]

    @pytest.mark.parametrize("seed", range(60))
    def test_witness_on_generated(self, seed):
        for p, q in _generated_pairs(seed):
            try:
                verdict = refines(p, q)
            except StateBoundExceeded:
                continue
            if not verdict.holds:
                continue
            lts, rel = verdict.witness.lts, verdict.witness.pairs
            _assert_simulation(lts, rel, *lts.roots)
            assert rel <= largest_stable_sim(lts).pairs

    @pytest.mark.parametrize("seed", range(60))
    def test_equivalent_and_stable_on_generated(self, seed):
        for p, q in _generated_pairs(seed):
            try:
                lts = build_combined([p, q])
            except StateBoundExceeded:
                continue
            assert equivalent(p, q) == (alt_refines(p, q) and alt_refines(q, p))
            full = largest_stable_sim(lts).pairs
            assert stable_refines(p, q) == (tuple(lts.roots) in full)

    @pytest.mark.parametrize("seed", range(4))
    def test_stable_refines_equals_the_root_pair_formula(self, seed):
        # the formula read off the roots alone: both stable, an inconsistent
        # left root refined by every stable state, and otherwise the
        # simulation seeded with the root pair
        def root_pair(lts):
            ip, iq = lts.roots
            if not (lts.stable[ip] and lts.stable[iq]):
                return False
            if lts.inconsistent[ip] or lts.inconsistent[iq]:
                return lts.inconsistent[ip]
            return (ip, iq) in refinement._quotient_sim(lts, [ip], [iq])

        config = GenConfig(seed=seed, max_depth=3)
        verdicts = []
        for k in range(40):
            p, q = _gen_term_trial(config, 2 * k), _gen_term_trial(config, 2 * k + 1)
            for pair in [(p, q), (q, p), (p, Disj(p, q)), (Prefix(TAU, p), q)]:
                try:
                    lts = build_combined(list(pair))
                except StateBoundExceeded:
                    continue
                verdicts.append(stable_refines(*pair))
                assert verdicts[-1] == root_pair(lts), pair
        assert any(verdicts) and not all(verdicts)

    def test_stable_refines_relates_the_roots_alone(self, monkeypatch):
        # every state of a ring falls in one block, so relating every stable
        # state would build n * n pairs; the roots' relation has at most four
        n = 300
        ring = Rec("X0", {f"X{i}": Prefix("a", Var(f"X{(i + 1) % n}")) for i in range(n)})
        sizes = []

        def counted(lts, states):
            sizes.append(len(relation := stable_sim(lts, states)))
            return relation

        stable_sim = refinement._stable_sim
        monkeypatch.setattr(refinement, "_stable_sim", counted)
        assert stable_refines(ring, ring) and sizes and max(sizes) <= 4


class TestWeakMoves:
    @pytest.mark.parametrize("seed", golden.GEN_SEEDS)
    def test_one_pass_equals_per_action(self, seed):
        # on the graphs of the golden corpus's generated pairs, in the same
        # action order, which fixes the order deletions are recorded in
        config = GenConfig(seed=seed)
        for k in range(golden.GEN_TRIALS):
            p, q = _gen_term_trial(config, 2 * k), _gen_term_trial(config, 2 * k + 1)
            for lts in (build_combined([p, q]), build_combined([p, Disj(p, q)])):
                for i, stable in enumerate(lts.stable):
                    if stable and not lts.inconsistent[i]:
                        got, expected = _weak_moves(lts, i), _weak_by_action(lts, i)
                        assert list(got.items()) == list(expected.items())


class TestQuotient:
    """Verdicts, witnesses and counterexamples come from a simulation over
    blocks of weakly bisimilar states."""

    @pytest.mark.parametrize("seed", range(60))
    def test_lifted_blocks_equal_state_relation(self, seed):
        for p, q in _generated_pairs(seed):
            try:
                lts = build_combined([p, q])
            except StateBoundExceeded:
                continue
            assert largest_stable_sim(lts).pairs == _round_robin_sim(lts)[0]

    @pytest.mark.parametrize("n", (3, 4))
    def test_lifted_blocks_on_interleavings(self, n):
        for k in range(n):
            lts = build_combined([parse(golden._interleaving(n)), parse(golden._interleaving(n, k))])
            assert largest_stable_sim(lts).pairs == _round_robin_sim(lts)[0]

    def test_verdicts_never_run_the_state_engine(self, monkeypatch):
        def closure(*_):
            raise RuntimeError("witness closure run")

        monkeypatch.setattr(refinement, "_witness_pairs", closure)
        p, q = parse(golden._interleaving(3)), parse(golden._interleaving(3, 1))
        assert refines(p, p).holds
        assert equivalent(p, p) and not equivalent(p, q)
        assert stable_refines(p, p) and not stable_refines(p, q)
        assert not stable_refines(q, p)
        held, refuted = refines(p, Disj(p, q)), refines(p, q)
        assert held.holds and not refuted.holds
        assert refuted.counterexample.reason == REASON_READY
        with pytest.raises(RuntimeError, match="witness closure run"):
            held.witness.pairs

    def test_long_chain_where_nothing_collapses(self):
        # every state is its own block; a quadratic partition cannot finish
        chain = "a." * 20_000
        limits = BuildLimits(max_states=50_000)
        p, q = parse(chain + "0"), parse(chain + "b.0")
        assert refines(p, p, limits).holds
        assert not refines(p, q, limits).holds


class TestCheckVerdict:
    @pytest.mark.parametrize("n", (4, 5))
    def test_every_interleaving_verdict_passes(self, n):
        p = parse(golden._interleaving(n))
        swapped = [parse(golden._interleaving(n, k)) for k in range(n)]
        pairs = [(p, p)] + [pair for q in swapped for pair in ((p, q), (q, p), (p, Disj(p, q)))]
        for left, right in pairs:
            verdict = refines(left, right)
            lts = verdict.lts
            assert check_verdict(lts, *lts.roots, verdict) is None

    def test_rejects_witness_missing_a_needed_pair(self):
        p, q = parse(golden._interleaving(4)), parse(golden._interleaving(4, 1))
        verdict = refines(p, Disj(p, q))
        lts, rel = verdict.lts, verdict.witness.pairs
        ip, iq = lts.roots
        csd = lts.consistent_stable_descendants()
        # a partner some start has alone, and a move target some pair has alone
        needed = [
            [(p1, q1) for q1 in csd[iq] if (p1, q1) in rel] for p1 in csd[ip]
        ] + [
            [(p2, q2) for q2 in _weak_moves(lts, j).get(a, ()) if (p2, q2) in rel]
            for i, j in rel
            for a, targets in _weak_moves(lts, i).items()
            for p2 in targets
        ]
        alone = {pairs[0] for pairs in needed if len(pairs) == 1}
        assert alone
        for pair in sorted(alone)[:20]:
            failure = check_verdict(lts, ip, iq, _holding(lts, rel - {pair}))
            assert failure is not None and "witness" in failure

    def test_rejects_path_with_one_action_changed(self):
        for k in range(4):
            p, q = parse(golden._interleaving(4)), parse(golden._interleaving(4, k))
            verdict = refines(p, q)
            cex = verdict.counterexample
            lts = verdict.lts
            assert len(cex.path) > 1
            for i, (a, state) in enumerate(cex.path[1:], 1):
                path = list(cex.path)
                path[i] = ("b" if a != "b" else "c", state)
                forged = SimpleNamespace(holds=False, counterexample=Counterexample(tuple(path), cex.reason))
                failure = check_verdict(lts, *lts.roots, forged)
                assert failure is not None and "not a weak move" in failure

    @pytest.mark.parametrize(
        "texts, pair, failure",
        [
            (("tau.a.0", "a.0"), (0, 0), "is not a pair of stable states"),
            (("a.0", "bot"), (0, 1), "relates a consistent state to an inconsistent one"),
            (("a.0", "b.0"), (0, 1), "has different ready sets"),
            (("a.0", "a.0"), None, "gives the stable consistent descendant 0 no partner"),
        ],
        ids=["unstable", "consistent-to-inconsistent", "ready-sets", "no-partner"],
    )
    def test_rejects_forged_witness(self, texts, pair, failure):
        # ``pair`` indexes the roots; None forges the empty witness
        lts = build(*texts)
        rel = set() if pair is None else {tuple(lts.roots[k] for k in pair)}
        assert failure in check_verdict(lts, *lts.roots, _holding(lts, rel))

    def test_rejects_path_not_starting_at_a_descendant(self):
        lts = build("a.0", "b.0")
        forged = SimpleNamespace(
            holds=False, counterexample=Counterexample((("eps", "b.0"),), REASON_READY)
        )
        failure = check_verdict(lts, *lts.roots, forged)
        assert failure == "path start b.0 is not a stable consistent descendant of the first root"

    def test_rejects_path_with_one_state_renamed(self):
        # each state named as another state the same actions reach
        p, q = parse("a.(b.0 \\/ c.0)"), parse("a.b.c.0")
        verdict = refines(p, q)
        lts, cex = verdict.lts, verdict.counterexample
        assert check_verdict(lts, *lts.roots, verdict) is None
        assert [a for a, _ in cex.path] == ["eps", "a"] and cex.path[1][1] in ("b.0", "c.0")
        other = "c.0" if cex.path[1][1] == "b.0" else "b.0"
        forged = SimpleNamespace(holds=False, counterexample=Counterexample((cex.path[0], ("a", other)), cex.reason))
        assert "does not hold" in check_verdict(lts, *lts.roots, forged)
        forged = SimpleNamespace(holds=False, counterexample=Counterexample((cex.path[0], ("a", "a.0")), cex.reason))
        assert check_verdict(lts, *lts.roots, forged) == "path step a: a.0 is not a weak move"

    def test_internal_action_on_the_path(self):
        # weak moves are indexed by visible actions: an internal action on
        # the path is no weak move, reported after a wrong start
        lts = build("a.0", "b.0")
        for start, failure in (("b.0", "path start b.0"), ("a.0", "path step tau: 0 is not a weak move")):
            path = (("eps", start), (TAU, "0"))
            forged = SimpleNamespace(holds=False, counterexample=Counterexample(path, REASON_READY))
            assert check_verdict(lts, *lts.roots, forged).startswith(failure)

    def test_rejects_a_reason_that_does_not_hold(self):
        p, q = parse(golden._interleaving(4)), parse(golden._interleaving(4, 2))
        verdict = refines(p, q)
        lts, cex = verdict.lts, verdict.counterexample
        assert cex.reason == REASON_READY
        for reason in ("consistency-violation", "no-matching-move", "no-stable-descendant-match"):
            forged = SimpleNamespace(holds=False, counterexample=Counterexample(cex.path, reason))
            assert "does not hold" in check_verdict(lts, *lts.roots, forged)
