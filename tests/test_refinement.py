import hashlib
import json
from itertools import product
from types import SimpleNamespace

import pytest

import golden
from llts import refinement

from llts.properties import (
    GenConfig,
    _gen_term_trial,
    enumerate_stable_sim_pairs,
)
from llts.refinement import (
    REASON_NO_DESCENDANT,
    REASON_NO_MOVE,
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
from llts.terms import Disj, Term

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
        assert cex.reason in (
            "ready-set-mismatch",
            "no-matching-move",
            "no-stable-descendant-match",
        )
        assert cex.path and cex.path[0][0] == "eps"
        assert all(isinstance(state, str) and state for _, state in cex.path)
        assert len(cex.path) < 10_000


class TestSerialization:
    def test_holds_schema(self):
        doc = json.loads(verdict_to_json(refines(parse("a.0"), parse("a.0"))))
        assert doc["holds"] is True
        assert "witness_pairs" in doc and doc["witness_pairs"]

    def test_witness_renders_each_state_once(self, monkeypatch):
        p = parse(_interleaving())
        witness = refines(p, p).witness
        plain, terms = Term.__str__, witness.lts.terms
        expected = sorted((plain(terms[i]), plain(terms[j])) for i, j in witness.pairs)
        rendered = []
        monkeypatch.setattr(Term, "__str__", lambda t: rendered.append(t) or plain(t))
        assert witness.term_pairs() == expected
        assert len(rendered) == len({i for pair in witness.pairs for i in pair}) < len(witness.pairs)

    def test_refuted_schema(self):
        doc = json.loads(verdict_to_json(refines(parse("a.0"), parse("b.0"))))
        assert doc["holds"] is False
        assert doc["counterexample"]["reason"] == REASON_READY
        assert isinstance(doc["counterexample"]["path"], list)


def _interleaving(swapped=None, n=3):
    """``n`` copies of ``<X | X = a.(b.X \\/ c.X)>`` in parallel; copy
    ``swapped`` offers b and c by external choice instead."""
    ops = ["[]" if j == swapped else "\\/" for j in range(n)]
    return " |[]| ".join(f"(<X | X = a.(b.X {op} c.X)>)" for op in ops)


# (reason, path) of refines(P, P') and refines(P', P), where P' swaps copy k
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
                    deleted[pair] = (len(deleted), REASON_NO_MOVE, a, unmatched[0])
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
        if reason != REASON_NO_MOVE:
            return Counterexample(tuple(path), reason)
        path.append((a, str(lts.terms[p])))
        quorum = _weak_by_action(lts, partner).get(a, ())
    return Counterexample(tuple(path), REASON_NO_MOVE if len(path) > 1 else REASON_NO_DESCENDANT)


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
        p, q = parse(_interleaving()), parse(_interleaving(k))
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
            p, q = parse(_interleaving()), parse(_interleaving(seed))
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
        p = parse(_interleaving(None, n))
        for k in range(n):
            text = verdict_to_json(refines(p, parse(_interleaving(k, n))))
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
            lts = build_combined([parse(_interleaving(None, n)), parse(_interleaving(k, n))])
            assert largest_stable_sim(lts).pairs == _round_robin_sim(lts)[0]

    def test_verdicts_never_run_the_state_engine(self, monkeypatch):
        def closure(*_):
            raise RuntimeError("witness closure run")

        monkeypatch.setattr(refinement, "_witness_pairs", closure)
        p, q = parse(_interleaving()), parse(_interleaving(1))
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
        p = parse(_interleaving(None, n))
        swapped = [parse(_interleaving(k, n)) for k in range(n)]
        pairs = [(p, p)] + [pair for q in swapped for pair in ((p, q), (q, p), (p, Disj(p, q)))]
        for left, right in pairs:
            verdict = refines(left, right)
            lts = verdict.lts
            assert check_verdict(lts, *lts.roots, verdict) is None

    def test_rejects_witness_missing_a_needed_pair(self):
        p, q = parse(_interleaving(None, 4)), parse(_interleaving(1, 4))
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
            p, q = parse(_interleaving(None, 4)), parse(_interleaving(k, 4))
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

    def test_rejects_a_reason_that_does_not_hold(self):
        p, q = parse(_interleaving(None, 4)), parse(_interleaving(2, 4))
        verdict = refines(p, q)
        lts, cex = verdict.lts, verdict.counterexample
        assert cex.reason == REASON_READY
        for reason in ("consistency-violation", REASON_NO_MOVE, "no-stable-descendant-match"):
            forged = SimpleNamespace(holds=False, counterexample=Counterexample(cex.path, reason))
            assert "does not hold" in check_verdict(lts, *lts.roots, forged)
