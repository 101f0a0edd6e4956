import contextlib
import hashlib

import pytest

from llts import properties, refinement, semantics
from llts.properties import (
    ALL_CHECKS,
    HOLE,
    GenConfig,
    _gen_term_trial,
    check_brute_force,
    check_coincidence,
    check_conjunction_laws,
    check_f_laws,
    check_model_laws,
    check_operator_closure,
    check_precongruence,
    check_preorder,
    check_stratification,
    check_unfolding_equiv,
    check_unique_solution,
    check_unique_solutions,
    gen_context,
    gen_equation_body,
    report_to_json,
    shrink_term,
)
from llts.semantics import (
    BuildLimits,
    StateBoundExceeded,
    build_combined,
    build_lts,
    consistency_law_violations,
    lts_to_json,
    step,
)
from llts.syntax import parse, print_term
from llts.terms import (
    TAU,
    Conj,
    Disj,
    ExtChoice,
    Nil,
    Parallel,
    Prefix,
    Rec,
    RecSpec,
    Var,
    degree,
    first_guard_violation,
    free_vars,
    normalize,
    rec_specs,
    unfold_one,
    variable_status,
)

CFG = GenConfig(seed=3, max_depth=4)


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = _gen_term_trial(GenConfig(seed=1, max_depth=3), 0)
        b = _gen_term_trial(GenConfig(seed=1, max_depth=3), 0)
        assert a == b

    def test_distinct_seeds_vary(self):
        terms = {_gen_term_trial(GenConfig(seed=s, max_depth=4), 0) for s in range(30)}
        assert len(terms) > 20

    @pytest.mark.parametrize("seed", range(120))
    def test_closed_guarded_round_trip(self, seed):
        t = _gen_term_trial(GenConfig(seed=seed, max_depth=4), 0)
        assert not free_vars(t)
        for _, spec in rec_specs(t):
            assert first_guard_violation(spec) is None
        assert parse(print_term(t)) == t

    def test_build_rate_within_default_limits(self):
        built = 0
        total = 300
        for seed in range(total):
            t = _gen_term_trial(GenConfig(seed=seed, max_depth=5), 0)
            try:
                build_lts(t)
                built += 1
            except StateBoundExceeded:
                pass
        assert built / total >= 0.95

    def test_bulk_generator_soundness(self):
        # 1000 samples: closed, guarded, and printable-parseable
        cfg = GenConfig(seed=77, max_depth=4)
        for k in range(1000):
            t = _gen_term_trial(cfg, k)
            assert not free_vars(t)
            assert all(first_guard_violation(spec) is None for _, spec in rec_specs(t))
            assert parse(print_term(t)) == t

    def test_context_contains_hole(self):
        for k in range(30):
            assert HOLE in free_vars(gen_context(CFG, k))

    def test_equation_body_placement(self):
        for k in range(30):
            body = gen_equation_body(CFG, k, "RX")
            st = variable_status(body, "RX")
            assert st.free and st.strongly_guarded
            assert not st.in_conjunction_scope

    def test_stream_is_pinned(self):
        # the rows of baselines/regression.json name (theorem, seed, trials),
        # so they mean the same terms only while this stream stays the same
        texts = []
        for seed in range(4):
            for max_depth in (3, 4):
                cfg = GenConfig(seed=seed, max_depth=max_depth)
                for k in range(5):
                    texts.append(repr(_gen_term_trial(cfg, k)))
                    texts.append(repr(gen_context(cfg, k)))
                    texts.append(repr(gen_equation_body(cfg, k, "RX")))
                    texts.append(repr(gen_equation_body(cfg, k, "RX", conj_scope=True)))
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "9c5a036aa24885c4f0321cd5eda22f0b7e68425992a61a375bf3ece64f3eb776"


class TestGrowthCheck:
    """The probe's growth check flags only candidates the bounded build
    rejects, and most of them."""

    @pytest.mark.parametrize(
        "src",
        [
            "<X | X = tau.(X [] 0)>",
            "<X | X = a.(X /\\ X)>",
            "0 [] <X | X = X /\\ X \\/ X>",  # growth below a common context
            "<X | X = a.(X |[]| b.0)>",
        ],
    )
    def test_flagged(self, src):
        t = parse(src)
        assert properties._grows_unboundedly(t)
        with pytest.raises(StateBoundExceeded):
            build_lts(t, properties._PROBE_LIMITS)

    @pytest.mark.parametrize(
        "src",
        [
            "<X | X = a.(X [] b.0)>",  # a visible move under [] drops the context
            "<X | X = b.(X \\/ X)>",
            "<X | X = a.(X |[a]| a.0)>",  # an action in the sync set
        ],
    )
    def test_not_flagged(self, src):
        t = parse(src)
        assert not properties._grows_unboundedly(t)
        build_lts(t)

    def test_sweep_flags_only_unbounded_candidates(self):
        rejected = flagged = 0
        for seed in range(30):
            for depth in (3, 4, 5):
                config = GenConfig(seed=seed, max_depth=depth)
                gen = properties._Gen(properties._trial_rng(config, 0), config)
                for _ in range(20):
                    t = normalize(gen.term(depth, {}, properties._Path()))
                    grows = properties._grows_unboundedly(t)
                    try:
                        build_lts(t, properties._PROBE_LIMITS)
                    except StateBoundExceeded:
                        rejected += 1
                        flagged += grows
                        continue
                    assert not grows, print_term(t)
        assert rejected and flagged >= 0.8 * rejected, (flagged, rejected)

    def test_probe_graph_is_the_default_build(self):
        for k in range(60):
            t, lts = properties._probed_trial(CFG, k, CFG.max_depth)
            ref = build_lts(t)
            assert lts.limits == ref.limits == BuildLimits()
            assert lts.terms == ref.terms and lts.roots == ref.roots
            assert lts.transitions == ref.transitions
            assert lts.inconsistent == ref.inconsistent

    def test_fallback_after_twenty_unbounded_draws(self):
        # every draw is proved infinite by the growth check, so the fallback
        # is taken, with the graph ``build_lts`` gives it
        unbounded, fallback = parse("<X | X = a.(X |[]| X)>"), parse("a.0")
        assert properties._grows_unboundedly(unbounded)
        draws = []
        t, lts = properties._resampled(lambda: draws.append(unbounded) or unbounded, lambda c: c, fallback)
        assert len(draws) == 20 and t is fallback
        assert lts_to_json(lts) == lts_to_json(build_lts(fallback))
        assert lts.limits == BuildLimits()


def _precongruence_instances(monkeypatch, seed, trials):
    """Run the precongruence check at ``seed``; return its report and, per
    trial, the instances (C[p], C[q]) it tried in order, the last being the
    one it decided on."""
    real_context, real_substitute = properties.gen_context, properties.substitute
    tried: dict[int, list[list]] = {}
    instance: list = []

    def context(config, index):
        nonlocal instance
        instance = []
        # trial k draws its contexts at 7 000 000 + 5k + attempt
        tried.setdefault((index - 7_000_000) // 5, []).append(instance)
        return real_context(config, index)

    def substitute(t, bindings):
        instance.append(real_substitute(t, bindings))
        return instance[-1]

    monkeypatch.setattr(properties, "gen_context", context)
    monkeypatch.setattr(properties, "substitute", substitute)
    report = check_precongruence(GenConfig(seed=seed), trials)
    return report, tried


def _flagged(tried):
    """The instances the growth check proves infinite, by (trial, attempt)."""
    return {
        (k, attempt): instance
        for k, instances in tried.items()
        for attempt, instance in enumerate(instances)
        if any(map(properties._grows_unboundedly, instance))
    }


class TestPrecongruenceContexts:
    """The precongruence check passes over the context instances the growth
    check proves infinite without building them, and decides every trial on
    the context it decided on when it built them to the default bound."""

    def test_baseline_row_decisions(self, monkeypatch):
        report, tried = _precongruence_instances(monkeypatch, 2030, 100)
        assert report.passed and not report.skipped
        decided = {k: len(instances) - 1 for k, instances in tried.items()}
        assert len(decided) == 100
        assert {k: a for k, a in decided.items() if a} == {1: 1, 19: 1, 36: 1, 56: 1}
        flagged = _flagged(tried)
        assert sorted(flagged) == [(1, 0), (19, 0), (36, 0)]
        for instance in flagged.values():
            with pytest.raises(StateBoundExceeded):
                refinement.refines(*instance)
        # trial 56's first instance exceeds the default bound, but its graph
        # is finite, so the check must not flag it
        lhs, _ = tried[56][0]
        assert len(build_lts(lhs, BuildLimits(max_states=30_000)).terms) == 22_428

    def test_flagged_instances_exceed_the_default_bound(self, monkeypatch):
        report, tried = _precongruence_instances(monkeypatch, 14, 7)
        assert report.passed and not report.skipped
        flagged = _flagged(tried)
        assert sorted(flagged) == [(5, 0), (5, 1), (6, 0)]
        for instance in flagged.values():
            with pytest.raises(StateBoundExceeded):
                refinement.refines(*instance)

    def test_skipped_after_five_unbounded_contexts(self, monkeypatch):
        # every context drawn is proved infinite, so each trial passes over
        # five of them, builds none, and is skipped
        drawn = []
        unbounded = ExtChoice(parse("<X | X = a.(X |[]| X)>"), Var(HOLE))

        def context(config, index):
            drawn.append(index)
            return unbounded

        monkeypatch.setattr(properties, "gen_context", context)
        report = check_precongruence(CFG, 4)
        assert not report.failures
        assert report.skipped == [(k, "state-bound") for k in range(4)]
        assert drawn == [7_000_000 + 5 * k + attempt for k in range(4) for attempt in range(5)]


class TestShrink:
    def test_shrinks_to_minimal_conjunction(self):
        t = parse("c.c.(a.a.0 /\\ b.0) [] tau.0")

        def still_fails(s):
            try:
                lts = build_lts(s)
            except StateBoundExceeded:
                return False
            return lts.inconsistent[lts.root]

        # the original is not inconsistent; shrink a failing variant instead
        bad = parse("a.a.0 /\\ a.b.0")
        small = shrink_term(bad, still_fails)
        assert still_fails(small)
        assert degree(small) <= degree(bad)

    def test_preserves_failure(self):
        bad = Conj(Prefix("a", Nil()), Prefix("b", Nil()))

        def still_fails(s):
            try:
                lts = build_lts(s)
            except StateBoundExceeded:
                return False
            return lts.inconsistent[lts.root]

        small = shrink_term(bad, still_fails)
        lts = build_lts(small)
        assert lts.inconsistent[lts.root]

    def test_equation_drop_keeps_its_context(self):
        def still_fails(s):
            return isinstance(s, Prefix) and isinstance(s.body, Rec) and s.body.var == "X"

        small = shrink_term(parse("a.<X | X = b.X, Y = c.Y>"), still_fails)
        assert small == parse("a.<X | X = 0>")

    def test_predicate_errors_propagate(self):
        def raising(s):
            raise ValueError("predicate fault")

        with pytest.raises(ValueError, match="predicate fault"):
            shrink_term(parse("a.b.0"), raising)

    def test_candidates_of_a_nested_recursion_are_closed(self):
        candidates = properties._replace_positions(parse("<Z | Z = a.<X | X = b.Z, Y = c.Y>>"))
        assert parse("<Z | Z = a.<X | X = b.Z>>") in candidates
        assert all(not free_vars(c) for c in candidates)

    def test_model_laws_failure_is_shrunk(self, monkeypatch):
        # a law violation flagged on every graph that holds a conjunction:
        # each failure names a shrunk term that is still flagged
        def holds_conj(lts):
            return any(type(t) is Conj for t in lts.terms)

        monkeypatch.setattr(properties, "consistency_law_violations", lambda lts: ["stub"] if holds_conj(lts) else [])
        report = check_model_laws(CFG, trials=10)
        assert report.failures and not report.skipped
        shrunk = 0
        for f in report.failures:
            t = properties._probed_trial(CFG, f.trial, CFG.max_depth)[0]
            (small,) = map(parse, f.inputs)
            assert holds_conj(build_lts(t)) and holds_conj(build_lts(small))
            assert degree(small) <= degree(t)
            shrunk += degree(small) < degree(t)
        assert shrunk


class TestChecks:
    def test_model_laws(self):
        report = check_model_laws(CFG, trials=60)
        assert report.passed, report.failures

    def test_f_laws(self):
        report = check_f_laws(CFG, trials=40)
        assert report.passed, report.failures

    def test_f_laws_catch_a_parallel_needing_both_operands(self, monkeypatch):
        def both(lts, i, shape):
            return (("inconsistent-par-operand", shape[1:], (), ()),)

        rules = semantics.RULES[Parallel]._replace(clauses=both)
        monkeypatch.setitem(semantics.RULES, Parallel, rules)
        assert not check_f_laws(GenConfig(seed=0), 40).passed

    def test_unfolding(self):
        report = check_unfolding_equiv(CFG, trials=40)
        assert report.passed, report.failures

    def test_coincidence(self):
        report = check_coincidence(CFG, trials=30)
        assert report.passed, report.failures

    def test_precongruence(self):
        report = check_precongruence(CFG, trials=25)
        assert report.passed, report.failures

    def test_prefix_context_instance(self):
        from llts.refinement import refines
        from llts.syntax import parse

        assert refines(parse("c.a.0"), parse("c.(a.0 \\/ b.0)")).holds

    def test_conjunction_context_absorbs_internal_prefix(self):
        from llts.refinement import equivalent
        from llts.syntax import parse

        # plugging p and tau.p into X /\ a.0 gives equivalent processes
        assert equivalent(parse("tau.a.0 /\\ a.0"), parse("a.0 /\\ a.0"))
        assert equivalent(parse("a.0 /\\ tau.a.0"), parse("a.0 /\\ a.0"))

    def test_operator_closure(self):
        report = check_operator_closure(CFG, trials=15)
        assert report.passed, report.failures

    def test_conjunction_laws(self):
        report = check_conjunction_laws(CFG, trials=25)
        assert report.passed, report.failures

    def test_preorder(self):
        report = check_preorder(CFG, trials=25)
        assert report.passed, report.failures

    def test_brute_force(self):
        report = check_brute_force(CFG, trials=20)
        assert report.passed, report.failures

    def test_stratification(self):
        report = check_stratification(CFG, trials=40)
        assert report.passed, report.failures

    def test_report_json(self):
        import json

        report = check_f_laws(CFG, trials=5)
        doc = json.loads(report_to_json(report))
        assert set(doc) >= {"theorem", "trials", "failures", "skipped", "passed"}

    def test_baseline_round_trip(self, tmp_path):
        import json

        from llts.properties import load_baseline, run_baseline

        path = tmp_path / "baseline.json"
        path.write_text(json.dumps([["f-laws", 9, 6], ["coincidence", 9, 4]]))
        entries = load_baseline(str(path))
        assert entries == [("f-laws", 9, 6), ("coincidence", 9, 4)]
        reports = run_baseline(entries)
        assert [r.theorem for r in reports] == ["f-laws", "coincidence"]
        assert all(r.passed and not r.skipped for r in reports)

    def test_committed_regression_baseline(self):
        from pathlib import Path

        from llts.properties import load_baseline, run_baseline

        path = Path(__file__).parents[1] / "baselines" / "regression.json"
        entries = load_baseline(str(path))
        reports = run_baseline(entries)
        assert [r.theorem for r in reports] == [theorem for theorem, _, _ in entries]
        for report in reports:
            assert not report.failures and not report.skipped, report.summary()
        # every probe decision and the generator stream, pinned byte for byte
        text = "\n".join(map(report_to_json, reports))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "63f55c3d5bf5ca2d18f96a9257c839f73507178972624f6db50ade0b44e6b3d8"

    @pytest.mark.parametrize("name", ["coincidence", "brute-force"])
    def test_failures_name_their_seed_and_trial(self, name, monkeypatch):
        import json

        from llts.properties import run_checks

        # the check's oracle made to disagree everywhere, and the depth of the
        # pair it draws at trial (for brute-force: search index) k
        if name == "coincidence":
            real = properties.alt_refines
            monkeypatch.setattr(properties, "alt_refines", lambda p, q: not real(p, q))
            depth = 4
        else:
            naive = properties.inconsistent_fixpoint_naive
            monkeypatch.setattr(properties, "inconsistent_fixpoint_naive", lambda lts: naive(lts) ^ {0})
            depth = 3
        seed = 11
        report = run_checks(seed, trials=6, only=name)[0]
        assert report.failures
        drawn = GenConfig(seed=seed, max_depth=depth)
        for f in report.failures:
            assert f.seed == seed
            assert f.inputs == tuple(str(_gen_term_trial(drawn, 2 * f.trial + i)) for i in (0, 1))
        doc = json.loads(report_to_json(report))
        assert [(f["seed"], f["trial"]) for f in doc["failures"]] == [
            (f.seed, f.trial) for f in report.failures
        ]
        if name == "coincidence":
            assert all(0 <= f.trial < 6 for f in report.failures)
            last = report.failures[-1]
            again = run_checks(seed, trials=last.trial + 1, only=name)[0]
            assert again.failures[-1] == last

    def test_baseline_rejects_unknown_theorem(self, tmp_path):
        import json

        from llts.properties import load_baseline

        path = tmp_path / "bad.json"
        path.write_text(json.dumps([["no-such-theorem", 1, 1]]))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_run_checks_rejects_unknown_theorem(self):
        # a misspelt name runs nothing, so it must not pass as an empty suite
        with pytest.raises(ValueError, match="coincidense"):
            properties.run_checks(1, trials=1, only="coincidense")
        assert len(properties.run_checks(1, trials=1, only="coincidence")) == 1


class TestSkipPolicy:
    """Every build at the default limits exceeds the state bound; the
    generator's probe builds, at their own limits, are left alone, so the
    checks that read a probe's graph skip no trial."""

    TRIALS = 6

    @pytest.fixture(autouse=True)
    def refuse_default_builds(self, monkeypatch):
        def refusing(build):
            def refuse_default(roots, limits=None):
                if limits is None:
                    raise StateBoundExceeded(0)
                return build(roots, limits)

            return refuse_default

        monkeypatch.setattr(properties, "build_lts", refusing(properties.build_lts))
        monkeypatch.setattr(properties, "build_combined", refusing(properties.build_combined))
        monkeypatch.setattr(refinement, "build_combined", refusing(refinement.build_combined))

    @pytest.mark.parametrize("name", sorted(set(ALL_CHECKS) - {"brute-force"}))
    def test_every_building_trial_is_skipped(self, name):
        report = ALL_CHECKS[name](CFG, self.TRIALS)
        building = range(self.TRIALS)
        if name == "unfolding":  # only a trial with a recursion builds a graph
            building = [k for k in building if unfold_one(_gen_term_trial(CFG, k))]
            assert 0 < len(building) < self.TRIALS
        if name in ("model-laws", "stratification"):  # they read the probe's graph
            building = []
        skipped = [(k, "state-bound") for k in building]
        if name == "unique-solution":  # and its one informational body
            skipped.append((50_000, "state-bound"))
        assert report.trials == self.TRIALS
        assert not report.failures
        assert report.skipped == skipped


class TestRareBranches:
    """Skips and give-ups that the checks' other tests never reach."""

    def test_operator_closure_skips_a_trial_without_verified_pairs(self, monkeypatch):
        monkeypatch.setattr(properties, "_true_pairs", lambda config, k: [])
        report = check_operator_closure(CFG, 3)
        assert report.trials == 3 and report.passed
        assert report.skipped == [(k, "no verified pairs") for k in range(3)]

    def test_enumeration_gives_up_above_max_subsets(self):
        # one stable pair with a weak move to match, (a.0, a.0): two subsets
        lts = build_lts(parse("a.0"))
        assert properties.enumerate_stable_sim_pairs(lts, max_subsets=1) is None
        enumerated = properties.enumerate_stable_sim_pairs(lts, max_subsets=2)
        assert enumerated == refinement.largest_stable_sim(lts).pairs

    def test_brute_force_skips_when_its_rounds_run_out(self, monkeypatch):
        # no enumeration fits, so no round finds a simulation instance
        monkeypatch.setattr(properties, "enumerate_stable_sim_pairs", lambda lts: None)
        report = check_brute_force(CFG, 2)
        assert report.trials == 2 and report.passed
        assert report.skipped == [(2 * 40, "instances found: sims=0 kleene=2")]

    def test_brute_force_passes_over_an_overrun_round(self, monkeypatch):
        pairs = []
        build = properties.build_combined

        def first_overruns(roots, limits=None):
            pairs.append(roots)
            if len(pairs) == 1:
                raise StateBoundExceeded(0)
            return build(roots, limits)

        monkeypatch.setattr(properties, "build_combined", first_overruns)
        report = check_brute_force(CFG, 2)
        assert report.trials == 4 and report.passed and not report.skipped
        # round 1's pair overran and round 2 drew the next one
        small = GenConfig(seed=CFG.seed, max_depth=3)
        drawn = [[_gen_term_trial(small, 2 * k + j, depth=3) for j in (0, 1)] for k in (1, 2)]
        assert pairs[:2] == drawn


def _reference_f_laws(config: GenConfig, trials: int) -> properties.TheoremReport:
    """``check_f_laws`` with one graph per composite: each of its roots is
    built alone and read with ``consistency_law_violations``, and each
    violation is reported once a trial, as the one graph holds each term
    once."""

    def trial(report, k):
        p = _gen_term_trial(config, 2 * k, depth=max(2, config.max_depth - 1))
        q = _gen_term_trial(config, 2 * k + 1, depth=max(2, config.max_depth - 1))
        a = properties._trial_rng(config, trials + k).choice(properties.ALPHABET)
        composites = [
            Disj(p, q), ExtChoice(p, q), Parallel(frozenset(), p, q), Prefix(a, p), Prefix(TAU, p)
        ]
        graphs = [build_combined([t]) for t in (p, q, Conj(p, q), *composites)]
        graphs.append(properties._probed_equation(config, 3 * trials + k, "RF", False)[1])
        seen = set()
        for lts in graphs:
            for violation in consistency_law_violations(lts):
                if violation not in seen:
                    seen.add(violation)
                    report.fail([violation[0]], "violated", violation[1])

    return properties._run("f-laws", config.seed, trials, trial)


def _reference_conjunction_laws(config: GenConfig, trials: int) -> properties.TheoremReport:
    """``check_conjunction_laws`` with one graph and one simulation
    run per conjunction: three of each a trial."""
    applied = 0

    def trial(report, k):
        nonlocal applied
        p = _gen_term_trial(config, 3 * k, depth=max(2, config.max_depth - 1))
        q = Disj(p, _gen_term_trial(config, 3 * k + 1, depth=2))
        for base, left, right in [(p, p, q), (p, q, q), (p, p, p)]:
            conj = Conj(left, right)
            lts = build_combined([base, left, right, conj])
            ib = lts.index[base]
            il, ir, ic = lts.index[left], lts.index[right], lts.index[conj]
            if not lts.stable[ib] or lts.inconsistent[ib]:
                continue
            rel = refinement.largest_stable_sim(lts).pairs
            if (ib, il) in rel and (ib, ir) in rel:
                applied += 1
                if lts.inconsistent[ic]:
                    report.fail([base, conj], "conjunction inconsistent", "consistent")
                if not lts.stable[ic] or (ib, ic) not in rel:
                    report.fail([base, conj], "not simulated", "conjunction simulates")

    report = properties._run("conjunction", config.seed, trials, trial)
    report.notes.append(f"non-vacuous instances: {applied}")
    return report


class TestOneGraphPerTrial:
    """f-laws and conjunction read each trial off one graph; the reports
    equal those of one graph per law, kept above as references."""

    @pytest.mark.parametrize(
        "check, reference",
        [(check_f_laws, _reference_f_laws), (check_conjunction_laws, _reference_conjunction_laws)],
        ids=["f-laws", "conjunction"],
    )
    @pytest.mark.parametrize("seed", range(10))
    def test_reports_equal_the_reference(self, check, reference, seed):
        config = GenConfig(seed=seed)
        assert report_to_json(check(config, 40)) == report_to_json(reference(config, 40))

    @pytest.mark.parametrize("check", [check_f_laws, check_conjunction_laws])
    def test_one_build_per_trial(self, check, monkeypatch):
        calls = []
        build = properties.build_combined

        def counting(roots, limits=None):
            calls.append(roots)
            return build(roots, limits)

        monkeypatch.setattr(properties, "build_combined", counting)
        report = check(CFG, 12)
        assert report.trials == 12 and not report.skipped
        assert len(calls) == 12


class TestStepMemoPerTrial:
    """Each trial of every check runs in one step memo scope, opened by
    ``_attempt``: a trial steps each term once, and no memo outlives it."""

    @pytest.mark.parametrize("name", sorted(ALL_CHECKS))
    def test_each_term_stepped_once_per_attempt(self, name, monkeypatch):
        trials = [[]]  # the terms whose rules each trial applied
        attempt, apply_rules = properties._attempt, semantics._apply_rules

        def counting_attempt(report, k, trial):
            trials.append([])
            attempt(report, k, trial)

        monkeypatch.setattr(properties, "_attempt", counting_attempt)
        monkeypatch.setattr(semantics, "_apply_rules", lambda t, memo: trials[-1].append(t) or apply_rules(t, memo))
        ALL_CHECKS[name](CFG, 8)
        assert trials[0] == [] and sum(map(len, trials)) > 0
        assert all(len(terms) == len(set(terms)) for terms in trials)

    @pytest.mark.parametrize(
        "error", [None, StateBoundExceeded(1), ValueError("boom")], ids=["returns", "skipped", "raises"]
    )
    def test_no_memo_survives_the_attempt(self, error):
        memos = []

        def trial(report, k):
            memo = semantics._STEP_MEMO.get()
            memos.append((memo, len(memo)))
            step(parse("a.0 [] tau.b.0"))
            if error is not None:
                raise error

        report = properties.TheoremReport("scoped")
        for k in range(2):
            with pytest.raises(ValueError) if isinstance(error, ValueError) else contextlib.nullcontext():
                properties._attempt(report, k, trial)
            assert semantics._STEP_MEMO.get() is None
        (first, n1), (second, n2) = memos
        assert first is not None and second is not None and first is not second
        assert n1 == n2 == 0 and len(first) == len(second) > 0
        skipped = isinstance(error, StateBoundExceeded)
        assert report.skipped == ([(0, "state-bound"), (1, "state-bound")] if skipped else [])


class TestUniqueSolution:
    def test_strong_guard_fixed_point(self):
        report = check_unique_solution(Prefix("a", Var("X")), "X")
        assert report.passed, report.failures
        assert not report.notes  # preconditions met

    def test_weak_guard_informational(self):
        report = check_unique_solution(Prefix("tau", Var("X")), "X")
        assert report.passed  # outcomes downgraded
        assert any("precondition unmet" in n for n in report.notes)

    def test_conjunction_scope_informational(self):
        body = Conj(Prefix("a", Var("X")), Prefix("a", Nil()))
        report = check_unique_solution(body, "X")
        assert any("conjunction-scope" in n for n in report.notes)

    def test_generated_bodies(self):
        report = check_unique_solutions(CFG, trials=15)
        assert report.passed, report.failures

    def test_informational_bodies_keep_their_failures(self, monkeypatch):
        # at seed 2029, informational bodies 0 and 2 leave the variable
        # strongly guarded outside every conjunction: their failures count
        monkeypatch.setattr(properties, "equivalent", lambda p, q: False)
        report = check_unique_solutions(GenConfig(seed=2029), 25)
        late = [f for f in report.failures if f.trial >= 50_000]
        assert late and all(f.seed == 2029 for f in late)
        assert {f.trial for f in late} == {50_000, 50_002}

    def test_overrunning_candidate_is_skipped(self, monkeypatch):
        # the candidate tau.rec overruns the bound: it is skipped once, and
        # every other candidate is still built and checked
        rec = normalize(Rec("X", RecSpec({"X": Prefix("a", Var("X"))})))
        real, built = properties.build_lts, []

        def build(t, limits=None):
            built.append(t)
            if t == Prefix(TAU, rec):
                raise StateBoundExceeded(0)
            return real(t) if limits is None else real(t, limits)

        monkeypatch.setattr(properties, "build_lts", build)
        report = check_unique_solution(Prefix("a", Var("X")), "X")
        assert report.skipped == [(0, "state-bound")]
        assert report.passed and not report.notes
        unfolded = unfold_one(rec)[0]
        assert built[-4:] == [rec, unfolded, unfold_one(unfolded)[0], Prefix(TAU, rec)]

    def test_weak_guard_admits_many_solutions(self):
        # every process solves the internally guarded equation, so solutions
        # need not coincide once the strong-guard hypothesis is dropped
        from llts.refinement import equivalent
        from llts.terms import TAU

        zero, act = Nil(), Prefix("a", Nil())
        assert equivalent(zero, Prefix(TAU, zero))
        assert equivalent(act, Prefix(TAU, act))
        assert not equivalent(zero, act)

    def test_inconsistent_solution_excluded(self):
        # bot and the a-loop both solve the strongly guarded equation, but
        # bot is inconsistent and therefore outside the uniqueness claim
        from llts.refinement import equivalent
        from llts.syntax import parse

        bot = parse("bot")
        loop = parse("<X | X = a.X>")
        assert equivalent(bot, parse("a.bot"))  # bot solves the equation
        assert not equivalent(bot, loop)
        report = check_unique_solution(
            Prefix("a", Var("X")), "X", candidates=[bot, parse("a.<X | X = a.X>")]
        )
        assert report.passed, report.failures
