"""Random term generation and desk-scale machine checks of the calculus laws.

Each check runs a number of independent, seed-derived trials through one
loop, ``_run``, and returns a ``TheoremReport``.  Failures carry the
offending terms (model-laws shrinks them greedily first); trials whose
graphs exceed the configured bounds are skipped, not failed.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice, product
from typing import NamedTuple

from .refinement import alt_refines, equivalent, largest_stable_sim, refines
from .semantics import (
    BuildLimits,
    Lts,
    StateBoundExceeded,
    _closed_step,
    build_combined,
    build_lts,
    consistency_law_violations,
    step,
    stratification_violations,
    validate_llts,
    weak_visible_step,
)
from .terms import (
    TAU,
    Bottom,
    Conj,
    Disj,
    ExtChoice,
    Nil,
    Parallel,
    Prefix,
    Rec,
    RecSpec,
    Term,
    Var,
    _degree,
    _into_subterms,
    _variants,
    _walk,
    free_vars,
    is_multi_unfolding,
    normalize,
    substitute,
    unfold_one,
    variable_status,
)


ALPHABET = ("a", "b", "c")
CONJ_PROBABILITY = 0.2
HOLE = "HOLE"  # the free variable a generated context leaves open


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_depth: int = 4
    rec_probability: float = 0.2


class Failure(NamedTuple):
    """A failed trial: its inputs, printed, what was observed and what was
    expected, and the seed and trial index it was found at."""

    inputs: tuple[str, ...]
    observed: object
    expected: object
    seed: int | None
    trial: int | None


@dataclass
class TheoremReport:
    theorem: str
    trials: int = 0
    failures: list[Failure] = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (trial, reason)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, inputs, observed, expected) -> None:
        self.failures.append(Failure(tuple(str(t) for t in inputs), observed, expected, None, None))

    def skip(self, trial: int, reason: str) -> None:
        self.skipped.append((trial, reason))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.theorem}: trials={self.trials} failures={len(self.failures)} "
            f"skipped={len(self.skipped)} [{status}]"
        )


def report_to_json(report: TheoremReport) -> str:
    return json.dumps(
        {
            "theorem": report.theorem,
            "trials": report.trials,
            "failures": [
                {
                    "inputs": list(f.inputs),
                    "observed": str(f.observed),
                    "expected": str(f.expected),
                    "seed": f.seed,
                    "trial": f.trial,
                }
                for f in report.failures
            ],
            "skipped": [{"trial": t, "reason": r} for t, r in report.skipped],
            "notes": [str(n) for n in report.notes],
            "passed": report.passed,
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# generation


@dataclass(frozen=True)
class _Path:
    guarded: bool = False  # passed any prefix or a disjunction operand
    strong: bool = False  # passed a visible prefix
    in_conj: bool = False  # inside a conjunction operand


def _trial_rng(config: GenConfig, trial: int) -> random.Random:
    return random.Random(config.seed * 1_000_003 + trial)


_KINDS = ("prefix", "choice", "disj", "conj", "par", "rec", "leaf")


class _Gen:
    """Recursive generator; ``scope`` maps in-scope variables to a placement
    requirement: "guarded" for recursion variables, "anywhere" for context
    holes, "strong-no-conj" for unique-solution equation bodies."""

    def __init__(self, rng: random.Random, config: GenConfig):
        self.rng = rng
        self.config = config
        self.counter = 0

    def fresh_var(self) -> str:
        self.counter += 1
        return f"R{self.counter}"

    def usable(self, scope: dict[str, str], path: _Path) -> list[str]:
        out = []
        for var, req in scope.items():
            if req == "anywhere":
                out.append(var)
            elif req == "guarded" and path.guarded:
                out.append(var)
            elif req == "strong-no-conj" and path.strong and not path.in_conj:
                out.append(var)
        return out

    def leaf(self, scope: dict[str, str], path: _Path) -> Term:
        usable = self.usable(scope, path)
        r = self.rng.random()
        if usable and r < 0.5:
            return Var(self.rng.choice(usable))
        if r < 0.85:
            return Nil()
        return Bottom()

    def action(self) -> str:
        if self.rng.random() < 0.2:
            return TAU
        return self.rng.choice(ALPHABET)

    def term(
        self, depth: int, scope: dict[str, str], path: _Path, in_rec: bool = False
    ) -> Term:
        if depth <= 0:
            return self.leaf(scope, path)
        # the shares of the kinds in ``_KINDS``, in order; recursion bodies
        # avoid the state-multiplying operators: a recursive call kept inside
        # a parallel or conjunction context grows without bound, which only
        # produces bound-exceeded skips
        damp = 0.4 if in_rec else 1.0
        shares = (0.30, 0.14, 0.14, CONJ_PROBABILITY * damp, 0.015 if in_rec else 0.08,
                  self.config.rec_probability * damp, 0.14)
        kind = self.rng.choices(_KINDS, shares)[0]
        if kind == "leaf":
            return self.leaf(scope, path)
        if kind == "prefix":
            a = self.action()
            guarded = replace(path, guarded=True, strong=path.strong or a != TAU)
            return Prefix(a, self.term(depth - 1, scope, guarded, in_rec))
        if kind == "choice":
            return ExtChoice(
                self.term(depth - 1, scope, path, in_rec),
                self.term(depth - 1, scope, path, in_rec),
            )
        if kind == "disj":
            weak = replace(path, guarded=True)
            return Disj(
                self.term(depth - 1, scope, weak, in_rec),
                self.term(depth - 1, scope, weak, in_rec),
            )
        if kind == "conj":
            inner = replace(path, in_conj=True)
            return Conj(
                self.term(depth - 1, scope, inner, in_rec),
                self.term(depth - 1, scope, inner, in_rec),
            )
        if kind == "par":
            sync = frozenset(
                a for a in ALPHABET if self.rng.random() < 0.4
            )
            return Parallel(
                sync,
                self.term(depth - 1, scope, path, in_rec),
                self.term(depth - 1, scope, path, in_rec),
            )
        # recursion: bound variables start unguarded and may only be placed
        # after the path passes a guard, so the specification is guarded by
        # construction
        nvars = 2 if self.rng.random() < 0.15 else 1
        names = [self.fresh_var() for _ in range(nvars)]
        inner_scope = dict(scope)
        for name in names:
            inner_scope[name] = "guarded"
        body_depth = min(depth - 1, 3)
        fresh_path = _Path(in_conj=path.in_conj)
        equations = {
            name: self.term(body_depth, inner_scope, fresh_path, True)
            for name in names
        }
        return Rec(names[0], RecSpec(equations))


_PROBE_LIMITS = BuildLimits(max_states=800)
_GROWTH_STATES = 20  # the states the growth check explores at most
_STATIC = (ExtChoice, Conj, Parallel)  # the operators an internal move lifts through


def _grows_unboundedly(t: Term) -> bool:
    """Whether the first ``_GROWTH_STATES`` states of ``t``'s graph, explored
    breadth first, prove the graph infinite: a pumping argument in the style
    of Karp and Miller ("Parallel program schemata", JCSS 1969) and of
    Finkel and Schnoebelen ("Well-structured transition systems
    everywhere!", TCS 2001).  False means no answer, never "finite".

    The pattern.  A new state ``u``, larger than its parent, has an ancestor
    ``v`` on its parent chain, and ``w`` is the actions from ``v`` to ``u``.
    The common context E descends from ``(v, u)`` through ``[]``, ``/\\``
    and ``|[S]|`` nodes while the operator and the sync set agree and exactly
    one operand differs; it ends at ``s0`` in ``v`` and ``s1 != s0`` in
    ``u``.  Growth: (i) ``s1 = C[s0]`` for a proper context C whose hole sits
    under operands of ``[]``, ``/\\`` and ``|[S]|`` only, or (ii) ``s1`` is
    a tree of ``/\\`` whose leaves are all ``s0``.  Lifting: ``w`` is all
    ``tau``, or every node on E's path (and on C's, in case (i)) is a
    ``|[S]|`` whose S holds no action of ``w`` and whose other operand has no
    internal move.

    Why it is sound.  Internal moves lift through any operand of ``[]``,
    ``/\\`` or ``|[S]|``: the ``*-int-*`` rules have positive premises only.
    Under the lifting condition, each move of the path from ``E[s0]`` to
    ``E[s1]`` moves one operand of each E node (``par-sync`` needs an action
    of S), so the moves of the hole's side form a path ``s0 --w'--> s1``
    with ``w'`` a subsequence of ``w``.  A visible move lifts through
    ``|[S]|`` when S lacks its action and the other operand has no internal
    move (``par-vis-*``), so in case (i) ``C^n[s0] --w'--> C^(n+1)[s0]``.
    In case (ii) copies of one term under ``/\\`` replay ``w'`` in lockstep:
    each copy's internal moves one at a time (``conj-int-*``), and each
    visible move at once (``conj-sync``), every conjunct then having visible
    moves only by the purity lemma.  Lifting ``w'`` back through E, every
    ``E[C^n[s0]]``, or in case (ii) E over the n-fold nesting of the tree,
    is reachable from ``v``; sizes grow strictly, so these are distinct.  The
    graph is therefore infinite, and a build under any finite state bound,
    the probe's or the default one, cannot finish: it exceeds that bound.

    Each step ends by the guard check and ``terms.StratRank``.  Sizes are
    degrees, computed over the distinct nodes, and so are the searches, so
    doubling terms such as ``R /\\ R`` cost linear time.
    """
    memo: dict = {}
    sizes: dict[Term, int] = {}

    def moves(u: Term):
        return _closed_step(u, memo)

    def size(u: Term) -> int:
        return _degree(u, sizes)

    def lifts(node: Term, other: Term, visible: set[str]) -> bool:
        """A path with these visible actions lifts through ``node``'s operand
        beside ``other``."""
        if not visible:
            return type(node) in _STATIC
        return (
            type(node) is Parallel
            and not node.sync & visible
            and not any(a == TAU for a, _ in moves(other))
        )

    def contains(s1: Term, s0: Term, visible: set[str]) -> bool:
        """Case (i): ``s0`` sits in ``s1`` under liftable operands only."""
        floor, seen, todo = size(s0), {s1}, [s1]
        while todo:
            n = todo.pop()
            if type(n) not in _STATIC:
                continue
            for c, other in ((n.left, n.right), (n.right, n.left)):
                if not lifts(n, other, visible):
                    continue
                if c is s0:
                    return True
                if c not in seen and size(c) > floor:
                    seen.add(c)
                    todo.append(c)
        return False

    def conj_tree(s1: Term, s0: Term) -> bool:
        """Case (ii): ``s1`` is a tree of conjunctions over copies of ``s0``."""
        seen, todo = set(), [s1]
        while todo:
            n = todo.pop()
            if n is s0 or n in seen:
                continue
            if type(n) is not Conj:
                return False
            seen.add(n)
            todo += (n.left, n.right)
        return True

    def pumps(v: Term, u: Term, visible: set[str]) -> bool:
        """The pattern, for the path from ``v`` to ``u`` with these visible
        actions."""
        x, y, path = v, u, []
        while type(x) is type(y) and type(x) in _STATIC and (
            type(x) is not Parallel or x.sync == y.sync
        ):
            if x.left is y.left and x.right is not y.right:
                path.append((x, x.left))
                x, y = x.right, y.right
            elif x.right is y.right and x.left is not y.left:
                path.append((x, x.right))
                x, y = x.left, y.left
            else:
                break
        if size(y) <= size(x) or not all(lifts(n, o, visible) for n, o in path):
            return False
        return contains(y, x, visible) or conj_tree(y, x)

    parent: dict[Term, tuple[Term, str] | None] = {t: None}
    todo = deque([t])
    while todo:
        p = todo.popleft()
        for a, u in moves(p):
            if u in parent:
                continue
            parent[u] = (p, a)
            if size(u) > size(p):
                v, visible = u, set()
                while parent[v] is not None:
                    v, b = parent[v]
                    if b != TAU:
                        visible.add(b)
                    if pumps(v, u, visible):
                        return True
            if len(parent) >= _GROWTH_STATES:
                return False
            todo.append(u)
    return False


def _fits(t: Term) -> Lts | None:
    """The graph of ``t`` if it builds within the small probe bound, else
    None.  The growth check rejects first what it proves unbounded; the
    bounded build decides the rest.  A build the bounds did not cut short is
    the default build; with the default limits set back on it, the graph
    equals what ``build_lts(t)`` builds, limits included."""
    if _grows_unboundedly(t):
        return None
    try:
        lts = build_lts(t, _PROBE_LIMITS)
    except StateBoundExceeded:
        return None
    lts.limits = BuildLimits()
    return lts


def _resampled(draw, close, fallback: Term) -> tuple[Term, Lts]:
    """The first of up to 20 ``draw()`` candidates whose term ``close(c)``
    fits the probe bound, with that graph, else ``fallback`` with its own:
    unbounded state spaces are resampled deterministically."""
    for _ in range(20):
        candidate = draw()
        lts = _fits(close(candidate))
        if lts is not None:
            return candidate, lts
    return fallback, _fits(close(fallback))


def _probed_trial(config: GenConfig, trial: int, depth: int) -> tuple[Term, Lts]:
    """The trial's generated term, resampled until its graph fits the probe
    bound, with its graph as ``build_lts`` builds it."""
    gen = _Gen(_trial_rng(config, trial), config)
    return _resampled(
        lambda: normalize(gen.term(depth, {}, _Path())), lambda t: t, Prefix(ALPHABET[0], Nil())
    )


def _gen_term_trial(config: GenConfig, trial: int, depth: int | None = None) -> Term:
    return _probed_trial(config, trial, depth or config.max_depth)[0]


def gen_context(config: GenConfig, trial: int) -> Term:
    """A term with the free variable ``HOLE`` as its hole (at least once)."""
    gen = _Gen(_trial_rng(config, trial), config)
    t = gen.term(config.max_depth, {HOLE: "anywhere"}, _Path())
    if HOLE not in free_vars(t):
        t = ExtChoice(t, Prefix(gen.rng.choice(ALPHABET), Var(HOLE)))
    return normalize(t)


def gen_equation_body(
    config: GenConfig, trial: int, var: str, conj_scope: bool = False
) -> Term:
    """A body for a single-variable equation; occurrences of ``var`` sit under
    a visible prefix and (unless ``conj_scope``) outside every conjunction.
    The resulting recursion is probed to build within a small bound."""
    return _probed_equation(config, trial, var, conj_scope)[0]


def _probed_equation(
    config: GenConfig, trial: int, var: str, conj_scope: bool
) -> tuple[Term, Lts]:
    """``gen_equation_body``'s body, with its recursion's graph as
    ``build_lts`` builds it."""
    gen = _Gen(_trial_rng(config, trial), config)
    req = "guarded" if conj_scope else "strong-no-conj"

    def draw() -> Term:
        body = gen.term(config.max_depth, {var: req}, _Path(), in_rec=True)
        if var not in free_vars(body):
            graft = Prefix(gen.rng.choice(ALPHABET), Var(var))
            body = Conj(body, graft) if conj_scope else ExtChoice(body, graft)
        return body

    return _resampled(
        draw, lambda body: normalize(Rec(var, RecSpec({var: body}))), Prefix(ALPHABET[0], Var(var))
    )


# ---------------------------------------------------------------------------
# shrinking


def _replace_positions(t: Term) -> list[Term]:
    """Candidates with one subterm replaced by deadlock, or one recursion with
    an equation dropped that no other equation names, in pre-order."""

    def leave(t: Term, values: list[list[Term]]) -> list[Term]:
        own = [] if isinstance(t, Nil) else [Nil()]
        if isinstance(t, Rec):
            for name, _ in t.spec.equations:
                remaining = {n: b for n, b in t.spec.equations if n != name}
                if name != t.var and all(name not in free_vars(b) for b in remaining.values()):
                    own.append(Rec(t.var, RecSpec(remaining)))
        return own + _variants(t, values)

    return _walk(t, None, _into_subterms, leave)


def shrink_term(t: Term, still_fails) -> Term:
    """Greedy minimisation: keep any deadlock-replacement or equation drop
    that preserves the failure.  ``still_fails`` handles its own errors: one
    it raises ends the search."""
    changed = True
    while changed:
        changed = False
        for candidate in _replace_positions(t):
            if candidate != t and still_fails(candidate):
                t = candidate
                changed = True
                break
    return t


# ---------------------------------------------------------------------------
# brute-force oracles


def inconsistent_fixpoint_naive(lts: Lts) -> frozenset[int]:
    """Independent evaluation of the inconsistency rules: saturate from the
    empty set, rescanning every state each round."""
    n = len(lts.terms)
    shapes = lts.shapes()
    F: set[int] = set()

    def fires(i: int) -> bool:
        shape = shapes[i]
        kind = shape[0]
        if kind == "bottom":
            return True
        if kind == "prefix":
            return shape[1] in F
        if kind == "disj":
            return shape[1] in F and shape[2] in F
        if kind in ("choice", "par"):
            return shape[1] in F or shape[2] in F
        if kind == "conj":
            if shape[1] in F or shape[2] in F:
                return True
            if lts.stable[i] and lts.visible_ready(shape[1]) != lts.visible_ready(
                shape[2]
            ):
                return True
            by_action: dict[str, list[int]] = {}
            for a, j in lts.transitions[i]:
                by_action.setdefault(a, []).append(j)
            if any(all(j in F for j in js) for js in by_action.values()):
                return True
            return all(j in F for j in lts.stable_tau_descendants(i))
        if kind == "rec":
            if shape[1] in F:
                return True
            return all(j in F for j in lts.stable_tau_descendants(i))
        return False

    changed = True
    while changed:
        changed = False
        for i in range(n):
            if i not in F and fires(i):
                F.add(i)
                changed = True
    return frozenset(F)


def enumerate_stable_sim_pairs(lts: Lts, max_subsets: int = 4096):
    """Union of all stable ready simulations, found by exhaustive enumeration
    of candidate relations.  Returns None when the search space exceeds
    ``max_subsets``."""
    stable_ids = [i for i in range(len(lts.terms)) if lts.stable[i]]
    F = lts.inconsistent

    def weak(i):
        out = {}
        for a in sorted(lts.visible_ready(i)):
            targets = weak_visible_step(lts, i, a)
            if targets:
                out[a] = targets
        return out

    weak_map = {i: weak(i) for i in stable_ids}
    base = []
    for p, q in product(stable_ids, stable_ids):
        if F[p]:
            base.append((p, q))
        elif not F[q] and lts.ready(p) == lts.ready(q):
            base.append((p, q))

    def obligations(p):
        if F[p]:
            return []
        return [(a, p2) for a, ts in weak_map[p].items() for p2 in sorted(ts)]

    always = [pair for pair in base if not obligations(pair[0])]
    active = [pair for pair in base if obligations(pair[0])]
    if 2 ** len(active) > max_subsets:
        return None

    always_set = frozenset(always)
    union: set[tuple[int, int]] = set(always)

    def is_simulation(rel: frozenset[tuple[int, int]]) -> bool:
        for p, q in rel:
            if F[p]:
                continue
            for a, ts in weak_map[p].items():
                q_targets = weak_map[q].get(a, frozenset())
                for p2 in ts:
                    if not any((p2, q2) in rel for q2 in q_targets):
                        return False
        return True

    for mask in range(2 ** len(active)):
        chosen = frozenset(
            active[k] for k in range(len(active)) if mask & (1 << k)
        )
        if chosen <= union:
            continue
        if is_simulation(always_set | chosen):
            union |= chosen
    return frozenset(union)


# ---------------------------------------------------------------------------
# theorem checks


def _run(theorem: str, seed: int | None, trials: int, trial) -> TheoremReport:
    """Run ``trial(report, k)`` for each trial index ``k``.  A trial whose
    graph exceeds the state bound is skipped as ``(k, "state-bound")``,
    keeping any failure it recorded before the build that raised.  Each
    failure a trial records is marked with ``seed`` and ``k``: the check run
    at that seed with the same trial count records it again at trial ``k``."""
    report = TheoremReport(theorem)
    for k in range(trials):
        report.trials += 1
        first = len(report.failures)
        try:
            trial(report, k)
        except StateBoundExceeded:
            report.skip(k, "state-bound")
        report.failures[first:] = [
            f._replace(seed=seed, trial=k) for f in report.failures[first:]
        ]
    return report


def check_model_laws(config: GenConfig, trials: int = 200) -> TheoremReport:
    """Every generated term builds a graph that is internally-pure, satisfies
    both closure conditions of the inconsistency predicate, propagates
    inconsistency forward over internal moves, and obeys the compositional
    inconsistency laws.  Failures carry the term greedily shrunk."""

    def trial(report: TheoremReport, k: int) -> None:
        t, lts = _probed_trial(config, k, config.max_depth)
        v = validate_llts(lts)
        if not v.ok:
            report.fail([t], v.counterexamples[:3], "all model validators hold")
            return
        bad = consistency_law_violations(lts)
        if bad:

            def still_fails(s: Term) -> bool:
                try:
                    l2 = build_lts(s)
                except StateBoundExceeded:
                    return False
                return bool(consistency_law_violations(l2)) or not validate_llts(l2).ok

            small = shrink_term(t, still_fails)
            report.fail([small], bad[:3], "compositional inconsistency laws hold")

    return _run("model-laws", config.seed, trials, trial)


def check_f_laws(config: GenConfig, trials: int = 200) -> TheoremReport:
    """Compositional inconsistency laws on explicitly constructed pairs, each
    trial's flags read off one graph: a flag does not depend on the rest."""

    def trial(report: TheoremReport, k: int) -> None:
        p = _gen_term_trial(config, 2 * k, depth=max(2, config.max_depth - 1))
        q = _gen_term_trial(config, 2 * k + 1, depth=max(2, config.max_depth - 1))
        rng = _trial_rng(config, trials + k)
        a = rng.choice(ALPHABET)
        conj = Conj(p, q)
        composites = [
            Disj(p, q), ExtChoice(p, q), Parallel(frozenset(), p, q), Prefix(a, p), Prefix(TAU, p)
        ]
        lts = build_combined([p, q, conj, *composites])
        fp, fq, fc, *flags = (lts.inconsistent[i] for i in lts.roots)
        expected = (fp and fq, fp or fq, fp or fq, fp, fp)
        for composite, observed, expect in zip(composites, flags, expected):
            if observed != expect:
                report.fail([composite], observed, expect)
        # a conjunction with an inconsistent operand is inconsistent
        if (fp or fq) and not fc:
            report.fail([conj], False, True)
        # a recursion and its expansion agree
        lts = _probed_equation(config, 3 * trials + k, "RF", False)[1]
        shapes = lts.shapes()
        i = lts.roots[0]
        if lts.inconsistent[i] != lts.inconsistent[shapes[i][1]]:
            report.fail([lts.terms[i]], lts.inconsistent[i], lts.inconsistent[shapes[i][1]])

    return _run("f-laws", config.seed, trials, trial)


def check_unfolding_equiv(config: GenConfig, trials: int = 150) -> TheoremReport:
    """Expanding one recursion step preserves equivalence, and expansion
    commutes with single transitions in both directions."""

    def trial(report: TheoremReport, k: int) -> None:
        t = _gen_term_trial(config, k)
        t_moves = step(t)
        for s in unfold_one(t):
            if not equivalent(t, s):
                report.fail([t, s], "inequivalent", "expansion preserves equivalence")
                continue
            s_moves = step(s)
            for a, t2 in t_moves:
                if not any(
                    b == a and is_multi_unfolding(t2, s2) for b, s2 in s_moves
                ):
                    report.fail([t, s], f"unmatched {a} move", "forward matching")
                    break
            for a, s2 in s_moves:
                if not any(
                    b == a and is_multi_unfolding(t2, s2) for b, t2 in t_moves
                ):
                    report.fail([t, s], f"unmatched {a} move", "backward matching")
                    break

    return _run("unfolding", config.seed, trials, trial)


def check_coincidence(config: GenConfig, trials: int = 100) -> TheoremReport:
    """The two formulations of the refinement preorder agree."""

    def trial(report: TheoremReport, k: int) -> None:
        p = _gen_term_trial(config, 2 * k)
        q = _gen_term_trial(config, 2 * k + 1)
        direct = refines(p, q).holds
        alternative = alt_refines(p, q)
        if direct != alternative:
            report.fail([p, q], f"direct={direct}", f"alternative={alternative}")

    return _run("coincidence", config.seed, trials, trial)


def _true_pairs(config: GenConfig, trial: int) -> list[tuple[Term, Term]]:
    """Candidate refinement-law pairs; callers verify each with ``refines``."""
    p = _gen_term_trial(config, 3 * trial, depth=max(2, config.max_depth - 1))
    r = _gen_term_trial(config, 3 * trial + 1, depth=max(2, config.max_depth - 1))
    rng = _trial_rng(config, 3 * trial + 2)
    pairs = [
        (p, p),
        (p, Disj(p, r)),
        (Prefix(TAU, p), p),
        (p, Prefix(TAU, p)),
    ]
    expansions = unfold_one(p)
    if expansions:
        pairs.append((p, expansions[0]))
    rng.shuffle(pairs)
    return pairs


def check_precongruence(config: GenConfig, trials: int = 100) -> TheoremReport:
    """Verified refinement pairs stay related inside every generated context.

    Each trial takes the first of its seed law pairs (p, q) that ``refines``
    verifies, then tries up to five generated contexts C, in order, and
    checks that C[p] refines C[q] in the first whose graph builds within the
    default bounds; a trial with none is skipped.  An instance the growth
    check proves infinite is passed over before anything is built: its
    build could only exceed the state bound, so every trial decides on the
    same context as with the build."""

    def trial(report: TheoremReport, k: int) -> None:
        pairs = _true_pairs(config, k)
        pair = next(((p, q) for p, q in pairs if refines(p, q).holds), None)
        if pair is None:
            report.fail(
                [t for pq in pairs for t in pq][:2],
                "no seed law verified",
                "algebraic seed laws hold",
            )
            return
        p, q = pair
        for attempt in range(5):
            context = gen_context(config, 7_000_000 + 5 * k + attempt)
            lhs, rhs = substitute(context, {HOLE: p}), substitute(context, {HOLE: q})
            if _grows_unboundedly(lhs) or _grows_unboundedly(rhs):
                continue
            try:
                verdict = refines(lhs, rhs)
                break
            except StateBoundExceeded:
                continue  # resample a tamer context for this trial
        else:
            report.skip(k, "state-bound")
            return
        if not verdict.holds:
            report.fail(
                [context, p, q],
                verdict.counterexample.reason,
                "context preserves refinement",
            )

    return _run("precongruence", config.seed, trials, trial)


def check_operator_closure(config: GenConfig, trials: int = 60) -> TheoremReport:
    """Refinement is preserved operator-wise by choice, parallel, disjunction
    and conjunction."""

    def trial(report: TheoremReport, k: int) -> None:
        verified = list(islice(((p, q) for p, q in _true_pairs(config, k) if refines(p, q).holds), 2))
        if len(verified) < 2:
            report.skip(k, "no verified pairs")
            return
        (p, q), (s, r) = verified[0], verified[1]
        rng = _trial_rng(config, 9_000_000 + k)
        sync = frozenset(a for a in ALPHABET if rng.random() < 0.4)
        combos = [
            (ExtChoice(p, s), ExtChoice(q, r), "choice"),
            (Parallel(sync, p, s), Parallel(sync, q, r), "parallel"),
            (Disj(p, s), Disj(q, r), "disjunction"),
            (Conj(p, s), Conj(q, r), "conjunction"),
        ]
        for lhs, rhs, name in combos:
            if not refines(lhs, rhs).holds:
                report.fail([lhs, rhs], f"{name} not preserved", "closure holds")

    return _run("operator-closure", config.seed, trials, trial)


def check_conjunction_laws(config: GenConfig, trials: int = 80) -> TheoremReport:
    """A stable consistent process simulated by two others is simulated by
    their conjunction, which is itself consistent.  Each trial decides its
    three conjunctions on one graph with one simulation run."""
    applied = 0

    def trial(report: TheoremReport, k: int) -> None:
        nonlocal applied
        p = _gen_term_trial(config, 3 * k, depth=max(2, config.max_depth - 1))
        q = Disj(p, _gen_term_trial(config, 3 * k + 1, depth=2))
        conjs = [Conj(p, q), Conj(q, q), Conj(p, p)]
        lts = build_combined([p, *conjs])
        ip, *ics = lts.roots
        if not lts.stable[ip] or lts.inconsistent[ip]:
            return
        rel = largest_stable_sim(lts).pairs
        for conj, ic in zip(conjs, ics):
            if (ip, lts.index[conj.left]) in rel and (ip, lts.index[conj.right]) in rel:
                applied += 1
                if lts.inconsistent[ic]:
                    report.fail([p, conj], "conjunction inconsistent", "consistent")
                if not lts.stable[ic] or (ip, ic) not in rel:
                    report.fail([p, conj], "not simulated", "conjunction simulates")

    report = _run("conjunction", config.seed, trials, trial)
    report.notes.append(f"non-vacuous instances: {applied}")
    return report


def check_unique_solution(
    t_body: Term,
    x: str,
    candidates: list[Term] | None = None,
) -> TheoremReport:
    """For an equation body with the variable strongly guarded outside all
    conjunctions: the recursion is a fixed point, every consistent solution
    coincides with it, and consistent solutions exist exactly when the
    recursion itself is consistent.

    Unmet placement preconditions downgrade the outcomes to notes.
    """
    return _unique_solution(t_body, x, candidates, None)


def _unique_solution(
    t_body: Term, x: str, candidates: list[Term] | None, rec_lts: Lts | None
) -> TheoremReport:
    """``check_unique_solution``, reading the recursion's graph from
    ``rec_lts`` when given, else building it."""

    def trial(report: TheoremReport, k: int) -> None:
        status = variable_status(t_body, x)
        preconditions: list[str] = []
        if not status.strongly_guarded:
            preconditions.append("variable-not-strongly-guarded")
        if status.in_conjunction_scope:
            preconditions.append("variable-in-conjunction-scope")
        for p in preconditions:
            report.notes.append(f"precondition unmet: {p}")

        def record(inputs, observed, expected):
            if preconditions:
                report.notes.append(
                    f"informational: {[str(i) for i in inputs]} observed={observed} expected={expected}"
                )
            else:
                report.fail(inputs, observed, expected)

        rec = normalize(Rec(x, RecSpec({x: t_body})))
        fixed_point = equivalent(rec, substitute(t_body, {x: rec}))
        if not fixed_point:
            record([rec], "not a fixed point", "recursion solves its equation")
        lts = build_lts(rec) if rec_lts is None else rec_lts
        rec_consistent = not lts.inconsistent[lts.roots[0]]
        pool = list(candidates or [])
        expansions = unfold_one(rec)
        pool.extend(expansions[:1])
        for s in expansions[:1]:
            pool.extend(unfold_one(s)[:1])
        pool.append(Prefix(TAU, rec))
        solutions = 0
        for cand in pool:
            try:
                cl = build_lts(cand)
            except StateBoundExceeded:
                report.skip(k, "state-bound")
                continue
            if cl.inconsistent[cl.roots[0]]:
                continue  # inconsistent candidates are outside the hypothesis
            if not equivalent(cand, substitute(t_body, {x: cand})):
                continue  # not a solution of the equation
            solutions += 1
            if not equivalent(cand, rec):
                record([cand, rec], "distinct solutions", "solutions coincide")
        if solutions and not rec_consistent:
            record(
                [rec],
                "consistent solution exists but recursion inconsistent",
                "existence matches recursion consistency",
            )
        if rec_consistent and not fixed_point:
            record([rec], "no solution found", "recursion itself solves the equation")

    return _run("unique-solution", None, 1, trial)


def check_unique_solutions(config: GenConfig, trials: int = 40) -> TheoremReport:
    """Driver over generated equation bodies, plus ``trials // 8`` (at least
    one) informational bodies drawn with the variable allowed inside a
    conjunction.  Where it lands there, the outcomes are notes; a body that
    leaves it strongly guarded outside every conjunction meets the
    preconditions, and its failures are kept, each marked with the check's
    seed and the index ``50_000 + k`` its body was drawn at."""
    var = "RX"

    def trial(report: TheoremReport, k: int) -> None:
        body, lts = _probed_equation(config, k, var, False)
        sub = _unique_solution(body, var, None, lts)
        report.failures.extend(sub.failures)
        report.skipped.extend((k, reason) for _, reason in sub.skipped)

    report = _run("unique-solution", config.seed, trials, trial)
    for k in range(max(1, trials // 8)):
        body, lts = _probed_equation(config, 50_000 + k, var, True)
        sub = _unique_solution(body, var, None, lts)
        report.failures += [f._replace(seed=config.seed, trial=50_000 + k) for f in sub.failures]
        report.notes.extend(sub.notes)
    return report


def check_preorder(config: GenConfig, trials: int = 80) -> TheoremReport:
    """Reflexivity and transitivity of the refinement preorder."""
    transitive_hits = 0

    def trial(report: TheoremReport, k: int) -> None:
        nonlocal transitive_hits
        p = _gen_term_trial(config, 4 * k, depth=max(2, config.max_depth - 1))
        if not refines(p, p).holds:
            report.fail([p], "irreflexive", "refines(p, p)")
            return
        extra = _gen_term_trial(config, 4 * k + 1, depth=2)
        extra2 = _gen_term_trial(config, 4 * k + 2, depth=2)
        rng = _trial_rng(config, 4 * k + 3)
        chains = [
            (p, Disj(p, extra), Disj(Disj(p, extra), extra2)),
            (p, Prefix(TAU, p), Disj(Prefix(TAU, p), extra)),
            (p, extra, extra2),
        ]
        q, r, s = chains[rng.randrange(len(chains))]
        pq = refines(q, r).holds
        qr = refines(r, s).holds
        if pq and qr:
            transitive_hits += 1
            if not refines(q, s).holds:
                report.fail([q, r, s], "not transitive", "transitivity")

    report = _run("preorder", config.seed, trials, trial)
    report.notes.append(f"non-vacuous transitivity instances: {transitive_hits}")
    return report


def check_brute_force(config: GenConfig, trials: int = 60) -> TheoremReport:
    """The iterative simulation equals exhaustive relation enumeration on
    small graphs, and the worklist inconsistency fixpoint equals naive
    saturation on small universes."""
    report = TheoremReport("brute-force")
    small = replace(config, max_depth=min(config.max_depth, 3))
    sims = 0
    kleenes = 0
    k = 0
    budget = trials * 40
    while (sims < trials or kleenes < trials) and k < budget:
        k += 1
        p = _gen_term_trial(small, 2 * k, depth=3)
        q = _gen_term_trial(small, 2 * k + 1, depth=3)
        try:
            lts = build_combined([p, q])
        except StateBoundExceeded:
            continue
        if kleenes < trials and len(lts.terms) <= 30:
            kleenes += 1
            report.trials += 1
            naive = inconsistent_fixpoint_naive(lts)
            worklist = frozenset(
                i for i, f in enumerate(lts.inconsistent) if f
            )
            if naive != worklist:
                report.failures.append(
                    Failure((str(p), str(q)), sorted(naive), sorted(worklist), config.seed, k)
                )
        n_stable = sum(lts.stable)
        if sims < trials and n_stable <= 4:
            enumerated = enumerate_stable_sim_pairs(lts)
            if enumerated is None:
                continue
            sims += 1
            report.trials += 1
            iterative = largest_stable_sim(lts).pairs
            if enumerated != iterative:
                report.failures.append(
                    Failure((str(p), str(q)), sorted(enumerated), sorted(iterative), config.seed, k)
                )
    if sims < trials or kleenes < trials:
        report.skip(k, f"instances found: sims={sims} kleene={kleenes}")
    return report


def check_stratification(config: GenConfig, trials: int = 100) -> TheoremReport:
    """The rank discipline holds on every rule instance of generated graphs."""

    def trial(report: TheoremReport, k: int) -> None:
        t, lts = _probed_trial(config, k, config.max_depth)
        bad = stratification_violations(lts)
        if bad:
            inst, _, kind = bad[0]
            report.fail([t], f"{inst.rule}: {kind}", "rank discipline holds")

    return _run("stratification", config.seed, trials, trial)


ALL_CHECKS = {
    "model-laws": check_model_laws,
    "f-laws": check_f_laws,
    "unfolding": check_unfolding_equiv,
    "coincidence": check_coincidence,
    "precongruence": check_precongruence,
    "operator-closure": check_operator_closure,
    "conjunction": check_conjunction_laws,
    "unique-solution": check_unique_solutions,
    "preorder": check_preorder,
    "brute-force": check_brute_force,
    "stratification": check_stratification,
}


def run_checks(
    seed: int = 0, trials: int | None = None, only: str | None = None
) -> list[TheoremReport]:
    """Run the theorem suite with seed-derived trials; ``only`` selects one."""
    if trials is not None and trials < 1:
        raise ValueError(f"trial count must be at least 1: {trials}")
    if only is not None and only not in ALL_CHECKS:
        raise ValueError(f"unknown theorem id {only!r}")
    config = GenConfig(seed=seed)
    checks = ALL_CHECKS.values() if only is None else [ALL_CHECKS[only]]
    return [fn(config) if trials is None else fn(config, trials) for fn in checks]


def load_baseline(path: str) -> list[tuple[str, int, int]]:
    """Read a pinned-seed baseline: a JSON list of [theorem, seed, trials]."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, list):
        raise ValueError("a baseline is a JSON list of [theorem, seed, trials] rows")
    entries = []
    for row in doc:
        if not (isinstance(row, list) and len(row) == 3):
            raise ValueError(f"baseline row is not [theorem, seed, trials]: {row!r}")
        theorem, seed, trials = row
        if not isinstance(theorem, str) or theorem not in ALL_CHECKS:
            raise ValueError(f"unknown theorem id {theorem!r}")
        if type(seed) is not int or type(trials) is not int:
            raise ValueError(f"baseline seed or trials not an integer: {row!r}")
        if trials < 1:
            raise ValueError(f"baseline trial count must be at least 1: {row!r}")
        entries.append((theorem, seed, trials))
    return entries


def run_baseline(entries: list[tuple[str, int, int]]) -> list[TheoremReport]:
    """Run each pinned (theorem, seed, trials) entry; the regression baseline
    passes when every report has zero failures and zero skips."""
    return [
        ALL_CHECKS[theorem](GenConfig(seed=seed), trials)
        for theorem, seed, trials in entries
    ]
