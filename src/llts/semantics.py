"""Operational semantics: the rule table, one-step transitions, bounded
graph construction, the inconsistency predicate as a least fixpoint, and
model validators.

The rule table ``RULES`` writes each transition and inconsistency rule once,
one entry per operator.  ``step`` reads its transition rules,
``compute_inconsistent`` its inconsistency rules as Horn clauses, and
``used_rule_instances`` both, with their premises.  ``step`` applies the rules
bottom-up on the explicit-stack walk ``terms._walk``, so the depth of a term
is no limit, or straight away to a term whose premise sources' moves are
already known.  Both paths find premise sources in one function, which
checks a recursion's equations guarded from their recorded facts, so by
``terms.StratRank`` every chain of recursion expansions ends.

Internal moves take precedence over visible ones: a composition offers a
visible action only while the blocking operand has no internal move.  Since
every internal-move rule has positive premises only, transitions are computed
internal-first and the "no internal move" side conditions are read off the
finished operand results.

Purity lemma: every term's moves are all internal or all visible.  A prefix
has one move and a disjunction two internal ones; a choice, conjunction or
parallel composition with an operand that moves internally has only the
internal moves of its operands, and otherwise only visible ones; a recursion
has its expansion's moves.  So the rules for ``[]``, ``/\\`` and ``|[..]|``
read whether an operand moves internally off its first move (``_internal``),
and pass a stable operand's move tuple on whole.  Only the rules rely on the
lemma: ``Lts`` also holds hand-made graphs, which need not satisfy it.

Choice chains: ``step`` walks a maximal chain of ``[]`` nodes not stepped
before as one node whose children are the chain's leaves.  By the lemma, a
node of the chain moves internally exactly when one of its leaves does.  When
none does, the chain's moves are its leaves' moves joined left to right,
first occurrences kept, and no nested node gets a move tuple: at each node
``choice-vis-left`` and ``choice-vis-right`` join the two operands' moves in
that order, and keeping first occurrences at every level keeps them of the
whole.  When one does, the table's ``[]`` rule is applied to each node of the
chain bottom-up, so the internal rules stay written once.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

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
    Term,
    _walk,
    first_guard_violation,
    free_vars,
    is_visible,
    operands,
    rank_inconsistent,
    rank_transition,
    unfold_rec,
)

DEFAULT_MAX_STATES = 10_000


@dataclass(frozen=True)
class BuildLimits:
    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self):
        if self.max_states <= 0:
            raise ValueError("limits must be positive")


class StateBoundExceeded(RuntimeError):
    """Exploration needed more states than the configured bound allows."""

    def __init__(self, count: int):
        super().__init__(f"state bound exceeded at {count} terms")
        self.count = count


# ---------------------------------------------------------------------------
# the rule table: the calculus, written once, one entry per operator
#
# ``moves(t, moves_of)`` applies the transition rules to ``t``, given
# ``moves_of(u)``, the moves of a premise source ``u``.  It returns one
# ``(rule, premises, moves)`` batch per rule, in the order ``step`` lists
# moves.  ``premises(t, a, s)`` rebuilds the positive and negated premise
# literals of the move ``t --a--> s``; only ``used_rule_instances`` asks.
#
# ``clauses(lts, i, shape)`` gives the inconsistency rules for state ``i`` as
# Horn clauses ``(rule, needs, positive, negative)``: ``i`` is inconsistent
# once every id in ``needs`` is.  ``positive`` and ``negative`` are the
# transition literals the rule also reads; the graph satisfies them wherever
# the clause is listed.  Literals are those of ``RuleInstance``.


def _none(*_):
    return ()


def _axiom(t, a, s):
    return (), ()


def _int_left(t, a, s):
    return (("t", t.left, TAU, s.left),), ()


def _int_right(t, a, s):
    return (("t", t.right, TAU, s.right),), ()


def _sync(t, a, s):
    return (("t", t.left, a, s.left), ("t", t.right, a, s.right)), ()


def _choice_vis_left(t, a, s):
    return (("t", t.left, a, s),), (("nt", t.right, TAU),)


def _choice_vis_right(t, a, s):
    return (("t", t.right, a, s),), (("nt", t.left, TAU),)


def _par_vis_left(t, a, s):
    return (("t", t.left, a, s.left),), (("nt", t.right, TAU),)


def _par_vis_right(t, a, s):
    return (("t", t.right, a, s.right),), (("nt", t.left, TAU),)


def _unfold(t, a, s):
    return (("t", unfold_rec(t), a, s),), ()


def _prefix_moves(t, moves_of):
    return (("prefix", _axiom, ((t.action, t.body),)),)


def _disj_moves(t, moves_of):
    return (
        ("disj-left", _axiom, ((TAU, t.left),)),
        ("disj-right", _axiom, ((TAU, t.right),)),
    )


def _internal(moves) -> bool:
    """Whether a term with these moves moves internally.  Its moves are all
    internal or all visible (module docstring), so the first one decides."""
    return bool(moves) and moves[0][0] == TAU


def _choice_moves(t, moves_of):
    l, r = t.left, t.right
    lt, rt = moves_of(l), moves_of(r)
    int_l = [(TAU, ExtChoice(s, r)) for _, s in lt] if _internal(lt) else ()
    int_r = [(TAU, ExtChoice(l, s)) for _, s in rt] if _internal(rt) else ()
    out = [("choice-int-left", _int_left, int_l), ("choice-int-right", _int_right, int_r)]
    if not int_r:
        out.append(("choice-vis-left", _choice_vis_left, () if int_l else lt))
    if not int_l:
        out.append(("choice-vis-right", _choice_vis_right, () if int_r else rt))
    return out


def _conj_moves(t, moves_of):
    l, r = t.left, t.right
    lt, rt = moves_of(l), moves_of(r)
    int_l = [(TAU, Conj(s, r)) for _, s in lt] if _internal(lt) else ()
    int_r = [(TAU, Conj(l, s)) for _, s in rt] if _internal(rt) else ()
    both = () if int_l or int_r else [
        (a, Conj(s1, s2)) for a, s1 in lt for b, s2 in rt if b == a
    ]
    return (
        ("conj-int-left", _int_left, int_l),
        ("conj-int-right", _int_right, int_r),
        ("conj-sync", _sync, both),
    )


def _par_moves(t, moves_of):
    sync, l, r = t.sync, t.left, t.right
    lt, rt = moves_of(l), moves_of(r)
    int_l = [(TAU, Parallel(sync, s, r)) for _, s in lt] if _internal(lt) else ()
    int_r = [(TAU, Parallel(sync, l, s)) for _, s in rt] if _internal(rt) else ()
    out = [("par-int-left", _int_left, int_l), ("par-int-right", _int_right, int_r)]
    if not int_r:
        vis = () if int_l else [(a, Parallel(sync, s, r)) for a, s in lt if a not in sync]
        out.append(("par-vis-left", _par_vis_left, vis))
    if not int_l:
        vis = () if int_r else [(a, Parallel(sync, l, s)) for a, s in rt if a not in sync]
        out.append(("par-vis-right", _par_vis_right, vis))
    both = () if int_l or int_r else [
        (a, Parallel(sync, s1, s2))
        for a, s1 in lt
        if a in sync
        for b, s2 in rt
        if b == a
    ]
    out.append(("par-sync", _sync, both))
    return out


def _rec_moves(t, moves_of):
    return (("rec-unfold", _unfold, moves_of(unfold_rec(t))),)


def _bottom_clauses(lts, i, shape):
    return (("inconsistent-bottom", (), (), ()),)


def _prefix_clauses(lts, i, shape):
    return (("inconsistent-prefix", (shape[1],), (), ()),)


def _disj_clauses(lts, i, shape):
    return (("inconsistent-disj", (shape[1], shape[2]), (), ()),)


def _choice_clauses(lts, i, shape):
    return (
        ("inconsistent-choice-operand", (shape[1],), (), ()),
        ("inconsistent-choice-operand", (shape[2],), (), ()),
    )


def _par_clauses(lts, i, shape):
    return (
        ("inconsistent-par-operand", (shape[1],), (), ()),
        ("inconsistent-par-operand", (shape[2],), (), ()),
    )


def _conj_clauses(lts, i, shape):
    """Either conjunct inconsistent; a stable conjunction whose conjuncts
    disagree on a visible action; every derivative under one action
    inconsistent; every stable internal-move descendant inconsistent
    (vacuously so when divergence leaves none)."""
    terms, transitions = lts.terms, lts.transitions
    t, l, r = terms[i], shape[1], shape[2]
    out = [
        ("inconsistent-conj-operand", (l,), (), ()),
        ("inconsistent-conj-operand", (r,), (), ()),
    ]
    if lts.stable[i]:
        vl, vr = lts.visible_ready(l), lts.visible_ready(r)
        for x, y, only_x in ((l, r, vl - vr), (r, l, vr - vl)):
            for a in sorted(only_x):
                w = next(j for b, j in transitions[x] if b == a)
                positive = (("t", terms[x], a, terms[w]),)
                negative = (("nt", terms[y], a), ("nt", t, TAU))
                out.append(("conj-ready-mismatch", (), positive, negative))
    by_action: dict[str, list[int]] = {}
    for a, j in transitions[i]:
        by_action.setdefault(a, []).append(j)
    for a, targets in sorted(by_action.items()):
        positive = (("t", t, a, terms[targets[0]]),)
        out.append(("conj-doomed-derivatives", sorted(targets), positive, ()))
    sd = sorted(lts.stable_tau_descendants(i))
    out.append(("conj-doomed-descendants", sd, (), ()))
    return out


def _rec_clauses(lts, i, shape):
    """Every stable internal-move descendant inconsistent; the expansion
    inconsistent."""
    sd = sorted(lts.stable_tau_descendants(i))
    return (
        ("rec-doomed-descendants", sd, (), ()),
        ("inconsistent-rec", (shape[1],), (), ()),
    )


# The kind tags of ``Lts.shapes``.
_KIND: dict[type, str] = {
    Nil: "nil",
    Bottom: "bottom",
    Prefix: "prefix",
    ExtChoice: "choice",
    Disj: "disj",
    Conj: "conj",
    Parallel: "par",
    Rec: "rec",
}


class OperatorRules(NamedTuple):
    moves: Callable
    clauses: Callable


RULES: dict[type, OperatorRules] = {
    Nil: OperatorRules(_none, _none),
    Bottom: OperatorRules(_none, _bottom_clauses),
    Prefix: OperatorRules(_prefix_moves, _prefix_clauses),
    Disj: OperatorRules(_disj_moves, _disj_clauses),
    ExtChoice: OperatorRules(_choice_moves, _choice_clauses),
    Conj: OperatorRules(_conj_moves, _conj_clauses),
    Parallel: OperatorRules(_par_moves, _par_clauses),
    Rec: OperatorRules(_rec_moves, _rec_clauses),
}


def step(t: Term) -> list[tuple[str, Term]]:
    """All one-step transitions of a closed term, internal moves first;
    ``GuardednessError`` on a recursion met whose equations are unguarded."""
    _check_closed(t)
    return list(_closed_step(t, {}))


def _check_closed(t: Term) -> None:
    if free_vars(t):
        raise ValueError(f"only closed terms have a transition graph: {t}")


def _premise_sources(t: Term) -> tuple[Term, ...]:
    """The terms whose moves ``t``'s transition rules read: a recursion's
    expansion, or a composition's operands; a prefix or disjunction reads
    none.  A recursion is checked guarded first, off its recorded facts."""
    if type(t) is Rec:
        violation = first_guard_violation(t.spec)
        if violation is not None:
            raise GuardednessError(*violation)
    return () if type(t) in (Prefix, Disj) else support_children(t)


def _closed_step(t: Term, memo: dict) -> tuple[tuple[str, Term], ...]:
    """``step`` on a term known to be closed.  ``memo`` maps the terms
    stepped so far to their moves, and may be shared across calls.

    When the moves of every premise source of ``t`` are in ``memo``, the
    rule table is applied to ``t`` straight away: in a build, most terms are
    stepped after their operands.  Otherwise the premise sources are stepped
    bottom-up on ``_walk``, which ends by the argument of ``terms.StratRank``.
    Both paths read them off ``_premise_sources``, which checks recursions."""
    cached = memo.get(t)
    if cached is not None:
        return cached
    if all(map(memo.__contains__, _premise_sources(t))):
        return _apply_rules(t, memo)

    # A known term is a leaf.  A choice is walked as its whole chain, whose
    # head is the chain's nodes.
    def enter(t: Term, _):
        cached = memo.get(t)
        if cached is not None:
            return cached, None, None
        if type(t) is ExtChoice:
            return _choice_chain(t, memo)
        return t, _premise_sources(t), None

    def leave(head, values) -> tuple[tuple[str, Term], ...]:
        if type(head) is not list:
            return _apply_rules(head, memo)
        # a choice chain: ``head`` its nodes, ``values`` its leaves' moves
        if any(map(_internal, values)):
            for u in head:
                _apply_rules(u, memo)
            return memo[head[-1]]
        out = memo[head[-1]] = tuple(dict.fromkeys(chain.from_iterable(values)))
        return out

    return _walk(t, None, enter, leave)


def _apply_rules(t: Term, memo: dict) -> tuple[tuple[str, Term], ...]:
    """``t``'s moves by the rule table, its premise sources' moves in
    ``memo``; stored there."""
    rules = RULES.get(type(t))
    if rules is None:
        raise TypeError(f"not a term: {t!r}")
    moves: list[tuple[str, Term]] = []
    for _, _, batch in rules.moves(t, memo.__getitem__):
        moves += batch
    out = memo[t] = tuple(dict.fromkeys(moves))  # first occurrences, in order
    return out


def _choice_chain(t: ExtChoice, memo: dict):
    """The maximal chain of choices below ``t`` not in ``memo``, as a walk
    step: its distinct nodes bottom-up, then its distinct leaves left to
    right.  A node or leaf met again adds no move, so it is skipped."""
    nodes: list[ExtChoice] = []
    leaves: dict[Term, None] = {}
    seen = {t}
    path = [(t, iter((t.left, t.right)))]
    while path:
        u, todo = path[-1]
        for c in todo:
            if type(c) is not ExtChoice or c in memo:
                leaves[c] = None
            elif c not in seen:
                seen.add(c)
                path.append((c, iter((c.left, c.right))))
                break
        else:
            path.pop()
            nodes.append(u)
    return nodes, list(leaves), None


class _Unstored(tuple):
    __slots__ = ()


# The ``transitions`` entry of a support-only term, whose moves no rule reads.
# It is empty like a deadlock's ``()``, and told apart from it by identity.
UNSTORED = _Unstored()


class Lts:
    """A finite transition graph over structurally distinct closed terms.

    ``terms`` is the support universe, and indices into it identify terms.
    It holds the states, whose moves are stored, and the support-only terms,
    whose ``transitions`` entry is ``UNSTORED``.  The states are closed under
    moves; ``build_combined`` says which terms it makes states.  Every term's
    operands and recursion expansion are in the universe, since the
    inconsistency predicate reads their flags.

    ``stable`` reads every move of a state, not its first: the validators
    take hand-made graphs that break the purity lemma, and a state with both
    kinds of move must not count as stable there.  A support-only term is not
    stable.

    ``shapes`` gives each term's kind and the ids of its operands or
    expansion.  ``build_combined`` records them as it adds those children and
    passes them in; on a graph made by hand they are read off the terms when
    first asked for.
    """

    __slots__ = (
        "terms",
        "index",
        "roots",
        "transitions",
        "stable",
        "inconsistent",
        "reachable",
        "limits",
        "_shape",
        "_csd",
        "_std",
    )

    def __init__(self, terms, index, roots, transitions, limits, shapes=None):
        self.terms: list[Term] = terms
        self.index: dict[Term, int] = index
        self.roots: list[int] = roots
        self.transitions: list[tuple[tuple[str, int], ...]] = transitions
        self.limits: BuildLimits = limits
        self.stable: list[bool] = [
            succ is not UNSTORED and TAU not in dict(succ) for succ in transitions
        ]
        self.inconsistent: list[bool] = [False] * len(terms)
        self.reachable: list[bool] = self._compute_reachable()
        self._shape = shapes
        self._csd = None
        self._std: list[frozenset[int] | None] = [None] * len(terms)

    def _compute_reachable(self) -> list[bool]:
        seen = [False] * len(self.terms)
        todo = deque(self.roots)
        for r in self.roots:
            seen[r] = True
        while todo:
            i = todo.popleft()
            for _, j in self.transitions[i]:
                if not seen[j]:
                    seen[j] = True
                    todo.append(j)
        return seen

    @property
    def root(self) -> int:
        return self.roots[0]

    def state_ids(self) -> list[int]:
        return [i for i, r in enumerate(self.reachable) if r]

    def ready(self, i: int) -> frozenset[str]:
        return frozenset(a for a, _ in self.transitions[i])

    def visible_ready(self, i: int) -> frozenset[str]:
        return frozenset(a for a, _ in self.transitions[i] if a != TAU)

    # -- shape metadata used by the predicate rules -------------------------

    def shapes(self):
        """Per-term structural view: kind tag plus operand/expansion ids."""
        if self._shape is None:
            index = self.index
            self._shape = [
                (_KIND[type(t)], *[index[c] for c in support_children(t)])
                for t in self.terms
            ]
        return self._shape

    # -- descendant relations ------------------------------------------------

    def stable_tau_descendants(self, i: int) -> frozenset[int]:
        """Stable states reachable via internal moves, self included when
        stable.  No consistency requirement."""
        if self._std[i] is None:
            _fill_descendants(self, (i,), self._std)
        return self._std[i]

    def consistent_stable_descendants(self):
        """For every state, the stable consistent states reachable via
        internal moves through consistent states only; the empty set for a
        support-only term."""
        if self._csd is None:
            csd = [
                frozenset() if f or succ is UNSTORED else None
                for f, succ in zip(self.inconsistent, self.transitions)
            ]
            _fill_descendants(self, range(len(csd)), csd)
            self._csd = csd
        return self._csd


def _fill_descendants(lts: Lts, roots, out: list) -> None:
    """Set ``out[v]`` to the stable states ``v`` reaches by internal moves,
    for every state ``v`` the ``roots`` reach so, through states whose entry
    is still None.  A state already set is done: presetting a state to the
    empty set blocks every path through it.

    Tarjan's strongly connected components (SICOMP 1972) on an explicit
    stack, with one number per state as in Pearce (IPL 2016).  A stable state
    has no internal move, so it is done on sight, with itself alone.  A
    component is closed after every component it reaches, so its members
    share one set: the join of the sets of their successors outside it."""
    transitions, stable = lts.transitions, lts.stable
    # a state's entry number, lowered to the least one of an open state it
    # reaches; the open states are those entered whose component is not closed
    low: dict[int, int] = {}
    stack: list[int] = []  # the open states
    for root in roots:
        if out[root] is not None:
            continue
        if stable[root]:
            out[root] = frozenset((root,))
            continue
        low[root] = len(low)
        stack.append(root)
        # the depth-first path: each state with its unread moves and entry number
        work = [(root, iter(transitions[root]), low[root])]
        while work:
            v, moves, number = work[-1]
            for a, w in moves:
                if a != TAU or out[w] is not None:
                    continue
                if stable[w]:
                    out[w] = frozenset((w,))
                elif w not in low:
                    low[w] = len(low)
                    stack.append(w)
                    work.append((w, iter(transitions[w]), low[w]))
                    break
                elif low[w] < low[v]:  # ``w`` is open: in ``v``'s component
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] < number:  # ``v``'s component closes earlier on the path
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                    continue
                members = [stack.pop()]
                while members[-1] != v:
                    members.append(stack.pop())
                reached: set[int] = set()
                for m in members:
                    for a, k in transitions[m]:
                        if a == TAU and out[k] is not None:
                            reached |= out[k]
                shared = frozenset(reached)
                for m in members:
                    out[m] = shared


def support_children(t: Term) -> tuple[Term, ...]:
    """Terms whose inconsistency status the predicate rules for ``t`` read."""
    if isinstance(t, Rec):
        return (unfold_rec(t),)
    return operands(t)


class _MovePairs(dict):
    """One stored pair ``(action, id)`` per distinct move ``(action, term)``
    of a build, shared by every state with that move.  Looking up a move not
    met before adds its target to the universe with ``add``."""

    def __init__(self, add: Callable[[Term], int]):
        self.add = add

    def __missing__(self, move: tuple[str, Term]) -> tuple[str, int]:
        pair = self[move] = (move[0], self.add(move[1]))
        return pair


def build_combined(roots: list[Term], limits: BuildLimits | None = None) -> Lts:
    """Explore the given closed terms into one shared graph.

    The universe is closed under operand subterms and recursion expansion,
    so the predicate rules can be evaluated on it.  Moves are stored for the
    states only: the closure under moves of the roots, of every conjunction
    and recursion and of each conjunction's operands, whose moves the
    conjunction and recursion rules read.  Every other term is support-only:
    the rules read its flag alone.  Terms are numbered breadth first, each
    one's operands or expansion before its move targets.
    """
    limits = limits or BuildLimits()
    index: dict[Term, int] = {}
    terms: list[Term] = []
    transitions: list = []  # None until the term is explored
    shapes: list = []  # ``Lts.shapes``, each set when its term is explored
    is_state: list[bool] = []
    todo: deque[int] = deque()

    def add(t: Term, state: bool = True) -> int:
        i = index.get(t)
        if i is None:
            if len(terms) >= limits.max_states:
                raise StateBoundExceeded(len(terms) + 1)
            i = len(terms)
            index[t] = i
            terms.append(t)
            transitions.append(None)
            shapes.append(None)
            is_state.append(state or type(t) in (Conj, Rec))
            todo.append(i)
        elif state and not is_state[i]:
            is_state[i] = True
            if transitions[i] is UNSTORED:  # explored as support-only: again
                transitions[i] = None
                todo.append(i)
        return i

    # Every term the exploration reaches from closed roots is closed, so
    # the roots alone are checked.
    for t in roots:
        _check_closed(t)
    root_ids = [add(t) for t in roots]
    step_memo: dict = {}
    pairs = _MovePairs(add)
    while todo:
        i = todo.popleft()
        t = terms[i]
        conj = type(t) is Conj
        shapes[i] = (_KIND[type(t)], *[add(c, conj) for c in support_children(t)])
        if is_state[i]:
            moves = _closed_step(t, step_memo)
            transitions[i] = tuple(map(pairs.__getitem__, moves))
        else:
            transitions[i] = UNSTORED

    lts = Lts(terms, index, root_ids, transitions, limits, shapes)
    compute_inconsistent(lts)
    return lts


def build_lts(p: Term, limits: BuildLimits | None = None) -> Lts:
    """Build the transition graph rooted at ``p`` with inconsistency flags."""
    return build_combined([p], limits)


def compute_inconsistent(lts: Lts) -> None:
    """Write the least fixpoint of the inconsistency rules over the universe
    into ``lts.inconsistent``, one flag per term id.

    Each rule of the table is a Horn clause on the state ids it needs; a
    clause counts its needs not yet inconsistent and fires at zero, so the
    saturation visits each need once.
    """
    n = len(lts.terms)
    shapes = lts.shapes()
    F = [False] * n
    pending: deque[int] = deque()
    heads: list[int] = []
    waiting: list[int] = []
    watchers: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(lts.terms):
        for _, needs, _, _ in RULES[type(t)].clauses(lts, i, shapes[i]):
            if not needs:
                if not F[i]:
                    F[i] = True
                    pending.append(i)
                continue
            c = len(heads)
            heads.append(i)
            waiting.append(len(needs))
            for j in needs:
                watchers[j].append(c)

    while pending:
        for c in watchers[pending.popleft()]:
            waiting[c] -= 1
            i = heads[c]
            if waiting[c] == 0 and not F[i]:
                F[i] = True
                pending.append(i)

    lts.inconsistent = F
    lts._csd = None  # consistency changed; invalidate derived relation


def weak_visible_step(lts: Lts, s: int, a: str) -> frozenset[int]:
    """Stable consistent states reachable as one consistent ``a``-move
    followed by consistent internal moves."""
    if not is_visible(a):
        raise ValueError("weak steps are indexed by visible actions")
    if lts.inconsistent[s]:
        return frozenset()
    csd = lts.consistent_stable_descendants()
    out: set[int] = set()
    for b, r in lts.transitions[s]:
        if b == a and not lts.inconsistent[r]:
            out |= csd[r]
    return frozenset(out)


@dataclass
class ValidationReport:
    """Outcome of the structural model checks on a built graph."""

    tau_pure: bool
    lts1: bool
    lts2: bool
    forward_tau_f: bool
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.tau_pure and self.lts1 and self.lts2 and self.forward_tau_f


def validate_llts(lts: Lts) -> ValidationReport:
    """Check every state for: internal/visible exclusivity; backward
    inconsistency propagation over fully inconsistent derivative sets; the
    existence of a consistent path to a stable consistent state; and forward
    inconsistency propagation along internal moves.  Support-only terms have
    no stored moves to check."""
    report = ValidationReport(True, True, True, True)
    csd = lts.consistent_stable_descendants()
    for i, succ in enumerate(lts.transitions):
        if succ is UNSTORED:
            continue
        has_tau = any(a == TAU for a, _ in succ)
        has_vis = any(a != TAU for a, _ in succ)
        if has_tau and has_vis:
            report.tau_pure = False
            report.counterexamples.append((str(lts.terms[i]), "tau-purity"))
        if not lts.inconsistent[i]:
            by_action: dict[str, list[int]] = {}
            for a, j in succ:
                by_action.setdefault(a, []).append(j)
            for a, targets in by_action.items():
                if all(lts.inconsistent[j] for j in targets):
                    report.lts1 = False
                    report.counterexamples.append((str(lts.terms[i]), "lts1"))
                    break
            if not csd[i]:
                report.lts2 = False
                report.counterexamples.append((str(lts.terms[i]), "lts2"))
        else:
            for a, j in succ:
                if a == TAU and not lts.inconsistent[j]:
                    report.forward_tau_f = False
                    report.counterexamples.append((str(lts.terms[i]), "forward-tau"))
                    break
    return report


def consistency_law_violations(lts: Lts) -> list[tuple[str, str]]:
    """Check the compositional laws of the inconsistency predicate on every
    universe term, and the doomed-descendants law on every state; returns
    (term, law) pairs that fail."""
    out: list[tuple[str, str]] = []
    shapes = lts.shapes()
    F = lts.inconsistent
    for i in range(len(lts.terms)):
        shape = shapes[i]
        kind = shape[0]
        if kind == "disj":
            if F[i] != (F[shape[1]] and F[shape[2]]):
                out.append((str(lts.terms[i]), "disjunction-needs-both"))
        elif kind == "prefix":
            if F[i] != F[shape[1]]:
                out.append((str(lts.terms[i]), "prefix-transparent"))
        elif kind in ("choice", "par"):
            if F[i] != (F[shape[1]] or F[shape[2]]):
                out.append((str(lts.terms[i]), "composition-either-operand"))
        elif kind == "conj":
            if (F[shape[1]] or F[shape[2]]) and not F[i]:
                out.append((str(lts.terms[i]), "conjunction-either-operand"))
        elif kind == "rec":
            if F[i] != F[shape[1]]:
                out.append((str(lts.terms[i]), "recursion-matches-expansion"))
        if lts.transitions[i] is UNSTORED:
            continue
        sd = lts.stable_tau_descendants(i)
        if all(F[j] for j in sd) and not F[i]:
            out.append((str(lts.terms[i]), "doomed-descendants"))
    return out


# ---------------------------------------------------------------------------
# rule instances and the stratification diagnostic


@dataclass(frozen=True)
class RuleInstance:
    """A ground rule application: conclusion plus its premise literals.

    Literals are tuples: ``("t", src, action, dst)`` for transitions,
    ``("f", term)`` for inconsistency, ``("nt", term, action)`` for the
    negated transition side conditions.
    """

    rule: str
    conclusion: tuple
    positive: tuple = ()
    negative: tuple = ()


def used_rule_instances(lts: Lts) -> list[RuleInstance]:
    """The ground rule applications justifying the moves of every universe
    term, support-only ones included, and every inconsistency flag of the
    built graph."""
    terms, shapes, F = lts.terms, lts.shapes(), lts.inconsistent
    # Every recursion in the universe is a state.  Seeded with the states'
    # stored moves, the memo holds every recursion's moves: none is unfolded
    # or checked guarded again, as each passed the check in the build.
    memo = {
        terms[i]: tuple((a, terms[j]) for a, j in succ)
        for i, succ in enumerate(lts.transitions)
        if succ is not UNSTORED
    }

    def moves_of(u: Term) -> tuple[tuple[str, Term], ...]:
        return _closed_step(u, memo)

    out: list[RuleInstance] = []
    for i, t in enumerate(terms):
        rules = RULES[type(t)]
        for rule, premises, moves in rules.moves(t, moves_of):
            for a, s in moves:
                positive, negative = premises(t, a, s)
                out.append(RuleInstance(rule, ("t", t, a, s), positive, negative))
        if not F[i]:
            continue
        for rule, needs, positive, negative in rules.clauses(lts, i, shapes[i]):
            if all(F[j] for j in needs):
                positive += tuple(("f", terms[j]) for j in needs)
                out.append(RuleInstance(rule, ("f", t), positive, negative))
    return out


def stratification_violations(lts: Lts) -> list[tuple[RuleInstance, tuple, str]]:
    """Rank-discipline violations over the used rule instances: positive
    premises must not rank above their conclusion, and the sources of negated
    transition premises must rank strictly below it.  Each source term is
    ranked once."""
    ranks: dict = {}  # source term -> its rank_transition

    def rank(lit: tuple):
        if lit[0] == "f":
            return rank_inconsistent()
        source = lit[1]
        r = ranks.get(source)
        if r is None:
            r = ranks[source] = rank_transition(source)
        return r

    out = []
    for inst in used_rule_instances(lts):
        bound = rank(inst.conclusion)
        for prem in inst.positive:
            if not rank(prem) <= bound:
                out.append((inst, prem, "positive-premise-above-conclusion"))
        for prem in inst.negative:
            if not rank(prem) < bound:
                out.append((inst, prem, "negated-premise-not-below-conclusion"))
    return out


# ---------------------------------------------------------------------------
# exports


def _numbering(lts: Lts) -> tuple[list[int], dict[int, int]]:
    """The reachable states' universe ids, and the map from each to its
    place among them: the state numbers every export prints."""
    ids = lts.state_ids()
    return ids, {old: new for new, old in enumerate(ids)}


def lts_to_text(lts: Lts) -> str:
    """Reachable fragment as text: each state with its flags, then its moves.
    Each state's term is rendered once."""
    ids, remap = _numbering(lts)
    text = {i: str(lts.terms[i]) for i in ids}  # targets of reachable states are reachable
    lines = [f"states: {len(ids)} (universe {len(lts.terms)})"]
    for i in ids:
        marks = (("root", i == lts.root), ("stable", lts.stable[i]),
                 ("inconsistent", lts.inconsistent[i]))
        flags = ", ".join(flag for flag, on in marks if on) or "-"
        lines.append(f"  [{remap[i]}] {text[i]} ({flags})")
        lines += (f"      --{a}--> [{remap[j]}] {text[j]}" for a, j in lts.transitions[i])
    return "\n".join(lines)


def lts_to_json(lts: Lts) -> str:
    """Reachable fragment as JSON; the internal action is labelled "tau"."""
    ids, remap = _numbering(lts)
    states = [
        {
            "id": remap[i],
            "term": str(lts.terms[i]),
            "stable": lts.stable[i],
            "inconsistent": lts.inconsistent[i],
        }
        for i in ids
    ]
    transitions = [
        {"src": remap[i], "label": a, "dst": remap[j]}
        for i in ids
        for a, j in lts.transitions[i]
    ]
    return json.dumps(
        {"root": remap[lts.root], "states": states, "transitions": transitions},
        indent=2,
    )


def lts_to_dot(lts: Lts) -> str:
    """Reachable fragment in DOT: inconsistent states are double-circled and
    internal moves dashed."""
    ids, remap = _numbering(lts)
    lines = ["digraph lts {", "  rankdir=LR;", "  node [shape=circle];"]
    for i in ids:
        shape = "doublecircle" if lts.inconsistent[i] else "circle"
        label = str(lts.terms[i]).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{remap[i]} [shape={shape}, label="{label}"];')
    lines.append(f"  init [shape=point]; init -> s{remap[lts.root]};")
    for i in ids:
        for a, j in lts.transitions[i]:
            style = ", style=dashed" if a == TAU else ""
            lines.append(f'  s{remap[i]} -> s{remap[j]} [label="{a}"{style}];')
    lines.append("}")
    return "\n".join(lines)
