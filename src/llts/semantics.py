"""Operational semantics: the rule table, one-step transitions, bounded
graph construction, the inconsistency predicate as a least fixpoint, and
model validators.

The rule table ``RULES`` writes each transition and inconsistency rule once,
one entry per operator, with the operator's shape tag.  ``step`` reads its
transition rules, ``compute_inconsistent`` its inconsistency rules as Horn
clauses, and ``used_rule_instances`` both, with their premises.  ``step``
applies the rules bottom-up in one loop over an explicit stack of frames, so
the depth of a term is no limit: a term is stepped once the moves of its
premise sources are known.  The one function that builds a frame checks a
recursion's equations guarded from their recorded facts, so by
``terms.StratRank`` every chain of recursion expansions ends.

Flags read off terms: the inconsistency rules of ``0``, ``bot``, prefix,
``\\/``, ``[]`` and ``|[S]|`` read only their operands' flags, and
``terms.NEEDS`` states them once.  ``RULES`` builds their clauses from it,
and each closed term with no binder and no conjunction below carries
the table's fold over its syntax (``terms.syntactic_flag``).
``compute_inconsistent`` takes those flags as they are and registers clauses
for the other terms only.  The flags equal the least fixpoint: a structural
clause reads only its operands' flags, and operands are strict subterms, so
by induction on the term the fold and the fixpoint agree.

``build_combined`` runs with the cyclic collector paused, the fixpoint
included (``terms.collector_paused``): a graph is lists, tuples and dicts of
ids and acyclic terms, so the collector's passes during a build find nothing,
and they would scan every interned term.  A build that finds the collector on
turns it off and its collections wait until the build returns or raises; one
that finds it off, turned off by its caller or by a build in another thread,
leaves the switch alone, so it may finish with the collector on once that
other build returns.

One step memo per scope: ``step`` is a pure function of a hash-consed term,
so every build and step made inside ``step_memo_scope()`` shares one memo from
term to moves, and a term is stepped once however many graphs of the scope
meet it.  The memo lives in a context variable: the scope opens it empty and
drops it on exit, raised or not, so it holds no more than one scope's terms
and needs no sweep.  A nested scope starts empty, and a thread starts with
no scope.  Outside a scope each build and step starts an empty memo.  The
theorem checks open one scope per trial (``properties._attempt``).

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

Choice chains: ``step`` steps a maximal chain of ``[]`` nodes not stepped
before on one frame, whose sources are the chain's leaves.  By the lemma, a
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
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

from .syntax import print_terms
from .terms import (
    NEEDS,
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
    collector_paused,
    free_vars,
    is_visible,
    operands,
    rank_inconsistent,
    rank_transition,
    syntactic_flag,
    unfold_rec,
)

DEFAULT_MAX_STATES = 10_000


@dataclass(frozen=True)
class BuildLimits:
    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self):
        if self.max_states <= 0:
            raise ValueError(f"max_states must be positive: {self.max_states}")


class StateBoundExceeded(RuntimeError):
    """Exploration needed more states than the configured bound allows."""

    def __init__(self, count: int):
        super().__init__(f"state bound exceeded at {count} terms")
        self.count = count


# ---------------------------------------------------------------------------
# the rule table: the calculus, written once, one entry per operator
#
# ``kind`` is the operator's tag, the first field of each ``Lts.shapes`` entry.
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
# the clause is listed.  Literals are those of ``RuleInstance``.  The
# structural rules come in the two clause shapes of ``terms.NEEDS``, which
# also gives the flags read off terms: bottom, prefix and disjunction need
# every operand (``_needs_all``), choice and parallel either one
# (``_needs_either``).  Deadlock, which needs either of no operands, has no
# clause.  Conjunction and recursion write their own clauses.


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


def _needs_all(rule):
    """One clause: the state is inconsistent once every operand is, so
    ``bot``, which has none, is inconsistent outright."""
    return lambda lts, i, shape: ((rule, shape[1:], (), ()),)


def _needs_either(rule):
    """One clause per operand: the state is inconsistent once either is.  A
    literal tuple, as a generator over ``shape[1:]`` slows the fixpoint."""
    return lambda lts, i, shape: ((rule, (shape[1],), (), ()), (rule, (shape[2],), (), ()))


def _structural(cls: type, rule: str) -> Callable:
    """The clauses named ``rule`` of ``cls``'s entry in ``terms.NEEDS``."""
    return (_needs_all if NEEDS[cls] is all else _needs_either)(rule)


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


class OperatorRules(NamedTuple):
    kind: str
    moves: Callable
    clauses: Callable


RULES: dict[type, OperatorRules] = {
    Nil: OperatorRules("nil", _none, _none),
    Bottom: OperatorRules("bottom", _none, _structural(Bottom, "inconsistent-bottom")),
    Prefix: OperatorRules("prefix", _prefix_moves, _structural(Prefix, "inconsistent-prefix")),
    Disj: OperatorRules("disj", _disj_moves, _structural(Disj, "inconsistent-disj")),
    ExtChoice: OperatorRules("choice", _choice_moves, _structural(ExtChoice, "inconsistent-choice-operand")),
    Conj: OperatorRules("conj", _conj_moves, _conj_clauses),
    Parallel: OperatorRules("par", _par_moves, _structural(Parallel, "inconsistent-par-operand")),
    Rec: OperatorRules("rec", _rec_moves, _rec_clauses),
}


# The open scope's step memo (module docstring); None outside every scope.
_STEP_MEMO: ContextVar[dict | None] = ContextVar("step_memo", default=None)


@contextmanager
def step_memo_scope():
    """Share one step memo among every build and step made inside, and drop
    it on exit."""
    token = _STEP_MEMO.set({})
    try:
        yield
    finally:
        _STEP_MEMO.reset(token)


def _step_memo() -> dict:
    """The open scope's step memo, else a new empty one."""
    memo = _STEP_MEMO.get()
    return {} if memo is None else memo


def step(t: Term) -> list[tuple[str, Term]]:
    """All one-step transitions of a closed term, internal moves first;
    ``GuardednessError`` on a recursion met whose equations are unguarded."""
    _check_closed(t)
    return list(_closed_step(t, _step_memo()))


def _check_closed(t: Term) -> None:
    if free_vars(t):
        raise ValueError(f"only closed terms have a transition graph: {t}")


def _frame(t: Term, memo: dict) -> tuple:
    """The frame that steps ``t``: its head, its sources and an iterator
    over them.  A choice heads the maximal chain of choices below it not in
    ``memo``, stepped as one node: the head is the chain's distinct nodes
    bottom-up, and the sources are its distinct leaves left to right.  Any
    other term is its own head, and its sources are the terms whose moves
    its rules read: a recursion's expansion, or a composition's operands.  A
    recursion is checked guarded first, off its recorded facts."""
    kind = type(t)
    if kind is ExtChoice:
        nodes, leaves, seen = [], {}, {t}
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
                nodes.append(path.pop()[0])
        return nodes, leaves, iter(leaves)
    if kind is Rec:
        violation = t.spec.guard_violation
        if violation is not None:
            raise GuardednessError(*violation)
    sources = () if kind in (Prefix, Disj) else support_children(t)
    return t, sources, iter(sources)


def _closed_step(t: Term, memo: dict) -> tuple[tuple[str, Term], ...]:
    """``step`` on a term known to be closed.  ``memo`` maps the terms
    stepped so far to their moves, and may be shared across calls.

    One loop over a stack of ``_frame``s, so the depth of a term is no
    limit: a source not in ``memo`` is stepped first, on a frame of its own,
    and a frame whose sources are all in ``memo`` is finished and stored
    there.  A term whose sources are known is a run of one frame.  The loop
    ends by the argument of ``terms.StratRank``."""
    moves = memo.get(t)
    if moves is not None:
        return moves
    head, sources, todo = _frame(t, memo)
    stack = []  # the frames below the current one
    while True:
        for u in todo:
            if u not in memo:
                stack.append((head, sources, todo))
                head, sources, todo = _frame(u, memo)
                break
        else:
            if type(head) is not list:
                _apply_rules(head, memo)
            else:
                # a choice chain: its leaves' moves joined, or, when one moves
                # internally, the rules applied to its nodes (module docstring)
                moves = [memo[u] for u in sources]
                if any(map(_internal, moves)):
                    for u in head:
                        _apply_rules(u, memo)
                else:
                    memo[head[-1]] = tuple(dict.fromkeys(chain.from_iterable(moves)))
            if not stack:
                return memo[t]
            head, sources, todo = stack.pop()


def _apply_rules(t: Term, memo: dict) -> None:
    """Store ``t``'s moves by the rule table in ``memo``, where its premise
    sources' moves are."""
    rules = RULES.get(type(t))
    if rules is None:
        raise TypeError(f"not a term: {t!r}")
    moves: list[tuple[str, Term]] = []
    for _, _, batch in rules.moves(t, memo.__getitem__):
        moves += batch
    memo[t] = tuple(dict.fromkeys(moves))  # first occurrences, in order


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
    operands and recursion expansion have ids, since the inconsistency
    predicate reads their flags.  ``index`` maps each term to its id;
    ``build_combined`` also maps each member of a class of ``|[S]|``
    compositions to the id of the one it keeps.

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
                (RULES[type(t)].kind, *[index[c] for c in support_children(t)])
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


def _bag(t: Parallel, bags: dict) -> frozenset:
    """The operands of ``t``'s maximal ``|[t.sync]|`` chain, the maximal
    subterms that are not such a composition, as a multiset: the frozenset
    of the operands while each occurs once, else the ``_Counts`` of their
    (operand, count) pairs.  ``bags`` memoises it per chain node.  A node's
    bag is its two operands' bags added, on an explicit stack, so no chain
    is flattened: a chain that doubles at every level, kept small by
    hash-consing, has bags of one pair each."""
    bag = bags.get(t)
    if bag is not None:
        return bag
    sync = t.sync
    todo = [t]
    while todo:
        u = todo[-1]
        l, r = u.left, u.right
        l_in = type(l) is Parallel and l.sync == sync
        if l_in and l not in bags:
            todo.append(l)
            continue
        r_in = type(r) is Parallel and r.sync == sync
        if r_in and r not in bags:
            todo.append(r)
            continue
        todo.pop()
        x = bags[l] if l_in else frozenset((l,))
        y = bags[r] if r_in else frozenset((r,))
        if type(x) is frozenset and type(y) is frozenset and x.isdisjoint(y):
            bags[u] = x | y
        else:
            counts = _counts(x)
            for c, k in _counts(y).items():
                counts[c] = counts.get(c, 0) + k
            bags[u] = _Counts(counts.items())
    return bags[t]


class _Counts(frozenset):
    """A bag in which an operand occurs more than once: its (operand, count)
    pairs."""

    __slots__ = ()


def _counts(bag: frozenset) -> dict:
    """``bag`` as a map from each operand to its count."""
    return dict(bag) if type(bag) is _Counts else dict.fromkeys(bag, 1)


@collector_paused
def build_combined(roots: list[Term], limits: BuildLimits | None = None) -> Lts:
    """Explore the given closed terms into one shared graph.

    The universe is closed under operand subterms and recursion expansion,
    so the predicate rules can be evaluated on it.  Moves are stored for the
    states only: the closure under moves of the roots, of every conjunction
    and recursion and of each conjunction's operands, whose moves the
    conjunction and recursion rules read.  Every other term is support-only:
    the rules read its flag alone.  Terms are numbered breadth first, each
    one's operands or expansion before its move targets.  Terms are stepped
    with the open scope's step memo, else a new one (module docstring).

    The universe holds one term per class of ``|[S]|`` compositions that
    differ only in the order and bracketing of one maximal chain's operands:
    the class of ``t`` is its sync set and ``_bag(t)``.  The ``|[S]|`` rules
    are symmetric, so the members are strongly bisimilar with equal flags,
    and by precongruence in every context.  The member met first names the
    class and is the one stepped; each member met later is an alias, whose
    ``index`` entry is the class's id and which ``max_states`` does not
    count.  So a stored move's target is the class of ``step``'s target, and
    the naming follows the breadth-first order alone.
    """
    limits = limits or BuildLimits()
    index: dict[Term, int] = {}
    terms: list[Term] = []
    transitions: list = []  # None until the term is explored
    shapes: list = []  # ``Lts.shapes``, each set when its term is explored
    is_state: list[bool] = []
    todo: deque[int] = deque()
    classes: dict = {}  # (sync, operand bag) of a ``|[S]|`` chain -> its id
    bags: dict = {}  # ``_bag``'s memo

    def add(t: Term, state: bool = True) -> int:
        i = index.get(t)
        if i is None and type(t) is Parallel:
            key = (t.sync, _bag(t, bags))
            i = classes.get(key)
            if i is None:
                classes[key] = len(terms)  # the first-met member names the class
            else:
                index[t] = i  # an alias of the class's id, with no state of its own
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
    step_memo = _step_memo()
    kinds = {cls: rules.kind for cls, rules in RULES.items()}
    pairs: dict = {}  # each distinct move (action, term) -> its stored (action, id)
    while todo:
        i = todo.popleft()
        t = terms[i]
        cls = type(t)
        # ``support_children(t)``, read inline; a conjunction's are states
        if cls is Prefix:
            shapes[i] = (kinds[cls], add(t.body, False))
        elif cls is Rec:
            shapes[i] = (kinds[cls], add(unfold_rec(t), False))
        elif cls is Nil or cls is Bottom:
            shapes[i] = (kinds[cls],)
        else:
            conj = cls is Conj
            shapes[i] = (kinds[cls], add(t.left, conj), add(t.right, conj))
        if not is_state[i]:
            transitions[i] = UNSTORED
            continue
        moves = step_memo.get(t)
        if moves is None:
            moves = _closed_step(t, step_memo)
        stored = []
        for move in moves:
            pair = pairs.get(move)
            if pair is None:
                pair = pairs[move] = (move[0], add(move[1]))
            stored.append(pair)
        if len(index) > len(terms):  # an alias: moves to one class are stored once
            stored = dict.fromkeys(stored)
        transitions[i] = tuple(stored)

    lts = Lts(terms, index, root_ids, transitions, limits, shapes)
    compute_inconsistent(lts)
    return lts


def build_lts(p: Term, limits: BuildLimits | None = None) -> Lts:
    """Build the transition graph rooted at ``p`` with inconsistency flags."""
    return build_combined([p], limits)


def compute_inconsistent(lts: Lts) -> None:
    """Write the least fixpoint of the inconsistency rules over the universe
    into ``lts.inconsistent``, one flag per term id.

    A term whose syntax decides its flag (``terms.syntactic_flag``: closed,
    with no binder and no conjunction below) takes that flag.  It equals the
    least fixpoint: the clauses of such a term are structural, they read only
    its operands' flags, and operands are strict subterms with flags of
    their own, so by induction on the term every flag below is the fixpoint's.

    Each rule of every other term is a Horn clause on the ids it needs; a
    clause counts its needs not yet inconsistent and fires at zero, so the
    saturation visits each need once.  Only the ids some clause needs are
    watched, and the saturation starts from the flagged inconsistent terms
    and the clauses that need nothing.
    """
    terms, shapes = lts.terms, lts.shapes()
    flags = list(map(syntactic_flag, terms))
    F = [False] * len(terms)
    pending: deque[int] = deque()
    heads: list[int] = []
    waiting: list[int] = []
    watchers: list[list[int] | None] = [None] * len(terms)  # a list per needed id
    for i, flag in enumerate(flags):
        if flag is not None:
            F[i] = flag
            continue
        for _, needs, _, _ in RULES[type(terms[i])].clauses(lts, i, shapes[i]):
            if not needs:
                if not F[i]:
                    F[i] = True
                    pending.append(i)
                continue
            c = len(heads)
            heads.append(i)
            waiting.append(len(needs))
            for j in needs:
                w = watchers[j]
                if w is None:
                    watchers[j] = [c]
                    if flags[j]:  # flagged inconsistent, and now watched
                        pending.append(j)
                else:
                    w.append(c)

    while pending:
        for c in watchers[pending.popleft()] or ():
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
    built graph.  They hold modulo ``build_combined``'s classes: a move is
    ``step``'s, whose target the graph stores as its class, and a flag's
    premises name the terms that the ids it needs stand for."""
    terms, shapes, F = lts.terms, lts.shapes(), lts.inconsistent
    memo = _step_memo()

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


def _state_texts(lts: Lts, ids: list[int]) -> dict[int, str]:
    """The text of each of the states ``ids``, printed with one table."""
    text = print_terms(lts.terms[i] for i in ids)
    return {i: text[lts.terms[i]] for i in ids}


def lts_to_text(lts: Lts) -> str:
    """Reachable fragment as text: each state with its flags, then its moves.
    The states' terms are printed with one table."""
    ids, remap = _numbering(lts)
    text = _state_texts(lts, ids)  # targets of reachable states are reachable
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
    text = _state_texts(lts, ids)
    states = [
        {
            "id": remap[i],
            "term": text[i],
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
    text = _state_texts(lts, ids)
    lines = ["digraph lts {", "  rankdir=LR;", "  node [shape=circle];"]
    for i in ids:
        shape = "doublecircle" if lts.inconsistent[i] else "circle"
        label = text[i].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{remap[i]} [shape={shape}, label="{label}"];')
    lines.append(f"  init [shape=point]; init -> s{remap[lts.root]};")
    for i in ids:
        for a, j in lts.transitions[i]:
            style = ", style=dashed" if a == TAU else ""
            lines.append(f'  s{remap[i]} -> s{remap[j]} [label="{a}"{style}];')
    lines.append("}")
    return "\n".join(lines)
