"""Ready-simulation refinement over finite graphs.

``refines`` decides the refinement preorder on a graph shared by both
processes.  It folds the stable states reachable by weak moves from the roots'
stable consistent descendants into blocks of weakly bisimilar states and
builds the block graph once: each block's ready set and weak moves to blocks,
which its members share.  On that graph it computes the largest stable ready
simulation over the block pairs reachable from those descendants' blocks, then
matches the descendants.  Weak moves reach consistent states only, so blocks
are compared on ready sets and moves alone; inconsistent stable states are
answered by definition.  The witness and the counterexample are read off that
block relation and its deletion records, and only when one of them is read.
``check_verdict`` checks such an explanation against the graph.
``alt_refines`` decides the same preorder through an independent
characterisation over all state pairs and serves as a cross-check oracle.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .semantics import (
    BuildLimits,
    Lts,
    build_combined,
    weak_visible_step,
)
from .syntax import print_terms
from .terms import TAU, Term, is_visible

REASON_READY = "ready-set-mismatch"
REASON_NO_DESCENDANT = "no-stable-descendant-match"


@dataclass(frozen=True)
class SimRelation:
    """A stable ready simulation over a built graph, as state-index pairs."""

    lts: Lts
    pairs: frozenset[tuple[int, int]]

    def term_pairs(self) -> list[tuple[str, str]]:
        """The pairs as term texts, sorted; printed with one table."""
        terms = self.lts.terms
        text = print_terms(terms[i] for pair in self.pairs for i in pair)
        return sorted((text[terms[p]], text[terms[q]]) for p, q in self.pairs)


@dataclass(frozen=True)
class Counterexample:
    path: tuple[tuple[str, str], ...]  # (action | "eps", state term)
    reason: str


@dataclass(frozen=True)
class _Deletion:
    seq: int
    action: str | None = None  # None: the ready sets differ
    successor: int | None = None


def _weak_moves(lts: Lts, i: int) -> dict[str, frozenset[int]]:
    """``weak_visible_step(lts, i, a)`` for each visible action ``a`` that
    has a target, in sorted order, read in one pass over ``i``'s moves.  An
    inconsistent move target has no consistent stable descendant.  ``i``
    must be consistent, as every state ``_partition`` asks about is: a
    consistent stable descendant, or a weak move's target, which is one."""
    csd = lts.consistent_stable_descendants()
    out: dict[str, set[int]] = {}
    for a, j in lts.transitions[i]:
        if a != TAU and csd[j]:
            out.setdefault(a, set()).update(csd[j])
    return {a: frozenset(out[a]) for a in sorted(out)}


def _closure(seeds, moves, ready):
    """The pairs reachable from ``seeds`` through matching weak moves, where
    ``moves[i]`` gives node ``i``'s by action; a pair's moves are followed
    only when its nodes' ``ready`` sets are equal."""
    pairs = set(seeds)
    todo = list(pairs)
    while todo:
        p, q = todo.pop()
        if ready[p] == ready[q]:
            q_moves = moves[q]
            fresh = {
                read
                for a, targets in moves[p].items()
                for read in product(targets, q_moves.get(a, ()))
            }
            fresh -= pairs
            pairs |= fresh
            todo.extend(fresh)
    return pairs


def _simulate(ready, moves, seeds):
    """Largest stable ready simulation over the pairs of blocks reachable
    from ``seeds`` through matching weak moves, plus a deletion record per
    rejected pair (used to assemble counterexamples).  ``ready[b]`` and
    ``moves[b]`` give block ``b``'s ready set and weak moves, as sorted
    targets per action.

    On a set of pairs closed under those moves, the largest simulation is the
    graph's largest one restricted to the set.  Deletions are numbered in
    order: the pairs whose ready sets differ, sorted, then those with an
    unmatched move, first in first out from the sorted ones that fail at the
    start.  With ``_partition``'s block numbering, this
    fixes the partner ``_diagnose`` follows: the one deleted last.
    """
    # users[i][a]: the blocks with i among their weak a-targets, in block order
    users: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))
    for i, by_action in moves.items():
        for a, targets in by_action.items():
            for t in targets:
                users[t][a].append(i)

    relation: set[tuple[int, int]] = set()
    deleted: dict[tuple[int, int], _Deletion] = {}
    for pair in sorted(_closure(seeds, moves, ready)):
        p, q = pair
        if ready[p] == ready[q]:
            relation.add(pair)
        else:
            deleted[pair] = _Deletion(len(deleted))

    # p's a-move to p2 is matched against q while some weak a-target q2 of q
    # has (p2, q2) related, and it is checked directly.  A related pair that
    # is not queued has every move matched, so the move goes unmatched at the
    # deletion of its last related (p2, q2): the loop below rechecks (p2, a,
    # q) at each deletion of a (p2, q2) and enqueues the readers then.
    def unmatched(p2, a, q) -> bool:
        return not any((p2, q2) in relation for q2 in moves[q].get(a, ()))

    def unmatched_move(pair) -> tuple[str, int] | None:
        p, q = pair
        for a, targets in moves[p].items():
            for p2 in targets:
                if unmatched(p2, a, q):
                    return a, p2
        return None

    queue = deque(pair for pair in sorted(relation) if unmatched_move(pair))
    queued = set(queue)
    while queue:
        pair = queue.popleft()
        deleted[pair] = _Deletion(len(deleted), *unmatched_move(pair))
        relation.discard(pair)
        p2, q2 = pair
        for a, q_users in users[q2].items():
            for q in q_users:
                readers = [(p, q) for p in users[p2][a] if (p, q) in relation and (p, q) not in queued]
                if readers and unmatched(p2, a, q):
                    queued.update(readers)
                    queue.extend(readers)
    return relation, deleted


@dataclass(frozen=True)
class _Quotient:
    """A stable ready simulation as a relation over blocks of weakly
    bisimilar states: (p, q) is related when (block[p], block[q]) is.  It
    keeps each state's block, ready set (``label``) and weak moves, the block
    graph's moves (``moves[b]``: block ``b``'s weak moves as sorted target
    blocks per action, for every block) and the deletion records that explain
    the pairs left out."""

    block: dict[int, int]
    label: dict[int, frozenset[str]]
    weak: dict[int, dict[str, frozenset[int]]]
    pairs: set[tuple[int, int]]
    deleted: dict[tuple[int, int], _Deletion]
    moves: dict[int, dict[str, tuple[int, ...]]]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        p, q = pair
        return (self.block[p], self.block[q]) in self.pairs


def _partition(lts: Lts, starts):
    """Fold the stable states reachable by weak moves from ``starts``, all
    consistent, into blocks of weakly bisimilar states: the coarsest
    partition whose blocks agree on (ready set, set of blocks per weak
    action).  Returns every state's block, ready set and weak moves.

    A state is signed again only when one of its weak-move successors
    changes block.  When a block splits, the part whose signature is
    unchanged keeps the block's id, or the largest part when every member was
    signed again; the other parts' members move.  At the end blocks are
    numbered in the order of their least member, so the numbering does not
    depend on the order of the splits."""
    weak = {s: _weak_moves(lts, s) for s in starts}
    order = list(weak)
    preds: dict[int, set[int]] = defaultdict(set)
    for s in order:  # grows as states are found
        for targets in weak[s].values():
            for t in targets:
                preds[t].add(s)
                if t not in weak:
                    weak[t] = _weak_moves(lts, t)
                    order.append(t)
    label = {s: lts.ready(s) for s in order}
    block = dict.fromkeys(order, 0)
    size = [len(order)]
    sig: list = [None]  # the signature of each block's members not in dirty
    dirty = {0: set(order)} if order else {}  # block -> its members to sign again
    while dirty:
        b, members = dirty.popitem()
        parts: dict = defaultdict(list)
        for s in members:
            moves = frozenset((a, block[t]) for a, ts in weak[s].items() for t in ts)
            parts[label[s], moves].append(s)
        if len(members) == size[b]:
            sig[b] = max(parts, key=lambda key: len(parts[key]))
        moved = []
        for key, part in parts.items():
            if key != sig[b]:
                size[b] -= len(part)
                for s in part:
                    block[s] = len(size)
                size.append(len(part))
                sig.append(key)
                moved += part
        for s in moved:
            for r in preds[s]:
                dirty.setdefault(block[r], set()).add(r)

    number: dict[int, int] = {}
    for s in sorted(order):
        block[s] = number.setdefault(block[s], len(number))
    return block, label, weak


def _quotient_sim(lts: Lts, left, right) -> _Quotient:
    """The largest stable ready simulation over the block pairs reachable
    from the blocks of ``left`` × ``right`` and of ``right`` × ``left``."""
    block, label, weak = _partition(lts, {*left, *right})
    ready: dict[int, frozenset[str]] = {}
    moves: dict[int, dict[str, tuple[int, ...]]] = {}
    for s in sorted(label):  # a block's members share its ready set and moves
        b = block[s]
        if b not in moves:
            ready[b] = label[s]
            moves[b] = {a: tuple(sorted({block[t] for t in ts})) for a, ts in weak[s].items()}
    left_blocks = {block[s] for s in left}
    right_blocks = {block[s] for s in right}
    seeds = {*product(left_blocks, right_blocks), *product(right_blocks, left_blocks)}
    return _Quotient(block, label, weak, *_simulate(ready, moves, seeds), moves)


def _stable_sim(lts: Lts, states) -> frozenset[tuple[int, int]]:
    """The largest stable ready simulation over the stable ones of
    ``states``.  Every stable state simulates an inconsistent one, and no weak
    move reaches an inconsistent state, so only the consistent ones are
    folded, over the block pairs reachable from their blocks."""
    stable_ids = [i for i in states if lts.stable[i]]
    consistent = [i for i in stable_ids if not lts.inconsistent[i]]
    quotient = _quotient_sim(lts, consistent, consistent)
    members = defaultdict(list)
    for s in consistent:
        members[quotient.block[s]].append(s)
    pairs = [pair for b, c in quotient.pairs for pair in product(members[b], members[c])]
    pairs += product(set(stable_ids).difference(consistent), stable_ids)
    return frozenset(pairs)


def largest_stable_sim(lts: Lts) -> SimRelation:
    """The largest stable ready simulation over the graph's stable states."""
    return SimRelation(lts, _stable_sim(lts, range(len(lts.terms))))


def _witness_pairs(lts: Lts, quotient: _Quotient) -> frozenset[tuple[int, int]]:
    """The largest simulation over the state pairs reachable from the roots'
    stable consistent descendants, csd(p) × csd(q): the pairs reached through
    matching weak moves that the block relation relates.  A pair's moves are
    followed when ``_simulate`` follows its block pair's: on equal ready
    sets."""
    csd = lts.consistent_stable_descendants()
    reached = _closure(product(*(csd[r] for r in lts.roots)), quotient.weak, quotient.label)
    return frozenset(pair for pair in reached if pair in quotient)


def _diagnose(lts, quotient: _Quotient, p0: int, candidates):
    """Greedy diagnostic trace over the block pairs' deletion records: follow
    the candidate partner block deleted last and report why it fails, moving
    to the least weak a-target in the record's successor block.  Refutations
    are tree-shaped in general; this path explains one failing branch.  With
    no candidates it stops at once; otherwise at a ready-set mismatch, for a
    pair deleted for an action ``a`` was related, so the partner has ``a``
    ready and, being consistent, a consistent ``a``-derivative (LTS1) with a
    stable consistent descendant (LTS2): ``moves[partner][a]`` is not empty.
    The path's states are printed with one table."""
    block, deleted = quotient.block, quotient.deleted
    path, reason = [("eps", p0)], REASON_NO_DESCENDANT
    p, quorum = p0, {block[q] for q in candidates}
    while quorum:
        # every candidate's pair was deleted, since p has no partner left
        partner = max(quorum, key=lambda c: deleted[block[p], c].seq)
        record = deleted[block[p], partner]
        if record.action is None:
            reason = REASON_READY
            break
        a = record.action
        p = min(t for t in quotient.weak[p][a] if block[t] == record.successor)
        path.append((a, p))
        quorum = quotient.moves[partner][a]
    text = print_terms(lts.terms[s] for _, s in path)
    return Counterexample(tuple((a, text[lts.terms[s]]) for a, s in path), reason)


def _unmatched_start(lts: Lts, relation, ip: int, iq: int) -> int | None:
    """The first stable consistent descendant of ``ip`` that no stable
    consistent descendant of ``iq`` simulates; None when ``iq`` refines
    ``ip``."""
    csd = lts.consistent_stable_descendants()
    q_starts = csd[iq]
    for p1 in sorted(csd[ip]):
        if not any((p1, q1) in relation for q1 in q_starts):
            return p1
    return None


class RefinementVerdict:
    """Whether the second root of ``lts`` refines the first.  ``holds`` is
    read off the block relation, and so are the witness and the
    counterexample, each assembled when first read."""

    def __init__(self, lts: Lts, relation: _Quotient):
        self.lts = lts
        self._relation = relation
        self._unmatched = _unmatched_start(lts, relation, *lts.roots)
        self.holds = self._unmatched is None

    @cached_property
    def witness(self) -> SimRelation | None:
        return SimRelation(self.lts, _witness_pairs(self.lts, self._relation)) if self.holds else None

    @cached_property
    def counterexample(self) -> Counterexample | None:
        if self.holds:
            return None
        csd = self.lts.consistent_stable_descendants()
        return _diagnose(self.lts, self._relation, self._unmatched, csd[self.lts.roots[1]])


def refines(p: Term, q: Term, limits: BuildLimits | None = None) -> RefinementVerdict:
    """Decide whether ``q`` ready-simulates ``p``; a refuted verdict carries a
    diagnostic trace, a holding one the witnessing relation: the largest
    simulation over the pairs reachable from csd(p) × csd(q).  The block
    relation it is decided on covers both directions, so ``equivalent``
    reads its answer off the same quotient."""
    lts = build_combined([p, q], limits)
    ip, iq = lts.roots
    csd = lts.consistent_stable_descendants()
    return RefinementVerdict(lts, _quotient_sim(lts, csd[ip], csd[iq]))


def stable_refines(p: Term, q: Term, limits: BuildLimits | None = None) -> bool:
    """Stable ready simulation between the roots themselves, as
    ``largest_stable_sim`` relates them, searched from their blocks alone."""
    lts = build_combined([p, q], limits)
    return tuple(lts.roots) in _stable_sim(lts, lts.roots)


def equivalent(p: Term, q: Term, limits: BuildLimits | None = None) -> bool:
    """Mutual refinement.

    Both directions are read off one graph and one quotient: the block
    relation of ``refines(p, q)`` covers the pairs reachable from the roots'
    stable consistent descendants in both directions.
    """
    verdict = refines(p, q, limits)
    lts = verdict.lts
    return verdict.holds and _unmatched_start(lts, verdict._relation, *lts.roots[::-1]) is None


def check_verdict(lts: Lts, ip: int, iq: int, verdict: RefinementVerdict) -> str | None:
    """Check a verdict on whether ``iq`` refines ``ip`` against ``lts``, by
    its explanation alone; returns None, or the first condition that fails.

    A holding verdict's witness must be a stable ready simulation that gives
    every stable consistent descendant of ``ip`` a partner among those of
    ``iq``.  A refuted verdict's path must replay as weak moves from a stable
    consistent descendant of ``ip``, and its reason must hold at the path's
    end: some state that ``iq``'s descendants reach by the same actions has
    another ready set, or the path is empty and csd(``iq``) is empty.

    So a refuted verdict is not proved: passing does not show that ``iq``
    fails to simulate ``ip``.  A forged refutation of
    ``refines(a.b.0, a.b.0 \\/ a.c.0)`` with the path ``eps: a.b.0``,
    ``a: b.0`` and the reason ``ready-set-mismatch`` passes, because ``c.0``
    is also reached by ``a`` and has another ready set (ROADMAP item 11).
    """
    F = lts.inconsistent
    csd = lts.consistent_stable_descendants()
    if verdict.holds:
        rel = verdict.witness.pairs
        for i, j in sorted(rel):
            if not (lts.stable[i] and lts.stable[j]):
                return f"witness pair {(i, j)} is not a pair of stable states"
            if F[i]:
                continue
            if F[j]:
                return f"witness pair {(i, j)} relates a consistent state to an inconsistent one"
            if lts.ready(i) != lts.ready(j):
                return f"witness pair {(i, j)} has different ready sets"
            for a in sorted(lts.visible_ready(i)):
                partners = weak_visible_step(lts, j, a)
                for p2 in sorted(weak_visible_step(lts, i, a)):
                    if not any((p2, q2) in rel for q2 in partners):
                        return f"witness pair {(i, j)} leaves the weak {a}-move to {p2} unmatched"
        for p1 in sorted(csd[ip]):
            if not any((p1, q1) in rel for q1 in csd[iq]):
                return f"witness gives the stable consistent descendant {p1} no partner"
        return None

    cex = verdict.counterexample
    (_, name), *steps = cex.path

    def moves(states, a: str) -> set[int]:
        """The weak ``a``-moves of ``states``: none for an internal ``a``."""
        return {t for s in states for t in weak_visible_step(lts, s, a)} if is_visible(a) else set()

    # every state the path's actions reach from csd(ip), printed with one table
    reach = [csd[ip]]
    for a, _ in steps:
        reach.append(moves(reach[-1], a))
    text = print_terms(lts.terms[s] for states in reach for s in states)
    here = {s for s in csd[ip] if text[lts.terms[s]] == name}
    if not here:
        return f"path start {name} is not a stable consistent descendant of the first root"
    there = set(csd[iq])
    for a, name in steps:
        here = {t for t in moves(here, a) if text[lts.terms[t]] == name}
        if not here:
            return f"path step {a}: {name} is not a weak move"
        there = moves(there, a)
    if cex.reason == REASON_NO_DESCENDANT:
        holds = not steps and not csd[iq]
    else:
        holds = cex.reason == REASON_READY and any(
            lts.ready(s) != lts.ready(t) for s in here for t in there
        )
    return None if holds else f"reason {cex.reason} does not hold at the path's end"


def alt_refines(p: Term, q: Term, limits: BuildLimits | None = None) -> bool:
    """Independent formulation of the refinement preorder: the largest
    relation over all state pairs matching stable consistent descendants,
    matching weak visible moves between stable pairs, and equating ready sets
    of consistent stable pairs."""
    lts = build_combined([p, q], limits)
    n = len(lts.terms)
    F = lts.inconsistent
    csd = lts.consistent_stable_descendants()
    weak = {
        i: {a: weak_visible_step(lts, i, a) for a in lts.visible_ready(i)}
        for i in range(n)
        if lts.stable[i]
    }

    relation = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if not (
            lts.stable[i]
            and lts.stable[j]
            and not F[i]
            and lts.ready(i) != lts.ready(j)
        )
    }

    changed = True
    while changed:
        changed = False
        for pair in sorted(relation):
            if pair not in relation:
                continue
            i, j = pair
            ok = all(
                any((p2, q2) in relation for q2 in csd[j]) for p2 in csd[i]
            )
            if ok and lts.stable[i] and lts.stable[j]:
                for a, targets in weak[i].items():
                    q_targets = weak[j].get(a, frozenset())
                    if not all(
                        any((p2, q2) in relation for q2 in q_targets)
                        for p2 in targets
                    ):
                        ok = False
                        break
            if not ok:
                relation.discard(pair)
                changed = True
    return (lts.roots[0], lts.roots[1]) in relation


def verdict_to_json(verdict: RefinementVerdict) -> str:
    doc: dict = {"holds": verdict.holds}
    if verdict.witness is not None:
        doc["witness_pairs"] = [list(pair) for pair in verdict.witness.term_pairs()]
    if verdict.counterexample is not None:
        doc["counterexample"] = {
            "path": [list(step) for step in verdict.counterexample.path],
            "reason": verdict.counterexample.reason,
        }
    return json.dumps(doc, indent=2)
