"""Ready-simulation refinement over finite graphs.

``refines`` decides the refinement preorder on a graph shared by both
processes: it computes the largest stable ready simulation over the state
pairs reachable from the roots' stable consistent descendants, then matches
those descendants.  ``alt_refines`` decides the same preorder through an
independent characterisation over all state pairs and serves as a
cross-check oracle.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import product

from .semantics import (
    BuildLimits,
    Lts,
    build_combined,
    weak_visible_step,
)
from .terms import Term

REASON_READY = "ready-set-mismatch"
REASON_CONSISTENCY = "consistency-violation"
REASON_NO_MOVE = "no-matching-move"
REASON_NO_DESCENDANT = "no-stable-descendant-match"


@dataclass(frozen=True)
class SimRelation:
    """A stable ready simulation over a built graph, as state-index pairs."""

    lts: Lts
    pairs: frozenset[tuple[int, int]]

    def term_pairs(self) -> list[tuple[str, str]]:
        return sorted(
            (str(self.lts.terms[p]), str(self.lts.terms[q])) for p, q in self.pairs
        )

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs


@dataclass(frozen=True)
class Counterexample:
    path: tuple[tuple[str, str], ...]  # (action | "eps", state term)
    reason: str


@dataclass(frozen=True)
class RefinementVerdict:
    holds: bool
    witness: SimRelation | None = None
    counterexample: Counterexample | None = None


@dataclass(frozen=True)
class _Deletion:
    seq: int
    reason: str
    action: str | None = None
    successor: int | None = None


def _weak_moves(lts: Lts, i: int) -> dict[str, frozenset[int]]:
    out: dict[str, frozenset[int]] = {}
    if lts.inconsistent[i]:
        return out
    for a in sorted(lts.visible_ready(i)):
        targets = weak_visible_step(lts, i, a)
        if targets:
            out[a] = targets
    return out


def _stable_sim(lts: Lts, seeds):
    """Largest stable ready simulation over the pairs reachable from ``seeds``
    (pairs of stable states) through matching weak moves, plus a deletion
    record per rejected pair (used to assemble counterexamples) and the weak
    moves of every state it touched.

    On a set of pairs closed under those moves, the largest simulation is the
    graph's largest one restricted to the set.  Deletions are numbered in the
    order of the fixpoint that checks every pair in sorted order, sweep after
    sweep, until a sweep deletes nothing: first the pairs that fail on
    consistency or ready sets, in sorted order, then failed checks in (sweep,
    pair) order.  A pair is checked again only when a deletion leaves one of
    its moves unmatched: in the same sweep if it sorts after the deleted pair,
    else in the next.  So the numbering restricted to the reachable pairs is
    the same for any seeds, and ``_diagnose`` follows the same partners.
    """
    F = lts.inconsistent
    weak: dict[int, dict[str, tuple[int, ...]]] = {}
    ready: dict[int, frozenset[str]] = {}
    # users[i][a]: the touched states with i among their weak a-targets
    users: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))

    def matchable(pair) -> bool:
        for i in pair:
            if i not in weak:
                weak[i] = {a: tuple(sorted(t)) for a, t in _weak_moves(lts, i).items()}
                ready[i] = lts.ready(i)
                for a, targets in weak[i].items():
                    for t in targets:
                        users[t][a].append(i)
        p, q = pair
        return not (F[p] or F[q]) and ready[p] == ready[q]

    pairs = set(seeds)
    todo = list(pairs)
    while todo:
        pair = todo.pop()
        if matchable(pair):
            q_moves = weak[pair[1]]
            fresh = {
                read
                for a, targets in weak[pair[0]].items()
                for read in product(targets, q_moves.get(a, ()))
            }
            fresh -= pairs
            pairs |= fresh
            todo.extend(fresh)

    relation: set[tuple[int, int]] = set()
    deleted: dict[tuple[int, int], _Deletion] = {}
    for pair in sorted(pairs):
        p, q = pair
        if F[p]:
            relation.add(pair)
        elif F[q]:
            deleted[pair] = _Deletion(len(deleted), REASON_CONSISTENCY)
        elif ready[p] != ready[q]:
            deleted[pair] = _Deletion(len(deleted), REASON_READY)
        else:
            relation.add(pair)

    # Counters in the style of Henzinger-Henzinger-Kopke: count[p2, a, q] is
    # the number of weak a-targets q2 of q with (p2, q2) still related.  A
    # pair (p, q) fails while one of its counters (p2 a weak a-target of p)
    # is zero, and counters only fall.
    count: dict[tuple[int, str, int], int] = {}

    def unmatched_move(pair) -> tuple[str, int] | None:
        p, q = pair
        for a, targets in weak[p].items():
            for p2 in targets:
                key = (p2, a, q)
                if key not in count:
                    q_targets = weak[q].get(a, ())
                    count[key] = sum((p2, q2) in relation for q2 in q_targets)
                if not count[key]:
                    return a, p2
        return None

    queue = [(0, pair) for pair in sorted(relation) if not F[pair[0]] and unmatched_move(pair)]
    queued = {pair for _, pair in queue}
    while queue:
        sweep, pair = heappop(queue)
        queued.discard(pair)
        deleted[pair] = _Deletion(len(deleted), REASON_NO_MOVE, *unmatched_move(pair))
        relation.discard(pair)
        p2, q2 = pair
        for a, q_users in users[q2].items():
            for q in q_users:
                key = (p2, a, q)
                if key not in count:
                    continue
                count[key] -= 1
                if count[key]:
                    continue
                for p in users[p2][a]:
                    reader = (p, q)
                    if reader in relation and reader not in queued:
                        queued.add(reader)
                        heappush(queue, (sweep if reader > pair else sweep + 1, reader))
    return relation, deleted, weak


def largest_stable_sim(lts: Lts) -> SimRelation:
    """The largest stable ready simulation over the graph's stable states."""
    stable_ids = [i for i in range(len(lts.terms)) if lts.stable[i]]
    relation, _, _ = _stable_sim(lts, product(stable_ids, stable_ids))
    return SimRelation(lts, frozenset(relation))


def _diagnose(lts, relation, deleted, weak, p0: int, candidates):
    """Greedy diagnostic trace: follow the candidate partner that survived
    longest and report why it ultimately fails.  Refutations are tree-shaped
    in general; this path explains one failing branch."""
    path = [("eps", str(lts.terms[p0]))]
    first = True
    p, quorum = p0, list(candidates)
    while True:
        if not quorum:
            reason = REASON_NO_DESCENDANT if first else REASON_NO_MOVE
            return Counterexample(tuple(path), reason)
        records = sorted(
            (deleted[(p, q)].seq, q) for q in quorum if (p, q) in deleted
        )
        if not records:  # every candidate matches after all; stop here
            return Counterexample(tuple(path), REASON_NO_MOVE)
        best = deleted[(p, records[-1][1])]
        if best.reason in (REASON_CONSISTENCY, REASON_READY):
            return Counterexample(tuple(path), best.reason)
        a, p2 = best.action, best.successor
        path.append((a, str(lts.terms[p2])))
        quorum = sorted(weak[records[-1][1]].get(a, frozenset()))
        p = p2
        first = False


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


def refines(p: Term, q: Term, limits: BuildLimits | None = None) -> RefinementVerdict:
    """Decide whether ``q`` ready-simulates ``p``; a refuted verdict carries a
    diagnostic trace, a holding one the witnessing relation: the largest
    simulation over the pairs reachable from the roots' stable consistent
    descendants, in both directions (so ``equivalent`` reads its answer off
    the same run)."""
    lts = build_combined([p, q], limits)
    ip, iq = lts.roots[0], lts.roots[1]
    csd = lts.consistent_stable_descendants()
    seeds = {*product(csd[ip], csd[iq]), *product(csd[iq], csd[ip])}
    relation, deleted, weak = _stable_sim(lts, seeds)
    p1 = _unmatched_start(lts, relation, ip, iq)
    if p1 is not None:
        cex = _diagnose(lts, relation, deleted, weak, p1, csd[iq])
        return RefinementVerdict(False, counterexample=cex)
    return RefinementVerdict(True, witness=SimRelation(lts, frozenset(relation)))


def _stable_roots(p: Term, q: Term, limits: BuildLimits | None):
    """The root ids of ``p`` and ``q`` in their shared graph, with the largest
    stable ready simulation over the pairs reachable from the two root pairs;
    the relation is empty when either root is unstable."""
    lts = build_combined([p, q], limits)
    ip, iq = lts.roots[0], lts.roots[1]
    if not (lts.stable[ip] and lts.stable[iq]):
        return ip, iq, set()
    return ip, iq, _stable_sim(lts, {(ip, iq), (iq, ip)})[0]


def stable_refines(p: Term, q: Term, limits: BuildLimits | None = None) -> bool:
    """Stable ready simulation between the roots themselves: both must be
    stable and related by the largest stable ready simulation."""
    ip, iq, relation = _stable_roots(p, q, limits)
    return (ip, iq) in relation


def equivalent(
    p: Term, q: Term, limits: BuildLimits | None = None, stable: bool = False
) -> bool:
    """Mutual refinement; with ``stable=True`` mutual stable-state simulation.

    Both directions are read off one graph and one simulation: the witness of
    ``refines(p, q)`` covers the pairs reachable from the roots' stable
    consistent descendants in both directions.
    """
    if stable:
        ip, iq, relation = _stable_roots(p, q, limits)
        return (ip, iq) in relation and (iq, ip) in relation
    verdict = refines(p, q, limits)
    if not verdict.holds:
        return False
    lts, relation = verdict.witness.lts, verdict.witness.pairs
    return _unmatched_start(lts, relation, lts.roots[1], lts.roots[0]) is None


def alt_refines(p: Term, q: Term, limits: BuildLimits | None = None) -> bool:
    """Independent formulation of the refinement preorder: the largest
    relation over all state pairs matching stable consistent descendants,
    matching weak visible moves between stable pairs, and equating ready sets
    of consistent stable pairs."""
    lts = build_combined([p, q], limits)
    n = len(lts.terms)
    F = lts.inconsistent
    csd = lts.consistent_stable_descendants()
    weak = {i: _weak_moves(lts, i) for i in range(n) if lts.stable[i]}

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
