"""One state per class of ``|[S]|`` compositions.

``build_combined`` keeps one term per class of compositions that differ only
in the order and bracketing of one maximal ``|[S]|`` chain's operands.  The
reference here builds the graph without classes, from ``step`` alone, and
checks that the built graph is its quotient: a map ``h`` from the reference's
ids to the built graph's sends roots to roots, keeps flags and commutes with
the moves.  Classes are read off their definition, by flattening each chain,
not by the build's memoised bags.
"""

import os
import subprocess
import sys
from collections import Counter
from functools import reduce

import pytest

import golden
import llts
from llts.properties import GenConfig, _gen_term_trial, inconsistent_fixpoint_naive
from llts.semantics import (
    UNSTORED,
    BuildLimits,
    Lts,
    StateBoundExceeded,
    build_combined,
    build_lts,
    step,
)
from llts.syntax import parse
from llts.terms import Parallel, Rec, operands, unfold_rec

from test_semantics import GENERATED

REFERENCE_BOUND = 20_000


def _unreduced(roots):
    """The graph of ``roots`` with no classes, made by hand: breadth first
    over ``step``, closed under operands and recursion expansion, with every
    term's moves stored and the flags of ``inconsistent_fixpoint_naive``."""
    index, terms, transitions = {}, [], []

    def add(t):
        if t not in index:
            if len(terms) >= REFERENCE_BOUND:
                raise StateBoundExceeded(len(terms) + 1)
            index[t] = len(terms)
            terms.append(t)
        return index[t]

    root_ids = [add(t) for t in roots]
    while len(transitions) < len(terms):
        t = terms[len(transitions)]
        for c in (unfold_rec(t),) if isinstance(t, Rec) else operands(t):
            add(c)
        transitions.append(tuple((a, add(s)) for a, s in step(t)))
    lts = Lts(terms, index, root_ids, transitions, BuildLimits(REFERENCE_BOUND))
    flagged = inconsistent_fixpoint_naive(lts)
    lts.inconsistent = [i in flagged for i in range(len(terms))]
    return lts


def _class_of(t):
    """``t``'s class by definition: for a ``|[S]|`` composition, S and the
    multiset of its maximal chain's operands, found by flattening the chain;
    any other term is a class of its own."""
    if type(t) is not Parallel:
        return t
    found, todo = Counter(), [t]
    while todo:
        u = todo.pop()
        for c in (u.left, u.right):
            if type(c) is Parallel and c.sync == t.sync:
                todo.append(c)
            else:
                found[c] += 1
    return t.sync, frozenset(found.items())


def _assert_quotient(roots, bijective=False):
    """Build ``roots`` both ways and check the built graph a quotient of the
    reference; on ``bijective``, check no two reachable states share a
    class.  Returns False when either graph exceeds its bound."""
    try:
        reduced = build_combined(roots)
        full = _unreduced(roots)
    except StateBoundExceeded:
        return False
    ids = {}
    for i, t in enumerate(reduced.terms):
        assert ids.setdefault(_class_of(t), i) == i, f"two terms of one class: {t}"
    for t, i in reduced.index.items():
        assert ids[_class_of(t)] == i
    h = {u: ids[c] for u, c in enumerate(map(_class_of, full.terms)) if c in ids}
    assert [h[r] for r in full.roots] == reduced.roots
    for u, v in h.items():
        assert full.inconsistent[u] == reduced.inconsistent[v], full.terms[u]
    reached = full.state_ids()
    for u in reached:
        v = h[u]
        assert reduced.transitions[v] is not UNSTORED
        assert {(a, h[w]) for a, w in full.transitions[u]} == set(reduced.transitions[v])
    image = sorted(h[u] for u in reached)
    if bijective:
        assert image == reduced.state_ids()
    else:
        assert sorted(set(image)) == reduced.state_ids()
    return True


class TestReferenceQuotient:
    @GENERATED
    def test_generated(self, seed, depth):
        config = GenConfig(seed=seed, max_depth=depth)
        built = [_assert_quotient([_gen_term_trial(config, k)]) for k in range(300)]
        assert sum(built) > 250

    def test_golden_terms(self):
        terms = list(golden._generated().values())
        terms += [parse(text) for text in golden._check_shapes().values()]
        built = [_assert_quotient([t]) for t in terms]
        assert sum(built) > 0.9 * len(built)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("distinct", [False, True], ids=["shared", "distinct"])
    def test_interleavings(self, n, distinct):
        p = parse(golden._interleaving(n, None, distinct))
        assert _assert_quotient([p], bijective=distinct)
        for k in range(n):
            q = parse(golden._interleaving(n, k, distinct))
            assert _assert_quotient([p, q], bijective=distinct)

    def test_reordered_copies_share_the_root(self):
        copies = [parse(f"<X | X = a{j}.(b{j}.X \\/ c{j}.X)>") for j in range(4)]
        p = reduce(lambda l, r: Parallel((), l, r), copies)
        q = reduce(lambda l, r: Parallel((), r, l), reversed(copies))
        assert p is not q
        lts = build_combined([p, q])
        assert lts.roots[0] == lts.roots[1]
        assert _assert_quotient([p, q])


class TestClassCounts:
    @pytest.mark.parametrize("n, states", [(4, 29), (5, 40), (6, 53), (7, 68)])
    def test_shared_interleaving(self, n, states):
        lts = build_lts(parse(golden._interleaving(n)))
        assert sum(succ is not UNSTORED for succ in lts.transitions) == states

    @pytest.mark.parametrize("n, states", [(3, 66), (4, 205), (5, 668)])
    def test_distinct_interleaving_is_not_reduced(self, n, states):
        lts = build_lts(parse(golden._interleaving(n, None, True)))
        assert sum(succ is not UNSTORED for succ in lts.transitions) == states
        assert len(lts.index) == len(lts.terms)


class TestClassKeys:
    def test_doubling_chain_key_stays_small(self):
        # each expansion doubles the chain: hash-consing keeps it a DAG of
        # linear size, and its bags hold one pair each, so the build reaches
        # the bound in little memory and time; a key that flattened the
        # chain would take time and memory exponential in the depth, so the
        # build runs in a child process with a time limit
        code = (
            "import tracemalloc\n"
            "from llts.semantics import BuildLimits, StateBoundExceeded, build_lts\n"
            "from llts.syntax import parse\n"
            "t = parse('<X | X = a.(X |[a,c]| X)>')\n"
            "tracemalloc.start()\n"
            "try:\n"
            "    build_lts(t, BuildLimits(800))\n"
            "except StateBoundExceeded:\n"
            "    print(tracemalloc.get_traced_memory()[1])\n"
        )
        src = os.path.dirname(os.path.dirname(llts.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 20_000_000

    def test_wide_chain_under_a_low_recursion_limit(self):
        text = " |[]| ".join(["<X | X = a.X>"] * 5000)
        expected = build_lts(parse(text))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            lts = build_lts(parse(text))
        finally:
            sys.setrecursionlimit(limit)
        assert sys.getrecursionlimit() == limit
        assert lts.terms == expected.terms and lts.transitions == expected.transitions
        assert lts.inconsistent == expected.inconsistent
        assert len(lts.terms) == 5001 and lts.transitions[lts.root] == (("a", lts.root),)
