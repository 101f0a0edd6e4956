"""Seeded inputs, operations and independent answers for the llts benchmark.

Every input is source text, so each operation runs the public pipeline a user
runs: ``parse`` then ``build_lts`` and the root flag (``llts check``), or
``parse`` then ``refines`` / ``equivalent`` (``llts refine`` / ``llts equiv``).
The expected verdict of every input follows from how it is built; none comes
from the code under test.  ``verify`` re-derives a sample of those answers with
the independent oracles, outside every timed region.

Inputs come in blocks with a fixed mix of shapes and sizes in a fixed order;
the seed picks the changed branch or copy and the action names.  Each operation
gets action names no earlier operation used, so nothing is answered from the
hash-consing table of an earlier input.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASELINE = ROOT / "baselines" / "regression.json"

DISJ = "\\/"
CHOICE = "[]"


class MissingProgram(RuntimeError):
    """The checkout does not hold the llts sources the benchmark runs."""


def import_llts(with_properties: bool = False):
    """Import llts from this checkout's ``src`` directory, never from anywhere
    else on the path."""
    if not (SRC / "llts" / "__init__.py").is_file():
        raise MissingProgram(f"no llts package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import llts
    from llts import refinement, semantics, syntax

    if Path(llts.__file__).resolve().parent != SRC / "llts":
        raise MissingProgram(f"imported llts from {llts.__file__}, not {SRC}")
    if with_properties:
        from llts import properties  # noqa: F401
    return llts


@dataclass(frozen=True)
class Op:
    """One question: ``kind`` is check, refines or equivalent; ``shape``
    names the input without its action names; ``expected`` is the verdict
    (inconsistent for check, holds for refines and equivalent)."""

    kind: str
    shape: tuple
    texts: tuple[str, ...]
    expected: bool


def run_op(llts, op: Op) -> bool:
    """Answer ``op`` through the public entry points, looked up on their
    modules at call time so that a tracer can wrap them."""
    syntax = llts.syntax
    if op.kind == "check":
        lts = llts.semantics.build_lts(syntax.parse(op.texts[0]))
        return lts.inconsistent[lts.root]
    p, q = syntax.parse(op.texts[0]), syntax.parse(op.texts[1])
    if op.kind == "refines":
        return llts.refinement.refines(p, q).holds
    return llts.refinement.equivalent(p, q)


def _shape_rng(block: int) -> random.Random:
    """Order and sizes within a block do not depend on the seed, so every
    seed does the same work and meets garbage collections at the same points."""
    return random.Random(block)


def _salt(seed: int) -> str:
    """Letters that make one seed's action names differ from another's."""
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))


def interleaving(copies, names, swapped: int | None = None) -> str:
    """Copies of ``<X | X = a.(b.X \/ c.X)>`` joined by ``|[]|``, in the
    order ``copies``; ``names(j)`` gives copy j's actions a, b, c, and copy
    ``swapped`` offers b and c by external choice instead."""
    parts = []
    for j in copies:
        a, b, c = names(j)
        op = CHOICE if j == swapped else DISJ
        parts.append(f"(<X | X = {a}.({b}.X {op} {c}.X)>)")
    return " |[]| ".join(parts)


# ---------------------------------------------------------------------------
# refine-interleave: n copies sharing the actions a, b, c


# (kind, n, holds) per block.  Sorted by cost the block reads: two holding
# refinements, two holding equivalences, two refuted pairs, one n=5 holding
# refinement; so the median lies inside the equivalence group and the 90th
# percentile inside the n=5 group, neither on the edge between groups.
# n=5 refuted pairs cost about three seconds each and are left out.
REFINE_BLOCK = (
    ("refines", 5, True),
    ("refines", 4, True),
    ("refines", 4, True),
    ("refines", 4, False),
    ("equivalent", 4, True),
    ("equivalent", 4, True),
    ("equivalent", 4, False),
)


def refine_block(seed: int, block: int) -> list[Op]:
    """Block ``block`` of the refine-interleave stream.  A refuted pair is
    (P, P') where P' turns copy k's disjunction into an external choice: after
    copy k's ``a`` only P' offers b and c together, a ready-set mismatch in
    both directions.  Over four blocks every k from 0 to 3 is used."""
    salt, offset = _salt(seed), seed % 4
    kinds = list(REFINE_BLOCK)
    _shape_rng(block).shuffle(kinds)
    ops = []
    for i, (kind, n, holds) in enumerate(kinds):
        tag = f"{salt}{block * len(REFINE_BLOCK) + i}"
        names = lambda j, tag=tag: (f"a{tag}", f"b{tag}", f"c{tag}")  # noqa: E731
        k = None if holds else (block + offset + (2 if kind == "equivalent" else 0)) % n
        p = interleaving(range(n), names)
        q = interleaving(range(n), names, k)
        ops.append(Op(kind, ("interleave", n, k), (p, q), holds))
    return ops


# ---------------------------------------------------------------------------
# check-build: wide choice, deep chains, conjunctions of interleavings

CONJ_COPIES = 3

# One block of check-build is 20 ops: (family, inconsistent, size).  By cost
# they sort into conjunctions and depth-500 chains (35%), small wide choices,
# recursion chains of depth 2750 and prefix chains of depth 5000 (the middle
# half), then wide choices at K=1000 (the top 15%).  So the median falls
# inside the deep chains and the 90th percentile inside the K=1000 group,
# neither on the edge between two groups.  Every family and verdict has a
# smallest input (K=250 or 500, depth 500) cheap enough for the naive
# fixpoint in ``verify``.
CHECK_BLOCK = (
    ("conj", False, CONJ_COPIES),
    ("conj", True, CONJ_COPIES),
    ("conj", False, CONJ_COPIES),
    *[(kind, bad, 500) for kind in ("prefix", "rec") for bad in (False, True)],
    ("wide", False, 250),
    ("wide", True, 500),
    *[(kind, bad, depth) for kind, depth in (("rec", 2750), ("prefix", 5000)) for bad in (False, True, False, True)],
    ("wide", False, 1000),
    ("wide", True, 1000),
    ("wide", True, 1000),
)


def wide_choice(k: int, tag: str, bot_at: int | None) -> str:
    """``x0.0 [] ... [] x{k-1}.0``; a ``bot`` branch at ``bot_at`` makes the
    choice inconsistent, since a choice is inconsistent when an operand is."""
    branches = [f"x{i}{tag}.0" for i in range(k)]
    if bot_at is not None:
        branches[bot_at] = "bot"
    return " [] ".join(branches)


def prefix_chain(depth: int, tag: str, inconsistent: bool) -> str:
    """``depth`` prefixes ending in a disjunction.  ``y.0 \\/ bot`` is
    consistent (a disjunction needs both operands inconsistent); ``y.bot \\/
    bot`` is not, and prefixes pass inconsistency up to the root."""
    end = f"(y{tag}.bot {DISJ} bot)" if inconsistent else f"(y{tag}.0 {DISJ} bot)"
    return ".".join(f"x{i}{tag}" for i in range(depth)) + "." + end


def recursion_chain(depth: int, tag: str, inconsistent: bool) -> str:
    """``<X | X = x0. ... .(X [] e)>`` with ``e`` = ``y.0`` (consistent) or
    ``bot`` (inconsistent: the choice, every prefix above it and the
    recursion, whose expansion it is, are inconsistent)."""
    end = "bot" if inconsistent else f"y{tag}.0"
    body = ".".join(f"x{i}{tag}" for i in range(depth))
    return f"<X | X = {body}.(X [] {end})>"


def conjunction(tag: str, swapped: int | None) -> str:
    """P /\\ Q with P the interleaving and Q the same copies in reverse order.
    Q is P reordered, so P refines both conjuncts: consistent.  With copy k of
    Q swapped to external choice, any common refinement must offer after a_k
    exactly one of b_k, c_k (to match P) and both (to match Q): inconsistent.
    Each copy j has its own actions a_j, b_j, c_j."""
    names = lambda j: (f"a{j}{tag}", f"b{j}{tag}", f"c{j}{tag}")  # noqa: E731
    order = range(CONJ_COPIES)
    return f"({interleaving(order, names)}) /\\ ({interleaving(order[::-1], names, swapped)})"


def check_block(seed: int, block: int) -> list[Op]:
    """Block ``block`` of the check-build stream: CHECK_BLOCK in an order
    that does not depend on the seed; the seed places the ``bot`` branch and
    picks the swapped copy of each inconsistent conjunction."""
    salt = _salt(seed)
    specs = list(CHECK_BLOCK)
    _shape_rng(block).shuffle(specs)
    positions = random.Random(seed * 1_000_003 + block)
    ops = []
    for i, (family, bad, size) in enumerate(specs):
        tag = f"{salt}{block * len(specs) + i}"
        if family == "wide":
            pos = positions.randrange(size) if bad else None
            text = wide_choice(size, tag, pos)
            shape = ("wide", size, pos)
        elif family == "prefix":
            text = prefix_chain(size, tag, bad)
            shape = ("prefix", size, bad)
        elif family == "rec":
            text = recursion_chain(size, tag, bad)
            shape = ("rec", size, bad)
        else:
            k = positions.randrange(CONJ_COPIES) if bad else None
            text = conjunction(tag, k)
            shape = ("conj", size, k)
        ops.append(Op("check", shape, (text,), bad))
    return ops


BLOCKS = {"refine-interleave": refine_block, "check-build": check_block}


# ---------------------------------------------------------------------------
# independent confirmation of the constructed answers


def verify(llts, workload: str, ops: list[Op]) -> list[str]:
    """Re-derive a sample of the expected verdicts with the independent
    oracles; returns one message per disagreement.

    refine-interleave: every distinct shape with n <= 4 is decided by
    ``alt_refines`` (for an equivalence, the pair's refuting or holding
    direction).  check-build: the smallest input of each family and verdict
    is built and its root decided by ``inconsistent_fixpoint_naive``, whose
    full set must also match the worklist fixpoint's flags.
    """
    from llts import properties

    problems = []
    if workload == "refine-interleave":
        seen = {}
        for op in ops:
            if op.shape[1] <= 4:
                seen.setdefault(op.shape, op)
        for shape, op in sorted(seen.items(), key=lambda kv: repr(kv[0])):
            p, q = (llts.syntax.parse(t) for t in op.texts)
            if llts.refinement.alt_refines(p, q) != op.expected:
                problems.append(f"alt_refines disagrees on {shape}")
        return problems
    smallest = {}  # (family, verdict) -> its smallest op; shape[1] is the size
    for op in ops:
        key = (op.shape[0], op.expected)
        if key not in smallest or op.shape[1] < smallest[key].shape[1]:
            smallest[key] = op
    for key, op in sorted(smallest.items(), key=lambda kv: repr(kv[0])):
        lts = llts.semantics.build_lts(llts.syntax.parse(op.texts[0]))
        naive = properties.inconsistent_fixpoint_naive(lts)
        if (lts.root in naive) != op.expected:
            problems.append(f"naive fixpoint disagrees on {op.shape}")
        if naive != frozenset(i for i, f in enumerate(lts.inconsistent) if f):
            problems.append(f"worklist and naive fixpoints differ on {op.shape}")
    return problems


def check_determinism(workload: str, seed: int) -> list[str]:
    """The first four blocks are identical for the same seed and differ for
    another seed."""
    make = BLOCKS[workload]

    def stream(s: int) -> list[Op]:
        return [op for b in range(4) for op in make(s, b)]

    first = stream(seed)
    problems = []
    if first != stream(seed):
        problems.append("the same seed gave different inputs")
    if first == stream(seed + 1):
        problems.append("another seed gave the same inputs")
    return problems
