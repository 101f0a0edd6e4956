"""Golden outputs: the bytes llts gives, pinned as one sha256 per case and
output family in ``baselines/outputs.json``.

The corpus is built from seeds, with no input file:

- generated pairs (p, q) from ``_gen_term_trial`` and their holding variants
  (p, p \\/ q), and the graph of every generated term;
- n-fold interleavings of ``<X | X = a.(b.X \\/ c.X)>`` at n = 3-5: P against
  P, and P against each copy with one disjunction swapped for an external
  choice, both ways round;
- small ``check-build`` shapes: wide choices with and without ``bot``, prefix
  and recursion chains, and conjunctions of 2-fold interleavings;
- malformed texts: well-formed ones with one seeded character inserted or
  deleted.

The families are, per pair, ``refines`` (``verdict_to_json``),
``equivalent``, ``stable`` (``stable_refines``), ``sim`` (the sorted index
pairs of ``largest_stable_sim`` on the pair's graph) and ``certify``
(``check_verdict`` on the ``refines`` verdict); per term, ``lts_json``,
``lts_text`` and ``lts_dot`` (of ``build_lts``); and per text, ``parse``: a
``ParseError``'s message, span and expected tokens, or else the term the
text gives.

Check the pins:        PYTHONPATH=src python -m tests.golden
Write them again:      PYTHONPATH=src python -m tests.golden --write

A change that alters output bytes on purpose writes the file again and names
the cases that changed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from llts.properties import GenConfig, _gen_term_trial
from llts.refinement import (
    check_verdict,
    equivalent,
    largest_stable_sim,
    refines,
    stable_refines,
    verdict_to_json,
)
from llts.semantics import build_lts, lts_to_dot, lts_to_json, lts_to_text
from llts.syntax import ParseError, parse
from llts.terms import Disj, Term

PINS = Path(__file__).resolve().parents[1] / "baselines" / "outputs.json"

GEN_SEEDS = range(10)
GEN_TRIALS = 40
MALFORMED = 300
# what an inserted character is drawn from: every character the grammar uses
SYNTAX_CHARS = "ab0XY.()<>|=,[]\\/ "


def _interleaving(n: int, swapped: int | None = None, distinct: bool = False) -> str:
    """``n`` copies of ``<X | X = a.(b.X \\/ c.X)>`` joined by ``|[]|``;
    copy ``swapped`` offers b and c by external choice instead, and with
    ``distinct`` copy j has actions of its own: aj, bj and cj."""
    parts = []
    for j in range(n):
        a, b, c = (f"a{j}", f"b{j}", f"c{j}") if distinct else ("a", "b", "c")
        op = "[]" if j == swapped else "\\/"
        parts.append(f"(<X | X = {a}.({b}.X {op} {c}.X)>)")
    return " |[]| ".join(parts)


def _check_shapes() -> dict[str, str]:
    """Small instances of the ``check-build`` families, by name."""
    k, depth = 50, 50
    wide = [f"x{i}.0" for i in range(k)]
    prefixes = ".".join(f"x{i}" for i in range(depth))
    shapes = {f"wide/{k}": " [] ".join(wide)}
    for pos in (0, k // 2, k - 1):
        shapes[f"wide/{k}/bot{pos}"] = " [] ".join(wide[:pos] + ["bot"] + wide[pos + 1 :])
    shapes[f"prefix/{depth}/consistent"] = f"{prefixes}.(y.0 \\/ bot)"
    shapes[f"prefix/{depth}/inconsistent"] = f"{prefixes}.(y.bot \\/ bot)"
    shapes[f"rec/{depth}/consistent"] = f"<X | X = {prefixes}.(X [] y.0)>"
    shapes[f"rec/{depth}/inconsistent"] = f"<X | X = {prefixes}.(X [] bot)>"
    for swapped in (None, 0, 1):
        tail = "" if swapped is None else f"/swap{swapped}"
        shapes[f"conj/2{tail}"] = f"({_interleaving(2, None, True)}) /\\ ({_interleaving(2, swapped, True)})"
    return shapes


def _generated() -> dict[str, Term]:
    """The generated terms, by seed and trial."""
    return {
        f"gen/s{seed}/t{trial}": _gen_term_trial(GenConfig(seed=seed), trial)
        for seed in GEN_SEEDS
        for trial in range(2 * GEN_TRIALS)
    }


def _malformed(bases: list[str]) -> dict[str, str]:
    """``MALFORMED`` texts, each a base text with one seeded character
    inserted or deleted."""
    rng = random.Random(0)
    out = {}
    for i in range(MALFORMED):
        text = rng.choice(bases)
        pos = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 and pos < len(text):
            text = text[:pos] + text[pos + 1 :]
        else:
            text = text[:pos] + rng.choice(SYNTAX_CHARS) + text[pos:]
        out[f"malformed/{i}"] = text
    return out


def _pair(p: Term, q: Term) -> dict[str, str]:
    verdict = refines(p, q)
    lts = verdict.lts
    return {
        "refines": verdict_to_json(verdict),
        "equivalent": str(equivalent(p, q)),
        "stable": str(stable_refines(p, q)),
        "sim": json.dumps(sorted(largest_stable_sim(lts).pairs)),
        "certify": str(check_verdict(lts, *lts.roots, verdict)),
    }


def _graph(t: Term) -> dict[str, str]:
    lts = build_lts(t)
    return {"lts_json": lts_to_json(lts), "lts_text": lts_to_text(lts), "lts_dot": lts_to_dot(lts)}


def _parse(text: str) -> dict[str, str]:
    try:
        t = parse(text)
    except ParseError as e:
        return {"parse": json.dumps([e.message, e.span.start, e.span.end, list(e.expected)])}
    return {"parse": f"term: {t}"}


def outputs() -> dict[str, dict[str, str]]:
    """Every case's outputs, by case name and family."""
    out: dict[str, dict[str, str]] = {}
    terms = _generated()
    for seed in GEN_SEEDS:
        for k in range(GEN_TRIALS):
            p, q = terms[f"gen/s{seed}/t{2 * k}"], terms[f"gen/s{seed}/t{2 * k + 1}"]
            out[f"pair/s{seed}/t{2 * k},{2 * k + 1}"] = _pair(p, q)
            out[f"pair/s{seed}/t{2 * k},{2 * k + 1}/holding"] = _pair(p, Disj(p, q))
    for name, t in terms.items():
        out[name] = _graph(t)
    for n in range(3, 6):
        p = parse(_interleaving(n))
        out[f"interleave/{n}"] = _pair(p, p)
        for k in range(n):
            q = parse(_interleaving(n, k))
            out[f"interleave/{n}/P<=swap{k}"] = _pair(p, q)
            out[f"interleave/{n}/swap{k}<=P"] = _pair(q, p)
    shapes = _check_shapes()
    for name, text in shapes.items():
        out[name] = _graph(parse(text))
    bases = [str(t) for t in terms.values()] + [_interleaving(3, 1), *shapes.values()]
    for name, text in _malformed(bases).items():
        out[name] = _parse(text)
    return out


def digests(outs: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    return {
        case: {family: hashlib.sha256(text.encode()).hexdigest() for family, text in families.items()}
        for case, families in outs.items()
    }


def mismatches(pinned: dict, found: dict) -> list[str]:
    """One line per case and family whose digest differs from its pin, or
    that only one side has."""
    problems = []
    for case in sorted(pinned.keys() | found.keys()):
        want, got = pinned.get(case, {}), found.get(case, {})
        for family in sorted(want.keys() | got.keys()):
            if want.get(family) != got.get(family):
                problems.append(f"{case} [{family}]: pinned {want.get(family)}, got {got.get(family)}")
    return problems


def main(argv: list[str]) -> int:
    found = digests(outputs())
    if argv == ["--write"]:
        lines = (f"{json.dumps(case)}: {json.dumps(found[case], sort_keys=True)}" for case in sorted(found))
        PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {sum(map(len, found.values()))} digests over {len(found)} cases to {PINS}")
        return 0
    if argv:
        print("usage: python -m tests.golden [--write]", file=sys.stderr)
        return 2
    problems = mismatches(json.loads(PINS.read_text()), found)
    print("\n".join(problems) or f"all {len(found)} cases match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
