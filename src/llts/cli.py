"""Command-line front end.

Exit codes: 0 holds/pass, 1 refuted/fail/inconsistent, 2 a bad input (file,
option, syntax, binding, guardedness) or the state bound exceeded, 3 an
internal error (a fault of the program, not of its input).
``LLTS_MAX_STATES`` overrides the default state bound.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections.abc import Sequence
from dataclasses import replace

from . import properties, refinement, semantics, syntax
from .semantics import BuildLimits, StateBoundExceeded
from .syntax import ParseError


def _limits(args) -> BuildLimits:
    """Build limits from the flags; without ``--max-states`` the state bound
    is ``LLTS_MAX_STATES``, else the default."""
    max_states = args.max_states
    if max_states is None:
        env = os.environ.get("LLTS_MAX_STATES") or str(semantics.DEFAULT_MAX_STATES)
        try:
            max_states = int(env)
        except ValueError:
            raise ValueError(f"LLTS_MAX_STATES is not an integer: {env!r}") from None
    return BuildLimits(max_states=max_states)


def _add_limit_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-states", type=int, default=None)


def expand_source(text: str) -> tuple[str, list[int]]:
    """Strip ``#`` comments and expand ``let NAME = TERM`` definitions in the
    remaining term, textually and in order.  NAME is an identifier, not a
    reserved word, defined once; an error spans the bad line's text.

    Returns the expanded text and, for each of its characters and for its
    end, the offset in ``text`` it comes from: an expanded body's characters
    come from its ``let`` line, the parentheses around it from the name."""
    lets: dict[str, tuple[str, list[int]]] = {}
    term_lines: list[tuple[str, int]] = []
    offset = 0
    for line in text.splitlines(keepends=True):
        start, offset = offset, offset + len(line)
        line = line.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        start += len(line) - len(line.lstrip())
        if stripped.startswith("let "):
            span = syntax.SourceSpan(start, start + len(stripped))
            head, _, rhs = stripped[4:].partition("=")
            name = head.strip()
            if not name or not rhs.strip():
                raise ParseError(span, f"malformed let definition: {stripped!r}")
            if not syntax._IDENT.fullmatch(name):
                raise ParseError(span, f"let name is not an identifier: {name!r}")
            if name in syntax._RESERVED:
                raise ParseError(span, f"let name is a reserved word: {name!r}")
            if name in lets:
                raise ParseError(span, f"let name defined twice: {name!r}")
            body_start = start + len(stripped) - len(rhs.lstrip())
            body = rhs.strip()
            lets[name] = _expand(body, range(body_start, body_start + len(body)), lets)
        else:
            term_lines.append((stripped, start))
    origins: list[int] = []
    for stripped, start in term_lines:  # each line's end is the joining space
        origins += range(start, start + len(stripped) + 1)
    expanded, where = _expand(" ".join(s for s, _ in term_lines), origins, lets)
    return expanded, where + (origins[-1:] or [0])


def _expand(
    text: str, origins: Sequence[int], lets: dict[str, tuple[str, list[int]]]
) -> tuple[str, list[int]]:
    """``text`` with each identifier that names a ``let`` replaced by its
    body in parentheses, identifiers found by the tokenizer's rule."""
    out: list[str] = []
    where: list[int] = []
    i = 0
    for m in syntax._IDENT.finditer(text):
        if m[0] in lets:
            body, body_origins = lets[m[0]]
            out += (text[i : m.start()], f"({body})")
            where += (*origins[i : m.start()], origins[m.start()], *body_origins, origins[m.end() - 1])
            i = m.end()
    out.append(text[i:])
    where += origins[i : len(text)]
    return "".join(out), where


def _file_span(span: syntax.SourceSpan, origins: list[int]) -> syntax.SourceSpan:
    """A span of the expanded text as a span of the file it came from."""
    start = origins[span.start]
    end = origins[span.end - 1] + 1 if span.end > span.start else start
    return syntax.SourceSpan(start, end)


def _read_source(path: str) -> str:
    """A file, or standard input for ``-``, read as bytes and decoded as UTF-8
    with universal newlines, as ``open`` reads a file in text mode, whatever
    the locale.  Standard input is read through ``sys.stdin.buffer``, so a
    replacement ``sys.stdin`` must have a binary buffer (an
    ``io.TextIOWrapper``, not an ``io.StringIO``)."""
    if path == "-":
        name, data = "standard input", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            name, data = path, handle.read()
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
        try:
            return text.read()
        except UnicodeDecodeError as err:
            raise ValueError(f"{name} is not UTF-8: {err}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="llts",
        description="Workbench for process terms over logic labelled transition systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse a file (or - for stdin) and print the canonical form")
    p_parse.add_argument("file")

    p_lts = sub.add_parser("lts", help="build and export the transition graph of a term")
    p_lts.add_argument("term")
    p_lts.add_argument("--format", choices=("text", "json", "dot"), default="text")
    _add_limit_args(p_lts)

    p_check = sub.add_parser("check", help="report whether a term is consistent")
    p_check.add_argument("term")
    _add_limit_args(p_check)

    p_refine = sub.add_parser("refine", help="decide whether the second term refines the first")
    p_refine.add_argument("p")
    p_refine.add_argument("q")
    p_refine.add_argument("--format", choices=("text", "json"), default="text")
    p_refine.add_argument(
        "--certify",
        action="store_true",
        help="check the verdict's explanation against the graph; for a refutation, only that its path"
        " replays and its reason holds at the path's end, which does not show that q fails to simulate p",
    )
    _add_limit_args(p_refine)

    p_equiv = sub.add_parser("equiv", help="decide mutual refinement")
    p_equiv.add_argument("p")
    p_equiv.add_argument("q")
    _add_limit_args(p_equiv)

    p_validate = sub.add_parser("validate", help="run the model validators on a term's graph")
    p_validate.add_argument("term")
    _add_limit_args(p_validate)

    p_props = sub.add_parser("props", help="run the theorem checks on generated terms")
    p_props.add_argument("--seed", type=int, default=None)
    p_props.add_argument("--trials", type=int, default=None)
    p_props.add_argument("--only", choices=sorted(properties.ALL_CHECKS), default=None)
    p_props.add_argument("--format", choices=("text", "json"), default="text")
    p_props.add_argument(
        "--baseline", default=None, help="run a pinned-seed baseline file instead"
    )

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, OSError, ValueError, StateBoundExceeded) as err:
        # ValueError also covers the guardedness and binding errors
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # never exit 1, which is a verdict
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "parse":
        text, origins = expand_source(_read_source(args.file))
        try:
            term = syntax.parse(text)
        except ParseError as err:
            raise replace(err, span=_file_span(err.span, origins)) from None
        print(syntax.print_term(term))
        return 0

    if args.command in ("lts", "check", "validate"):
        lts = semantics.build_lts(syntax.parse(args.term), _limits(args))
    elif args.command in ("refine", "equiv"):
        p, q = syntax.parse(args.p), syntax.parse(args.q)

    if args.command == "lts":
        export = {
            "text": semantics.lts_to_text,
            "json": semantics.lts_to_json,
            "dot": semantics.lts_to_dot,
        }
        print(export[args.format](lts))
        return 0

    if args.command == "check":
        if lts.inconsistent[lts.root]:
            print("inconsistent")
            return 1
        print("consistent")
        return 0

    if args.command == "refine":
        verdict = refinement.refines(p, q, _limits(args))
        if args.certify:
            failure = refinement.check_verdict(verdict.lts, *verdict.lts.roots, verdict)
            if failure is not None:
                raise RuntimeError(f"certificate check failed: {failure}")
        if args.format == "json":
            print(refinement.verdict_to_json(verdict))
        elif verdict.holds:
            print("holds")
        else:
            cex = verdict.counterexample
            print("refuted")
            print(f"  reason: {cex.reason}")
            for action, state in cex.path:
                print(f"  {action}: {state}")
        return 0 if verdict.holds else 1

    if args.command == "equiv":
        if refinement.equivalent(p, q, _limits(args)):
            print("equivalent")
            return 0
        print("not equivalent")
        return 1

    if args.command == "validate":
        report = semantics.validate_llts(lts)
        for name, value in (
            ("tau-pure", report.tau_pure),
            ("lts1", report.lts1),
            ("lts2", report.lts2),
            ("forward-tau-f", report.forward_tau_f),
        ):
            print(f"{name}: {'ok' if value else 'VIOLATED'}")
        for state, prop in report.counterexamples:
            print(f"  violation {prop}: {state}")
        return 0 if report.ok else 1

    if args.command == "props":
        if args.baseline:
            clash = [f"--{name}" for name in ("seed", "trials", "only") if getattr(args, name) is not None]
            if clash:
                raise ValueError(f"--baseline takes no {', '.join(clash)}: its file pins them")
            reports = properties.run_baseline(properties.load_baseline(args.baseline))
        else:
            reports = properties.run_checks(args.seed or 0, args.trials, args.only)
        for report in reports:
            if args.format == "json":
                print(properties.report_to_json(report))
            else:
                print(report.summary())
                for f in report.failures[:5]:
                    print(f"  failure: seed={f.seed} trial={f.trial} inputs={list(f.inputs)}")
                    print(f"           observed={f.observed} expected={f.expected}")
                for note in report.notes:
                    print(f"  note: {note}")
        return 0 if all(r.passed for r in reports) else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
