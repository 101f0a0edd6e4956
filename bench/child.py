"""One block of a workload in a fresh interpreter; ``run.py`` starts it.

    python3 bench/child.py WORKLOAD SEED BLOCK TRACE

Imports llts and makes the block's inputs (the set-up, timed), then answers
them one at a time, each op after the previous verdict, timing each.  The
machine's speed is sampled before the set-up and after it and every op, so
that each time is also reported scaled to the reference speed (speed.py).  On
props-baseline the block is one pass of ``properties.run_baseline`` over
baselines/regression.json, row by row, as ``llts props --baseline`` runs it.
With TRACE=1 the ops run under the tracer and the per-layer totals are
reported.  Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

_opened: list[str] = []


def _record_open(event: str, args: tuple) -> None:
    if event == "open" and isinstance(args[0], str):
        _opened.append(args[0])


def _data_files() -> list[str]:
    """Opened paths that are not Python code or directories."""
    out = set()
    for path in map(Path, _opened):
        if path.suffix not in (".py", ".pyc", ".so") and not path.is_dir():
            out.add(str(path.resolve()))
    return sorted(out)


def verdict_block(llts, ops, tracer, totals, before: float) -> dict:
    latencies, scaled = [], []
    wrong = failed = 0
    problems: list[str] = []
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
            tracer.__enter__()
        start = perf_counter()
        try:
            verdict = workloads.run_op(llts, op)
        except Exception as err:  # a failed op is counted, and the block goes on
            verdict = None
            problems.append(f"{op.shape} raised {type(err).__name__}: {err}")
        elapsed = perf_counter() - start
        if tracer:
            tracer.__exit__()
            problems += tracing.analyse_graphs(llts, tracer.graphs, totals)
            tracer.graphs.clear()
        after = speed.sample()
        if verdict is None:
            failed += 1
        else:
            latencies.append(elapsed)
            scaled.append(speed.scaled(elapsed, before, after))
            wrong += verdict != op.expected
        before = after
    return {
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "latencies": latencies,
        "scaled": scaled,
        "op_s": sum(latencies),
        "scaled_op_s": sum(scaled),
        "problems": problems,
    }


def props_block(llts, entries, tracer, totals, before: float) -> dict:
    properties = llts.properties
    rows = []
    problems: list[str] = []
    for index, entry in enumerate(entries):
        if tracer:
            tracer.op = index
            tracer.__enter__()
        row = {"entry": list(entry), "failures": 0, "skipped": 0}
        start = perf_counter()
        try:
            report = properties.run_baseline([entry])[0]
        except Exception as err:  # a crashed row counts as failed trials
            problems.append(f"{entry[0]} raised {type(err).__name__}: {err}")
            row["trials"] = row["skipped"] = entry[2]
        else:
            row["trials"] = report.trials
            row["failures"] = len(report.failures)
            row["skipped"] = len(report.skipped)
        row["seconds"] = perf_counter() - start
        if tracer:
            tracer.__exit__()
            problems += tracing.analyse_graphs(llts, tracer.graphs, totals)
            tracer.graphs.clear()
        after = speed.sample()
        row["scaled_seconds"] = speed.scaled(row["seconds"], before, after)
        before = after
        rows.append(row)
    return {
        "attempted": sum(row["trials"] for row in rows),
        "failed": sum(row["skipped"] for row in rows),
        "wrong": sum(row["failures"] for row in rows),
        "rows": rows,
        "op_s": sum(row["seconds"] for row in rows),
        "scaled_op_s": sum(row["scaled_seconds"] for row in rows),
        "problems": problems,
        "data_files": _data_files(),
    }


def main(workload: str, seed: int, block: int, trace: bool) -> dict:
    ready = speed.sample()
    start = perf_counter()
    if workload == "props-baseline":
        llts = workloads.import_llts(with_properties=True)
        inputs = llts.properties.load_baseline(str(workloads.BASELINE))
        run = props_block
    else:
        llts = workloads.import_llts()
        inputs = workloads.BLOCKS[workload](seed, block)
        run = verdict_block
    setup_s = perf_counter() - start
    set_up = speed.sample()

    tracer = tracing.Tracer(llts) if trace else None
    totals = tracing.new_totals()
    result = run(llts, inputs, tracer, totals, set_up)
    result["setup_s"] = setup_s
    result["scaled_setup_s"] = speed.scaled(setup_s, ready, set_up)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracing.add_span_totals(tracer.spans, totals)
        totals["rejected"] += tracer.rejected
        result["totals"] = dict(totals)
        result["calls"] = dict(tracer.calls)
    return result


if __name__ == "__main__":
    sys.addaudithook(_record_open)
    workload, seed, block, trace = sys.argv[1:]
    try:
        print(json.dumps(main(workload, int(seed), int(block), trace == "1")))
    except tracing.TraceError as err:
        print(err, file=sys.stderr)
        sys.exit(3)
