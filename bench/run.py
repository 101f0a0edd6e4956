"""Benchmark of the llts workbench: seeded, closed-loop verdict workloads.

Run from the repository root:

    python3 bench/run.py --workload refine-interleave --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists and which layer it should move):
refine-interleave, check-build and props-baseline.  One client issues each op
after the previous verdict returns; there are no threads.  A run is a number
of blocks, one after another, each in a fresh interpreter (bench/child.py).

--trace 0 measures the end-to-end metrics with nothing wrapped.  Their times
are scaled to a reference machine speed, sampled around every op (speed.py),
so that the drift of a shared machine cancels; the raw medians are printed on
the line before the result.  --trace 1
runs every block twice, untraced and traced, and reports the per-layer
metrics and the tracing overhead.  Every verdict is checked against an answer
known by construction; after the timed blocks, a sample of those answers is
confirmed by the independent oracles and the inputs are checked to be
deterministic in the seed.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the metric names
and units are those BENCHMARK.json declares.

Exit status: 0 with a result line; 1 if a child process failed; 2 if the
checkout holds no llts sources or BENCHMARK.json; 3 if a traced name was
missing or never called.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = workloads.ROOT / "BENCHMARK.json"
WORKLOADS = ("refine-interleave", "check-build", "props-baseline")

# A run does a fixed amount of work, set by --seconds alone: as many blocks as
# took about that long on a shared 2-core Linux machine when the benchmark was
# defined.  So a parent and a change answer exactly the same ops.
#   workload: (nominal seconds per block, least blocks per run)
# A verdict-stream run does at least 100 ops, so that at least ten latencies
# lie beyond the 90th percentile.
BLOCKS = {
    "refine-interleave": (2.4, -(-100 // len(workloads.REFINE_BLOCK))),
    "check-build": (5.5, -(-100 // len(workloads.CHECK_BLOCK))),
    "props-baseline": (7.5, 1),
}
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def blocks_per_run(workload: str, seconds: float, trace: bool) -> int:
    """Blocks in a run; a traced run gives half its time to each phase."""
    nominal_s, least = BLOCKS[workload]
    if trace:
        return max(1, round(seconds / 2 / nominal_s))
    return max(least, round(seconds / nominal_s))


def child(workload: str, seed: int, block: int, traced: bool) -> dict:
    """Run one block in a fresh interpreter and return its JSON summary."""
    args = [workload, str(seed), str(block), "1" if traced else "0"]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=workloads.ROOT,
    )
    if proc.returncode == 3:
        raise tracing.TraceError(proc.stderr.strip())
    if proc.returncode != 0:
        raise ChildFailed(f"block {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_ms(latencies: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: the least latency that at least
    q% of the ops do not exceed."""
    return sorted(latencies)[math.ceil(q / 100 * len(latencies)) - 1] * 1000


def latencies(workload: str, results: list[dict], scaled: bool) -> list[float]:
    """Every op's latency, raw or scaled to the reference speed.  On
    props-baseline a trial's latency is its row's time per trial, the median
    over the passes: the checks do not expose single trials."""
    if workload != "props-baseline":
        return [t for r in results for t in r["scaled" if scaled else "latencies"]]
    key = "scaled_seconds" if scaled else "seconds"
    out = []
    for same_row in zip(*(r["rows"] for r in results)):
        per_trial = statistics.median(row[key] / row["trials"] for row in same_row)
        out += [per_trial] * same_row[0]["trials"]
    return out


def answered(result: dict) -> int:
    return result["attempted"] - result["failed"]


def timing_metrics(workload: str, plain: list[dict], scaled: bool) -> dict:
    """The end-to-end timings of the untraced blocks, raw or scaled."""
    prefix = "scaled_" if scaled else ""
    lat = latencies(workload, plain, scaled)
    return {
        "setup_s": statistics.median(r[prefix + "setup_s"] for r in plain),
        "ops_per_s": statistics.median(answered(r) / r[prefix + "op_s"] for r in plain),
        "op_ms_p50": statistics.median(lat) * 1000,
        "op_ms_p90": percentile_ms(lat, 90),
    }


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run the blocks (alternating untraced and traced ones when tracing) and
    return (attempted, failed, problems, metrics)."""
    llts = workloads.import_llts(with_properties=True)
    n = blocks_per_run(workload, seconds, trace)
    results: dict[bool, list[dict]] = {False: [], True: []}
    for block in range(n):
        for traced in ((False, True) if block % 2 == 0 else (True, False)) if trace else (False,):
            results[traced].append(child(workload, seed, block, traced))
    everything = results[False] + results[True]
    problems = [p for r in everything for p in r["problems"]]
    wrong = sum(r["wrong"] for r in everything)
    if wrong:
        problems.append(f"{wrong} wrong verdicts")

    if workload == "props-baseline":
        listed = json.loads(workloads.BASELINE.read_text())
        for r in everything:
            if r["data_files"] != [str(workloads.BASELINE)]:
                problems.append(f"a pass read {r['data_files']}, not only the baseline file")
            if [row["entry"] for row in r["rows"]] != listed:
                problems.append("a pass ran other rows than the baseline file lists")
    else:
        problems += workloads.check_determinism(workload, seed)
        ops = [op for b in range(n) for op in workloads.BLOCKS[workload](seed, b)]
        problems += workloads.verify(llts, workload, ops)

    plain = results[False]
    if not trace:
        metrics = timing_metrics(workload, plain, scaled=True)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        raw = timing_metrics(workload, plain, scaled=False)
        print("raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    else:
        traced = results[True]
        calls = sum((Counter(r["calls"]) for r in traced), Counter())
        absent = tracing.missing(calls, workload)
        if absent:
            raise tracing.TraceError(f"never called on {workload}: {', '.join(absent)}")
        totals = tracing.new_totals()
        for r in traced:
            for key, value in r["totals"].items():
                totals[key] += value
        ops = sum(answered(r) for r in traced)
        metrics = tracing.layer_metrics(
            totals,
            ops,
            sum(r["op_s"] for r in traced) / ops,
            sum(r["op_s"] for r in plain) / sum(answered(r) for r in plain),
            len(traced) if workload == "props-baseline" else 0,
        )
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    return attempted, failed, problems, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not SPEC.is_file():
            raise workloads.MissingProgram(f"no {SPEC.name} at {SPEC.parent}")
        if args.workload == "props-baseline" and not workloads.BASELINE.is_file():
            raise workloads.MissingProgram(f"no baseline file at {workloads.BASELINE}")
        attempted, failed, problems, metrics = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except workloads.MissingProgram as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except tracing.TraceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[section]}
    if units.keys() != metrics.keys():
        print(f"error: measured metrics differ from {section} in {SPEC.name}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"problem: {problem}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
        f"error rate {failed / attempted:.4f}, {len(problems)} problems"
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
