"""The benchmark tracer's contract with the package.

``bench/tracing.py`` wraps package functions by module and name, rebuilds
each graph an op built as ``Lts(terms, index, roots, transitions, limits)``,
and makes a traced run exit 3 when a name a workload must call is never
called.  These tests load the bench modules unchanged and run a few ops of
each workload under the tracer, so a rename or a signature change in the
package fails here rather than only in a traced bench run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _first(ops, predicate):
    return next(op for op in ops if predicate(op))


def _verdict_ops(workload: str) -> list:
    if workload == "refine-interleave":
        ops = workloads.refine_block(1, 0)
        return [
            _first(ops, lambda op: op.kind == "refines" and op.shape[1] == 4),
            _first(ops, lambda op: op.kind == "equivalent" and op.shape[1] == 4),
        ]
    ops = workloads.check_block(1, 0)
    return [
        _first(ops, lambda op: op.shape[0] == "rec" and op.shape[1] == 500),
        _first(ops, lambda op: op.shape[0] == "conj"),
    ]


def _traced(llts, tracer, totals, index, run) -> tuple[object, list[str]]:
    """Run one op under the tracer, as ``bench/child.py`` does."""
    tracer.op = index
    with tracer:
        result = run()
    problems = tracing.analyse_graphs(llts, tracer.graphs, totals)
    tracer.graphs.clear()
    return result, problems


@pytest.mark.parametrize("workload", ["refine-interleave", "check-build"])
def test_verdict_workload_calls_every_traced_name(workload):
    llts = workloads.import_llts()
    tracer, totals = tracing.Tracer(llts), tracing.new_totals()
    for index, op in enumerate(_verdict_ops(workload)):
        verdict, problems = _traced(
            llts, tracer, totals, index, lambda op=op: workloads.run_op(llts, op)
        )
        assert verdict == op.expected, op.shape
        assert problems == []
    assert tracing.missing(tracer.calls, workload) == []
    assert totals["graphs"] > 0


def test_props_baseline_calls_every_traced_name():
    llts = workloads.import_llts(with_properties=True)
    properties = llts.properties
    build = properties.build_combined
    entries = properties.load_baseline(str(workloads.BASELINE))
    tracer, totals = tracing.Tracer(llts), tracing.new_totals()
    for index, (theorem, seed, trials) in enumerate(entries):
        entry = (theorem, seed, min(trials, 3))
        [report], problems = _traced(
            llts, tracer, totals, index, lambda entry=entry: properties.run_baseline([entry])
        )
        assert report.passed and not report.skipped, report.summary()
        assert problems == []
    assert tracing.missing(tracer.calls, "props-baseline") == []
    assert properties.build_combined is build  # the tracer put every name back
