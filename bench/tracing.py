"""Per-layer tracing for the llts benchmark, done entirely from outside the
package: public functions are wrapped where their callers look them up (the
module attribute), so every call records one span.

Layers are the package modules: syntax, terms, semantics, refinement and
properties; ``oracle`` spans are the independent cross-check oracles, counted
apart from the properties layer that calls them.  A span's self time is its
duration minus the durations of the spans it caused.

The cold-cache timings of the inconsistency fixpoint and of the stable
consistent descendants, the simulation and the graph sizes are taken after
each operation, outside its timing, on a fresh ``Lts`` copy of every graph the
operation built: the graph ``build_combined`` returned has already filled the
caches those passes read.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("syntax", "terms", "semantics", "refinement", "properties", "oracle")

# (module, attribute, span name).  Names imported with ``from .x import f``
# are wrapped in the importing module, which is where its callers find them.
TARGETS = (
    ("syntax", "parse", "syntax.parse"),
    ("syntax", "normalize", "terms.normalize"),
    ("syntax", "rec_specs", "terms.guard_check"),
    ("syntax", "first_guard_violation", "terms.guard_check"),
    ("semantics", "build_combined", "semantics.build"),
    ("refinement", "build_combined", "semantics.build"),
    ("properties", "build_combined", "semantics.build"),
    ("refinement", "refines", "refinement.refines"),
    ("refinement", "equivalent", "refinement.equivalent"),
    ("properties", "refines", "refinement.refines"),
    ("properties", "equivalent", "refinement.equivalent"),
    ("properties", "largest_stable_sim", "refinement.largest_stable_sim"),
    ("properties", "alt_refines", "oracle.alt_refines"),
    ("properties", "inconsistent_fixpoint_naive", "oracle.inconsistent_fixpoint_naive"),
    ("properties", "enumerate_stable_sim_pairs", "oracle.enumerate_stable_sim_pairs"),
    ("properties", "run_baseline", "properties.run_baseline"),
)

_VERDICT_SPANS = ("refinement.refines", "refinement.equivalent")

# Wrapped names each workload must call at least once; a refactor that stops
# calling one makes the traced run fail instead of reporting zeros.
_PARSE = ("syntax.parse", "syntax.normalize", "syntax.rec_specs", "syntax.first_guard_violation")
EXPECTED = {
    "refine-interleave": _PARSE
    + ("refinement.build_combined", "refinement.refines", "refinement.equivalent"),
    "check-build": _PARSE + ("semantics.build_combined",),
    "props-baseline": (
        "properties.run_baseline",
        "semantics.build_combined",
        "refinement.build_combined",
        "properties.build_combined",
        "refinement.refines",
        "properties.refines",
        "properties.equivalent",
        "properties.largest_stable_sim",
        "properties.alt_refines",
        "properties.inconsistent_fixpoint_naive",
        "properties.enumerate_stable_sim_pairs",
    ),
}


class TraceError(RuntimeError):
    """A wrapped name is missing or was never called."""


class Tracer:
    """Context manager that wraps TARGETS in the loaded llts modules and
    records spans as (name, op, parent index, start, end)."""

    def __init__(self, llts):
        self.modules = {
            name: importlib.import_module(f"{llts.__name__}.{name}")
            for name in ("syntax", "semantics", "refinement", "properties")
        }
        self.spans: list = []
        self.calls: Counter = Counter()
        self.graphs: list = []  # (Lts, parent span name) built by the current op
        self.rejected = 0  # builds that raised, e.g. StateBoundExceeded
        self.op = 0
        self._names: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for module_name, attr, span in TARGETS:
            module = self.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.__exit__()
                raise TraceError(f"llts.{module_name}.{attr} no longer exists")
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, f"{module_name}.{attr}"))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, span: str, key: str):
        spans, names, stack = self.spans, self._names, self._stack

        def traced(*args, **kwargs):
            self.calls[key] += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            names.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if span == "semantics.build":
                    self.rejected += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, self.op, parent, start, end)
            if span == "semantics.build":
                self.graphs.append((result, names[parent] if parent >= 0 else ""))
            return result

        return traced


def missing(calls: dict, workload: str) -> list[str]:
    """Wrapped names the workload should have called but did not."""
    return [key for key in EXPECTED[workload] if not calls.get(key)]


def new_totals() -> dict:
    return defaultdict(float)


def add_span_totals(spans: list, totals: dict) -> None:
    """Fold recorded spans into ``totals``: duration per span name, self time
    per layer and the self time of the refinement verdict spans."""
    child_time = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, _, _, start, end) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        totals[f"span:{name}"] += duration
        totals[f"self:{name.split('.')[0]}"] += own
        if name in _VERDICT_SPANS:
            totals["verdict_self"] += own


def analyse_graphs(llts, graphs: list, totals: dict) -> list[str]:
    """Sizes and cold-cache pass timings for each graph an op built; the
    stable simulation is timed on graphs built for a refinement verdict.
    Returns a message if a fresh fixpoint disagrees with the built graph."""
    semantics, refinement = llts.semantics, llts.refinement
    problems = []
    for lts, owner in graphs:
        stable = sum(lts.stable)
        totals["graphs"] += 1
        totals["universe"] += len(lts.terms)
        totals["reachable"] += sum(lts.reachable)
        totals["stable"] += stable
        totals["transitions"] += sum(len(t) for t in lts.transitions)
        totals["inconsistent_states"] += sum(lts.inconsistent)
        fresh = semantics.Lts(lts.terms, lts.index, lts.roots, lts.transitions, lts.limits)
        start = perf_counter()
        semantics.compute_inconsistent(fresh)
        middle = perf_counter()
        fresh.consistent_stable_descendants()
        end = perf_counter()
        totals["inconsistent_s"] += middle - start
        totals["csd_s"] += end - middle
        if fresh.inconsistent != lts.inconsistent:
            problems.append("a cold fixpoint disagrees with the built graph")
        if owner == "refinement.refines":
            start = perf_counter()
            relation = refinement.largest_stable_sim(fresh)
            totals["sim_s"] += perf_counter() - start
            totals["sim_graphs"] += 1
            totals["stable_pairs"] += stable * stable
            totals["sim_pairs"] += len(relation.pairs)
            totals["sim_stable"] += stable
            totals["sim_reachable_stable"] += sum(
                1 for r, s in zip(fresh.reachable, fresh.stable) if r and s
            )
    return problems


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(totals: dict, ops: float, op_s: float, untraced_op_s: float, passes: float) -> dict:
    """Per-layer metrics from summed totals.  Times are seconds per op (per
    trial on props-baseline); sizes are means per built graph; shares of op
    time use the traced op time ``op_s``."""
    per_op = lambda key: totals[key] / ops  # noqa: E731
    graphs = totals["graphs"]
    per_graph = lambda key: _share(totals[key], graphs)  # noqa: E731
    build_s = per_op("span:semantics.build")
    inconsistent_s = per_op("inconsistent_s")
    out = {
        "syntax.parse_s": per_op("span:syntax.parse"),
        "terms.normalize_s": per_op("span:terms.normalize"),
        "terms.guard_check_s": per_op("span:terms.guard_check"),
        "semantics.build_s": build_s,
        "semantics.explore_s": build_s - inconsistent_s,
        "semantics.inconsistent_s": inconsistent_s,
        "semantics.csd_s": per_op("csd_s"),
        "semantics.universe": per_graph("universe"),
        "semantics.reachable": per_graph("reachable"),
        "semantics.stable": per_graph("stable"),
        "semantics.transitions": per_graph("transitions"),
        "semantics.inconsistent_states": per_graph("inconsistent_states"),
        "semantics.transitions_per_state": _share(totals["transitions"], totals["universe"]),
        "semantics.support_only_share": 1 - _share(totals["reachable"], totals["universe"]),
        "refinement.sim_s": per_op("sim_s"),
        "refinement.verdict_s": per_op("verdict_self"),
        "refinement.stable_pairs": _share(totals["stable_pairs"], totals["sim_graphs"]),
        "refinement.sim_pairs": _share(totals["sim_pairs"], totals["sim_graphs"]),
        "refinement.sim_kept_share": _share(totals["sim_pairs"], totals["stable_pairs"]),
        "refinement.reachable_stable_share": _share(
            totals["sim_reachable_stable"], totals["sim_stable"]
        ),
        "refinement.graphs_per_question": (graphs + totals["rejected"]) / ops,
        "properties.oracle_s": per_op("self:oracle"),
        "properties.builds": _share(graphs + totals["rejected"], passes),
        "properties.probe_reject_share": _share(totals["rejected"], graphs + totals["rejected"]),
    }
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = per_op(f"self:{layer}")
    for layer in LAYERS:
        name = "properties.oracle_share" if layer == "oracle" else f"{layer}.self_share"
        out[name] = _share(per_op(f"self:{layer}"), op_s)
    out["trace.op_s"] = op_s
    out["trace.untraced_op_s"] = untraced_op_s
    out["trace.overhead_s"] = op_s - untraced_op_s
    out["trace.overhead_share"] = _share(op_s - untraced_op_s, untraced_op_s)
    return out
