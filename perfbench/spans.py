"""Spans around the benchmark's calls into each layer, and the per-layer
metrics derived from them.

Spans are recorded only from the benchmark's own files: one per call into
a layer's public function, named ``<layer>.<function>``, with the job's
span as parent.  Nothing inside ``src/`` is instrumented, so a layer's
self time includes whatever it calls internally (for example the solver's
own ``find_rainbow`` and ``enumerate_copies`` calls).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

# certificates, errors and cli get no metrics: the first two are data
# classes, and each job runs its command's handler sequence directly, so
# the JSON cost of cli shows under graphs.
LAYERS = ("graphs", "gadgets", "constructions", "verifier", "solver", "lp", "optimizer")

# name, unit, better; README.md says which end-to-end metric each should move
LAYER_METRICS = (
    [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("gadgets.behrend_s", "s", "lower"),
        ("gadgets.pairs_scanned", "count", "lower"),
        ("gadgets.pairs_per_s", "1/s", "higher"),
        ("constructions.build_s", "s", "lower"),
        ("constructions.copies", "count", "higher"),
        ("graphs.encode_s", "s", "lower"),
        ("graphs.decode_s", "s", "lower"),
        ("graphs.bytes", "count", "lower"),
        ("verifier.rainbow_s", "s", "lower"),
        ("verifier.rainbow_edges", "count", "higher"),
        ("verifier.rainbow_edges_per_s", "1/s", "higher"),
        ("verifier.generic_s", "s", "lower"),
        ("verifier.witness_ratio", "ratio", "higher"),
        ("verifier.audit_s", "s", "lower"),
        ("solver.search_s", "s", "lower"),
        ("solver.nodes", "count", "lower"),
        ("solver.nodes_per_s", "1/s", "higher"),
        ("solver.generic_nodes_per_s", "1/s", "higher"),
        ("solver.optimal_ratio", "ratio", "higher"),
        ("solver.errors", "count", "lower"),
        ("lp.solve_s", "s", "lower"),
        ("lp.columns", "count", "lower"),
        ("lp.cells", "count", "lower"),
        ("lp.cells_per_s", "1/s", "higher"),
        ("optimizer.maximize_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, tag=None):
        return fn(*args)

    def count(self, name, value):
        pass

    def begin_job(self, job):
        pass

    def end_job(self):
        pass


class Tracer:
    """Keeps every span in memory until the run ends.

    A span is ``[name, tag, start, end, parent, job id, pass, error]``;
    parent is the index of the enclosing job span, or None for a job span.
    Counts are kept per pass, next to the spans they describe.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[Counter] = []
        self.passes: list[int] = []
        self._job_span: int | None = None
        self._job: int | None = None

    def begin_pass(self, index: int) -> None:
        self.passes.append(index)
        self.counts.append(Counter())

    def begin_job(self, job) -> None:
        self._job = job.id
        self._job_span = len(self.spans)
        self.spans.append([f"job.{job.kind}", None, time.perf_counter(), None, None,
                           job.id, self.passes[-1], None])

    def end_job(self) -> None:
        self.spans[self._job_span][3] = time.perf_counter()
        self._job_span = self._job = None

    def call(self, name, fn, *args, tag=None):
        span = [name, tag, time.perf_counter(), None, self._job_span, self._job,
                self.passes[-1], None]
        self.spans.append(span)
        try:
            return fn(*args)
        except BaseException as exc:
            span[7] = type(exc).__name__
            raise
        finally:
            span[3] = time.perf_counter()

    def count(self, name, value) -> None:
        self.counts[-1][name] += value

    def write(self, path: Path) -> None:
        keys = ("name", "tag", "start", "end", "parent", "job", "pass", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: each is computed per traced pass, then the
        median over passes is reported."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        per_pass = []
        for slot, index in enumerate(self.passes):
            spans = [(i, s) for i, s in enumerate(self.spans) if s[6] == index]
            per_pass.append(_pass_metrics(spans, child_time, self.counts[slot]))
        return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _pass_metrics(spans, child_time, counts: Counter) -> dict[str, float]:
    took: dict[tuple[str, str | None], float] = defaultdict(float)
    took_ok: dict[tuple[str, str | None], float] = defaultdict(float)
    errors: Counter = Counter()
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, tag, start, end, parent, _, _, error) in spans:
        layer = name.split(".", 1)[0]
        took[name, tag] += end - start
        if error is None:
            took_ok[name, tag] += end - start
        if layer in LAYERS:
            calls[layer] += 1
            self_s[layer] += end - start - child_time.get(i, 0.0)
            errors[layer] += error is not None

    def t(name, *tags, ok_only=False):
        table = took_ok if ok_only else took
        return sum(v for (n, tag), v in table.items() if n == name and (not tags or tag in tags))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    behrend_s = t("gadgets.behrend_q_free")
    rainbow_s = t("verifier.find_rainbow", "triangle")
    search_s = t("solver.max_rainbow_free_packing")
    lp_s = t("lp.lp_fractional_packing")
    scans = counts["verifier.scans.triangle"] + counts["verifier.scans.generic"]
    solver_calls = calls["solver"]
    m.update({
        "gadgets.behrend_s": behrend_s,
        "gadgets.pairs_scanned": counts["gadgets.pairs_scanned"],
        "gadgets.pairs_per_s": _rate(counts["gadgets.pairs_scanned"], behrend_s),
        "constructions.build_s": t("constructions.kt_packing") + t("constructions.c5_blowup_packing"),
        "constructions.copies": counts["constructions.copies"],
        "graphs.encode_s": t("graphs.to_json") + t("graphs.canonical_json"),
        "graphs.decode_s": t("graphs.from_json_dict"),
        "graphs.bytes": counts["graphs.bytes"],
        "verifier.rainbow_s": rainbow_s,
        "verifier.rainbow_edges": counts["verifier.rainbow_edges"],
        "verifier.rainbow_edges_per_s": _rate(counts["verifier.rainbow_edges"], rainbow_s),
        "verifier.generic_s": t("verifier.find_rainbow", "generic"),
        "verifier.witness_ratio": counts["verifier.witnesses"] / scans if scans else 0.0,
        "verifier.audit_s": t("verifier.pentagon_audit"),
        "solver.search_s": search_s,
        "solver.nodes": counts["solver.nodes"],
        # nodes are known only for calls that returned
        "solver.nodes_per_s": _rate(
            counts["solver.nodes"], t("solver.max_rainbow_free_packing", ok_only=True)),
        "solver.generic_nodes_per_s": _rate(
            counts["solver.nodes.generic"],
            t("solver.max_rainbow_free_packing", "generic", ok_only=True)),
        "solver.optimal_ratio": counts["solver.optimal"] / solver_calls if solver_calls else 0.0,
        "solver.errors": errors["solver"],
        "lp.solve_s": lp_s,
        "lp.columns": counts["lp.columns"],
        "lp.cells": counts["lp.cells"],
        "lp.cells_per_s": _rate(counts["lp.cells"], lp_s),
        "optimizer.maximize_s": t("optimizer.maximize_density"),
    })
    return m
