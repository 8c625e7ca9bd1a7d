"""Span tracing of effdeg's public functions, installed from outside the library.

Each probe wraps one function or method where its callers look it up: a
function imported by name into several modules (``pca_project`` lives in
``effdeg.reduce`` and is imported into ``effdeg.estimator`` and
``effdeg.net``) is replaced in every module that holds it.  A probe whose
target no longer exists is skipped, so its metrics read as zero calls.

Spans (name, start, end, parent, op) are kept in memory while installed and
written out by ``Tracer.write``.  A layer's self time is its spans' duration
minus the duration of their child spans; calls within one thread do not
overlap, so the children's durations are the part of the interval they cover.
"""

from __future__ import annotations

import csv
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter_ns


def _rows(args) -> int:
    return int(args[1].shape[0])


def _estimate_counts(report) -> dict:
    return {
        "estimator.paths": report.n_paths,
        "estimator.skipped": report.n_skipped,
        "estimator.pca_ties": len(report.tie_path_indices),
    }


def _study_counts(report) -> dict:
    return {"net.restarts": sum(row.restarts for row in report.rows)}


def _verify_counts(record) -> dict:
    return {"polylab.drops": sum(record.drop_counts)}


# (span name, defining module, attribute or Class.method, rows of the call
# or None, counts taken from the result or None)
PROBES = (
    ("sampling", "effdeg.sampling", "sample_abscissas", None, None),
    ("basis", "effdeg.basis", "design_matrix", None, None),
    ("surrogate.fit", "effdeg.surrogate", "fit_matrix", None, None),
    ("surrogate.grad", "effdeg.surrogate", "ed_gradient_matrix", None, None),
    ("surrogate.ed", "effdeg.surrogate", "ed_from_coefficients", None, None),
    ("reduce", "effdeg.reduce", "pca_project", None, None),
    ("estimator", "effdeg.estimator", "ed_estimate", None, _estimate_counts),
    ("estimator.path_grad", "effdeg.estimator", "path_ed_with_gradient", None, None),
    ("oracle", "effdeg.estimator", "FunctionOracle.evaluate", _rows, None),
    ("net.forward", "effdeg.net", "FeedForwardNet.forward_cached", _rows, None),
    ("net.backward", "effdeg.net", "FeedForwardNet.backward", None, None),
    ("net.plan", "effdeg.net", "plan_paths", None, None),
    ("net.penalty", "effdeg.net", "ed_penalty", None, None),
    ("net.step", "effdeg.net", "regularized_step", None, None),
    ("net.train", "effdeg.net", "train", None, None),
    ("net.study", "effdeg.net", "pnn_study", None, _study_counts),
    ("polylab.restrict", "effdeg.polylab", "restrict", None, None),
    ("polylab.degree_drops", "effdeg.polylab", "degree_drops", None, None),
    ("polylab.verify", "effdeg.polylab", "verify_order_preservation", None, _verify_counts),
)

# Reported per traced operation, zero calls as 0.  A name X.calls, X.rows or
# X.self_ms reads span X; any other name is a counter taken from results.
LAYER_METRICS = (
    "sampling.calls",
    "sampling.self_ms",
    "basis.calls",
    "basis.self_ms",
    "surrogate.fit.calls",
    "surrogate.fit.self_ms",
    "surrogate.grad.calls",
    "surrogate.grad.self_ms",
    "surrogate.ed.calls",
    "surrogate.ed.self_ms",
    "reduce.calls",
    "reduce.self_ms",
    "estimator.self_ms",
    "estimator.path_grad.self_ms",
    "estimator.paths",
    "estimator.skipped",
    "estimator.pca_ties",
    "oracle.calls",
    "oracle.rows",
    "oracle.self_ms",
    "net.forward.calls",
    "net.forward.rows",
    "net.forward.self_ms",
    "net.backward.calls",
    "net.backward.self_ms",
    "net.plan.self_ms",
    "net.penalty.self_ms",
    "net.step.self_ms",
    "net.train.self_ms",
    "net.restarts",
    "polylab.restrict.calls",
    "polylab.restrict.self_ms",
    "polylab.degree_drops.calls",
    "polylab.verify.self_ms",
    "polylab.drops",
)


def _sites(module_name: str, attr: str):
    """(owner, attribute name, original) for every place callers look the target up."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or method not in vars(cls):
            return []
        return [(cls, method, vars(cls)[method])]
    original = getattr(module, attr, None)
    if original is None:
        return []
    return [
        (mod, attr, original)
        for name, mod in list(sys.modules.items())
        if (name == "effdeg" or name.startswith("effdeg."))
        and getattr(mod, attr, None) is original
    ]


class Tracer:
    """Records spans of the probed functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op index]
        self.counts: dict[str, float] = {}
        self.rows: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches = []
        for name, module_name, attr, rows, counts in PROBES:
            for owner, key, original in _sites(module_name, attr):
                wrapper = self._wrap(name, original, rows, counts)
                self._patches.append((owner, key, original, wrapper))

    def _wrap(self, name, fn, rows, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            span = [name, 0, 0, parent, spans[parent][4]]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if rows is not None:
                self.rows[name] = self.rows.get(name, 0) + rows(args)
            if counts is not None:
                for key, value in counts(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    @contextmanager
    def op(self):
        """Install the probes around one workload operation, recorded as a root span."""
        index = len(self.spans)
        span = ["op", 0, 0, -1, index]
        self.spans.append(span)
        self._stack.append(index)
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        span[1] = perf_counter_ns()
        try:
            yield
        finally:
            span[2] = perf_counter_ns()
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)
            self._stack.pop()

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS entry and net.penalty_share, per traced operation."""
        ops = sum(1 for s in self.spans if s[3] == -1) or 1
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        total_ns: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total_ns[name] = total_ns.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]
        out = {}
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                value = calls.get(span, 0)
            elif kind == "rows":
                value = self.rows.get(span, 0)
            elif kind == "self_ms":
                value = self_ns.get(span, 0) / 1e6
            else:
                value = self.counts.get(metric, 0)
            out[metric] = value / ops
        step_ns = total_ns.get("net.step", 0)
        out["net.penalty_share"] = total_ns.get("net.penalty", 0) / step_ns if step_ns else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as CSV: index, op, parent, name, start_ns, end_ns."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "op", "parent", "name", "start_ns", "end_ns"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow([i, op, parent, name, start, end])
