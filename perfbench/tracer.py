"""Per-layer tracing of qperminv, measured from outside the program.

`Tracer.install()` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent) and bump counters. A name bound
by `from .ops import apply_tagging` is a separate reference in each importing
module, so every module of the package that holds the original object gets
the wrapper. Methods are replaced on `StateVector` itself. Spans stay in
memory; `layer_metrics()` turns them into the per-layer figures and
`write_spans()` writes them out. `uninstall()` restores the originals.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

PACKAGE = "qperminv"

# span name -> (module, attribute) pairs wrapped under that name
SPANS = {
    "perm.prefix_members": [("perm", "prefix_members")],
    "perm.build": [("perm", "build_permutation"), ("perm", "load_permutation")],
    "qstate.support_members": [("qstate", "support_members")],
    "qstate.make_signed_uniform": [("qstate", "make_signed_uniform")],
    "qstate.compare": [("qstate", "StateVector.distance_to"), ("qstate", "StateVector.inner")],
    "ops.apply_tagging": [("ops", "apply_tagging")],
    "ops.reflect_about_uniform": [("ops", "reflect_about_uniform")],
    "ops.apply_pseudo_identity": [("ops", "apply_pseudo_identity")],
    "ops.operator_build": [("ops", "build_pseudo_identity"), ("ops", "parse_pseudo_identity")],
    "invert.run_av_inv": [("invert", "run_av_inv")],
    "invert.oracle": [("invert", "expected_state_after_tag"),
                      ("invert", "expected_state_after_reflect")],
    "analysis.error_length": [("analysis", "error_length")],
    "analysis.expected_error_sweep": [("analysis", "expected_error_sweep")],
    "analysis.inversion_residual_stats": [("analysis", "inversion_residual_stats")],
    "analysis.check_bounds": [("analysis", "check_error_length_bound"),
                              ("analysis", "check_residual_bound")],
    "harness.run_batch": [("harness", "run_batch")],
    "harness.sweep_rows": [("harness", "sweep_rows")],
    "harness.lemma_battery": [("harness", "lemma_battery")],
    "harness.io": [("harness", "run_reports_to_csv"), ("harness", "sweep_to_csv"),
                   ("harness", "atomic_write_text"), ("harness", "write_manifest")],
    "cli.main": [("cli", "main")],
}

# per-layer metric -> (span name, statistic) or a counter; the order is the
# order of BENCHMARK.json's per_layer list
METRICS = {
    "perm.prefix_members.calls": ("perm.prefix_members", "calls"),
    "perm.prefix_members.s": ("perm.prefix_members", "s"),
    "perm.scan_ratio": ("ratio", "prefix_returned", "prefix_scanned"),
    "perm.build.s": ("perm.build", "s"),
    "qstate.support_members.calls": ("qstate.support_members", "calls"),
    "qstate.support_members.s": ("qstate.support_members", "s"),
    "qstate.support_members.presorted_ratio": ("ratio", "support_presorted", "support_calls"),
    "qstate.make_signed_uniform.calls": ("qstate.make_signed_uniform", "calls"),
    "qstate.make_signed_uniform.s": ("qstate.make_signed_uniform", "s"),
    "qstate.compare.s": ("qstate.compare", "s"),
    "qstate.state_bytes_allocated": ("counter", "state_bytes"),
    "ops.apply_tagging.calls": ("ops.apply_tagging", "calls"),
    "ops.apply_tagging.s": ("ops.apply_tagging", "s"),
    "ops.reflect_about_uniform.calls": ("ops.reflect_about_uniform", "calls"),
    "ops.reflect_about_uniform.s": ("ops.reflect_about_uniform", "s"),
    "ops.apply_pseudo_identity.calls": ("ops.apply_pseudo_identity", "calls"),
    "ops.apply_pseudo_identity.s": ("ops.apply_pseudo_identity", "s"),
    "ops.amps_touched": ("counter", "amps_touched"),
    "ops.operator_build.calls": ("ops.operator_build", "calls"),
    "ops.operator_build.s": ("ops.operator_build", "s"),
    "invert.run_av_inv.calls": ("invert.run_av_inv", "calls"),
    "invert.run_av_inv.s": ("invert.run_av_inv", "s"),
    "invert.oracle.calls": ("invert.oracle", "calls"),
    "invert.oracle.s": ("invert.oracle", "s"),
    "analysis.error_length.calls": ("analysis.error_length", "calls"),
    "analysis.error_length.s": ("analysis.error_length", "s"),
    "analysis.expected_error_sweep.s": ("analysis.expected_error_sweep", "s"),
    "analysis.inversion_residual_stats.s": ("analysis.inversion_residual_stats", "s"),
    "analysis.check_bounds.calls": ("analysis.check_bounds", "calls"),
    "analysis.check_bounds.s": ("analysis.check_bounds", "s"),
    "harness.run_batch.s": ("harness.run_batch", "s"),
    "harness.sweep_rows.s": ("harness.sweep_rows", "s"),
    "harness.lemma_battery.s": ("harness.lemma_battery", "s"),
    "harness.io.s": ("harness.io", "s"),
    "harness.bytes_written": ("counter", "bytes_written"),
    "cli.main.s": ("cli.main", "s"),
}

UNITS = {"calls": "count", "s": "s", "ratio": "ratio"}
COUNTER_UNITS = {"state_bytes": "B", "amps_touched": "count", "bytes_written": "B"}


def _is_sorted_unique(values) -> bool:
    arr = np.asarray(values.members if hasattr(values, "members") else values)
    if arr.ndim != 1:
        return False
    return arr.size < 2 or bool(np.all(arr[1:] > arr[:-1]))


class Tracer:
    """Spans and counters of one traced process; `reset()` starts a new pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        # ns of tracer work (counters, bookkeeping) done inside a span but
        # outside its child spans; self time leaves it out
        self.excluded: list[int] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(
            ("prefix_returned", "prefix_scanned", "support_calls", "support_presorted",
             "state_bytes", "amps_touched", "bytes_written"), 0)

    # -- counters measured at the wrapped boundaries, outside every span's clock
    def _before(self, attr: str, args, kwargs) -> None:
        c = self.counters
        if attr == "support_members":
            support = args[0] if args else kwargs["support"]
            c["support_calls"] += 1
            c["support_presorted"] += _is_sorted_unique(support)
        elif attr == "apply_tagging":
            state, perm = args[0], args[1]
            c["amps_touched"] += 2 * (perm.size >> 2) * (1 << state.k)
        elif attr == "reflect_about_uniform":
            state, support = args[0], args[1]
            members = len(support.members) if hasattr(support, "members") else len(support)
            c["amps_touched"] += 3 * members * (1 << state.k) + 2 * state.amps.size
        elif attr == "apply_pseudo_identity":
            c["amps_touched"] += 4 * (1 << args[0].n)
        elif attr == "atomic_write_text":
            text = args[1] if len(args) > 1 else kwargs["text"]
            c["bytes_written"] += len(text.encode("utf-8"))

    def _after(self, attr: str, args, result) -> None:
        if attr == "prefix_members":
            self.counters["prefix_returned"] += len(result)
            self.counters["prefix_scanned"] += args[0].size

    def _wrap(self, name: str, attr: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            entered = clock()
            tracer._before(attr, args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(parent)
            tracer.starts.append(0)
            tracer.ends.append(0)
            tracer.excluded.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            tracer._after(attr, args, result)
            if parent >= 0:
                tracer.excluded[parent] += (start - entered) + (clock() - end)
            return result

        return wrapper

    def _count_state_init(self, init):
        tracer = self
        clock = time.perf_counter_ns

        def __init__(state, *args, **kwargs):
            init(state, *args, **kwargs)
            done = clock()
            tracer.counters["state_bytes"] += state.amps.nbytes
            if tracer.stack:
                tracer.excluded[tracer.stack[-1]] += clock() - done

        return __init__

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        state_cls = sys.modules[f"{PACKAGE}.qstate"].StateVector
        for span, targets in SPANS.items():
            for module_name, attr in targets:
                if attr.startswith("StateVector."):
                    method = attr.split(".", 1)[1]
                    self._patch(state_cls, method, self._wrap(span, method, getattr(state_cls, method)))
                    continue
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
                wrapper = self._wrap(span, attr, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        # counting only: one span per allocation would cost more than it shows
        self._patch(state_cls, "__init__", self._count_state_init(state_cls.__init__))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self time in seconds)."""
        if not self.names:
            return {}
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        durations = (ends - starts).astype(np.float64)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                              minlength=len(self.names))
        own = durations - covered - np.asarray(self.excluded, dtype=np.float64)
        names = np.asarray(self.names)
        out = {}
        for name in np.unique(names):
            mask = names == name
            out[str(name)] = (int(mask.sum()), float(own[mask].sum()) / 1e9)
        return out

    def layer_metrics(self) -> dict[str, float]:
        spans = self.self_times()
        out = {}
        for metric, spec in METRICS.items():
            if spec[0] == "ratio":
                num, den = self.counters[spec[1]], self.counters[spec[2]]
                out[metric] = num / den if den else 0.0
            elif spec[0] == "counter":
                out[metric] = float(self.counters[spec[1]])
            else:
                calls, own = spans.get(spec[0], (0, 0.0))
                out[metric] = float(calls) if spec[1] == "calls" else own
        return out

    def write_spans(self, path, trace_id: int) -> None:
        """One JSON line per span: id, name, parent id, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"trace": trace_id, "id": i, "name": name,
                                     "parent": self.parents[i], "start_ns": self.starts[i],
                                     "end_ns": self.ends[i]}) + "\n")


def metric_unit(metric: str) -> str:
    spec = METRICS[metric]
    if spec[0] == "counter":
        return COUNTER_UNITS[spec[1]]
    return UNITS[spec[0] if spec[0] == "ratio" else spec[1]]
