"""Span tracing from outside the library, and the per-layer metrics it yields.

Wrappers are installed by rebinding each traced public function in every
supcbi module namespace that holds it (build_lift, for one, is bound in
lift, control, identify and cli), and by replacing the traced Levy-measure
methods on their class. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

# Traced layer boundaries: span name -> (home module, attribute path).
TRACED = {
    "measures.pi_quantile": ("supcbi.measures", "pi_quantile"),
    "measures.sample_truncated": ("supcbi.measures", "TemperedStableLevy.sample_truncated"),
    "measures.tail_mass": ("supcbi.measures", "TemperedStableLevy.tail_mass"),
    "measures.truncated_moment": ("supcbi.measures", "TemperedStableLevy.truncated_moment"),
    "lift.build_lift": ("supcbi.lift", "build_lift"),
    "lift.convergence_report": ("supcbi.lift", "convergence_report"),
    "process.simulate": ("supcbi.process", "simulate"),
    "process.path_stats": ("supcbi.process", "path_stats"),
    "process.write_path_csv": ("supcbi.process", "write_path_csv"),
    "control.solve": ("supcbi.control", "solve"),
    "control.solve_hbar": ("supcbi.control", "solve_hbar"),
    "control.eval_K": ("supcbi.control", "eval_K"),
    "control.eval_P": ("supcbi.control", "eval_P"),
    "control.sweep": ("supcbi.control", "sweep"),
    "control.variance_bke_coefficients": ("supcbi.control", "variance_bke_coefficients"),
    "control.cost_bke_coefficients": ("supcbi.control", "cost_bke_coefficients"),
    "control.bke_residual_J": ("supcbi.control", "bke_residual_J"),
    "control.bke_residual_K": ("supcbi.control", "bke_residual_K"),
    "identify.read_series_csv": ("supcbi.identify", "read_series_csv"),
    "identify.empirical_acf": ("supcbi.identify", "empirical_acf"),
    "identify.fit_acf": ("supcbi.identify", "fit_acf"),
    "identify.fit_moments": ("supcbi.identify", "fit_moments"),
    "identify.moment_objective": ("supcbi.identify", "moment_objective"),
    "cli.main": ("supcbi.cli", "main"),
}

PENALTY = 1e12  # moment_objective's value for an invalid parameter vector


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_draws(tracer: "Tracer", args, kwargs, result) -> None:
    size = int(_arg(args, kwargs, 2, "size"))  # (self, eps, size, rng)
    tracer.add("measures.sample_truncated.draws", size)
    if tracer.inside("process.simulate"):
        tracer.add("process.simulate.jumps", size)


def _count_states(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("control.bke_states", len(_arg(args, kwargs, 4, "states")))


# Counts taken at a boundary from its arguments or result.
COUNTERS: dict[str, Callable] = {
    "measures.sample_truncated": _count_draws,
    "lift.build_lift": lambda t, a, k, r: t.add("lift.build_lift.atoms", r.n),
    "process.simulate": lambda t, a, k, r: t.add("process.simulate.steps", r.y_total.size),
    "process.write_path_csv": lambda t, a, k, r: t.add(
        "process.write_path_csv.rows", _arg(a, k, 0, "path").t.size),
    "control.sweep": lambda t, a, k, r: t.add(
        "control.sweep.row_errors", sum(row.error is not None for row in r)),
    "control.bke_residual_J": _count_states,
    "control.bke_residual_K": _count_states,
    "identify.read_series_csv": lambda t, a, k, r: t.add("identify.read_series_csv.rows", r.values.size),
    "identify.moment_objective": lambda t, a, k, r: t.add(
        "identify.moment_objective.penalties", r >= PENALTY),
    "cli.main": lambda t, a, k, r: t.add("cli.exit_nonzero", r != 0),
}


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, op]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.op = -1  # id shared by all spans of the current operation
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if name == "process.simulate":
                    self.add("process.simulate.refused", 1)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "supcbi" or key.startswith("supcbi.")]
        for name, (home, path) in TRACED.items():
            owner = sys.modules[home]
            if "." in path:  # a method: replace it on its class
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                path = attr
            original = getattr(owner, path)
            wrapped = self._wrap(name, original)
            for holder in [owner] if isinstance(owner, type) else modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, attr, original))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV; parent and op refer to row numbers and operation ids."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; the program is single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in TRACED}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return out


def per_layer(tracer: Tracer, passes: int, bytes_out: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per pass over the workload's operations."""
    t = tracer.totals()
    c = tracer.counts
    objective_calls = t["identify.moment_objective"]["calls"]
    values = {
        "measures.pi_quantile.calls": (t["measures.pi_quantile"]["calls"], "count"),
        "measures.pi_quantile.s": (t["measures.pi_quantile"]["s"], "s"),
        "lift.build_lift.calls": (t["lift.build_lift"]["calls"], "count"),
        "lift.build_lift.atoms": (c.get("lift.build_lift.atoms", 0), "count"),
        "lift.build_lift.self_s": (t["lift.build_lift"]["self_s"], "s"),
        "lift.convergence_report.s": (t["lift.convergence_report"]["s"], "s"),
        "control.solve.calls": (t["control.solve"]["calls"], "count"),
        "control.solve.self_s": (t["control.solve"]["self_s"], "s"),
        "control.solve_hbar.calls": (t["control.solve_hbar"]["calls"], "count"),
        "control.solve_hbar.s": (t["control.solve_hbar"]["s"], "s"),
        "control.eval_K.calls": (t["control.eval_K"]["calls"], "count"),
        "control.eval_P.calls": (t["control.eval_P"]["calls"], "count"),
        "control.sweep.s": (t["control.sweep"]["s"], "s"),
        "control.sweep.row_errors": (c.get("control.sweep.row_errors", 0), "count"),
        "control.bke_coefficients.s": (
            t["control.variance_bke_coefficients"]["s"] + t["control.cost_bke_coefficients"]["s"], "s"),
        "control.bke_residual.s": (
            t["control.bke_residual_J"]["self_s"] + t["control.bke_residual_K"]["self_s"], "s"),
        "control.bke_states": (c.get("control.bke_states", 0), "count"),
        "process.simulate.calls": (t["process.simulate"]["calls"], "count"),
        "process.simulate.self_s": (t["process.simulate"]["self_s"], "s"),
        "process.simulate.steps": (c.get("process.simulate.steps", 0), "count"),
        "process.simulate.jumps": (c.get("process.simulate.jumps", 0), "count"),
        "process.simulate.refused": (c.get("process.simulate.refused", 0), "count"),
        "measures.sample_truncated.calls": (t["measures.sample_truncated"]["calls"], "count"),
        "measures.sample_truncated.draws": (c.get("measures.sample_truncated.draws", 0), "count"),
        "measures.sample_truncated.s": (t["measures.sample_truncated"]["s"], "s"),
        "measures.tail_mass.calls": (t["measures.tail_mass"]["calls"], "count"),
        "measures.truncated_moment.calls": (t["measures.truncated_moment"]["calls"], "count"),
        "process.path_stats.s": (t["process.path_stats"]["s"], "s"),
        "process.write_path_csv.s": (t["process.write_path_csv"]["s"], "s"),
        "process.write_path_csv.rows": (c.get("process.write_path_csv.rows", 0), "count"),
        "cli.main.calls": (t["cli.main"]["calls"], "count"),
        "cli.main.self_s": (t["cli.main"]["self_s"], "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "cli.exit_nonzero": (c.get("cli.exit_nonzero", 0), "count"),
        "identify.read_series_csv.s": (t["identify.read_series_csv"]["s"], "s"),
        "identify.read_series_csv.rows": (c.get("identify.read_series_csv.rows", 0), "count"),
        "identify.empirical_acf.s": (t["identify.empirical_acf"]["s"], "s"),
        "identify.fit_acf.s": (t["identify.fit_acf"]["s"], "s"),
        "identify.fit_moments.self_s": (t["identify.fit_moments"]["self_s"], "s"),
        "identify.moment_objective.calls": (objective_calls, "count"),
        "identify.moment_objective.s": (t["identify.moment_objective"]["s"], "s"),
    }
    out = {name: (value / passes, unit) for name, (value, unit) in values.items()}
    penalties = c.get("identify.moment_objective.penalties", 0)
    out["identify.moment_objective.penalty_ratio"] = (
        penalties / objective_calls if objective_calls else 0.0, "ratio")
    out["trace.spans"] = (len(tracer.spans) / passes, "count")
    return out


def uncovered(tracer: Tracer) -> list[str]:
    """Traced boundaries that recorded no call: a renamed or inlined function."""
    return [name for name, row in tracer.totals().items() if row["calls"] == 0]
