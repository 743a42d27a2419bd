"""Span tracing from outside the program, and the per-layer numbers.

The tracer replaces a function by a recording wrapper in every ``jfft``
module that binds it (and in ``numpy.fft`` for the FFT pair), so the calls
the program makes into that layer are timed wherever they come from.
Untraced rounds run with the original functions restored, so they pay
nothing.  Spans carry a name, start and end (``perf_counter_ns``), the
index of the enclosing span and an optional note, are kept in memory, and
are written out once at the end.  Only the benchmark's own process is
traced: a worker process would record into its own copy of the tracer.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter_ns

#: Layer name -> (defining module, attribute).  Names are the ones the
#: per-layer metrics use.
LAYERS = {
    "operators.apply_system": ("jfft.operators", "apply_system"),
    "preconditioners.apply_green": ("jfft.preconditioners", "apply_green"),
    "preconditioners.assemble_green": ("jfft.preconditioners", "assemble_green"),
    "preconditioners.assemble_jacobi": ("jfft.preconditioners", "assemble_jacobi"),
    "solver.pcg": ("jfft.solver", "pcg"),
    "topopt.evaluate": ("jfft.topopt", "evaluate"),
    "topopt.lbfgs_minimize": ("jfft.topopt", "lbfgs_minimize"),
    "numpy.fft.rfftn": ("numpy.fft", "rfftn"),
    "numpy.fft.irfftn": ("numpy.fft", "irfftn"),
}


def _pcg_note(args, kwargs, report):
    """Preconditioner kind, iterations and grid size of one PCG solve."""
    precond = args[2] if len(args) > 2 else kwargs["preconditioner"]
    return [precond.kind, report.iterations, args[0].grid.n]


class Tracer:
    """Installs and removes the wrappers and owns the recorded spans."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        note = _pcg_note if name == "solver.pcg" else None

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, None)
            if note:
                self.spans[index] = (name, start, end, parent, note(args, kwargs, result))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        for name, (module_name, attr) in LAYERS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            owners = [sys.modules[module_name]] + [
                module for key, module in list(sys.modules.items())
                if (key == "jfft" or key.startswith("jfft.")) and module is not None]
            for module in owners:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def write(self, path: Path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "note"],
                       "spans": self.spans}, fh)


def pcg_solves(spans: list) -> list[tuple[str, int, int, float]]:
    """``(kind, iterations, n, seconds)`` of every traced PCG solve."""
    return [(s[4][0], s[4][1], s[4][2], (s[2] - s[1]) / 1e9)
            for s in spans if s[0] == "solver.pcg" and s[4] is not None]


def summarize(spans: list, rounds: int) -> dict:
    """Per-layer ``(value, unit)`` from the spans of ``rounds`` traced rounds.

    Counts are per round; 0 for a layer the workload does not reach.  Self
    time is a span's duration minus the durations of its direct children.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    fft_child = [0] * len(spans)
    pcg_of = [-1] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            if name.startswith("numpy.fft."):
                fft_child[parent] += dur[i]
            pcg_of[i] = pcg_of[parent]
        if name == "solver.pcg":
            pcg_of[i] = i

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, values):
        return sum(values[i] for i in by_name.get(name, ()))

    def per_call(name, values, scale):
        n = calls(name)
        return total(name, values) / n / scale if n else 0.0

    pcg_kind = {i: spans[i][4][0] for i in by_name.get("solver.pcg", ())}
    pcg_iters = {i: spans[i][4][1] for i in by_name.get("solver.pcg", ())}
    iterations = sum(pcg_iters.values())

    def kind_iterations(kind):
        return sum(it for i, it in pcg_iters.items() if pcg_kind[i] == kind)

    def green_per_iteration(kind):
        # one Green application per iteration plus the check at k = 0
        solves = [i for i in pcg_kind if pcg_kind[i] == kind]
        steps = sum(pcg_iters[i] + 1 for i in solves)
        inside = sum(1 for g in by_name.get("preconditioners.apply_green", ())
                     if pcg_of[g] >= 0 and pcg_kind[pcg_of[g]] == kind)
        return inside / steps if steps else 0.0

    selfs = [d - c for d, c in zip(dur, child)]
    green_total = total("preconditioners.apply_green", dur)
    return {
        "operators.apply_system.calls": (calls("operators.apply_system") / rounds, "count"),
        "operators.apply_system.us_per_call": (
            per_call("operators.apply_system", dur, 1e3), "us"),
        "preconditioners.apply_green.calls": (
            calls("preconditioners.apply_green") / rounds, "count"),
        "preconditioners.apply_green.us_per_call": (
            per_call("preconditioners.apply_green", dur, 1e3), "us"),
        "preconditioners.apply_green.fft_share": (
            total("preconditioners.apply_green", fft_child) / green_total
            if green_total else 0.0, "ratio"),
        "preconditioners.apply_green.per_iteration_green": (
            green_per_iteration("green"), "ratio"),
        "preconditioners.apply_green.per_iteration_gj": (
            green_per_iteration("green-jacobi"), "ratio"),
        "preconditioners.assemble_green.calls": (
            calls("preconditioners.assemble_green") / rounds, "count"),
        "preconditioners.assemble_jacobi.calls": (
            calls("preconditioners.assemble_jacobi") / rounds, "count"),
        "solver.pcg.calls": (calls("solver.pcg") / rounds, "count"),
        "solver.pcg.iterations": (iterations / rounds, "count"),
        "solver.pcg.iterations_green": (kind_iterations("green") / rounds, "count"),
        "solver.pcg.iterations_gj": (kind_iterations("green-jacobi") / rounds, "count"),
        "solver.pcg.iterations_jacobi": (kind_iterations("jacobi") / rounds, "count"),
        "solver.pcg.self_us_per_iteration": (
            total("solver.pcg", selfs) / iterations / 1e3 if iterations else 0.0, "us"),
        "topopt.evaluate.calls": (calls("topopt.evaluate") / rounds, "count"),
        "topopt.evaluate.self_ms_per_call": (
            per_call("topopt.evaluate", selfs, 1e6), "ms"),
        "topopt.lbfgs_minimize.self_ms": (
            total("topopt.lbfgs_minimize", selfs) / rounds / 1e6, "ms"),
    }
