"""jfft benchmark: end-to-end metrics (``--trace 0``) or per-layer metrics
from a traced run (``--trace 1``) for one workload.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cell-512 --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout this file sits in;
the run stops with exit code 2 when that source tree is missing.  Rounds of
the workload repeat while another round still fits into ``--seconds``;
with ``--trace 0`` the rounds after the first are timed against a
reference kernel (``reference.py``).
Outputs (sweep tables, spans) go to ``.bench_out/`` in the checkout.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import tracing
from reference import Reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fewest set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload) -> float:
    """One set-up: import jfft in a fresh interpreter, then assemble what
    the workload's first solve needs."""
    code = ("import time; t = time.perf_counter(); import jfft; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True, timeout=60)
    start = time.perf_counter()
    workload.setup_once()
    return float(out.stdout.strip().splitlines()[-1]) + time.perf_counter() - start


def per_call_us(fn, budget: float = 0.3, min_calls: int = 5) -> float:
    """Median time of one call, repeated for about ``budget`` seconds."""
    times = []
    deadline = time.perf_counter() + budget
    while len(times) < min_calls or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def isolated_layers(J, workload, seed: int):
    """Layer timings at the workload's grid size, outside any solve.

    Returns per-layer metrics, and the isolated cost in microseconds of one
    PCG iteration per preconditioner kind: K, the preconditioner, and the
    termination Green application where the kind does not reuse its own.
    """
    P = J.preconditioners
    rho, green = workload.layer_inputs()
    op = J.operators.make_operator(rho, workload.material)
    jacobi = P.assemble_jacobi(op)
    n = rho.grid.n
    u = J.grid.VectorField(rho.grid, np.random.default_rng(seed).normal(size=(2, n, n)))
    eps = J.fem.sym_gradient(u)

    k = per_call_us(lambda: J.operators.apply_system(op, u))
    g = per_call_us(lambda: P.apply_green(green, u))
    iteration_us = {
        "green": k + g,
        "green-jacobi": k + g + per_call_us(lambda: P.apply_green_jacobi(jacobi, green, u)),
        "jacobi": k + g + per_call_us(lambda: P.apply_jacobi(jacobi, u)),
    }

    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            J.operators.apply_system(op, u)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()

    metrics = {
        "operators.apply_system.alloc_kb_per_call": (statistics.median(peaks) / 1024.0, "KB"),
        "fem.sym_gradient.us": (per_call_us(lambda: J.fem.sym_gradient(u)), "us"),
        "material.stress.us": (per_call_us(
            lambda: J.material.stress(rho, workload.material, eps)), "us"),
        "fem.sym_gradient_adjoint.us": (per_call_us(
            lambda: J.fem.sym_gradient_adjoint(eps)), "us"),
        "preconditioners.assemble_green.ms": (1e-3 * per_call_us(
            lambda: P.assemble_green(rho.grid, workload.material), min_calls=3), "ms"),
        "preconditioners.assemble_jacobi.ms": (1e-3 * per_call_us(
            lambda: P.assemble_jacobi(op), min_calls=3), "ms"),
    }
    return metrics, iteration_us


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def solve_metrics(rounds) -> dict:
    """Per round, mean seconds per solve and milliseconds per iteration of
    each preconditioner kind; the median over rounds, 0 for a kind the
    workload does not solve."""
    out = {}
    for kind, tag in (("green", "green"), ("green-jacobi", "gj"),
                      ("jacobi", "jacobi")):
        per_solve, per_iter = [], []
        for r in rounds:
            solves = [s for s in r.solves if s.kind == kind]
            if solves:
                total = sum(s.seconds for s in solves)
                per_solve.append(total / len(solves))
                per_iter.append(1e3 * total / sum(s.iterations for s in solves))
        out[f"solver.pcg.{tag}_solve_s"] = (
            statistics.median(per_solve) if per_solve else 0.0, "s")
        out[f"solver.pcg.{tag}_iter_ms"] = (
            statistics.median(per_iter) if per_iter else 0.0, "ms")
    return out


def run_rounds(workload, seconds: float, tracer=None, between=None,
               reference=None):
    """Whole rounds while another one fits in ``seconds``.

    With a tracer, rounds alternate untraced and traced, starting untraced.
    ``between`` runs before each untraced round, and a ``reference`` samples
    the host's speed during each untraced round.  Returns the untraced and
    the traced rounds.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        if between is not None:
            between()
        with reference or contextlib.nullcontext():
            plain.append(workload.round())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.round())
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            return plain, traced


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "jfft" / "__init__.py").is_file():
        print(f"benchmark: no jfft source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    J = workloads.load_program()
    if not Path(J.solver.__file__).resolve().is_relative_to(SRC):
        print("benchmark: jfft was not imported from this checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](J, args.seed, out_dir)

    if args.trace == 0:
        # set-ups spread over the run, so that their median, like the
        # rounds, samples the whole run
        start = time.perf_counter()
        setups = [setup_seconds(workload)]
        # the first round warms caches and sets the peak resident set
        # before the reference kernel allocates anything; the later rounds
        # are measured against the reference
        first = workload.round()
        rss = peak_rss_mb()
        reference = Reference(workload.reference_n)
        measured, _ = run_rounds(
            workload, args.seconds - (time.perf_counter() - start),
            between=lambda: setups.append(setup_seconds(workload)),
            reference=reference)
        plain, traced = [first] + measured, []
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(workload))
        tracer = None
    else:
        workload.setup_once()
        tracer = tracing.Tracer()
        plain, traced = run_rounds(workload, args.seconds, tracer)

    rounds = plain + traced
    problems = [p for r in rounds for p in r.problems] + workload.final_problems()
    if any(r.counts != plain[0].counts for r in rounds):
        problems.append("iteration counts differ between rounds")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
            "round_rel": (statistics.median(
                reference.relative(r.start, r.seconds) for r in measured), "ratio"),
        }
    else:
        metrics = layer_metrics(J, workload, args.seed, plain, traced, tracer)
        tracer.write(out_dir / "spans.json")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(J, workload, seed, plain, traced, tracer) -> dict:
    metrics = tracing.summarize(tracer.spans, len(traced))
    isolated, iteration_us = isolated_layers(J, workload, seed)
    metrics.update(isolated)

    def gap(solves):
        # measured PCG time over the sum of the isolated layers it ran
        measured = isolated = 0.0
        for kind, iterations, seconds in solves:
            measured += seconds
            isolated += 1e-6 * iterations * iteration_us[kind]
        return measured / isolated if isolated else 0.0

    metrics["solver.pcg.layer_gap"] = (gap(
        (kind, it, sec) for kind, it, n, sec in tracing.pcg_solves(tracer.spans)
        if n == workload.layer_n), "ratio")
    sweep = workload.name == "laminate-sweep"
    metrics["experiments.sweep.iter_inflation"] = (gap(
        (s.kind, s.iterations, s.seconds) for r in plain for s in r.solves)
        if sweep else 0.0, "ratio")
    metrics.update(solve_metrics(plain))
    metrics["round_s"] = (statistics.median(r.seconds for r in plain), "s")
    steps = [ms for r in plain for ms in r.step_ms]
    metrics["topopt.step_ms"] = (statistics.median(steps) if steps else 0.0, "ms")
    metrics["trace.overhead"] = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in plain), "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
