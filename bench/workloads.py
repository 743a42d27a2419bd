"""The benchmark's three workloads.

Each workload builds its inputs from the seed, performs one *round* of the
same operations on every call of :meth:`round`, and checks every output
against the independent references in :mod:`checks`.  A round reports the
seconds its main work took, the solves that feed the per-solve metrics,
the iteration counts (the paper's invariants), and the operations it
attempted and that failed.

Functions of the program are always looked up on their module at call time
(``J.solver.pcg``, not a name imported once), so the traced run sees the
calls the tracer wraps.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import checks

LAMBDA0, MU0 = 2.0 / 3.0, 0.5
CONTRAST = 1e4
ETA_CG = 1e-6


def load_program():
    """Import the package modules the benchmark drives."""
    import jfft.cli
    import jfft.fem
    import jfft.grid
    import jfft.material
    import jfft.microstructures
    import jfft.operators
    import jfft.preconditioners
    import jfft.solver
    import jfft.topopt
    return SimpleNamespace(
        cli=jfft.cli, fem=jfft.fem,
        grid=jfft.grid, material=jfft.material, micro=jfft.microstructures,
        operators=jfft.operators, preconditioners=jfft.preconditioners,
        solver=jfft.solver, topopt=jfft.topopt)


def unit_load(rng: np.random.Generator) -> np.ndarray:
    """A macroscopic strain drawn uniformly from the unit Mandel sphere."""
    e = rng.normal(size=3)
    return e / np.linalg.norm(e)


@dataclass
class Solve:
    kind: str
    iterations: int
    seconds: float


@dataclass
class Round:
    #: ``perf_counter`` at the start of the round's main work, and its
    #: wall time.
    start: float
    seconds: float
    solves: list[Solve]
    counts: list[int]
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)


class Workload:
    name = ""
    #: Grid size of the isolated layer timings.
    layer_n = 0
    #: Grid size of the reference kernel that samples the host's speed.
    reference_n = 0

    def __init__(self, J):
        self.J = J
        self.material = J.material.isotropic_material(LAMBDA0, MU0)

    def setup_once(self):
        """Assemble the Green operator, the Jacobi diagonal and the
        right-hand side of the workload's first solve."""
        J = self.J
        rho, load = self.first_solve()
        op = J.operators.make_operator(rho, self.material)
        J.preconditioners.assemble_green(op.grid, self.material)
        J.preconditioners.assemble_jacobi(op)
        J.operators.assemble_rhs(op, load)

    def first_solve(self):
        raise NotImplementedError

    def layer_inputs(self):
        """Density and Green operator for the isolated layer timings."""
        rho, _ = self.first_solve()
        return rho, self.J.preconditioners.assemble_green(rho.grid, self.material)

    def round(self) -> Round:
        raise NotImplementedError

    def final_problems(self) -> list[str]:
        return []


class Cell512(Workload):
    """Single large cells solved from the zero guess with Green and
    Green-Jacobi: FFT and K arithmetic on 2-13 MB arrays dominate."""

    name = "cell-512"
    layer_n = 512
    reference_n = 512
    n = 512

    def __init__(self, J, seed, out_dir):
        super().__init__(J)
        m = J.micro
        self.load = unit_load(np.random.default_rng(seed))
        # the laminate at p = 64 needs 44 Green iterations; at p = 512 it
        # needs 125, and after the unmeasured first round of 12 s a 40 s
        # run has room for one measured round at most
        self.cells = {
            "cosine": m.refine_to_grid(m.cosine_density(16, CONTRAST), self.n),
            "laminate": m.refine_to_grid(m.laminate_density(64, CONTRAST), self.n),
        }
        self.green = J.preconditioners.assemble_green(
            self.cells["cosine"].grid, self.material)

    def first_solve(self):
        return self.cells["cosine"], self.load

    def round(self) -> Round:
        J = self.J
        start = time.perf_counter()
        solves, stresses, problems, failed = [], {}, [], 0
        for cell, rho in self.cells.items():
            op = J.operators.make_operator(rho, self.material)
            for kind in ("green", "green-jacobi"):
                precond = J.preconditioners.build_preconditioner(kind, op, self.green)
                rhs = J.operators.assemble_rhs(op, self.load)
                report = J.solver.pcg(op, rhs, precond, self.green, eta=ETA_CG)
                stresses[cell, kind] = J.operators.homogenized_stress(
                    op, report.solution, self.load)
                solves.append(Solve(kind, report.iterations, report.wall_time))
                if report.terminated != J.solver.CONVERGED:
                    failed += 1
                    problems.append(f"{cell}/{kind} ended {report.terminated}")
        seconds = time.perf_counter() - start

        lam, mu = self.material.lambda0, self.material.mu0
        for kind in ("green", "green-jacobi"):
            problems.append(checks.check_laminate(
                stresses["laminate", kind], self.cells["laminate"].values,
                lam, mu, self.load))
            problems.append(checks.check_energy_bounds(
                stresses["cosine", kind], self.cells["cosine"].values,
                self.material.stiffness, self.load))
        for cell in self.cells:
            problems.append(checks.check_agreement(
                stresses[cell, "green"], stresses[cell, "green-jacobi"], cell))
        return Round(start, seconds, solves, [s.iterations for s in solves],
                     attempted=len(solves), failed=failed,
                     problems=[p for p in problems if p])


class TopOpt32(Workload):
    """L-BFGS topology optimization at n = 32 for a fixed number of outer
    steps: thousands of small solves where call overhead dominates."""

    name = "topopt-32"
    layer_n = 32
    reference_n = 32
    n = 32
    outer_steps = 30
    #: Accepted iterates at which the benchmark re-solves the three loads
    #: with Green and Green-Jacobi for the per-solve metrics.
    probe_steps = (10, 20, 30)

    def __init__(self, J, seed, out_dir):
        super().__init__(J)
        grid = J.grid.make_grid(self.n)
        rng = np.random.default_rng(seed)
        self.rho0 = J.grid.ScalarField(grid, rng.uniform(0.0, 1.0, (self.n, self.n)))
        self.direction = rng.normal(size=(self.n, self.n))
        self.cfg = J.topopt.TopOptConfig(
            n=self.n, preconditioner="green-jacobi", measure=("green",),
            max_outer=self.outer_steps, objective_tol=0.0,
            lambda0=LAMBDA0, mu0=MU0)
        self.green = J.preconditioners.assemble_green(grid, self.material)
        self.final = None

    def first_solve(self):
        floor = self.J.topopt.DENSITY_FLOOR
        rho = self.J.grid.ScalarField(self.rho0.grid,
                                      np.maximum(self.rho0.values, floor))
        return rho, np.eye(3)[0]

    def round(self) -> Round:
        J = self.J
        stamps, probes = [], []

        def callback(outer, rho):
            stamps.append(time.perf_counter())
            if outer in self.probe_steps:
                probes.append(rho.values)

        start = time.perf_counter()
        rho, history = J.topopt.lbfgs_minimize(self.cfg, callback=callback,
                                               rho0=self.rho0)
        seconds = time.perf_counter() - start
        steps = len(history.objective) - 1
        self.final = rho.values

        problems = [checks.check_monotone(history.objective)]
        if history.status != "max-outer":
            problems.append(f"optimizer stopped early: {history.status} "
                            f"after {steps} steps")
        solves = []
        floor = J.topopt.DENSITY_FLOOR
        for values in probes:
            op = J.operators.make_operator(
                J.grid.ScalarField(rho.grid, np.maximum(values, floor)),
                self.material)
            for kind in ("green", "green-jacobi"):
                precond = J.preconditioners.build_preconditioner(kind, op, self.green)
                for load in np.eye(3):
                    report = J.solver.pcg(op, J.operators.assemble_rhs(op, load),
                                          precond, self.green, eta=ETA_CG)
                    solves.append(Solve(kind, report.iterations, report.wall_time))
        counts = [c for rec in history.inner_iterations
                  for kind in sorted(rec) for c in rec[kind]]
        return Round(start, seconds, solves, counts, attempted=self.outer_steps,
                     problems=[p for p in problems if p],
                     step_ms=list(1e3 * np.diff(stamps)))

    def final_problems(self) -> list[str]:
        """Adjoint gradient at the final iterate against central
        differences, both at eta_cg = 1e-12."""
        problem = gradient_problem(self.J, self.n)
        gradient = self.J.topopt.evaluate(problem, self.final).gradient
        return [p for p in [check_gradient(self.J, problem, self.final,
                                           gradient, self.direction)] if p]


def gradient_problem(J, n: int):
    """Topology-optimization problem solved to eta_cg = 1e-12."""
    return J.topopt.make_problem(J.topopt.TopOptConfig(
        n=n, preconditioner="green-jacobi", eta_cg=1e-12, max_iter=5000,
        lambda0=LAMBDA0, mu0=MU0))


def check_gradient(J, problem, x: np.ndarray, gradient: np.ndarray,
                   direction: np.ndarray) -> str | None:
    """Slope of ``gradient`` along a direction against central differences
    of the objective.

    The direction is the gradient plus a seeded random field, both
    normalized and zero on pixels near the solve floor, where the objective
    has a kink.  Along it the slope is of the order of the gradient norm,
    far above the solver noise in the objective.
    """
    keep = x > 1e-3
    g = np.where(keep, gradient, 0.0)
    r = np.where(keep, direction, 0.0)
    d = g / np.linalg.norm(g) + r / np.linalg.norm(r)
    d /= np.linalg.norm(d)
    h = 1e-4
    slope = float(np.vdot(gradient, d))
    f_plus = J.topopt.evaluate(problem, x + h * d).value
    f_minus = J.topopt.evaluate(problem, x - h * d).value
    return checks.check_directional_derivative(slope, f_plus, f_minus, h)


class LaminateSweep(Workload):
    """The laminate iteration-count sweep through the command line, with
    two worker processes: many mid-size cells, per-cell Jacobi assembly,
    and Jacobi runs of hundreds of iterations."""

    name = "laminate-sweep"
    p_values = (16, 64)
    n_values = (32, 64, 128)
    kinds = ("green", "jacobi", "green-jacobi")
    layer_n = max(n_values)
    reference_n = 128

    def __init__(self, J, seed, out_dir):
        super().__init__(J)
        self.load = unit_load(np.random.default_rng(seed))
        self.config = out_dir / "laminate-sweep.json"
        self.out = out_dir / "laminate-sweep"
        with open(self.config, "w") as fh:
            json.dump({"experiment": "laminate-sweep",
                       "contrasts": [CONTRAST],
                       "p_values": list(self.p_values),
                       "n_values": list(self.n_values),
                       "preconditioners": list(self.kinds),
                       "material": {"lambda0": LAMBDA0, "mu0": MU0},
                       "eta_cg": ETA_CG,
                       "eps_bar": self.load.tolist()}, fh)

    def first_solve(self):
        m = self.J.micro
        p, n = self.p_values[0], self.n_values[0]
        return m.refine_to_grid(m.laminate_density(p, CONTRAST), n), self.load

    def layer_inputs(self):
        m = self.J.micro
        rho = m.refine_to_grid(m.laminate_density(self.p_values[0], CONTRAST),
                               self.layer_n)
        return rho, self.J.preconditioners.assemble_green(rho.grid, self.material)

    def round(self) -> Round:
        table = self.out / "iterations.csv"
        table.unlink(missing_ok=True)
        # one worker: two workers' threaded BLAS dots oversubscribe the
        # cores and make the sweep time bimodal (see the README)
        argv = ["laminate-sweep", "--config", str(self.config),
                "--out", str(self.out), "--threads", "1"]
        start = time.perf_counter()
        code = self.J.cli.main(argv)
        seconds = time.perf_counter() - start
        rows = []
        if table.exists():
            with open(table) as fh:
                next(fh)  # schema line
                rows = list(csv.DictReader(fh))
        expected = sum(1 for p in self.p_values for n in self.n_values
                       if n % p == 0) * len(self.kinds)
        failed = expected if code != 0 else sum(
            1 for r in rows if r["terminated"] != "converged")
        solves = [Solve(r["preconditioner"], int(r["iterations"]),
                        float(r["wall_time"]))
                  for r in rows if int(r["n"]) == self.layer_n]
        return Round(start, seconds, solves, [int(r["iterations"]) for r in rows],
                     attempted=expected, failed=failed,
                     problems=checks.check_sweep(code, rows))


WORKLOADS = {w.name: w for w in (Cell512, TopOpt32, LaminateSweep)}
