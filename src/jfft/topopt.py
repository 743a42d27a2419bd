"""Phase-field regularized inverse homogenization.

Minimizes the misfit between the homogenized stresses under the three
canonical macroscopic loads and target stresses, plus a phase-field term
that drives the layout toward two phases with diffuse interfaces.  At the
default weights the phase-field term can outweigh the misfit, so a run may
settle on a sharp or uniform layout far from the target (see the README on
criterion 9).  The driver is
a plain limited-memory BFGS with backtracking line search; every objective
evaluation solves the three cell problems from the zero initial guess, in
one stacked PCG, and records the inner PCG iteration counts.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .fem import sym_gradient
from .grid import MANDEL_DIM, Grid, ScalarField, dot, make_grid
from .material import MaterialModel
from .operators import SystemOperator, assemble_rhs
from .preconditioners import (PRECONDITIONER_KINDS, GreenOperator,
                              assemble_green, build_preconditioner)
from .solver import (CONVERGED, DEFAULT_ETA_CG, DEFAULT_LAMBDA0,
                     DEFAULT_MAX_ITER, DEFAULT_MU0, SolveReport,
                     SolverAbortError, pcg_stack)

log = logging.getLogger(__name__)

#: Densities below this are lifted before solving so the operator stays
#: positive semi-definite with a usable right-hand side.
DENSITY_FLOOR = 1e-12

#: The three canonical macroscopic loads, the Mandel basis.
_LOADS = np.eye(MANDEL_DIM)


@dataclass(frozen=True)
class TopOptConfig:
    """Inputs of one optimization run; see the README for the JSON keys."""

    n: int
    eta_pf: float = 0.01
    k_target: float = 0.025
    mu_target: float = 0.15
    lambda0: float = DEFAULT_LAMBDA0
    mu0: float = DEFAULT_MU0
    lbfgs_memory: int = 10
    max_outer: int = 200
    objective_tol: float = 0.0
    seed: int = 0
    preconditioner: str = "green-jacobi"
    measure: tuple[str, ...] = ()
    eta_cg: float = DEFAULT_ETA_CG
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2 nodes per direction, got {self.n}")
        if not 0.0 < self.eta_pf < np.inf:
            raise ValueError(f"interface parameter eta_pf must be finite and "
                             f"positive, got {self.eta_pf}")
        if self.lbfgs_memory < 1:
            raise ValueError("L-BFGS memory must be at least 1")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be >= 0, got {self.max_outer}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.objective_tol < np.inf:
            raise ValueError(f"objective_tol must be finite and >= 0, got "
                             f"{self.objective_tol}")
        if not 0.0 < self.eta_cg < np.inf:
            raise ValueError(f"eta_cg must be finite and positive, got "
                             f"{self.eta_cg}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        for name, kinds in (("preconditioner", (self.preconditioner,)),
                            ("measure", self.measure)):
            for kind in kinds:
                if kind not in PRECONDITIONER_KINDS:
                    raise ValueError(
                        f"{name}: unknown preconditioner {kind!r}; choose "
                        f"one of {PRECONDITIONER_KINDS}")
        try:
            MaterialModel(self.lambda0, self.mu0)
        except ValueError as exc:
            raise ValueError(f"solid phase lambda0={self.lambda0}, "
                             f"mu0={self.mu0}: {exc}") from None
        try:
            target_stiffness(self.k_target, self.mu_target)
        except ValueError as exc:
            raise ValueError(f"target moduli k_target={self.k_target}, "
                             f"mu_target={self.mu_target}: {exc}") from None


@dataclass
class OptHistory:
    """Per-outer-iteration record; index 0 is the initial point."""

    objective: list[float] = field(default_factory=list)
    stress_part: list[float] = field(default_factory=list)
    phase_part: list[float] = field(default_factory=list)
    inner_iterations: list[dict[str, list[int]]] = field(default_factory=list)
    status: str = ""


def target_stiffness(k_target: float, mu_target: float) -> MaterialModel:
    """Target Mandel stiffness from bulk and shear moduli (3D convention)."""
    return MaterialModel(k_target - 2.0 * mu_target / 3.0, mu_target)


@dataclass(frozen=True, eq=False)
class TopOptProblem:
    cfg: TopOptConfig
    grid: Grid
    material: MaterialModel
    green: GreenOperator
    targets: np.ndarray  # (3, 3): target stress per canonical load


def make_problem(cfg: TopOptConfig) -> TopOptProblem:
    grid = make_grid(cfg.n)
    material = MaterialModel(cfg.lambda0, cfg.mu0)
    green = assemble_green(grid, material)
    c_target = target_stiffness(cfg.k_target, cfg.mu_target).stiffness
    targets = np.stack([c_target @ e for e in np.eye(MANDEL_DIM)])
    return TopOptProblem(cfg, grid, material, green, targets)


def _solve_loads(problem: TopOptProblem, op: SystemOperator,
                 kind: str) -> list[SolveReport]:
    """Equilibrate the three canonical loads from the zero initial guess in
    one stacked PCG; a load that stops at the iteration cap far above the
    tolerance aborts the evaluation."""
    cfg = problem.cfg
    precond = build_preconditioner(kind, op, problem.green)
    reports = pcg_stack(op, assemble_rhs(op, _LOADS), precond, problem.green,
                        eta=cfg.eta_cg, max_iter=cfg.max_iter)
    for gamma, report in enumerate(reports):
        if (report.terminated != CONVERGED
                and report.residual_history[-1] > 1e3 * cfg.eta_cg):
            raise SolverAbortError(
                f"load case {gamma}: iteration cap {cfg.max_iter} reached with "
                f"squared Green norm {report.residual_history[-1]:.3e}")
    return reports


def _solve_load_cases(problem: TopOptProblem, rho: ScalarField,
                      preconditioner: str):
    """Equilibrate the three canonical loads from the zero initial guess.

    Returns the per-load total strains (3, 3, 2, n, n) and the PCG
    iteration counts.
    """
    op = SystemOperator(rho, problem.material)
    reports = _solve_loads(problem, op, preconditioner)
    strains = np.stack([sym_gradient(report.solution).values
                        for report in reports])
    strains += _LOADS[:, :, None, None, None]
    return strains, [report.iterations for report in reports]


def _strain_pairings(problem: TopOptProblem, strains: np.ndarray) -> np.ndarray:
    """Per-pixel energy pairings ``sum_t eps_c^T C0 eps_g`` of the loads."""
    c_eps = np.einsum("mk,gktij->gmtij", problem.material.stiffness, strains)
    return np.einsum("cmtij,gmtij->gcij", strains, c_eps)


def _stress_matrix(problem: TopOptProblem, pairings: np.ndarray,
                   rho: np.ndarray) -> np.ndarray:
    """Homogenized stress matrix (3, 3) from the pairings of the load
    strains.  The energy bilinear form agrees with the plain stress average
    at exact solutions but is quadratically (instead of linearly) accurate
    in the iterative solution error, so the line search of the optimizer is
    not poisoned by solver noise."""
    return (problem.grid.quad_weight / problem.grid.cell_volume) * np.einsum(
        "gcij,ij->gc", pairings, rho)


def _phase_field_parts(cfg: TopOptConfig, grid: Grid, rho: np.ndarray):
    """Phase-field energy and its exact discrete gradient.

    The gradient-penalty term uses periodic forward differences on the
    pixel lattice; integrals are pixel sums times pixel area.
    """
    dx1, dx2 = grid.pixel_size
    area = dx1 * dx2
    d1 = (np.roll(rho, -1, axis=0) - rho) / dx1
    d2 = (np.roll(rho, -1, axis=1) - rho) / dx2
    f_grad = cfg.eta_pf * area * float((d1 ** 2 + d2 ** 2).sum())
    well = rho ** 2 * (1.0 - rho) ** 2
    f_well = area / cfg.eta_pf * float(well.sum())
    g_grad = -2.0 * cfg.eta_pf * area * (
        (d1 - np.roll(d1, 1, axis=0)) / dx1 + (d2 - np.roll(d2, 1, axis=1)) / dx2)
    g_well = (area / cfg.eta_pf) * 2.0 * rho * (1.0 - rho) * (1.0 - 2.0 * rho)
    return f_grad + f_well, g_grad + g_well


@dataclass(eq=False)
class Evaluation:
    value: float
    stress_part: float
    phase_part: float
    gradient: np.ndarray
    inner_counts: list[int]


def _clamped_density(problem: TopOptProblem, rho: np.ndarray) -> ScalarField:
    clamped = int((rho < DENSITY_FLOOR).sum())
    if clamped:
        log.info("lifting %d pixels to the density floor %.0e",
                 clamped, DENSITY_FLOOR)
    return ScalarField(problem.grid, np.maximum(rho, DENSITY_FLOOR))


def _stress_gradient(problem: TopOptProblem, pairings: np.ndarray,
                     mismatch: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Exact derivative of the stress mismatch part at one density iterate.

    The adjoint of each load case is a combination of the load solutions
    themselves (the loads span the Mandel basis), which folds the explicit
    and implicit terms into one pairing of strains.  Pixels sitting below
    the solve floor contribute nothing: the evaluated objective is constant
    in them.
    """
    scale = 2.0 * problem.grid.quad_weight / problem.grid.cell_volume
    grad = scale * np.einsum("gc,gcij->ij", mismatch, pairings)
    grad[rho < DENSITY_FLOOR] = 0.0
    return grad


def evaluate(problem: TopOptProblem, rho: np.ndarray) -> Evaluation:
    """Objective value, parts, and gradient at one density iterate.

    The stress-mismatch gradient combines the explicit per-pixel term with
    the implicit one through the displacement solutions.  Because the loads
    are the canonical Mandel basis, each adjoint state is a linear
    combination of the already-computed load solutions, so no extra solves
    are needed.
    """
    cfg = problem.cfg
    rho_solve = _clamped_density(problem, rho)
    strains, counts = _solve_load_cases(problem, rho_solve, cfg.preconditioner)
    pairings = _strain_pairings(problem, strains)

    sigma_bar = _stress_matrix(problem, pairings, rho_solve.values)
    mismatch = sigma_bar - problem.targets
    f_stress = float((mismatch ** 2).sum())
    g_stress = _stress_gradient(problem, pairings, mismatch, rho)
    f_phase, g_phase = _phase_field_parts(cfg, problem.grid, rho)
    return Evaluation(f_stress + f_phase, f_stress, f_phase,
                      g_stress + g_phase, counts)


def _measured_counts(problem: TopOptProblem, rho: np.ndarray,
                     kinds) -> dict[str, list[int]]:
    """Per-load PCG counts of each preconditioner kind at one iterate."""
    op = SystemOperator(_clamped_density(problem, rho), problem.material)
    return {kind: [report.iterations
                   for report in _solve_loads(problem, op, kind)]
            for kind in kinds}


def _two_loop_direction(grad: np.ndarray, memory) -> np.ndarray:
    """Standard L-BFGS two-loop recursion for the descent direction, from
    the stored ``(s, y, 1 / <s, y>)`` curvature pairs, oldest first."""
    q = grad.copy()
    alphas = []
    for s, y, rho_sy in reversed(memory):
        alphas.append(rho_sy * dot(s, q))
        q -= alphas[-1] * y
    if memory:
        s, y, _ = memory[-1]
        q *= dot(s, y) / dot(y, y)
    for (s, y, rho_sy), a in zip(memory, reversed(alphas)):
        q += (a - rho_sy * dot(y, q)) * s
    return -q


_ARMIJO_C1 = 1e-4
_MIN_STEP = 1e-14


def _backtrack(problem: TopOptProblem, x: np.ndarray, ev: Evaluation,
               direction: np.ndarray, slope: float, first: bool):
    """Halving Armijo line search; returns (trial point, evaluation) or
    (None, None) when no acceptable step remains."""
    step = (1.0 / max(1.0, math.sqrt(dot(ev.gradient, ev.gradient)))
            if first else 1.0)
    while step >= _MIN_STEP:
        trial = x + step * direction
        candidate = evaluate(problem, trial)
        if candidate.value <= ev.value + _ARMIJO_C1 * step * slope:
            return trial, candidate
        step *= 0.5
    return None, None


def lbfgs_minimize(cfg: TopOptConfig, callback=None,
                   rho0: ScalarField | None = None):
    """Run the optimization from seeded uniform-noise initial densities.

    Records objective parts and per-load inner PCG counts for the driving
    preconditioner and every extra one in ``cfg.measure`` at each accepted
    iterate.  Returns the final density and the history; on a failed line
    search the best-so-far density is returned with a matching status.
    ``rho0`` overrides the random start, e.g. to continue a previous run.
    """
    problem = make_problem(cfg)
    if rho0 is not None:
        if rho0.grid != problem.grid:
            raise ValueError("initial density lives on the wrong grid")
        x = rho0.values.copy()
    else:
        rng = np.random.default_rng(cfg.seed)
        x = rng.uniform(0.0, 1.0, size=(cfg.n, cfg.n))

    extra = tuple(k for k in cfg.measure if k != cfg.preconditioner)
    history = OptHistory()

    def record(ev: Evaluation, point: np.ndarray):
        counts = {cfg.preconditioner: ev.inner_counts}
        if extra:
            counts.update(_measured_counts(problem, point, extra))
        history.objective.append(ev.value)
        history.stress_part.append(ev.stress_part)
        history.phase_part.append(ev.phase_part)
        history.inner_iterations.append(counts)

    ev = evaluate(problem, x)
    record(ev, x)
    if callback is not None:
        callback(0, ScalarField(problem.grid, x.copy()))

    memory: deque = deque(maxlen=cfg.lbfgs_memory)
    history.status = "max-outer"
    for outer in range(1, cfg.max_outer + 1):
        direction = _two_loop_direction(ev.gradient, memory)
        slope = dot(direction, ev.gradient)
        if slope >= 0.0:
            direction = -ev.gradient
            slope = -dot(ev.gradient, ev.gradient)
        if slope == 0.0:
            history.status = "stationary"
            break

        trial, ev_new = _backtrack(problem, x, ev, direction, slope,
                                   first=not memory)
        if ev_new is None and memory:
            # quasi-Newton direction unusable; drop the memory and retry
            # along steepest descent before giving up
            memory.clear()
            direction = -ev.gradient
            slope = dot(direction, ev.gradient)
            trial, ev_new = _backtrack(problem, x, ev, direction, slope,
                                       first=True)
        if ev_new is None:
            history.status = "line-search-failure"
            break

        s = trial - x
        y = ev_new.gradient - ev.gradient
        sy = dot(s, y)
        if sy > 1e-12 * math.sqrt(dot(s, s)) * math.sqrt(dot(y, y)):
            memory.append((s, y, 1.0 / sy))

        decrease = ev.value - ev_new.value
        x = trial
        ev = ev_new
        record(ev, x)
        if callback is not None:
            callback(outer, ScalarField(problem.grid, x.copy()))
        if decrease <= 0.0:
            # Armijo accepted a step whose decrease underflowed: stuck
            history.status = "stationary"
            break
        if cfg.objective_tol > 0.0 and decrease <= cfg.objective_tol * max(
                1.0, abs(ev.value)):
            history.status = "converged"
            break

    return ScalarField(problem.grid, x), history
