"""Preconditioned conjugate gradients with Green-norm termination, and the
cell solve at a macroscopic strain built on it.

Iteration counts are comparable across preconditioners because every run
terminates on the same functional, the squared Green norm of the residual
``<r, G r>``.  The Green-preconditioned run reuses its own preconditioned
residual for this check; all other preconditioners evaluate it by Parseval's
identity (:func:`~jfft.preconditioners.green_norm2`), one forward FFT of the
residual per iteration and no inverse FFT.  The functional feeds only the
stopping test, not the recurrence.  Reported ``iterations`` is the number of
search direction updates; the check at k = 0 runs before any update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, VectorField
from .material import MaterialModel
from .operators import (SystemOperator, apply_system, assemble_rhs,
                        make_operator)
from .preconditioners import (GreenOperator, Preconditioner, assemble_green,
                              build_preconditioner, green_norm2)

#: Termination tolerance on the squared Green norm of the residual.
DEFAULT_ETA_CG = 1e-6

#: Iteration cap; capped runs report ``iteration-cap``, not an error.
DEFAULT_MAX_ITER = 999

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"

#: Default solid-phase Lame parameters (bulk modulus one).
DEFAULT_LAMBDA0 = 2.0 / 3.0
DEFAULT_MU0 = 0.5


class SolverAbortError(RuntimeError):
    """The PCG recurrence produced a non-finite or non-positive quantity."""


@dataclass
class SolveReport:
    """Outcome of one linear solve.

    ``residual_history`` holds the squared Green norm of the residual for
    k = 0 .. iterations, so its length is ``iterations + 1``.
    """

    iterations: int
    residual_history: list[float]
    terminated: str
    wall_time: float
    solution: VectorField


def _dot(a: VectorField, b: VectorField) -> float:
    return float(np.vdot(a.values, b.values))


def pcg(op: SystemOperator, rhs: VectorField, preconditioner: Preconditioner,
        green: GreenOperator, eta: float = DEFAULT_ETA_CG,
        max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Solve ``K u = rhs`` from the zero initial guess.

    Parameters
    ----------
    op : SystemOperator
        Symmetric PSD system operator.
    rhs : VectorField
        Right-hand side with zero mean per component.
    preconditioner : Preconditioner
        Any of the four tagged variants.
    green : GreenOperator
        Used for the termination functional ``<r, G r>`` regardless of the
        preconditioner in use.
    eta, max_iter : float, int
        Stop when the squared Green norm drops to ``eta``, or at the cap.

    Raises
    ------
    SolverAbortError
        On NaN/Inf in the recurrence or loss of positive definiteness.
    """
    start = time.perf_counter()
    reuse_green = preconditioner.kind == "green" and preconditioner.green is green

    def checked(value: float, what: str) -> float:
        if not np.isfinite(value):
            raise SolverAbortError(f"{what} became non-finite in PCG")
        return value

    def green_norm(r: VectorField, z: VectorField) -> float:
        value = _dot(r, z) if reuse_green else green_norm2(green, r)
        return checked(value, "residual Green norm")

    x = VectorField.zeros(op.grid)
    r = VectorField(op.grid, rhs.values.copy())
    step = np.empty_like(r.values)

    z = preconditioner.apply(r)
    gnorm2 = green_norm(r, z)
    history = [gnorm2]

    if gnorm2 <= eta:
        return SolveReport(0, history, CONVERGED,
                           time.perf_counter() - start, x)

    rz = checked(_dot(r, z), "preconditioned residual product")
    p = VectorField(op.grid, z.values.copy())

    iterations = 0
    terminated = ITERATION_CAP
    while iterations < max_iter:
        kp = apply_system(op, p)
        curvature = checked(_dot(p, kp), "search-direction curvature")
        if curvature <= 0.0:
            raise SolverAbortError(
                f"non-positive curvature {curvature:.3e} in PCG")
        alpha = rz / curvature
        x.values += np.multiply(p.values, alpha, out=step)
        r.values -= np.multiply(kp.values, alpha, out=step)
        iterations += 1

        z = preconditioner.apply(r)
        gnorm2 = green_norm(r, z)
        history.append(gnorm2)
        if gnorm2 <= eta:
            terminated = CONVERGED
            break

        rz_new = checked(_dot(r, z), "preconditioned residual product")
        beta = rz_new / rz
        p.values *= beta
        p.values += z.values
        rz = rz_new

    x.values -= x.component_means()[:, None, None]
    return SolveReport(iterations, history, terminated,
                       time.perf_counter() - start, x)


def solve_cell(rho: ScalarField, eps_bar, kind: str, material: MaterialModel,
               green: GreenOperator | None = None, eta: float = DEFAULT_ETA_CG,
               max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Solve the cell problem at the macroscopic strain ``eps_bar``.

    The material is linear, so one PCG solve of ``K u = f`` with
    ``f = -B^T W C(rho) E`` from the zero initial guess is the whole
    equilibrium problem.  A pre-assembled ``green`` operator (reference
    material = ``material``) can be passed in to amortize sweeps.
    """
    op = make_operator(rho, material)
    if green is None:
        green = assemble_green(op.grid, material)
    precond = build_preconditioner(kind, op, green)
    return pcg(op, assemble_rhs(op, eps_bar), precond, green,
               eta=eta, max_iter=max_iter)
