"""Preconditioned conjugate gradients with Green-norm termination, and the
cell solve at a macroscopic strain built on it.

Iteration counts are comparable across preconditioners because every run
terminates on the same functional, the squared Green norm of the residual
``<r, G r>``.  The Green-preconditioned run reuses its own preconditioned
residual for this check; all other preconditioners evaluate it by Parseval's
identity (:func:`~jfft.preconditioners.prepare_green_norm2`), one forward FFT
of the residual per iteration and no inverse FFT.  The functional feeds only
the stopping test, not the recurrence.  Reported ``iterations`` is the number
of search direction updates; the check at k = 0 runs before any update.

One loop, :func:`pcg_stack`, solves a stack of right-hand sides that share
the operator, the preconditioner and the Green operator: the Green-
preconditioned CG of Zeman et al., J. Comput. Phys. 229 (2010) 8065, run on
several loads at once (not block CG, which shares search spaces across
loads and would change the counts).  Each load keeps its own step length
alpha, its own beta, its own ``<r, z>`` and history, and stops on its own:
a load that meets the tolerance, at k = 0 or after any update, or reaches
the iteration cap is frozen, its solution stored, and it leaves the stack;
the others go on.  Per iteration the active loads share one application of
K and one of the preconditioner, which are elementwise and FFT layers and
give each load bitwise the values it would get alone.  Every dot product
is :func:`~jfft.grid.dot` on one load's own contiguous planes, so each
load's count, history and solution equal its solo solve bit for bit.
:func:`pcg` is a stack of one.

A solve holds four fields per load, allocated before the first iteration:
the iterate, the residual, the search direction and one work buffer that
the layers write into (``out=``).  The work buffer holds the
preconditioned residual ``z`` until the direction update has read it,
then ``K p``, then ``alpha K p`` for the residual update, then
``alpha p`` for the iterate update, then the next ``z``.  No field-sized
array is allocated per iteration.

The loop prepares its layers once per active stack, and again only when
loads leave it: K from the direction into the work buffer, the
preconditioner from the residual into it, the Green norm of the residual
and the per-load dots (see :mod:`jfft.grid`).  Each iteration then runs
only their NumPy calls; a K in row bands, too, is prepared here, as one
plan per band height and a few steps per band.  The prepared layers hold
views of these four fields and of the operators' workspaces, tens of KB
and no field, so the four fields per load above are still all that a
solve allocates.  On a grid that K cuts into bands, the operator's
workspace is one band, not the grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, VectorField, dot
from .material import MaterialModel
from .operators import SystemOperator, assemble_rhs, prepare_system
from .preconditioners import (GreenOperator, Preconditioner, assemble_green,
                              build_preconditioner, prepare_green_norm2)

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


@dataclass(eq=False)
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


def _checked(values: list[float], what: str) -> list[float]:
    if not all(map(math.isfinite, values)):
        raise SolverAbortError(f"{what} became non-finite in PCG")
    return values


def _prepare_dots(a: np.ndarray, b: np.ndarray):
    """:func:`~jfft.grid.dot` of each load's ``(2, n, n)`` planes of
    whatever ``a`` and ``b`` hold when run, as a list."""
    pairs = tuple(zip(a, b))
    return lambda: [dot(x, y) for x, y in pairs]


def _as_field(grid: Grid, rows: np.ndarray) -> VectorField:
    """The active rows as the layers' input, and their values as the
    layers' ``out=``: one load as a plain field, more as a stack.  The
    layers make the same NumPy calls on either form; per Green and
    Green-Jacobi iteration on a cosine cell the plain field measured 7%
    faster at n = 32 and 1-12% faster at n = 128 and 512, within the
    spread between runs there (prepared layers, 10 alternated solves,
    2-core virtual machine)."""
    return VectorField(grid, rows[0] if len(rows) == 1 else rows)


def _column(values: list[float]) -> float | np.ndarray:
    """Per-load scalars shaped to scale a stack of fields; one load's scalar
    is used as it is."""
    if len(values) == 1:
        return values[0]
    return np.array(values).reshape(-1, 1, 1, 1)


def _compact(arrays, keep: list[bool]) -> None:
    """Move the rows flagged in ``keep`` to the front of every array, in
    order, without allocating."""
    for new, old in enumerate(np.flatnonzero(keep)):
        if new != old:
            for a in arrays:
                a[new] = a[old]


def pcg(op: SystemOperator, rhs: VectorField, preconditioner: Preconditioner,
        green: GreenOperator, eta: float = DEFAULT_ETA_CG,
        max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Solve ``K u = rhs`` from the zero initial guess: :func:`pcg_stack`
    on a stack of one load, with the same parameters."""
    stack = VectorField(rhs.grid, rhs.values[None])
    return pcg_stack(op, stack, preconditioner, green, eta, max_iter)[0]


def pcg_stack(op: SystemOperator, rhs: VectorField,
              preconditioner: Preconditioner, green: GreenOperator,
              eta: float = DEFAULT_ETA_CG,
              max_iter: int = DEFAULT_MAX_ITER) -> list[SolveReport]:
    """Solve ``K u_b = rhs_b`` for every load ``b`` of a stack, each from the
    zero initial guess.

    Parameters
    ----------
    op : SystemOperator
        Symmetric PSD system operator.
    rhs : VectorField
        Stack ``(B, 2, n, n)`` of right-hand sides with zero mean per
        component.
    preconditioner : Preconditioner
        Any of the four tagged variants.
    green : GreenOperator
        Used for the termination functional ``<r, G r>`` regardless of the
        preconditioner in use.
    eta, max_iter : float, int
        A load stops when its squared Green norm drops to ``eta``, a finite
        number > 0, or at the cap, ``max_iter >= 0``.

    Returns one report per load, in stack order; a load's ``wall_time``
    runs from the start of the stack to the moment it stopped.

    Raises
    ------
    SolverAbortError
        On NaN/Inf in any load's recurrence or its loss of positive
        definiteness.
    """
    start = time.perf_counter()
    if rhs.values.ndim != 4 or len(rhs.values) == 0:
        raise ValueError("pcg_stack takes a stack (B, 2, n, n), B >= 1, of "
                         "right-hand sides")
    if rhs.grid != op.grid:
        raise ValueError("right-hand side lives on a different grid")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be a finite number > 0, got {eta!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    for part in (green, preconditioner.green, preconditioner.jacobi):
        if part is not None and part.grid != op.grid:
            raise ValueError(f"{type(part).__name__} lives on a different "
                             "grid than the operator")
    grid = op.grid
    reuse_green = preconditioner.kind == "green" and preconditioner.green is green

    # rows [:b] of the work arrays hold the active loads, in stack order;
    # xs, rs, ps, ws and the prepared layers are views of those rows
    x = np.zeros_like(rhs.values)
    r = rhs.values.copy()
    p = np.empty_like(r)
    w = np.empty_like(r)
    active = list(range(len(r)))
    histories: list[list[float]] = [[] for _ in active]
    reports: list[SolveReport | None] = [None] * len(r)

    def freeze(stop: list[bool], terminated: str) -> None:
        for row in np.flatnonzero(stop):
            # a stack of one hands out its own buffer; stacked rows are
            # overwritten when the stack shrinks
            solution = VectorField(grid, x[0] if len(x) == 1 else x[row].copy())
            solution.values -= solution.component_means()[:, None, None]
            load = active[row]
            reports[load] = SolveReport(iterations, histories[load], terminated,
                                        time.perf_counter() - start, solution)

    def prepare(b: int):
        """Views of rows [:b] and the layers prepared on them: the
        preconditioner and K into the work rows, the per-load dots, and the
        termination functional, which is the ``<r, z>`` dots for Green and
        the Green norm of the residual rows otherwise."""
        rs, ps, ws = r[:b], p[:b], w[:b]
        residual, direction = _as_field(grid, rs), _as_field(grid, ps)
        work = _as_field(grid, ws).values
        rz_dots = _prepare_dots(rs, ws)
        norm = rz_dots if reuse_green else prepare_green_norm2(green, residual)
        return (x[:b], rs, ps, ws, preconditioner.prepare(residual, work),
                prepare_system(op, direction, work), norm, rz_dots,
                _prepare_dots(ps, ws))

    iterations = 0
    b = len(active)
    xs, rs, ps, ws, precondition, apply_k, norm, rz_dots, pkp_dots = prepare(b)
    precondition()
    while True:
        # ws holds z
        gnorm2 = _checked(norm(), "residual Green norm")
        for load, value in zip(active, gnorm2):
            histories[load].append(value)
        done = [value <= eta for value in gnorm2]
        if any(done):
            freeze(done, CONVERGED)
            keep = [not d for d in done]
            _compact((x, r, p, w), keep)
            active = [load for load, k in zip(active, keep) if k]
            gnorm2 = [value for value, k in zip(gnorm2, keep) if k]
            if iterations:
                rz = [value for value, k in zip(rz, keep) if k]
            b = len(active)
            if not b:
                break
            # the old layers go first, so one set of views is alive at a time
            del precondition, apply_k, norm, rz_dots, pkp_dots
            (xs, rs, ps, ws, precondition, apply_k, norm, rz_dots,
             pkp_dots) = prepare(b)

        # for Green, <r, z> is the Green norm just taken
        rz_new = gnorm2 if reuse_green else _checked(
            rz_dots(), "preconditioned residual product")
        if iterations >= max_iter:
            freeze([True] * b, ITERATION_CAP)
            break
        if iterations:
            ps *= _column([new / old for new, old in zip(rz_new, rz)])
            ps += ws
        else:
            ps[...] = ws
        rz = rz_new

        # z is read for the last time: ws takes K p
        apply_k()
        curvature = _checked(pkp_dots(), "search-direction curvature")
        for value in curvature:
            if value <= 0.0:
                raise SolverAbortError(
                    f"non-positive curvature {value:.3e} in PCG")
        alpha = _column([a / c for a, c in zip(rz, curvature)])
        ws *= alpha
        rs -= ws
        np.multiply(ps, alpha, out=ws)
        xs += ws
        iterations += 1
        precondition()

    return reports


def solve_cell(rho: ScalarField, eps_bar, kind: str, material: MaterialModel,
               green: GreenOperator | None = None, eta: float = DEFAULT_ETA_CG,
               max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Solve the cell problem at the macroscopic strain ``eps_bar``.

    The material is linear, so one PCG solve of ``K u = f`` with
    ``f = -B^T W C(rho) E`` from the zero initial guess is the whole
    equilibrium problem.  A pre-assembled ``green`` operator (reference
    material = ``material``) can be passed in to amortize sweeps.
    """
    op = SystemOperator(rho, material)
    if green is None:
        green = assemble_green(op.grid, material)
    precond = build_preconditioner(kind, op, green)
    return pcg(op, assemble_rhs(op, eps_bar), precond, green,
               eta=eta, max_iter=max_iter)
