"""Matrix-free linear-triangle FE kernels on the regular periodic grid.

Each pixel ``(i1, i2)`` is split along its lower-left to upper-right
diagonal into

* a lower triangle with nodes ``(i1, i2), (i1+1, i2), (i1, i2+1)`` and
* an upper triangle with nodes ``(i1+1, i2+1), (i1, i2+1), (i1+1, i2)``

(indices wrap periodically).  P1 shape functions have constant gradients,
so a single centroid quadrature point per triangle integrates the
symmetrized gradient exactly; all quadrature weights equal half the pixel
area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MANDEL_DIM, SQRT2, Grid, QuadField, VectorField


@dataclass(frozen=True)
class QuadratureWeights:
    """Centroid-rule weights; every quadrature point carries the same one."""

    grid: Grid
    per_point: float

    @property
    def total(self) -> float:
        return self.per_point * self.grid.n_quad


def quadrature_weights(grid: Grid) -> QuadratureWeights:
    dx1, dx2 = grid.pixel_size
    return QuadratureWeights(grid, dx1 * dx2 / 2.0)


def _along(a: np.ndarray, axis: int) -> np.ndarray:
    """View of an ``(n, n)`` plane whose first index runs along ``axis``."""
    return a if axis == 0 else a.T


def _forward_difference(a: np.ndarray, axis: int, h: float,
                        out: np.ndarray) -> None:
    """``out = (roll(a, -1, axis) - a) / h``, the periodic forward difference."""
    src, dst = _along(a, axis), _along(out, axis)
    np.subtract(src[1:], src[:-1], out=dst[:-1])
    np.subtract(src[:1], src[-1:], out=dst[-1:])
    out /= h


def _backward_difference(a: np.ndarray, axis: int, h: float,
                         out: np.ndarray) -> None:
    """``out = (roll(a, 1, axis) - a) / h``, the adjoint of
    :func:`_forward_difference`."""
    src, dst = _along(a, axis), _along(out, axis)
    np.subtract(src[:-1], src[1:], out=dst[1:])
    np.subtract(src[-1:], src[:1], out=dst[:1])
    out /= h


def _shift(a: np.ndarray, step: int, axis: int, out: np.ndarray) -> None:
    """``out = roll(a, step, axis)`` for ``step`` = +1 or -1."""
    src, dst = _along(a, axis), _along(out, axis)
    if step == 1:
        dst[1:] = src[:-1]
        dst[:1] = src[-1:]
    else:
        dst[:-1] = src[1:]
        dst[-1:] = src[:1]


def sym_gradient_into(u: np.ndarray, pixel_size: tuple[float, float],
                      eps: np.ndarray, planes: np.ndarray) -> None:
    """Strain planes ``eps`` (3, 2, n, n) from displacement planes ``u``
    (2, n, n); ``planes`` (2, n, n) is scratch."""
    dx1, dx2 = pixel_size
    dyu1, dxu2 = planes
    # lower triangle: gradients anchored at the pixel's lower-left node
    _forward_difference(u[0], 0, dx1, eps[0, 0])
    _forward_difference(u[1], 1, dx2, eps[1, 0])
    _forward_difference(u[0], 1, dx2, dyu1)
    _forward_difference(u[1], 0, dx1, dxu2)
    np.add(dyu1, dxu2, out=eps[2, 0])
    eps[2, 0] /= SQRT2
    # upper triangle: the same differences taken along the far pixel edges
    _shift(eps[0, 0], -1, 1, eps[0, 1])
    _shift(eps[1, 0], -1, 0, eps[1, 1])
    _shift(dyu1, -1, 0, eps[2, 1])
    _shift(dxu2, -1, 1, dyu1)
    eps[2, 1] += dyu1
    eps[2, 1] /= SQRT2


def sym_gradient_adjoint_into(s: np.ndarray, pixel_size: tuple[float, float],
                              f: np.ndarray, planes: np.ndarray) -> None:
    """Exact transpose of :func:`sym_gradient_into`: nodal planes ``f``
    (2, n, n) from quadrature planes ``s`` (3, 2, n, n), which are left
    unchanged; ``planes`` (2, n, n) is scratch."""
    dx1, dx2 = pixel_size
    gathered, term = planes
    _shift(s[0, 1], 1, 1, gathered)
    gathered += s[0, 0]
    _backward_difference(gathered, 0, dx1, f[0])
    _shift(s[2, 1], 1, 0, gathered)
    gathered += s[2, 0]
    _backward_difference(gathered, 1, dx2, term)
    term /= SQRT2
    f[0] += term
    _shift(s[1, 1], 1, 0, gathered)
    gathered += s[1, 0]
    _backward_difference(gathered, 1, dx2, f[1])
    _shift(s[2, 1], 1, 1, gathered)
    gathered += s[2, 0]
    _backward_difference(gathered, 0, dx1, term)
    term /= SQRT2
    f[1] += term


def sym_gradient(u: VectorField) -> QuadField:
    """Per-triangle constant Mandel strain of a nodal displacement field.

    Linear in ``u``; a rigid translation maps to the zero field.
    """
    n = u.grid.n
    eps = np.empty((MANDEL_DIM, 2, n, n))
    sym_gradient_into(u.values, u.grid.pixel_size, eps, np.empty((2, n, n)))
    return QuadField(u.grid, eps)


def sym_gradient_adjoint(s: QuadField) -> VectorField:
    """Transpose of :func:`sym_gradient` (no quadrature weights applied).

    Satisfies ``<sym_gradient(u), s> = <u, sym_gradient_adjoint(s)>`` for the
    plain Euclidean pairings; the caller composes with weights.  The result
    always has zero mean per component.
    """
    n = s.grid.n
    f = np.empty((2, n, n))
    sym_gradient_adjoint_into(s.values, s.grid.pixel_size, f, np.empty((2, n, n)))
    return VectorField(s.grid, f)


def cell_average(s: QuadField, weights: QuadratureWeights) -> np.ndarray:
    """Volume average ``(1/|Y|) * sum_Q w_Q s_Q`` per Mandel component."""
    if weights.grid != s.grid:
        raise ValueError("quadrature weights belong to a different grid")
    scale = weights.per_point / s.grid.cell_volume
    return scale * s.values.sum(axis=(1, 2, 3))
