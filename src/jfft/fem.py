"""Matrix-free linear-triangle FE kernels on the regular periodic grid.

Each pixel ``(i1, i2)`` is split along its lower-left to upper-right
diagonal into

* a lower triangle with nodes ``(i1, i2), (i1+1, i2), (i1, i2+1)`` and
* an upper triangle with nodes ``(i1+1, i2+1), (i1, i2+1), (i1+1, i2)``

(indices wrap periodically).  P1 shape functions have constant gradients,
so a single centroid quadrature point per triangle integrates the
symmetrized gradient exactly; all quadrature weights equal half the pixel
area, :attr:`~jfft.grid.Grid.quad_weight`.

The differences divide by the pixel size.  When it is a power of two, as
on every cell of ``n = 2^k`` pixels over a side of ``2^j``, they multiply
by its reciprocal instead: a multiplication pass costs a third to half a
division pass, and scaling by a power of two is exact, so the product is
the quotient bit for bit.

The kernels take planes of ``r x n`` nodes or pixels and wrap
periodically along both axes of the plane; they slice their views once
and return the steps that make the NumPy calls on them, which
:func:`prepare_sym_gradient` and :func:`prepare_sym_gradient_adjoint`
chain into runs.  On the whole grid, ``r = n`` and that is the cell's
periodicity.  :func:`~jfft.operators.prepare_system` and
:func:`~jfft.operators.assemble_rhs` also prepare them on the row bands
of a large grid, once per band height, each band with one halo row on
either side: there the axis-0 wrap joins the band's first and last rows,
which are no neighbours on the grid, and spoils only the two halo rows of
the result, which the caller discards.
"""

from __future__ import annotations

import math
from operator import setitem

import numpy as np

from .grid import MANDEL_DIM, SQRT2, QuadField, VectorField, sequence, step


def _rows(a: np.ndarray) -> np.ndarray:
    """Planes ``a`` (..., r, n) as flat rows (..., r*n), a view.  Raises on
    a plane that is not C-contiguous: reshaping it would copy, and what the
    kernels write into the copy would be lost."""
    r, n = a.shape[-2:]
    if a.strides[-2:] != (n * a.itemsize, a.itemsize):
        raise ValueError("plane is not C-contiguous")
    return a.reshape(a.shape[:-2] + (r * n,))


def _lines(shape: tuple[int, int], axis: int) -> tuple[int, slice, slice]:
    """How the kernels below walk a flat row of an ``r x n`` plane along
    ``axis``: the distance to the next entry along it (``n`` for axis 0,
    one for axis 1) and the slices of the first and last line across it (a
    row of the plane for axis 0, a column for axis 1)."""
    r, n = shape
    if axis == 0:
        return n, slice(0, n), slice(r * n - n, None)
    return 1, slice(0, None, n), slice(n - 1, None, n)


def is_power_of_two(x: float) -> bool:
    """Whether ``x`` is a power of two whose reciprocal is finite, so that
    scaling by ``x`` or ``1 / x`` is exact unless the result is subnormal."""
    return math.frexp(x)[0] == 0.5 and math.isfinite(1.0 / x)


def _scale_by_inverse(out: np.ndarray, h: float):
    """The step ``out /= h`` in place, as ``out *= 1 / h`` when ``1 / h`` is
    exact.  For a power of two ``h`` whose reciprocal is finite, quotient
    and product are one real number, which both round alike, subnormals,
    infinities and NaNs included; any other ``h`` divides."""
    if is_power_of_two(h):
        return step(np.multiply, out, 1.0 / h, out)
    return step(np.true_divide, out, h, out)


# Each kernel returns the steps of one call on the flat rows ``a`` and
# ``out`` (..., r*n), offset by the distance of ``line`` =
# _lines((r, n), axis), then of the call that redoes the one line whose
# neighbour wraps around the plane, which the first call either skipped or
# took from the next row of the plane.

def _forward_difference(a: np.ndarray, line, h: float,
                        out: np.ndarray) -> list:
    """Steps of ``out = (roll(a, -1, axis) - a) / h``, the periodic forward
    difference along the axis of ``line``."""
    k, first, last = line
    return [step(np.subtract, a[..., k:], a[..., :-k], out[..., :-k]),
            step(np.subtract, a[..., first], a[..., last], out[..., last]),
            _scale_by_inverse(out, h)]


def _backward_difference(a: np.ndarray, line, h: float,
                         out: np.ndarray) -> list:
    """Steps of ``out = (roll(a, 1, axis) - a) / h`` along the axis of
    ``line``, the adjoint of :func:`_forward_difference`."""
    k, first, last = line
    return [step(np.subtract, a[..., :-k], a[..., k:], out[..., k:]),
            step(np.subtract, a[..., last], a[..., first], out[..., first]),
            _scale_by_inverse(out, h)]


def _copy(out: np.ndarray, a: np.ndarray):
    """The step ``out[...] = a``, which copied large rows a few percent
    faster than ``np.copyto``."""
    return step(setitem, out, Ellipsis, a)


def _shift(a: np.ndarray, sign: int, line, out: np.ndarray) -> list:
    """Steps of ``out = roll(a, sign, axis)`` for ``sign`` = +1 or -1, along
    the axis of ``line``."""
    k, first, last = line
    if sign == 1:
        return [_copy(out[..., k:], a[..., :-k]),
                _copy(out[..., first], a[..., last])]
    return [_copy(out[..., :-k], a[..., k:]),
            _copy(out[..., last], a[..., first])]


def prepare_sym_gradient(u: np.ndarray, pixel_size: tuple[float, float],
                         eps: np.ndarray, planes: np.ndarray):
    """The strain pass, run as often as wanted: strain planes ``eps``
    (3, 2, ..., r, n) from displacement planes ``u`` (..., 2, r, n);
    ``planes`` (2, ..., r, n) is scratch.  The axes marked ``...`` are load
    axes, and each load is computed as it would be alone.  Component-major
    ``eps`` and ``planes`` make each strain plane of a stack one block.
    Every plane must be C-contiguous."""
    dx1, dx2 = pixel_size
    along1, along2 = _lines(u.shape[-2:], 0), _lines(u.shape[-2:], 1)
    u, eps, planes = _rows(u), _rows(eps), _rows(planes)
    dyu1, dxu2 = planes
    u1, u2 = u[..., 0, :], u[..., 1, :]
    e00, e10, e20, e21 = eps[0, 0], eps[1, 0], eps[2, 0], eps[2, 1]
    return sequence([
        # lower triangle: gradients anchored at the pixel's lower-left node
        *_forward_difference(u1, along1, dx1, e00),
        *_forward_difference(u2, along2, dx2, e10),
        *_forward_difference(u1, along2, dx2, dyu1),
        *_forward_difference(u2, along1, dx1, dxu2),
        step(np.add, dyu1, dxu2, e20),
        step(np.true_divide, e20, SQRT2, e20),
        # upper triangle: the same differences taken along the far edges
        *_shift(e00, -1, along2, eps[0, 1]),
        *_shift(e10, -1, along1, eps[1, 1]),
        *_shift(dyu1, -1, along1, e21),
        *_shift(dxu2, -1, along2, dyu1),
        step(np.add, e21, dyu1, e21),
        step(np.true_divide, e21, SQRT2, e21)])


def prepare_sym_gradient_adjoint(s: np.ndarray,
                                 pixel_size: tuple[float, float],
                                 f: np.ndarray, planes: np.ndarray):
    """The exact transpose of :func:`prepare_sym_gradient`, run as often as
    wanted: nodal planes ``f`` (..., 2, r, n) from quadrature planes ``s``
    (3, 2, ..., r, n), which are left unchanged; ``planes`` (2, ..., r, n)
    is scratch.  Every plane must be C-contiguous."""
    dx1, dx2 = pixel_size
    along1, along2 = _lines(f.shape[-2:], 0), _lines(f.shape[-2:], 1)
    s, f, planes = _rows(s), _rows(f), _rows(planes)
    gathered, term = planes
    f1, f2 = f[..., 0, :], f[..., 1, :]
    s20, s21 = s[2, 0], s[2, 1]
    return sequence([
        *_shift(s[0, 1], 1, along2, gathered),
        step(np.add, gathered, s[0, 0], gathered),
        *_backward_difference(gathered, along1, dx1, f1),
        *_shift(s21, 1, along1, gathered),
        step(np.add, gathered, s20, gathered),
        *_backward_difference(gathered, along2, dx2, term),
        step(np.true_divide, term, SQRT2, term),
        step(np.add, f1, term, f1),
        *_shift(s[1, 1], 1, along1, gathered),
        step(np.add, gathered, s[1, 0], gathered),
        *_backward_difference(gathered, along2, dx2, f2),
        *_shift(s21, 1, along2, gathered),
        step(np.add, gathered, s20, gathered),
        *_backward_difference(gathered, along1, dx1, term),
        step(np.true_divide, term, SQRT2, term),
        step(np.add, f2, term, f2)])


def sym_gradient(u: VectorField) -> QuadField:
    """Per-triangle constant Mandel strain of a nodal displacement field.

    Linear in ``u``; a rigid translation maps to the zero field.
    """
    n = u.grid.n
    eps = np.empty((MANDEL_DIM, 2, n, n))
    prepare_sym_gradient(u.values, u.grid.pixel_size, eps,
                         np.empty((2, n, n)))()
    return QuadField(u.grid, eps)


def sym_gradient_adjoint(s: QuadField) -> VectorField:
    """Transpose of :func:`sym_gradient` (no quadrature weights applied).

    Satisfies ``<sym_gradient(u), s> = <u, sym_gradient_adjoint(s)>`` for the
    plain Euclidean pairings; the caller composes with weights.  The result
    always has zero mean per component.
    """
    n = s.grid.n
    f = np.empty((2, n, n))
    prepare_sym_gradient_adjoint(s.values, s.grid.pixel_size, f,
                                 np.empty((2, n, n)))()
    return VectorField(s.grid, f)


def cell_average(s: QuadField) -> np.ndarray:
    """Volume average ``(1/|Y|) * sum_Q w_Q s_Q`` per Mandel component."""
    scale = s.grid.quad_weight / s.grid.cell_volume
    return scale * s.values.sum(axis=(1, 2, 3))
