"""Matrix-free system operator ``K(rho) = B^T W C(rho) B`` and right-hand
sides of the periodic cell problem."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import setitem

import numpy as np

from . import fem
from .grid import (MANDEL_DIM, Grid, QuadField, ScalarField, VectorField,
                   sequence, step)
from .material import MaterialModel, prepare_stiffness_product


@dataclass(frozen=True, eq=False)
class SystemOperator:
    """Bundles everything needed to apply the stiffness action of one cell
    problem: pixel densities and base material; the grid is the density's.

    The operator is symmetric positive semi-definite with the two rigid
    translations as its null space; it is never assembled as a matrix.  It
    owns the workspace of :func:`apply_system`, :func:`assemble_rhs` and
    :func:`homogenized_stress`: the per-pixel factor ``w * rho`` and two
    flat buffers, a strain buffer and a scratch buffer, each grown to what
    the largest call so far needed, so an application allocates only the
    field it returns, and nothing when the caller passes ``out=``.

    On a grid that K takes whole for one load, construction sizes the
    buffers for one load, which every call there needs, and a call on
    ``B`` loads works in their leading ``(3, 2, B, n, n)`` and
    ``(2, B, n, n)`` entries (:func:`_workspace`): component-major and
    C-contiguous, so that each plane of a stack is one block and one
    load's strain is a plain ``(3, 2, n, n)`` array whatever stack grew
    the buffers.  On a grid that K cuts into row bands, the buffers start
    empty, and K and the right-hand side work in the buffers of one band
    of ``r`` rows (:func:`_band_workspace`): ``(3, 2, B, r, n)`` strain and
    ``(B, 2, r, n)`` nodal rows from the strain buffer, ``(2, B, r, n)``
    scratch and ``(r, n)`` factor rows from the scratch buffer, so no
    buffer of the operator spans the grid.
    """

    density: ScalarField
    material: MaterialModel
    _factor: np.ndarray = field(init=False, repr=False)
    _strain: np.ndarray = field(init=False, repr=False)
    _planes: np.ndarray = field(init=False, repr=False)

    @property
    def grid(self) -> Grid:
        return self.density.grid

    def __post_init__(self):
        if not np.all(np.isfinite(self.density.values)):
            raise ValueError("non-finite density")
        if np.any(self.density.values < 0.0):
            raise ValueError("negative density")
        object.__setattr__(self, "_factor",
                           self.grid.quad_weight * self.density.values)
        object.__setattr__(self, "_strain", np.empty(0))
        object.__setattr__(self, "_planes", np.empty(0))
        if _band_count(self.grid.n, 1) == 1:
            _workspace(self, ())


def _grown(op: SystemOperator, strain: int, planes: int):
    """The operator's strain and scratch buffers, each replaced by one of
    ``strain`` or ``planes`` entries when it holds fewer.  Steps prepared
    on a replaced buffer keep it alive and still run on it."""
    if op._strain.size < strain:
        object.__setattr__(op, "_strain", np.empty(strain))
    if op._planes.size < planes:
        object.__setattr__(op, "_planes", np.empty(planes))
    return op._strain, op._planes


def _workspace(op: SystemOperator, lead: tuple[int, ...]):
    """Strain buffer ``(3, 2) + lead + (n, n)`` and scratch planes
    ``(2,) + lead + (n, n)`` for fields with load axes ``lead`` (``()`` or
    ``(B,)``), as C-contiguous views of the operator's workspace."""
    n = op.grid.n
    strain_shape = (MANDEL_DIM, 2) + lead + (n, n)
    planes_shape = (2,) + lead + (n, n)
    strain, planes = _grown(op, math.prod(strain_shape),
                            math.prod(planes_shape))
    return (strain[:math.prod(strain_shape)].reshape(strain_shape),
            planes[:math.prod(planes_shape)].reshape(planes_shape))


# ``bench/`` is the only caller of this name; it goes with benchmark v2
make_operator = SystemOperator


#: Nodes of each load that one band may span, halo rows included.  A band
#: works on about 12 planes of doubles per load, so 27306 nodes make a
#: 2.5 MB working set, which stays in a core's L2 cache while the stencil
#: makes its passes over it (2 MB L2 per core on the 2-vCPU VM measured).
_BAND_NODES = 27306
#: Fewest output rows of a band, whatever the budget gives: each band pays
#: about 60 NumPy calls and two halo rows.  Bands of 8 rows cut K by 9-43%
#: at n = 512 and 1024 for one to three loads and at n = 2048 for one;
#: bands of 2 rows were slower than the whole grid at n = 1024 and 2048.
_MIN_ROWS = 8
#: A grid is cut into bands only when it holds more than ``_MIN_BANDS``
#: bands.  Grids of at most four, as n = 256 and 320 for one load and
#: n = 128 for up to three, gained at most 6% in bands or lost.
_MIN_BANDS = 4


def _band_count(n: int, loads: int) -> int:
    """Number of row bands of a K application on ``loads`` loads of an
    ``n x n`` grid, one for the whole grid."""
    rows = max(_BAND_NODES // (loads * n) - 2, _MIN_ROWS)
    return 1 if _MIN_BANDS * rows >= n else -(-n // rows)


def _band_workspace(op: SystemOperator, lead: tuple[int, ...], rows: int):
    """Buffers of one band of ``rows`` rows, halo rows included, for fields
    with load axes ``lead``: strain ``(3, 2) + lead + (rows, n)``, scratch
    ``(2,) + lead + (rows, n)``, nodal ``lead + (2, rows, n)`` and factor
    ``(rows, n)``, as C-contiguous views of the operator's buffers."""
    n = op.grid.n
    plane = math.prod(lead) * rows * n
    strain, planes = _grown(op, 8 * plane, 2 * plane + rows * n)
    shape = lead + (rows, n)
    return (strain[:6 * plane].reshape((MANDEL_DIM, 2) + shape),
            planes[:2 * plane].reshape((2,) + shape),
            strain[6 * plane:8 * plane].reshape(lead + (2, rows, n)),
            planes[2 * plane:2 * plane + rows * n].reshape(rows, n))


def _band_rows(src: np.ndarray, a: int, b: int, dst: np.ndarray):
    """The step that copies rows ``a - 1 .. b`` (second-last axis) of the
    grid's ``src`` into ``dst``: a slice inside the grid, a gather that
    wraps around it at its edges."""
    if 0 < a and b < src.shape[-2]:
        return step(setitem, dst, Ellipsis, src[..., a - 1:b + 1, :])
    return step(np.take, src, np.arange(a - 1, b + 1), -2, dst, "wrap")


def _prepare_bands(op: SystemOperator, out: np.ndarray, bands: int,
                   strain_steps, u: np.ndarray | None = None) -> list:
    """Steps of ``B^T W rho C0`` into ``out`` in ``bands`` bands of rows,
    whose heights differ by one row at most, applied to the strain that
    ``strain_steps(nodal, strain, planes)`` writes into a band's strain
    buffer, from the rows of ``u`` in its nodal buffer when ``u`` is given.

    A band of output rows ``[a, b)`` works on the ``b - a + 2`` rows
    ``[a - 1, b]``.  It copies them from ``u`` into its nodal buffer, runs
    the strain steps and the material product, scales by its rows of
    ``w * rho`` (a view inside the grid, gathered at its edges) and runs
    the adjoint into the nodal buffer.  Each entry of rows ``a .. b - 1``
    takes the operations and inputs it takes on the whole grid; the two
    halo rows are spoiled by the wrap inside the band and dropped when
    rows ``1 .. b - a`` are copied into ``out``.  The strain steps, the
    material product and the adjoint are prepared once per band height,
    on the workspace grown beforehand to the tallest band, so that every
    plan runs on one buffer: a plan prepared before a growth would keep
    the replaced buffer alive.
    """
    n, h = op.grid.n, op.grid.pixel_size
    lead = out.shape[:-3]
    _band_workspace(op, lead, -(-n // bands) + 2)
    plans, steps = {}, []
    for k in range(bands):
        a, b = k * n // bands, (k + 1) * n // bands
        rows = b - a + 2
        if rows not in plans:
            strain, planes, nodal, factor = _band_workspace(op, lead, rows)
            plans[rows] = (
                strain, nodal, factor, nodal[..., 1:-1, :],
                [*strain_steps(nodal, strain, planes),
                 step(prepare_stiffness_product(op.material, strain, planes))],
                step(fem.prepare_sym_gradient_adjoint(strain, h, nodal,
                                                      planes)))
        strain, nodal, factor, inner, front, adjoint = plans[rows]
        if u is not None:
            steps.append(_band_rows(u, a, b, nodal))
        if 0 < a and b < n:
            rho = op._factor[a - 1:b + 1]
        else:
            rho = factor
            steps.append(_band_rows(op._factor, a, b, factor))
        steps += [*front, step(np.multiply, strain, rho, strain), adjoint,
                  step(setitem, out[..., a:b, :], Ellipsis, inner)]
    return steps


def _prepare_k(op: SystemOperator, out: np.ndarray, strain_steps,
               u: np.ndarray | None = None) -> list:
    """Steps of ``B^T W rho C0`` into ``out``, applied to the strain that
    ``strain_steps(nodal, strain, planes)`` writes into a strain buffer,
    from the nodal values ``u`` when given: in row bands
    (:func:`_prepare_bands`) where :func:`_band_count` gives more than
    one, else on the whole grid, in the operator's workspace and from ``u``
    itself.  K and the right-hand side differ only in their strain
    steps."""
    lead = out.shape[:-3]
    bands = _band_count(op.grid.n, lead[0] if lead else 1)
    if bands > 1:
        return _prepare_bands(op, out, bands, strain_steps, u)
    strain, planes = _workspace(op, lead)
    # W * rho * C0 * eps, fused: the uniform weight and the pixel density are
    # a single scale factor per pixel.
    return [*strain_steps(u, strain, planes),
            step(prepare_stiffness_product(op.material, strain, planes)),
            step(np.multiply, strain, op._factor, strain),
            step(fem.prepare_sym_gradient_adjoint(strain, op.grid.pixel_size,
                                                  out, planes))]


def _check_out(out: np.ndarray | None, values: np.ndarray) -> None:
    """Reject an ``out`` whose shape is not that of the input ``values``,
    into which NumPy would otherwise broadcast, and one that is not a
    C-contiguous float64 array, which a :class:`VectorField` would copy
    instead of wrapping, so that later steps would miss it."""
    if out is None:
        return
    if out.shape != values.shape:
        raise ValueError(f"out has shape {out.shape}, expected {values.shape}")
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array")


def prepare_system(op: SystemOperator, u: VectorField,
                   out: np.ndarray | None = None):
    """``K(rho) u`` element by element, cost O(n^2), as a zero-argument
    callable that recomputes it from whatever ``u.values`` holds when run
    and returns the product.  A stack ``u`` gives the stack of products,
    each bitwise equal to its load's product alone.  ``out``, when given,
    is a C-contiguous float64 array of ``u``'s shape that receives (and
    backs) the product; it must not share memory with ``u.values``, since
    on a large grid the product is written band by band while later bands
    still read ``u``.

    A grid whose working set would outgrow the cache runs in row bands
    (:func:`_prepare_bands`), bitwise equal to the whole-grid pass that
    every smaller grid makes.  Either way every view and step is prepared
    here, once: a banded K holds one plan per band height (two at most)
    and a few copy and scaling steps per band."""
    if u.grid != op.grid:
        raise ValueError("displacement lives on a different grid")
    if u.values.size == 0:
        raise ValueError("displacement stack (loads, 2, n, n) has an empty "
                         "load axis; it needs loads >= 1")
    if out is not None and np.may_share_memory(out, u.values):
        raise ValueError("out must not share memory with u")
    _check_out(out, u.values)
    if out is None:
        out = np.empty(u.values.shape)
    h = op.grid.pixel_size
    return sequence(_prepare_k(op, out, lambda nodal, strain, planes: [
        step(fem.prepare_sym_gradient(nodal, h, strain, planes))], u.values),
        VectorField(op.grid, out))


def apply_system(op: SystemOperator, u: VectorField,
                 out: np.ndarray | None = None) -> VectorField:
    """``K(rho) u`` once: :func:`prepare_system`, run once."""
    return prepare_system(op, u, out)()


def _macroscopic_strain(eps_bar, ndim: int) -> np.ndarray:
    """``eps_bar`` as a float64 Mandel vector, or for ``ndim = 2`` also a
    ``(B, 3)`` stack of them, ``B >= 1``; any other shape, an empty stack
    and a non-finite entry raise ``ValueError``."""
    eps_bar = np.asarray(eps_bar, dtype=np.float64)
    if eps_bar.shape[-1:] != (MANDEL_DIM,) or eps_bar.ndim > ndim:
        stack = f" or (loads, {MANDEL_DIM})" if ndim == 2 else ""
        raise ValueError(f"macroscopic strain must have shape ({MANDEL_DIM},)"
                         + stack)
    if eps_bar.size == 0:
        raise ValueError(f"macroscopic strain stack (loads, {MANDEL_DIM}) has "
                         "an empty load axis; it needs loads >= 1")
    if not np.all(np.isfinite(eps_bar)):
        raise ValueError("macroscopic strain must be finite")
    return eps_bar


def assemble_rhs(op: SystemOperator, eps_bar) -> VectorField:
    """Right-hand side ``f = -B^T W C(rho) E`` for a macroscopic strain.

    ``eps_bar`` is a Mandel vector broadcast to every quadrature point, or a
    ``(B, 3)`` array of them, ``B >= 1``, which gives the stack of the
    ``B`` right-hand sides.  The result has zero mean per component.  On a
    grid that K cuts into row bands, it is built in the same bands, with
    the strain pass replaced by the constant ``eps_bar``.
    """
    eps_bar = _macroscopic_strain(eps_bar, 2)
    lead = eps_bar.shape[:-1]
    n = op.grid.n
    eps = np.moveaxis(eps_bar, -1, 0)[:, None, ..., None, None]
    f = np.empty(lead + (2, n, n))
    sequence(_prepare_k(op, f, lambda nodal, strain, planes: [
        step(setitem, strain, Ellipsis, eps)]))()
    np.negative(f, out=f)
    return VectorField(op.grid, f)


def homogenized_stress(op: SystemOperator, u: VectorField, eps_bar) -> np.ndarray:
    """Volume-averaged stress of the equilibrated cell, a Mandel vector.

    The total strain ``sym_gradient(u) + eps_bar`` and then the stress
    ``rho C0 eps`` are built in one strain buffer, with the operations of
    :func:`~jfft.material.stress` and :func:`~jfft.fem.cell_average` and
    bitwise their result.  Where K takes the grid whole, that buffer is the
    operator's workspace and the call makes no field-sized temporary.
    Where K cuts the grid into row bands, the operator holds no whole-grid
    buffer, and the call takes its own, freed on return.
    """
    if u.grid != op.grid or u.values.ndim != 3:
        raise ValueError("displacement must be one field on the operator's "
                         "grid")
    eps_bar = _macroscopic_strain(eps_bar, 1)
    n = op.grid.n
    if _band_count(n, 1) > 1:
        strain, planes = np.empty((MANDEL_DIM, 2, n, n)), np.empty((2, n, n))
    else:
        strain, planes = _workspace(op, ())
    fem.prepare_sym_gradient(u.values, op.grid.pixel_size, strain, planes)()
    strain += eps_bar[:, None, None, None]
    prepare_stiffness_product(op.material, strain, planes)()
    strain *= op.density.values
    return fem.cell_average(QuadField(op.grid, strain))
