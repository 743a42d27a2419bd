"""Matrix-free system operator ``K(rho) = B^T W C(rho) B`` and right-hand
sides of the periodic cell problem."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .grid import (MANDEL_DIM, Grid, QuadField, ScalarField, VectorField,
                   sequence, step)
from .material import MaterialModel, prepare_stiffness_product


@dataclass(frozen=True)
class SystemOperator:
    """Bundles everything needed to apply the stiffness action of one cell
    problem: grid, pixel densities and base material.

    The operator is symmetric positive semi-definite with the two rigid
    translations as its null space; it is never assembled as a matrix.  It
    owns the workspace of :func:`apply_system`, :func:`assemble_rhs` and
    :func:`homogenized_stress`: the per-pixel factor ``w * rho``, a
    strain/stress buffer and two scratch planes per load of the largest
    stack applied so far (one load until a stack arrives), so an
    application allocates only the field it returns, and nothing when the
    caller passes ``out=``.  A call on ``B`` loads works in the leading
    ``(3, 2, B, n, n)`` and ``(2, B, n, n)`` entries of the two flat
    buffers: component-major and C-contiguous, so that each plane of a
    stack is one block and one load's strain is a plain ``(3, 2, n, n)``
    array whatever stack grew the buffers.  A K application in row bands
    of ``r`` rows carves its band buffers from the same two:
    ``(3, 2, B, r, n)`` strain and ``(B, 2, r, n)`` nodal rows from the
    strain buffer, ``(2, B, r, n)`` scratch and ``(r, n)`` factor rows
    from the scratch buffer.
    """

    grid: Grid
    density: ScalarField
    material: MaterialModel
    _factor: np.ndarray = field(init=False, repr=False, compare=False)
    _strain: np.ndarray = field(init=False, repr=False, compare=False)
    _planes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.density.grid != self.grid:
            raise ValueError("density grid mismatch")
        if not np.all(np.isfinite(self.density.values)):
            raise ValueError("non-finite density")
        if np.any(self.density.values < 0.0):
            raise ValueError("negative density")
        object.__setattr__(self, "_factor",
                           self.grid.quad_weight * self.density.values)
        _grow_workspace(self, 1)


def _grow_workspace(op: SystemOperator, loads: int) -> None:
    size = loads * op.grid.n ** 2
    object.__setattr__(op, "_strain", np.empty(MANDEL_DIM * 2 * size))
    object.__setattr__(op, "_planes", np.empty(2 * size))


def _workspace(op: SystemOperator, lead: tuple[int, ...]):
    """Strain buffer ``(3, 2) + lead + (n, n)`` and scratch planes
    ``(2,) + lead + (n, n)`` for fields with load axes ``lead`` (``()`` or
    ``(B,)``), as C-contiguous views of the operator's workspace."""
    n = op.grid.n
    loads = lead[0] if lead else 1
    if op._planes.size < 2 * loads * n * n:
        _grow_workspace(op, loads)
    strain_shape = (MANDEL_DIM, 2) + lead + (n, n)
    planes_shape = (2,) + lead + (n, n)
    return (op._strain[:math.prod(strain_shape)].reshape(strain_shape),
            op._planes[:math.prod(planes_shape)].reshape(planes_shape))


def make_operator(density: ScalarField, material: MaterialModel) -> SystemOperator:
    return SystemOperator(density.grid, density, material)


def _weighted_stress_adjoint(op: SystemOperator, sig: np.ndarray,
                             planes: np.ndarray, factor: np.ndarray,
                             out: np.ndarray) -> list:
    """Steps of ``B^T W rho C0`` applied to the strain held in the
    workspace buffer ``sig``, with the per-pixel ``factor`` ``w * rho`` of
    its rows, into ``out``."""
    # W * rho * C0 * eps, fused: the uniform weight and the pixel density are
    # a single scale factor per pixel.
    return [step(prepare_stiffness_product(op.material, sig, planes)),
            step(np.multiply, sig, factor, sig),
            step(fem.prepare_sym_gradient_adjoint(sig, op.grid.pixel_size,
                                                  out, planes))]


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
    ``(rows, n)``.  They are carved from the operator's workspace, which
    grows only for a band that outsizes the whole grid, as on a tiny grid
    cut into one-row bands."""
    n = op.grid.n
    loads = lead[0] if lead else 1
    plane = loads * rows * n
    if (op._strain.size < 8 * plane
            or op._planes.size < 2 * plane + rows * n):
        _grow_workspace(op, loads * -(-2 * rows // n))
    shape = lead + (rows, n)
    return (op._strain[:6 * plane].reshape((MANDEL_DIM, 2) + shape),
            op._planes[:2 * plane].reshape((2,) + shape),
            op._strain[6 * plane:8 * plane].reshape(lead + (2, rows, n)),
            op._planes[2 * plane:2 * plane + rows * n].reshape(rows, n))


def _apply_in_bands(op: SystemOperator, u: np.ndarray, out: np.ndarray,
                    bands: int) -> None:
    """``K u`` into ``out`` in ``bands`` bands of rows, whose heights
    differ by one row at most.

    A band of output rows ``[a, b)`` reads the displacement rows
    ``[a - 1, b]``.  Its strain, stress and adjoint run on those
    ``b - a + 2`` rows, where each entry of rows ``a .. b - 1`` takes the
    operations and inputs it takes on the whole grid; the two halo rows
    are spoiled by the wrap inside the band and discarded.  A band inside
    the grid reads a view of ``u`` and writes rows ``a - 1 .. b`` of
    ``out``: the next band overwrites row ``b``, and row ``a - 1`` is put
    back.  The first and last bands wrap around the grid: they gather
    their rows of ``u`` and ``w * rho`` and copy their rows into ``out``.
    Each band's steps are prepared as it runs and dropped after it, so
    only one band's views are alive at a time.
    """
    n = op.grid.n
    for k in range(bands):
        a, b = k * n // bands, (k + 1) * n // bands
        strain, planes, nodal, factor = _band_workspace(op, u.shape[:-3],
                                                        b - a + 2)
        if 0 < a and b < n:
            saved = nodal[..., 0, :]
            saved[...] = out[..., a - 1, :]
            sequence([step(fem.prepare_sym_gradient(
                          u[..., a - 1:b + 1, :], op.grid.pixel_size, strain,
                          planes)),
                      *_weighted_stress_adjoint(op, strain, planes,
                                                op._factor[a - 1:b + 1],
                                                out[..., a - 1:b + 1, :])])()
            out[..., a - 1, :] = saved
        else:
            halo = np.arange(a - 1, b + 1)
            np.take(u, halo, axis=-2, out=nodal, mode="wrap")
            np.take(op._factor, halo, axis=0, out=factor, mode="wrap")
            sequence([step(fem.prepare_sym_gradient(
                          nodal, op.grid.pixel_size, strain, planes)),
                      *_weighted_stress_adjoint(op, strain, planes, factor,
                                                nodal)])()
            out[..., a:b, :] = nodal[..., 1:-1, :]


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
    (:func:`_apply_in_bands`), bitwise equal to the whole-grid pass that
    every smaller grid makes.  Such a grid prepares each band's views as
    it runs the band, which costs little beside the band's arithmetic;
    holding them all would keep about 13 KB per band alive."""
    if u.grid != op.grid:
        raise ValueError("displacement lives on a different grid")
    if out is not None and np.may_share_memory(out, u.values):
        raise ValueError("out must not share memory with u")
    _check_out(out, u.values)
    lead = u.values.shape[:-3]
    bands = _band_count(op.grid.n, lead[0] if lead else 1)
    if out is None:
        out = np.empty(u.values.shape)
    product = VectorField(op.grid, out)
    if bands > 1:
        return sequence([step(_apply_in_bands, op, u.values, out, bands)],
                        product)
    strain, planes = _workspace(op, lead)
    return sequence([step(fem.prepare_sym_gradient(
                         u.values, op.grid.pixel_size, strain, planes)),
                     *_weighted_stress_adjoint(op, strain, planes, op._factor,
                                               out)], product)


def apply_system(op: SystemOperator, u: VectorField,
                 out: np.ndarray | None = None) -> VectorField:
    """``K(rho) u`` once: :func:`prepare_system`, run once."""
    return prepare_system(op, u, out)()


def assemble_rhs(op: SystemOperator, eps_bar) -> VectorField:
    """Right-hand side ``f = -B^T W C(rho) E`` for a macroscopic strain.

    ``eps_bar`` is a Mandel vector broadcast to every quadrature point, or a
    ``(B, 3)`` array of them, ``B >= 1``, which gives the stack of the
    ``B`` right-hand sides.  The result has zero mean per component.
    """
    eps_bar = np.asarray(eps_bar, dtype=np.float64)
    if eps_bar.shape[-1:] != (MANDEL_DIM,) or eps_bar.ndim > 2:
        raise ValueError(f"macroscopic strain must have shape ({MANDEL_DIM},) "
                         f"or (loads, {MANDEL_DIM})")
    if eps_bar.size == 0:
        raise ValueError(f"macroscopic strain stack (loads, {MANDEL_DIM}) has "
                         "an empty load axis; it needs loads >= 1")
    if not np.all(np.isfinite(eps_bar)):
        raise ValueError("macroscopic strain must be finite")
    lead = eps_bar.shape[:-1]
    strain, planes = _workspace(op, lead)
    strain[...] = np.moveaxis(eps_bar, -1, 0)[:, None, ..., None, None]
    f = np.empty(lead + (2, op.grid.n, op.grid.n))
    sequence(_weighted_stress_adjoint(op, strain, planes, op._factor, f))()
    np.negative(f, out=f)
    return VectorField(op.grid, f)


def total_strain(u: VectorField, eps_bar) -> QuadField:
    """Macroscopic strain plus the fluctuation gradient, at quadrature points."""
    eps = fem.sym_gradient(u)
    eps.values += np.asarray(eps_bar, dtype=np.float64)[:, None, None, None]
    return eps


def homogenized_stress(op: SystemOperator, u: VectorField, eps_bar) -> np.ndarray:
    """Volume-averaged stress of the equilibrated cell, a Mandel vector.

    The total strain and then the stress ``rho C0 eps`` are built in the
    operator's strain buffer, with the operations of
    ``cell_average(stress(rho, C0, total_strain(u, eps_bar)))`` and bitwise
    its result, without a field-sized temporary.
    """
    if u.grid != op.grid or u.values.ndim != 3:
        raise ValueError("displacement must be one field on the operator's "
                         "grid")
    strain, planes = _workspace(op, ())
    fem.prepare_sym_gradient(u.values, op.grid.pixel_size, strain, planes)()
    strain += np.asarray(eps_bar, dtype=np.float64)[:, None, None, None]
    prepare_stiffness_product(op.material, strain, planes)()
    strain *= op.density.values
    return fem.cell_average(QuadField(op.grid, strain))
