"""Periodic regular-grid bookkeeping: field containers, the FFT pair every
spectral operator goes through, and the field file format.

Conventions used throughout the package:

* The cell is a 2D rectangle of side lengths ``lengths`` split into ``n``
  pixels per direction.  Nodes and pixels share the index pair ``(i1, i2)``
  with ``i1`` the fastest-running direction; the linear index of a node or
  pixel is ``I = i1 + n * i2``.  Periodicity means node ``(n, j)`` is node
  ``(0, j)``; no boundary layer is duplicated.
* Every pixel is split into two triangles along its lower-left to
  upper-right diagonal, giving two quadrature points per pixel
  (``triangle`` index 0 = lower, 1 = upper), each of weight
  :attr:`Grid.quad_weight`, half the pixel area.
* Symmetric 2x2 tensors are stored as Mandel vectors ``(a11, a22,
  sqrt(2)*a12)`` so that the Euclidean dot product of two Mandel vectors
  equals the tensor double contraction.
* FFTs use the unnormalized forward transform and put the ``1/N`` factor on
  the inverse (numpy's default), in the real-to-complex layout.  Only
  :func:`fft_forward` and :func:`prepare_fft_inverse` call ``np.fft``.
  They run the 1D transforms of ``rfftn`` and ``irfftn`` in the same
  order, so their output is bitwise equal, without the temporaries of the
  n-D calls.  The forward transform is ``rfft`` along axis -1, into a
  caller's spectrum buffer when given ``out=`` (numpy >= 2.0), then
  ``fft`` along axis -2 in place.  The inverse is ``ifft`` along axis -2
  in place, overwriting the spectrum it is given, then ``irfft`` along
  axis -1 into the returned field.  ``irfftn`` runs its first pass into a
  temporary of the spectrum's size; on a 2-core virtual machine (numpy
  2.4.6) it took about 1.6x (n = 128) to 2x (n = 512) as long.
* Only :func:`dot` takes inner products: every dot product and norm of
  PCG and L-BFGS, so one fixed summation decides the iteration counts.
* The layers of a PCG iteration come in two steps.  ``prepare_*`` checks
  its inputs, carves its workspace and slices every view it will use, and
  returns a zero-argument callable, built by :func:`sequence`, that makes
  only the NumPy calls; run again, it recomputes from whatever its input
  buffers hold by then.  A one-shot function is its ``prepare_*(...)()``,
  and only these remain, for their callers outside the PCG loop:
  ``fem.sym_gradient`` (topology optimization's total strains),
  ``operators.apply_system`` (the Green assembly's impulse responses),
  and ``fem.sym_gradient_adjoint``, ``material.stress`` and the
  preconditioner one-shots ``preconditioners.apply_green``,
  ``apply_jacobi`` and ``apply_green_jacobi``, each
  ``Preconditioner(green, jacobi).prepare(r, out)()``, which the benchmark
  in ``bench/`` times layer by layer.
* ``bench/`` is the only caller of the two one-line bindings to the
  classes ``SystemOperator`` and ``MaterialModel`` in their modules.
  Classes that hold arrays compare and hash by identity; ``Grid``,
  ``MaterialModel`` and ``TopOptConfig`` compare by value.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

#: Number of Mandel components of a symmetric 2x2 tensor.
MANDEL_DIM = 3

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class Grid:
    """Regular periodic grid with ``n`` nodes (= pixels) per direction."""

    n: int
    lengths: tuple[float, float] = (1.0, 1.0)

    #: Spatial dimension.  Only d = 2 is implemented.
    d = 2

    @property
    def pixel_size(self) -> tuple[float, float]:
        return (self.lengths[0] / self.n, self.lengths[1] / self.n)

    @property
    def quad_weight(self) -> float:
        """Weight of every quadrature point: half the pixel area."""
        return self.pixel_size[0] * self.pixel_size[1] / 2.0

    @property
    def cell_volume(self) -> float:
        return self.lengths[0] * self.lengths[1]


def make_grid(n: int, lengths: tuple[float, float] = (1.0, 1.0)) -> Grid:
    """Create a validated :class:`Grid`.

    Parameters
    ----------
    n : int
        Nodes (and pixels) per direction, at least 2.
    lengths : (float, float)
        Cell side lengths, strictly positive and finite.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"grid needs n >= 2 nodes per direction, got {n}")
    l1, l2 = (float(lengths[0]), float(lengths[1]))
    if not (0.0 < l1 < math.inf and 0.0 < l2 < math.inf):
        raise ValueError(f"cell side lengths must be positive and finite, "
                         f"got {lengths}")
    return Grid(int(n), (l1, l2))


def _as_float_array(values, shape, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per pixel (densities), shape ``(n, n)``.  Frozen, so
    an operator that validated ``values`` keeps reading that array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        object.__setattr__(self, "values", _as_float_array(
            self.values, (n, n), "scalar field"))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(value)))


@dataclass(eq=False)
class VectorField:
    """Nodal displacement-like field, one ``(n, n)`` plane per component,
    shape ``(2, n, n)``.  A stack of ``B`` such fields, one per load case,
    has shape ``(B, 2, n, n)``; the operators act on each load alike."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim not in (3, 4) or values.shape[-3:] != (Grid.d, n, n):
            raise ValueError(f"vector field has shape {values.shape}, expected "
                             f"{(Grid.d, n, n)} with at most one load axis "
                             "in front")
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros((Grid.d, grid.n, grid.n)))

    def component_means(self) -> np.ndarray:
        return self.values.mean(axis=(-2, -1))


@dataclass(eq=False)
class QuadField:
    """Mandel-vector field at quadrature points, shape ``(3, 2, n, n)``.

    Axis order is (Mandel component, triangle, i1, i2).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = _as_float_array(
            self.values, (MANDEL_DIM, 2, n, n), "quadrature field")


def step(f, *args):
    """One step of a :func:`sequence`, the call ``f(*args)``: the pair
    ``(f, args)``, which holds less than a ``functools.partial``."""
    return f, args


def sequence(steps, result=None):
    """A zero-argument callable that makes the calls of ``steps``, made by
    :func:`step`, in order and returns ``result``."""
    steps = tuple(steps)

    def run():
        for f, args in steps:
            f(*args)
        return result

    return run


# ----------------------------------------------------------------------------
# FFT contract used by the Green preconditioner
# ----------------------------------------------------------------------------

def spectral_shape(grid: Grid) -> tuple[int, int, int]:
    """Shape of the real-to-complex spectrum of a vector field; the spectrum
    of a stack carries the stack's load axis in front."""
    return (Grid.d, grid.n, grid.n // 2 + 1)


def fft_forward(u: VectorField, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized forward FFT of each component plane.

    Returns the half-spectrum of the real-to-complex layout; Hermitian
    symmetry of the full spectrum is implied.  A constant field ``c`` maps to
    ``c * n^2`` at the zero frequency.  ``out``, when given, is a complex
    array of the spectrum's shape that receives (and is) the result.  Each
    load of a stack transforms bitwise as it would alone.
    """
    spectrum = np.fft.rfft(u.values, axis=-1, out=out)
    return np.fft.fft(spectrum, axis=-2, out=spectrum)


def prepare_fft_inverse(spectrum: np.ndarray, grid: Grid,
                        out: np.ndarray | None = None):
    """Inverse of :func:`fft_forward` (carries the ``1/N`` normalization),
    as a zero-argument callable that transforms whatever ``spectrum``
    holds when run and returns the field.

    Overwrites ``spectrum``: the transform along axis -2 runs in place, and
    the real transform along axis -1 writes the returned field.  Callers
    that need the spectrum afterwards pass a copy.  ``out``, when given, is
    a C-contiguous float array of the field's shape that receives (and
    backs) the result; it may hold the field the spectrum came from.
    """
    if spectrum.shape[-3:] != spectral_shape(grid) or spectrum.ndim > 4:
        raise ValueError(f"spectrum has shape {spectrum.shape}, expected "
                         f"{spectral_shape(grid)} with at most one load axis "
                         "in front")
    # an explicit C-ordered result: irfft would follow a transposed
    # spectrum's memory order, and VectorField would copy it back
    if out is None:
        out = np.empty(spectrum.shape[:-1] + (grid.n,))
    return sequence([step(partial(np.fft.ifft, spectrum, axis=-2,
                                  out=spectrum)),
                     step(partial(np.fft.irfft, spectrum, n=grid.n, axis=-1,
                                  out=out))], VectorField(grid, out))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the products of two real arrays of one shape, without BLAS.

    ``np.einsum`` sums on the calling thread in an order fixed by shape and
    strides.  OpenBLAS threads NumPy's ``vdot`` above 10,000 entries: its
    last bits, and the PCG counts, followed the BLAS thread count, and on a
    2-core virtual machine such calls stalled for about 8 ms.  Stacks are
    summed per load: an ``einsum`` over the load axis adds in another order.
    """
    return float(np.einsum(_DOT_SUBSCRIPTS[a.ndim], a, b))


#: The ``np.einsum`` subscripts of :func:`dot` for each rank up to five.
_DOT_SUBSCRIPTS = tuple(f"{s},{s}->" for s in ("ijklm"[:k] for k in range(6)))


# ----------------------------------------------------------------------------
# Field file format: JSON header + sibling raw file of little-endian doubles
# ----------------------------------------------------------------------------

def _kind_and_planes(field) -> tuple[str, list[np.ndarray]]:
    # Declared raw order is x1-fastest within each (n, n) plane; planes are
    # component-major.
    if isinstance(field, ScalarField):
        return "scalar", [field.values]
    if isinstance(field, VectorField):
        return "vector", [field.values[a] for a in range(Grid.d)]
    raise TypeError(f"field files hold scalar or vector fields, not "
                    f"{type(field).__name__}")


def save_field(basepath, field) -> None:
    """Write ``<basepath>.json`` (header) and ``<basepath>.raw`` (payload)
    of a scalar or vector field."""
    base = str(basepath)
    kind, planes = _kind_and_planes(field)
    header = {
        "kind": kind,
        "d": Grid.d,
        "n": field.grid.n,
        "lengths": list(field.grid.lengths),
        "order": "x1-fastest",
        "dtype": "float64-le",
    }
    with open(base + ".json", "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
    payload = np.concatenate([p.ravel(order="F") for p in planes])
    payload.astype("<f8").tofile(base + ".raw")


def finite_number(value) -> bool:
    """A number that is no boolean and lies in the float range; Python's
    json accepts ``NaN`` and ``Infinity``, which fail this test."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def load_field(basepath):
    """Read a field written by :func:`save_field`; scalar fields load as
    pixel densities."""
    base = str(basepath)
    with open(base + ".json") as fh:
        header = json.load(fh)
    if not isinstance(header, dict):
        raise ValueError(f"field header {base}.json is not a JSON object")
    for key in ("kind", "d", "n", "lengths", "order", "dtype"):
        if key not in header:
            raise ValueError(f"field header {base}.json misses key {key!r}")
    if header["d"] != Grid.d:
        raise ValueError(f"unsupported dimension d={header['d']}")
    if header["order"] != "x1-fastest" or header["dtype"] != "float64-le":
        raise ValueError("unsupported field file layout "
                         f"(order={header['order']!r}, dtype={header['dtype']!r})")
    n, lengths = header["n"], header["lengths"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"field header {base}.json: 'n' must be an integer, "
                         f"got {n!r}")
    if (not isinstance(lengths, list) or len(lengths) != Grid.d
            or not all(finite_number(v) for v in lengths)):
        raise ValueError(f"field header {base}.json: 'lengths' must be "
                         f"{Grid.d} finite numbers, got {lengths!r}")
    grid = make_grid(n, tuple(lengths))
    raw = np.fromfile(base + ".raw", dtype="<f8")
    kind = header["kind"]
    planes_of_kind = {"scalar": 1, "vector": Grid.d}
    if not isinstance(kind, str) or kind not in planes_of_kind:
        raise ValueError(f"unknown field kind {kind!r}")
    shape_planes = planes_of_kind[kind]
    expected = shape_planes * n * n
    if raw.size != expected:
        raise ValueError(
            f"{base}.raw holds {raw.size} doubles, expected {expected}")
    planes = [raw[k * n * n:(k + 1) * n * n].reshape((n, n), order="F")
              for k in range(shape_planes)]
    if kind == "scalar":
        return ScalarField(grid, planes[0])
    return VectorField(grid, np.stack(planes))
