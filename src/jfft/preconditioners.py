"""The three PCG preconditioners: Green (FFT-diagonalized pseudo-inverse of
the uniform-data reference operator), Jacobi (scaling by the stiffness
diagonal, in closed form), and their symmetric composition Green-Jacobi.

The reference operator ``K_ref = B^T W C_ref B`` is block-circulant on the
periodic grid, so its Fourier transform is block-diagonal with one ``2x2``
block per frequency.  Every stencil block of ``K_ref`` is symmetric, so each
Fourier block is real symmetric.  The Green operator stores the closed-form
pseudo-inverse of each block; rigid translations (the zero frequency) map
to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (Grid, ScalarField, VectorField, dot, fft_forward,
                   prepare_fft_inverse, sequence, spectral_shape, step)
from .material import MaterialModel
from .operators import SystemOperator, _check_out, apply_system, make_operator

PRECONDITIONER_KINDS = ("none", "green", "jacobi", "green-jacobi")

#: Eigenvalues at or below this fraction of a block's largest eigenvalue
#: are treated as zero when pseudo-inverting.
_EIG_CUTOFF = 1e-12


@dataclass(frozen=True)
class GreenOperator:
    """Per-frequency pseudo-inverse blocks of the reference operator.

    The real symmetric, positive semi-definite ``2x2`` block at each
    frequency of the half-spectrum is stored as three planes ``g11``,
    ``g12`` and ``g22`` of shape ``(n, n//2 + 1)``.  Their values are real,
    their dtype is ``complex128``, the spectrum's, so that each block
    product is a plain complex multiply.
    The operator owns the workspace of :func:`apply_green` and
    :func:`green_norm2`: three spectral planes per load of the largest
    stack transformed so far, ``(3, loads, n, n//2 + 1)`` (none until the
    first application, so a fresh operator pickles as its planes alone).
    Planes 1 and 2 receive the forward FFT and plane 0 is scratch; the
    Green application borrows its output field as a fourth plane, so an
    application allocates only the field it returns, and nothing when the
    caller passes ``out=``.  Each plane is one contiguous block of its
    loads, so the block rows run on whole planes.
    """

    grid: Grid
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    _spectral_planes: np.ndarray = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        _grow_spectra(self, 0)


def _grow_spectra(green: GreenOperator, loads: int) -> None:
    shape = (3, loads) + spectral_shape(green.grid)[1:]
    object.__setattr__(green, "_spectral_planes",
                       np.empty(shape, dtype=np.complex128))


def _spectra(green: GreenOperator, lead: tuple[int, ...]) -> np.ndarray:
    """The three spectral planes ``(3,) + lead + (n, n//2 + 1)`` for fields
    with load axes ``lead`` (``()`` or ``(B,)``), as a view of the
    operator's workspace."""
    loads = lead[0] if lead else 1
    if green._spectral_planes.shape[1] < loads:
        _grow_spectra(green, loads)
    planes = green._spectral_planes
    return planes[:, :loads] if lead else planes[:, 0]


def _load_major(spectrum: np.ndarray) -> np.ndarray:
    """The ``(..., 2, n, m)`` view of two component-major planes, the
    layout of :func:`fft_forward` and :func:`fft_inverse`."""
    return spectrum.swapaxes(0, -3)


def _borrowed_plane(out: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous complex plane of ``shape`` (``lead + (n, n//2 + 1)``)
    in the leading entries of the C-contiguous field ``out``, which holds
    ``2 n^2`` doubles per load against the plane's ``n (n + 2)`` at most.
    One block, not a piece of each load's field, keeps the block product
    on NumPy's contiguous loops."""
    entries = 2 * math.prod(shape)
    return out.reshape(-1)[:entries].view(np.complex128).reshape(shape)


@dataclass(frozen=True)
class JacobiDiagonal:
    """Reciprocal square roots of ``diag(K)``, one per displacement DOF, from
    the closed form of :func:`assemble_jacobi`.

    Zero diagonal entries (voids covering a node's whole stencil) are
    replaced by one before inversion.
    """

    grid: Grid
    inv_sqrt: np.ndarray  # (2, n, n), finite and > 0


def assemble_green(grid: Grid, material_ref: MaterialModel) -> GreenOperator:
    """Build the Green operator from impulse responses of ``K_ref``.

    One unit impulse per displacement component is placed at node (0, 0)
    and pushed through the matrix-free reference operator (uniform density
    one) on a patch of at most 4 x 4 nodes with the grid's pixel size.
    ``K_ref`` couples a node only to its eight neighbours, so the 3 x 3
    neighbourhood of node (0, 0) holds the whole response; it is copied
    into an ``n x n`` field, which is the response on the grid itself.  The
    FFT of each response column yields the Fourier blocks of ``K_ref``,
    which stay consistent with the chosen triangulation by construction.
    The blocks are real symmetric up to rounding: the off-diagonal entry is
    taken as ``b = (Re k12 + Re k21) / 2``, and each block is
    pseudo-inverted in closed form by :func:`_invert_blocks`, on whole
    ``(n, n//2 + 1)`` planes.  Only the real parts of the two spectra are
    kept, and only ``a``, ``d`` and ``b`` reach the inversion.
    """
    return GreenOperator(grid, *(plane.astype(np.complex128) for plane
                                 in _invert_blocks(*_reference_blocks(
                                     grid, material_ref))))


def _reference_blocks(grid: Grid, material_ref: MaterialModel):
    """``a = Re k11``, ``d = Re k22`` and ``b = (Re k12 + Re k21) / 2``,
    the real planes of the Fourier blocks of ``K_ref``, for
    :func:`assemble_green`."""
    h1, h2 = grid.pixel_size
    # scaling by four is exact: the patch has the grid's pixel size and
    # quadrature weight, so its response is the grid's bit for bit
    patch = grid if grid.n <= 4 else Grid(4, (4.0 * h1, 4.0 * h2))
    ref_op = make_operator(ScalarField.full(patch, 1.0), material_ref)
    near = np.array([-1, 0, 1])
    stencil = (slice(None), near[:, None], near)
    columns = []
    for beta in range(Grid.d):
        impulse = VectorField.zeros(patch)
        impulse.values[beta, 0, 0] = 1.0
        response = VectorField.zeros(grid)
        response.values[stencil] = apply_system(ref_op, impulse).values[stencil]
        columns.append(fft_forward(response).real.copy())
    (k11, k21), (k12, k22) = columns
    a, d = k11.copy(), k22.copy()
    b = 0.5 * (k12 + k21)
    # rigid translations: the zero-frequency block is zero by construction,
    # up to the rounding of the column sums, and maps to zero
    a[0, 0] = d[0, 0] = b[0, 0] = 0.0
    return a, d, b


def _invert_blocks(a: np.ndarray, d: np.ndarray, b: np.ndarray):
    """``g11``, ``g12`` and ``g22`` of the pseudo-inverse of each real
    symmetric block ``[[a, b], [b, d]]``, elementwise on real planes.

    With ``lam`` and ``mu`` the larger and smaller eigenvalue of a block and
    ``det = a d - b^2``:

    * ``mu > _EIG_CUTOFF * lam > 0``: the inverse, ``g11 = d / det``,
      ``g22 = a / det`` and ``g12 = b * (1 / -det)``, a product with the
      reciprocal, whose rounding the recorded iteration counts rest on;
    * ``lam > 0`` and ``mu`` at or below the cutoff: the inverse on the
      range of ``lam``, ``(K - mu I) / (lam (lam - mu))``, which is
      ``K / lam^2`` for a rank-one block;
    * no positive eigenvalue: zero.
    """
    half_gap = 0.5 * (a - d)
    radius = np.hypot(half_gap, np.abs(b))  # (lam - mu) / 2
    lam = 0.5 * (a + d) + radius
    det = a * d - b * b  # lam * mu
    positive = lam > 0.0
    full = positive & (det > _EIG_CUTOFF * lam ** 2)
    g11, g12, g22 = np.zeros(a.shape), np.zeros(a.shape), np.zeros(a.shape)
    np.divide(d, det, out=g11, where=full)
    np.divide(a, det, out=g22, where=full)
    np.divide(-1.0, det, out=g12, where=full)
    np.multiply(b, g12, out=g12, where=full)
    on_range = np.nonzero(positive & ~full)
    scale = 1.0 / (2.0 * radius[on_range] * lam[on_range])
    g11[on_range] = (radius[on_range] + half_gap[on_range]) * scale
    g22[on_range] = (radius[on_range] - half_gap[on_range]) * scale
    g12[on_range] = b[on_range] * scale
    return g11, g12, g22


def _check_residual(part, r: VectorField) -> None:
    if r.grid != part.grid:
        raise ValueError("residual lives on a different grid")


def _green_steps(green: GreenOperator, r: VectorField,
                 out: np.ndarray) -> list:
    """Steps of the Green application from ``r`` into ``out``.

    The forward FFT fills planes 1 and 2 (``s1``, ``s2``); the block rows
    ``z1 = g11 s1 + g12 s2`` and ``z2 = g12 s1 + g22 s2`` go to planes 0
    and 1, with the leading entries of ``out`` as a fourth plane ``w``:
    ``out`` is free once the forward FFT has read ``r``, which it may
    alias, and until the inverse FFT of planes 0 and 1 writes it."""
    spectra = _spectra(green, r.values.shape[:-3])
    z1, s1, s2 = spectra
    w = _borrowed_plane(out, z1.shape)
    return [step(fft_forward, r, _load_major(spectra[1:])),
            step(np.multiply, green.g12, s2, w),
            step(np.multiply, green.g11, s1, z1),
            step(np.add, z1, w, z1),
            # the first component is read for the last time: it becomes z2
            step(np.multiply, green.g12, s1, w),
            step(np.multiply, green.g22, s2, s1),
            step(np.add, w, s1, s1),
            step(prepare_fft_inverse(_load_major(spectra[:2]), green.grid,
                                     out))]


def _result(r: VectorField, out: np.ndarray | None) -> VectorField:
    """The field a preconditioner writes: ``out`` checked against ``r``,
    or a new array of ``r``'s shape."""
    _check_out(out, r.values)
    return VectorField(r.grid, np.empty(r.values.shape) if out is None
                       else out)


def prepare_green(green: GreenOperator, r: VectorField,
                  out: np.ndarray | None = None):
    """The Green operator, inverse FFT of block times forward FFT, as a
    zero-argument callable that applies it to whatever ``r.values`` holds
    when run and returns the result.

    Symmetric positive semi-definite; the output has zero mean per
    component.  Cost O(n^2 log n).  A stack ``r`` gives the stack
    of results, each bitwise equal to its load's result alone.  ``out``,
    when given, is a C-contiguous float64 array of ``r``'s shape that
    receives (and backs) the result; it may be ``r.values`` itself, since
    the forward FFT reads all of ``r`` before the block product borrows
    the output as scratch and the inverse FFT writes it.
    """
    _check_residual(green, r)
    z = _result(r, out)
    return sequence(_green_steps(green, r, z.values), z)


def apply_green(green: GreenOperator, r: VectorField,
                out: np.ndarray | None = None) -> VectorField:
    """The Green operator once: :func:`prepare_green`, run once."""
    return prepare_green(green, r, out)()


def prepare_green_norm2(green: GreenOperator, r: VectorField):
    """``<r, G r>`` of whatever ``r.values`` holds when run, by Parseval's
    identity, without the inverse FFT: with ``s`` the forward FFT of ``r``
    and the blocks real symmetric, the Hermitian form
    ``Re sum conj(s1) t1 + conj(s2) t2``, ``t1 = g11 s1 + 2 g12 s2`` and
    ``t2 = g22 s2``, over the full spectrum, divided by ``n^2``.  On the
    half-spectrum, interior columns stand for themselves and their mirror
    images, the k2 = 0 column and, for even ``n``, the Nyquist column only
    for themselves: those columns of ``t`` are halved and the sum doubled.
    Two :func:`~jfft.grid.dot` calls per load, on the (re, im) float views.
    ``t2`` is built in the scratch plane and summed first; then ``t1``
    takes its place, with ``g11 s1`` built in ``s2``, which is read no
    more.

    The run returns a float for one field; for a stack, a list with one
    value per load, each summed over that load's own planes as it would be
    alone.
    """
    _check_residual(green, r)
    n = green.grid.n
    spectra = _spectra(green, r.values.shape[:-3])
    t, s1, s2 = spectra
    # the k2 = 0 column and, for even n, the Nyquist column, one view
    m = spectra.shape[-1]
    edges = t[..., ::m - 1] if n % 2 == 0 else t[..., :1]
    halve = step(np.multiply, edges, 0.5, edges)
    build_t2 = sequence([step(fft_forward, r, _load_major(spectra[1:])),
                         step(np.multiply, green.g22, s2, t), halve])
    build_t1 = sequence([step(np.multiply, green.g12, s2, t),
                         step(np.multiply, t, 2.0, t),
                         step(np.multiply, green.g11, s1, s2),
                         step(np.add, s2, t, t), halve])
    # per load, the (n, 2m) float views of t, s1 and s2, summed apart
    planes = tuple(zip(*(a.view(np.float64).reshape(-1, n, 2 * m)
                         for a in spectra)))
    cells = n ** 2
    stacked = r.values.ndim == 4

    def run():
        build_t2()
        second = [dot(a2, b) for b, a1, a2 in planes]
        build_t1()
        totals = [2.0 * (dot(a1, b) + d2) / cells
                  for (b, a1, a2), d2 in zip(planes, second)]
        return totals if stacked else totals[0]

    return run


def green_norm2(green: GreenOperator, r: VectorField) -> float | list[float]:
    """``<r, G r>`` once: :func:`prepare_green_norm2`, run once."""
    return prepare_green_norm2(green, r)()


def assemble_jacobi(op: SystemOperator) -> JacobiDiagonal:
    """``diag(K)`` in closed form, without applying ``K``.

    A unit displacement of one component at a node strains the six
    triangles around it: one in each of the pixels ``(i, j)`` and
    ``(i-1, j-1)``, two in each of ``(i-1, j)`` and ``(i, j-1)``.  Per unit
    density, the strained triangles of each of these four pixels store the
    same energy, so

    * ``diag_1 = w (c00 / h1^2 + c22 / (2 h2^2)) S`` and
    * ``diag_2 = w (c11 / h2^2 + c22 / (2 h1^2)) S``,

    with ``w`` the quadrature weight, ``(h1, h2)`` the pixel size and ``S``
    the sum of the densities of those four pixels.  Any grid size works.
    """
    grid = op.grid
    h1, h2 = grid.pixel_size
    c = op.material.stiffness
    w = grid.quad_weight
    rho = op.density.values
    # S into diag[0], with diag[1] as scratch; one temporary plane at a time
    diag = np.empty((Grid.d,) + rho.shape)
    np.add(rho, np.roll(rho, 1, axis=0), out=diag[1])
    np.add(diag[1], np.roll(diag[1], 1, axis=1), out=diag[0])
    np.multiply(diag[0], w * (c[1, 1] / h2 ** 2 + c[2, 2] / (2.0 * h1 ** 2)),
                out=diag[1])
    diag[0] *= w * (c[0, 0] / h1 ** 2 + c[2, 2] / (2.0 * h2 ** 2))
    if np.any(diag < 0.0) or not np.all(np.isfinite(diag)):
        raise ValueError("Jacobi diagonal has negative or non-finite entries")
    diag[diag == 0.0] = 1.0
    np.sqrt(diag, out=diag)
    np.divide(1.0, diag, out=diag)
    return JacobiDiagonal(grid, diag)


def prepare_jacobi(jacobi: JacobiDiagonal, r: VectorField,
                   out: np.ndarray | None = None):
    """Entrywise multiply by ``1/diag(K)``, by ``1/sqrt(diag(K))`` twice,
    as a zero-argument callable like :func:`prepare_green`; ``out`` as
    there."""
    _check_residual(jacobi, r)
    z = _result(r, out)
    d = jacobi.inv_sqrt
    return sequence([step(np.multiply, d, r.values, z.values),
                     step(np.multiply, z.values, d, z.values)], z)


def apply_jacobi(jacobi: JacobiDiagonal, r: VectorField,
                 out: np.ndarray | None = None) -> VectorField:
    """The Jacobi scaling once: :func:`prepare_jacobi`, run once."""
    return prepare_jacobi(jacobi, r, out)()


def prepare_green_jacobi(jacobi: JacobiDiagonal, green: GreenOperator,
                         r: VectorField, out: np.ndarray | None = None):
    """Symmetric composition ``J^(1/2) G J^(1/2) r`` as a zero-argument
    callable like :func:`prepare_green`; ``out`` as there.  ``J^(1/2) r``
    is written into the result and the Green application runs from it into
    it, so no temporary field is made."""
    _check_residual(jacobi, r)
    z = _result(r, out)
    _check_residual(green, z)
    d = jacobi.inv_sqrt
    return sequence([step(np.multiply, d, r.values, z.values),
                     *_green_steps(green, z, z.values),
                     step(np.multiply, z.values, d, z.values)], z)


def apply_green_jacobi(jacobi: JacobiDiagonal, green: GreenOperator,
                       r: VectorField,
                       out: np.ndarray | None = None) -> VectorField:
    """The Green-Jacobi composition once: :func:`prepare_green_jacobi`, run
    once."""
    return prepare_green_jacobi(jacobi, green, r, out)()


@dataclass(frozen=True)
class Preconditioner:
    """Tagged preconditioner variant with its assembled state."""

    kind: str
    green: GreenOperator | None = None
    jacobi: JacobiDiagonal | None = None

    def __post_init__(self):
        if self.kind not in PRECONDITIONER_KINDS:
            raise ValueError(f"unknown preconditioner {self.kind!r}; "
                             f"choose one of {PRECONDITIONER_KINDS}")
        if self.kind in ("green", "green-jacobi") and self.green is None:
            raise ValueError(f"{self.kind!r} needs an assembled Green operator")
        if self.kind in ("jacobi", "green-jacobi") and self.jacobi is None:
            raise ValueError(f"{self.kind!r} needs an assembled Jacobi diagonal")

    def prepare(self, r: VectorField, out: np.ndarray | None = None):
        """``z = M r`` as a zero-argument callable like
        :func:`prepare_green`; ``out`` as there."""
        if self.kind == "none":
            z = _result(r, out)
            return sequence([step(np.copyto, z.values, r.values)], z)
        if self.kind == "green":
            return prepare_green(self.green, r, out)
        if self.kind == "jacobi":
            return prepare_jacobi(self.jacobi, r, out)
        return prepare_green_jacobi(self.jacobi, self.green, r, out)

    def apply(self, r: VectorField,
              out: np.ndarray | None = None) -> VectorField:
        """``z = M r`` once: :meth:`prepare`, run once."""
        return self.prepare(r, out)()


def build_preconditioner(kind: str, op: SystemOperator,
                         green: GreenOperator) -> Preconditioner:
    """Assemble whatever state the requested preconditioner kind needs."""
    jacobi = assemble_jacobi(op) if kind in ("jacobi", "green-jacobi") else None
    used_green = green if kind in ("green", "green-jacobi") else None
    return Preconditioner(kind, green=used_green, jacobi=jacobi)
