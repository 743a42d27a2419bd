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
from .operators import SystemOperator, _check_out, apply_system

PRECONDITIONER_KINDS = ("none", "green", "jacobi", "green-jacobi")

#: Eigenvalues at or below this fraction of a block's largest eigenvalue
#: are treated as zero when pseudo-inverting.
_EIG_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class GreenOperator:
    """Per-frequency pseudo-inverse blocks of the reference operator.

    The real symmetric, positive semi-definite ``2x2`` block at each
    frequency of the half-spectrum is stored as three planes ``g11``,
    ``g12`` and ``g22`` of shape ``(n, n//2 + 1)``.  Their values are real
    and finite, their dtype is ``complex128``, the spectrum's, so that each
    block product is a plain complex multiply.
    The operator owns the workspace of its application in
    :meth:`Preconditioner.prepare` and of :func:`prepare_green_norm2`:
    three spectral planes per load of the largest stack transformed so far,
    ``(3, loads, n, n//2 + 1)`` (none until the first application, so a
    fresh operator pickles as its planes alone).
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
    _spectral_planes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shape = spectral_shape(self.grid)[1:]
        for name in ("g11", "g12", "g22"):
            g = getattr(self, name)
            dtype = getattr(g, "dtype", None)
            if np.shape(g) != shape or dtype != np.complex128:
                raise ValueError(f"{name} must be a complex128 plane of shape "
                                 f"{shape}, got {dtype} {np.shape(g)}")
            if not np.isfinite(g).all() or g.imag.any():
                raise ValueError(f"{name} must hold real, finite values")
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
    layout of :func:`fft_forward` and :func:`prepare_fft_inverse`."""
    return spectrum.swapaxes(0, -3)


def _borrowed_plane(out: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous complex plane of ``shape`` (``lead + (n, n//2 + 1)``)
    in the leading entries of the C-contiguous field ``out``, which holds
    ``2 n^2`` doubles per load against the plane's ``n (n + 2)`` at most.
    One block, not a piece of each load's field, keeps the block product
    on NumPy's contiguous loops."""
    entries = 2 * math.prod(shape)
    return out.reshape(-1)[:entries].view(np.complex128).reshape(shape)


@dataclass(frozen=True, eq=False)
class JacobiDiagonal:
    """Reciprocal square roots of ``diag(K)``, one per displacement DOF, from
    the closed form of :func:`assemble_jacobi`.

    Zero diagonal entries (voids covering a node's whole stencil) are
    replaced by one before inversion.  ``inv_sqrt`` has shape ``(2, n, n)``
    on the grid, dtype float64 and finite, positive entries; its two
    component planes may be one plane in memory, as a broadcast view.
    """

    grid: Grid
    inv_sqrt: np.ndarray

    def __post_init__(self):
        d = self.inv_sqrt
        shape = (Grid.d, self.grid.n, self.grid.n)
        if not isinstance(d, np.ndarray) or d.shape != shape:
            raise ValueError(f"inv_sqrt must have shape {shape}, got "
                             f"{np.shape(d)}")
        if d.dtype != np.float64:
            raise ValueError(f"inv_sqrt must be float64, got {d.dtype}")
        # NaN fails the comparison, so the minimum catches it
        if not (d.min() > 0.0 and np.isfinite(d.max())):
            raise ValueError("inv_sqrt has non-finite or non-positive entries")


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
    ref_op = SystemOperator(ScalarField.full(patch, 1.0), material_ref)
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

    The run returns a list with one value per load, one for a plain field,
    each summed over that load's own planes as it would be alone.
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

    def run():
        build_t2()
        second = [dot(a2, b) for b, a1, a2 in planes]
        build_t1()
        return [2.0 * (dot(a1, b) + d2) / cells
                for (b, a1, a2), d2 in zip(planes, second)]

    return run


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
    When the two scales of ``S`` are equal as doubles (isotropic material
    on square pixels), the two components share one plane: ``inv_sqrt`` is
    then a read-only broadcast of it, and the diagonal holds half a field.
    """
    grid = op.grid
    h1, h2 = grid.pixel_size
    c = op.material.stiffness
    w = grid.quad_weight
    rho = op.density.values
    scales = (w * (c[0, 0] / h1 ** 2 + c[2, 2] / (2.0 * h2 ** 2)),
              w * (c[1, 1] / h2 ** 2 + c[2, 2] / (2.0 * h1 ** 2)))
    planes = 1 if scales[0] == scales[1] else Grid.d
    # S into diag[0]; one temporary plane at a time
    diag = np.empty((planes,) + rho.shape)
    np.add(rho, np.roll(rho, 1, axis=0), out=diag[0])
    np.add(diag[0], np.roll(diag[0], 1, axis=1), out=diag[0])
    for k in reversed(range(planes)):
        np.multiply(diag[0], scales[k], out=diag[k])
    if np.any(diag < 0.0) or not np.all(np.isfinite(diag)):
        raise ValueError("Jacobi diagonal has negative or non-finite entries")
    diag[diag == 0.0] = 1.0
    np.sqrt(diag, out=diag)
    np.divide(1.0, diag, out=diag)
    return JacobiDiagonal(grid, np.broadcast_to(diag, (Grid.d,) + rho.shape))


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """``M = D G D`` with its assembled parts: a Green operator ``G``, a
    Jacobi diagonal ``D``, both, or neither; :attr:`kind` names which."""

    green: GreenOperator | None = None
    jacobi: JacobiDiagonal | None = None

    @property
    def kind(self) -> str:
        """``"green"``, ``"jacobi"``, ``"green-jacobi"`` or ``"none"``, by
        the parts held."""
        parts = [name for name, part in (("green", self.green),
                                         ("jacobi", self.jacobi))
                 if part is not None]
        return "-".join(parts) or "none"

    def prepare(self, r: VectorField, out: np.ndarray | None = None):
        """``z = M r`` as a zero-argument callable that applies ``M`` to
        whatever ``r.values`` holds when run and returns the result.

        ``M = D G D``, symmetric positive semi-definite: ``D`` scales by the
        Jacobi diagonal's ``1/sqrt(diag(K))`` and ``G`` is the Green
        operator, inverse FFT of block times forward FFT (cost
        O(n^2 log n), output of zero mean per component); a part the
        preconditioner does not hold is the identity, and ``none`` copies
        ``r``.  ``D r`` is written into the result and ``G`` runs from it
        into it, so no temporary field is made.  ``D`` multiplies one
        component plane at a time, which keeps a diagonal whose two planes
        are one (see :func:`assemble_jacobi`) on NumPy's contiguous loops.
        A stack ``r`` gives the stack of results, each bitwise equal to its
        load's result alone.
        ``out``, when given, is a C-contiguous float64 array of ``r``'s
        shape that receives (and backs) the result; it may be ``r.values``
        itself, since the forward FFT reads all of ``r`` before the block
        product borrows the output as scratch and the inverse FFT writes
        it.
        """
        for part in (self.green, self.jacobi):
            if part is not None:
                _check_residual(part, r)
        _check_out(out, r.values)
        z = VectorField(r.grid, np.empty(r.values.shape) if out is None
                        else out)
        if self.kind == "none":
            return sequence([step(np.copyto, z.values, r.values)], z)
        steps, scale_out = [], []
        if self.jacobi is not None:
            planes = [(d, r.values[..., k, :, :], z.values[..., k, :, :])
                      for k, d in enumerate(self.jacobi.inv_sqrt)]
            steps = [step(np.multiply, d, rk, zk) for d, rk, zk in planes]
            scale_out = [step(np.multiply, zk, d, zk) for d, _, zk in planes]
        if self.green is not None:
            steps += _green_steps(self.green, r if self.jacobi is None else z,
                                  z.values)
        return sequence(steps + scale_out, z)


# one-shot applications, which the benchmark in ``bench/`` times by name
def apply_green(green: GreenOperator, r: VectorField,
                out: np.ndarray | None = None) -> VectorField:
    return Preconditioner(green=green).prepare(r, out)()


def apply_jacobi(jacobi: JacobiDiagonal, r: VectorField,
                 out: np.ndarray | None = None) -> VectorField:
    return Preconditioner(jacobi=jacobi).prepare(r, out)()


def apply_green_jacobi(jacobi: JacobiDiagonal, green: GreenOperator,
                       r: VectorField,
                       out: np.ndarray | None = None) -> VectorField:
    return Preconditioner(green, jacobi).prepare(r, out)()


def build_preconditioner(kind: str, op: SystemOperator,
                         green: GreenOperator | None) -> Preconditioner:
    """The preconditioner of the kind named, with its Jacobi diagonal
    assembled from ``op`` and ``green`` as its Green operator when the kind
    takes them."""
    if kind not in PRECONDITIONER_KINDS:
        raise ValueError(f"unknown preconditioner {kind!r}; "
                         f"choose one of {PRECONDITIONER_KINDS}")
    if "green" in kind and green is None:
        raise ValueError(f"{kind!r} needs an assembled Green operator")
    return Preconditioner(green if "green" in kind else None,
                          assemble_jacobi(op) if "jacobi" in kind else None)
