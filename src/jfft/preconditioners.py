"""The three PCG preconditioners: Green (FFT-diagonalized pseudo-inverse of
the uniform-data reference operator), Jacobi (probed diagonal scaling), and
their symmetric composition Green-Jacobi.

The reference operator ``K_ref = B^T W C_ref B`` is block-circulant on the
periodic grid, so its Fourier transform is block-diagonal with one Hermitian
``2x2`` block per frequency.  The Green operator stores the per-frequency
Moore-Penrose pseudo-inverse of those blocks; rigid translations (the zero
frequency) map to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (Grid, ScalarField, VectorField, fft_forward, fft_inverse,
                   spectral_shape)
from .material import MaterialModel
from .operators import SystemOperator, apply_system, make_operator

PRECONDITIONER_KINDS = ("none", "green", "jacobi", "green-jacobi")

#: Eigenvalues below this fraction of a block's largest eigenvalue are
#: treated as zero when pseudo-inverting.
_EIG_CUTOFF = 1e-12


@dataclass(frozen=True)
class GreenOperator:
    """Per-frequency pseudo-inverse blocks of the reference operator.

    The ``2x2`` block at each frequency of the half-spectrum is stored as
    four planes of shape ``(n, n//2 + 1)``: the diagonal entries ``g11`` and
    ``g22`` are real, ``g12`` and ``g21`` complex.  The blocks are Hermitian
    PSD up to rounding; ``g21`` is kept as assembled, not as ``conj(g12)``.
    The operator owns the workspace of :func:`apply_green` and
    :func:`green_norm2`: a spectrum buffer and a scratch spectrum per load
    of the largest stack transformed so far (one load until a stack
    arrives).
    """

    grid: Grid
    g11: np.ndarray
    g12: np.ndarray
    g21: np.ndarray
    g22: np.ndarray
    material_ref: MaterialModel
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _grow_spectra(self, 1)


def _grow_spectra(green: GreenOperator, loads: int) -> None:
    shape = (loads,) + spectral_shape(green.grid)
    object.__setattr__(green, "_spectrum", np.empty(shape, dtype=np.complex128))
    object.__setattr__(green, "_scratch", np.empty(shape, dtype=np.complex128))


def _spectra(green: GreenOperator, lead: tuple[int, ...]):
    """Spectrum buffer and scratch spectrum for fields with load axes
    ``lead`` (``()`` or ``(B,)``), as views of the operator's workspace."""
    loads = lead[0] if lead else 1
    if green._spectrum.shape[0] < loads:
        _grow_spectra(green, loads)
    if lead:
        return green._spectrum[:loads], green._scratch[:loads]
    return green._spectrum[0], green._scratch[0]


@dataclass(frozen=True)
class JacobiDiagonal:
    """Reciprocal square roots of ``diag(K)``, one per displacement DOF.

    Zero diagonal entries (voids covering a node's whole stencil) are
    replaced by one before inversion.
    """

    grid: Grid
    inv_sqrt: np.ndarray  # (2, n, n), finite and > 0


def assemble_green(grid: Grid, material_ref: MaterialModel) -> GreenOperator:
    """Build the Green operator from impulse responses of ``K_ref``.

    One unit impulse per displacement component is placed at node (0, 0)
    and pushed through the matrix-free reference operator (uniform density
    one).  The FFT of each response column yields the Fourier blocks of
    ``K_ref``, which are Hermitized and pseudo-inverted frequency by
    frequency.  This stays consistent with the chosen triangulation by
    construction.
    """
    ref_op = make_operator(ScalarField.full(grid, 1.0), material_ref)
    n = grid.n
    khat = np.empty((n, n // 2 + 1, Grid.d, Grid.d), dtype=np.complex128)
    for beta in range(Grid.d):
        impulse = VectorField.zeros(grid)
        impulse.values[beta, 0, 0] = 1.0
        response = apply_system(ref_op, impulse)
        khat[:, :, :, beta] = np.moveaxis(fft_forward(response), 0, -1)
    # rigid translations: the zero-frequency block is zero by construction,
    # up to the rounding of the column sums
    khat[0, 0] = 0.0
    khat = 0.5 * (khat + np.conj(np.swapaxes(khat, -1, -2)))
    eigvals, eigvecs = np.linalg.eigh(khat)
    cutoff = _EIG_CUTOFF * np.clip(eigvals[..., -1:], 0.0, None)
    inv_vals = np.where(eigvals > cutoff, 1.0, 0.0) / np.where(
        eigvals > cutoff, eigvals, 1.0)
    blocks = np.einsum("...ab,...b,...cb->...ac", eigvecs, inv_vals,
                       np.conj(eigvecs))
    blocks[0, 0] = 0.0
    # the diagonal entries of the assembled blocks have zero imaginary part
    return GreenOperator(grid, np.ascontiguousarray(blocks[..., 0, 0].real),
                         np.ascontiguousarray(blocks[..., 0, 1]),
                         np.ascontiguousarray(blocks[..., 1, 0]),
                         np.ascontiguousarray(blocks[..., 1, 1].real),
                         material_ref)


def _block_row(g_a1: np.ndarray, g_a2: np.ndarray, spectrum: np.ndarray,
               out: np.ndarray, scratch: np.ndarray) -> None:
    """``out = g_a1 * spectrum_1 + g_a2 * spectrum_2``, one row of the block
    product on the component planes of ``spectrum`` (..., 2, n, m).
    ``scratch`` may alias the first component, which is read first."""
    np.multiply(g_a1, spectrum[..., 0, :, :], out=out)
    np.multiply(g_a2, spectrum[..., 1, :, :], out=scratch)
    out += scratch


def apply_green(green: GreenOperator, r: VectorField) -> VectorField:
    """Apply the Green operator: inverse FFT of block times forward FFT.

    Symmetric positive semi-definite; the output has zero mean per
    component.  Cost O(n_nodes log n_nodes).  A stack ``r`` gives the stack
    of results, each bitwise equal to its load's result alone.
    """
    if r.grid != green.grid:
        raise ValueError("residual lives on a different grid")
    spectrum, z = _spectra(green, r.values.shape[:-3])
    fft_forward(r, out=spectrum)
    z1, z2 = z[..., 0, :, :], z[..., 1, :, :]
    _block_row(green.g11, green.g12, spectrum, z1, z2)
    _block_row(green.g21, green.g22, spectrum, z2, spectrum[..., 0, :, :])
    return fft_inverse(z, green.grid)


def _half_spectrum_dot(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """``Re sum conj(a) b`` over the full spectrum of an ``n``-periodic real
    field, from the half-spectrum planes ``a`` and ``b``: interior columns
    stand for themselves and their mirror images, the k2 = 0 column and,
    for even ``n``, the Nyquist column only for themselves."""
    # Re(conj(a) b) is the real dot product of the (re, im) float views.
    # einsum sums it without BLAS: on a 2-core virtual machine OpenBLAS
    # 0.3.31 threads its dot above 10,000 entries, and such calls stalled
    # for about 8 ms each, against 10-180 us for this sum at n = 128-512
    total = (2.0 * np.einsum("ij,ij->", a.view(np.float64), b.view(np.float64))
             - np.vdot(a[:, 0], b[:, 0]).real)
    if n % 2 == 0:
        total -= np.vdot(a[:, -1], b[:, -1]).real
    return float(total)


def green_norm2(green: GreenOperator, r: VectorField) -> float | list[float]:
    """``<r, G r>`` by Parseval's identity: one forward FFT of ``r`` and
    the Hermitian form of the blocks over the half-spectrum, divided by
    ``n^2``.  Agrees with ``vdot(r, apply_green(green, r))`` to rounding
    without the inverse FFT.

    A float for one field; for a stack, a list with one value per load,
    each summed over that load's own planes as it would be alone.
    """
    if r.grid != green.grid:
        raise ValueError("residual lives on a different grid")
    n = green.grid.n
    spectrum, z = _spectra(green, r.values.shape[:-3])
    fft_forward(r, out=spectrum)
    # one (2, n, m) spectrum per load, for the per-load sums
    spectra = spectrum.reshape((-1,) + spectrum.shape[-3:])
    products = z.reshape(spectra.shape)
    z1, z2 = z[..., 0, :, :], z[..., 1, :, :]
    _block_row(green.g11, green.g12, spectrum, z1, z2)
    totals = [_half_spectrum_dot(s[0], g[0], n)
              for s, g in zip(spectra, products)]
    _block_row(green.g21, green.g22, spectrum, z1, z2)
    totals = [total + _half_spectrum_dot(s[1], g[0], n)
              for total, s, g in zip(totals, spectra, products)]
    totals = [total / n ** 2 for total in totals]
    return totals[0] if spectrum.ndim == 3 else totals


def assemble_jacobi(op: SystemOperator) -> JacobiDiagonal:
    """Probe ``diag(K)`` with d * 2^d = 8 operator applications.

    For each displacement component and each parity offset, a comb vector
    carries ones on every other node in both directions.  The P1 stencil
    radius is one, below the comb spacing of two, so the operator response
    at a comb node is exactly the wanted diagonal entry.
    """
    grid = op.grid
    if grid.n % 2 != 0:
        raise ValueError("diagonal probing requires an even node count")
    diag = np.empty((Grid.d, grid.n, grid.n))
    for alpha in range(Grid.d):
        for o1 in (0, 1):
            for o2 in (0, 1):
                comb = VectorField.zeros(grid)
                comb.values[alpha, o1::2, o2::2] = 1.0
                response = apply_system(op, comb)
                diag[alpha, o1::2, o2::2] = response.values[alpha, o1::2, o2::2]
    if np.any(diag < 0.0) or not np.all(np.isfinite(diag)):
        raise ValueError("probed diagonal has negative or non-finite entries")
    diag[diag == 0.0] = 1.0
    return JacobiDiagonal(grid, 1.0 / np.sqrt(diag))


def apply_jacobi_half(jacobi: JacobiDiagonal, r: VectorField) -> VectorField:
    """Entrywise multiply by ``1/sqrt(diag(K))``."""
    return VectorField(jacobi.grid, jacobi.inv_sqrt * r.values)


def apply_jacobi(jacobi: JacobiDiagonal, r: VectorField) -> VectorField:
    """Entrywise multiply by ``1/diag(K)``, i.e. the half split applied twice."""
    z = apply_jacobi_half(jacobi, r)
    z.values *= jacobi.inv_sqrt
    return z


def apply_green_jacobi(jacobi: JacobiDiagonal, green: GreenOperator,
                       r: VectorField) -> VectorField:
    """Symmetric composition ``J^(1/2) G J^(1/2) r``."""
    z = apply_green(green, apply_jacobi_half(jacobi, r))
    z.values *= jacobi.inv_sqrt
    return z


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

    def apply(self, r: VectorField) -> VectorField:
        if self.kind == "none":
            return VectorField(r.grid, r.values.copy())
        if self.kind == "green":
            return apply_green(self.green, r)
        if self.kind == "jacobi":
            return apply_jacobi(self.jacobi, r)
        return apply_green_jacobi(self.jacobi, self.green, r)


def build_preconditioner(kind: str, op: SystemOperator,
                         green: GreenOperator) -> Preconditioner:
    """Assemble whatever state the requested preconditioner kind needs."""
    jacobi = assemble_jacobi(op) if kind in ("jacobi", "green-jacobi") else None
    used_green = green if kind in ("green", "green-jacobi") else None
    return Preconditioner(kind, green=used_green, jacobi=jacobi)
