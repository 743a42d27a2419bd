"""Independent reference implementations used as test oracles.

Everything here is derived from first principles (explicit element
stencils, dense matrices, direct DFT summation) without touching the
matrix-free production kernels, so agreement is meaningful.  The comb
probing of the Jacobi diagonal, the ``eigh`` and full-grid assemblies of
the Green blocks, the fresh-array homogenized stress and the reference
solve paths at the end are the exceptions: they drive the production
operator, the first three to pin the closed-form Jacobi diagonal, the
closed-form Green blocks and the patch assembly of the Green operator to
what ``K`` itself does on the whole grid, the fourth to pin the
in-workspace homogenized stress to the production kernels it reuses,
the others one load at a time, to pin the stacked solver's control flow
and sums.
"""

import math

import numpy as np

SQRT2 = np.sqrt(2.0)


def node_id(n, i1, i2):
    return (i1 % n) + n * (i2 % n)


def dof_id(n, alpha, i1, i2):
    return alpha * n * n + node_id(n, i1, i2)


def quad_id(n, triangle, i1, i2):
    return triangle * n * n + node_id(n, i1, i2)


def vec_flat(values):
    """Flatten (2, n, n) nodal planes into the dense DOF ordering."""
    return np.concatenate([plane.ravel(order="F") for plane in values])


def vec_unflat(flat, n):
    return np.stack([flat[a * n * n:(a + 1) * n * n].reshape((n, n), order="F")
                     for a in range(2)])


def quad_flat(values):
    """Flatten (3, 2, n, n) quadrature planes into (mandel, Q) ordering."""
    return np.concatenate([
        np.concatenate([values[m, t].ravel(order="F") for t in range(2)])
        for m in range(3)])


def element_tables(n, dx1, dx2):
    """Vertex nodes and P1 shape-function gradients of both triangles of a
    pixel, derived from the reference-coordinate shape functions."""
    lower = [((0, 0), (-1.0 / dx1, -1.0 / dx2)),
             ((1, 0), (1.0 / dx1, 0.0)),
             ((0, 1), (0.0, 1.0 / dx2))]
    upper = [((1, 1), (1.0 / dx1, 1.0 / dx2)),
             ((0, 1), (-1.0 / dx1, 0.0)),
             ((1, 0), (0.0, -1.0 / dx2))]
    return (lower, upper)


def dense_b(n, lengths=(1.0, 1.0)):
    """Row-by-row dense symmetrized-gradient matrix, (3 * 2n^2, 2n^2)."""
    dx1, dx2 = lengths[0] / n, lengths[1] / n
    nq = 2 * n * n
    b = np.zeros((3 * nq, 2 * n * n))
    tables = element_tables(n, dx1, dx2)
    for i1 in range(n):
        for i2 in range(n):
            for t, table in enumerate(tables):
                q = quad_id(n, t, i1, i2)
                for (off, (gx, gy)) in table:
                    c0 = dof_id(n, 0, i1 + off[0], i2 + off[1])
                    c1 = dof_id(n, 1, i1 + off[0], i2 + off[1])
                    b[0 * nq + q, c0] += gx
                    b[1 * nq + q, c1] += gy
                    b[2 * nq + q, c0] += gy / SQRT2
                    b[2 * nq + q, c1] += gx / SQRT2
    return b


def dense_material(n, rho_values, c0):
    """Block-diagonal material matrix on quadrature points, (3 nq, 3 nq)."""
    nq = 2 * n * n
    c = np.zeros((3 * nq, 3 * nq))
    for i1 in range(n):
        for i2 in range(n):
            for t in range(2):
                q = quad_id(n, t, i1, i2)
                for m in range(3):
                    for k in range(3):
                        c[m * nq + q, k * nq + q] = rho_values[i1, i2] * c0[m, k]
    return c


def dense_k(n, rho_values, c0, lengths=(1.0, 1.0)):
    """Dense stiffness ``B^T W C B`` with the uniform centroid weight."""
    b = dense_b(n, lengths)
    w = (lengths[0] / n) * (lengths[1] / n) / 2.0
    c = dense_material(n, rho_values, c0)
    return b.T @ (w * (c @ b))


def dense_rhs(n, rho_values, c0, eps_bar, lengths=(1.0, 1.0)):
    nq = 2 * n * n
    eps = np.concatenate([np.full(nq, eps_bar[m]) for m in range(3)])
    b = dense_b(n, lengths)
    w = (lengths[0] / n) * (lengths[1] / n) / 2.0
    c = dense_material(n, rho_values, c0)
    return -b.T @ (w * (c @ eps))


def dense_equilibrium(n, rho_values, c0, eps_bar, lengths=(1.0, 1.0)):
    """Exact zero-mean fluctuation solution via dense least squares."""
    k = dense_k(n, rho_values, c0, lengths)
    f = dense_rhs(n, rho_values, c0, eps_bar, lengths)
    # the minimum-norm solution is orthogonal to the translation null space
    u, *_ = np.linalg.lstsq(k, f, rcond=None)
    return u


def dense_average_stress(n, rho_values, c0, eps_bar, u_flat,
                         lengths=(1.0, 1.0)):
    nq = 2 * n * n
    b = dense_b(n, lengths)
    eps = b @ u_flat + np.concatenate([np.full(nq, eps_bar[m])
                                       for m in range(3)])
    c = dense_material(n, rho_values, c0)
    w = (lengths[0] / n) * (lengths[1] / n) / 2.0
    sig = c @ eps
    vol = lengths[0] * lengths[1]
    return np.array([w * sig[m * nq:(m + 1) * nq].sum() / vol
                     for m in range(3)])


def impulse_diagonal(apply_flat, size):
    """diag(K) from one operator application per DOF."""
    diag = np.empty(size)
    for i in range(size):
        e = np.zeros(size)
        e[i] = 1.0
        diag[i] = apply_flat(e)[i]
    return diag


def probed_diagonal(op):
    """``diag(K)`` probed with d * 2^d = 8 applications of the production
    operator, for an even node count.

    For each displacement component and each parity offset, a comb vector
    carries ones on every other node in both directions.  The P1 stencil
    radius is one, below the comb spacing of two, so the operator response
    at a comb node is exactly the wanted diagonal entry.
    """
    from jfft.grid import VectorField
    from jfft.operators import apply_system

    n = op.grid.n
    if n % 2 != 0:
        raise ValueError("comb probing needs an even node count")
    diag = np.empty((2, n, n))
    for alpha in range(2):
        for o1 in (0, 1):
            for o2 in (0, 1):
                comb = VectorField.zeros(op.grid)
                comb.values[alpha, o1::2, o2::2] = 1.0
                response = apply_system(op, comb)
                diag[alpha, o1::2, o2::2] = response.values[alpha, o1::2, o2::2]
    return diag


def fsum_dot(a, b):
    """Correctly rounded sum of the products of two real arrays: each
    product is a double, and ``math.fsum`` adds them without rounding
    error, so only the products themselves are rounded."""
    return math.fsum((np.asarray(a, dtype=float).ravel()
                      * np.asarray(b, dtype=float).ravel()).tolist())


def dft2_direct(a):
    """O(n^4) direct DFT of an (n, n) array, numpy forward convention."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for q1 in range(n):
        for q2 in range(n):
            acc = 0.0 + 0.0j
            for x1 in range(n):
                for x2 in range(n):
                    acc += a[x1, x2] * np.exp(-2j * np.pi * (q1 * x1 + q2 * x2) / n)
            out[q1, q2] = acc
    return out


# ---------------------------------------------------------------------------
# Reference kernels: the roll-and-einsum forms of K and of the Green
# application.  The production kernels must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def _roll_dx(a, h, axis, step):
    return (np.roll(a, step, axis=axis) - a) / h


def reference_sym_gradient(u, dx1, dx2):
    """Strain planes (3, 2, n, n) of displacement planes (2, n, n)."""
    dxu1 = _roll_dx(u[0], dx1, 0, -1)
    dyu1 = _roll_dx(u[0], dx2, 1, -1)
    dxu2 = _roll_dx(u[1], dx1, 0, -1)
    dyu2 = _roll_dx(u[1], dx2, 1, -1)
    s = np.empty((3, 2) + u.shape[1:])
    s[0, 0] = dxu1
    s[1, 0] = dyu2
    s[2, 0] = (dyu1 + dxu2) / SQRT2
    s[0, 1] = np.roll(dxu1, -1, axis=1)
    s[1, 1] = np.roll(dyu2, -1, axis=0)
    s[2, 1] = (np.roll(dyu1, -1, axis=0) + np.roll(dxu2, -1, axis=1)) / SQRT2
    return s


def reference_sym_gradient_adjoint(s, dx1, dx2):
    """Transpose of :func:`reference_sym_gradient`."""
    f = np.empty((2,) + s.shape[2:])
    f[0] = (_roll_dx(s[0, 0] + np.roll(s[0, 1], 1, axis=1), dx1, 0, 1)
            + _roll_dx(s[2, 0] + np.roll(s[2, 1], 1, axis=0), dx2, 1, 1) / SQRT2)
    f[1] = (_roll_dx(s[1, 0] + np.roll(s[1, 1], 1, axis=0), dx2, 1, 1)
            + _roll_dx(s[2, 0] + np.roll(s[2, 1], 1, axis=1), dx1, 0, 1) / SQRT2)
    return f


def _reference_weighted_stress(rho_values, c0, w, eps):
    sig = np.einsum("mk,ktij->mtij", c0, eps)
    sig *= (w * rho_values)[None, None, :, :]
    return sig


def reference_apply_k(u, rho_values, c0, lengths=(1.0, 1.0)):
    """``K u`` with rolled differences and the general 3x3 material einsum."""
    n = u.shape[1]
    dx1, dx2 = lengths[0] / n, lengths[1] / n
    eps = reference_sym_gradient(u, dx1, dx2)
    sig = _reference_weighted_stress(rho_values, c0, dx1 * dx2 / 2.0, eps)
    return reference_sym_gradient_adjoint(sig, dx1, dx2)


def reference_rhs(rho_values, c0, eps_bar, lengths=(1.0, 1.0)):
    """``-B^T W C(rho) E`` in the same reference form."""
    n = rho_values.shape[0]
    dx1, dx2 = lengths[0] / n, lengths[1] / n
    eps = np.broadcast_to(np.asarray(eps_bar, dtype=float)[:, None, None, None],
                          (3, 2, n, n))
    sig = _reference_weighted_stress(rho_values, c0, dx1 * dx2 / 2.0, eps)
    return -reference_sym_gradient_adjoint(sig, dx1, dx2)


def eigh_green_blocks(grid, material, cutoff=1e-12):
    """The Green operator's (n, n//2 + 1, 2, 2) blocks by LAPACK ``eigh``.

    The Fourier blocks of ``K_ref`` come from the FFTs of its responses to
    a unit impulse per displacement component, are Hermitized and
    pseudo-inverted: eigenvalues at or below ``cutoff`` times a block's
    largest one count as zero, and the zero-frequency block is zero.
    """
    from jfft.grid import ScalarField, VectorField, fft_forward
    from jfft.operators import SystemOperator, apply_system

    ref_op = SystemOperator(ScalarField.full(grid, 1.0), material)
    n = grid.n
    khat = np.empty((n, n // 2 + 1, 2, 2), dtype=np.complex128)
    for beta in range(2):
        impulse = VectorField.zeros(grid)
        impulse.values[beta, 0, 0] = 1.0
        response = apply_system(ref_op, impulse)
        khat[:, :, :, beta] = np.moveaxis(fft_forward(response), 0, -1)
    khat[0, 0] = 0.0
    khat = 0.5 * (khat + np.conj(np.swapaxes(khat, -1, -2)))
    eigvals, eigvecs = np.linalg.eigh(khat)
    kept = eigvals > cutoff * np.clip(eigvals[..., -1:], 0.0, None)
    inv_vals = np.where(kept, 1.0, 0.0) / np.where(kept, eigvals, 1.0)
    blocks = np.einsum("...ab,...b,...cb->...ac", eigvecs, inv_vals,
                       np.conj(eigvecs))
    blocks[0, 0] = 0.0
    return blocks


def hermitized_reference_blocks(grid, material):
    """The Fourier blocks of ``K_ref``, (n, n//2 + 1, 2, 2), from the FFTs
    of its responses to a unit impulse per displacement component on the
    whole grid, Hermitized, with the zero-frequency block zero."""
    from jfft.grid import ScalarField, VectorField, fft_forward
    from jfft.operators import SystemOperator, apply_system

    ref_op = SystemOperator(ScalarField.full(grid, 1.0), material)
    n = grid.n
    khat = np.empty((n, n // 2 + 1, 2, 2), dtype=np.complex128)
    for beta in range(2):
        impulse = VectorField.zeros(grid)
        impulse.values[beta, 0, 0] = 1.0
        response = apply_system(ref_op, impulse)
        khat[:, :, :, beta] = np.moveaxis(fft_forward(response), 0, -1)
    khat[0, 0] = 0.0
    return 0.5 * (khat + np.conj(np.swapaxes(khat, -1, -2)))


def full_grid_green(grid, material):
    """The Green operator assembled from impulse responses of ``K_ref`` on
    the whole grid, then symmetrized and inverted by the production closed
    form.  The patch assembly must reproduce its blocks bit for bit."""
    from jfft.grid import ScalarField, VectorField, fft_forward
    from jfft.operators import SystemOperator, apply_system
    from jfft.preconditioners import GreenOperator, _invert_blocks

    ref_op = SystemOperator(ScalarField.full(grid, 1.0), material)
    columns = []
    for beta in range(2):
        impulse = VectorField.zeros(grid)
        impulse.values[beta, 0, 0] = 1.0
        columns.append(fft_forward(apply_system(ref_op, impulse)))
    (k11, k21), (k12, k22) = columns
    a, d = k11.real.copy(), k22.real.copy()
    b = 0.5 * (k12.real + k21.real)
    a[0, 0] = d[0, 0] = b[0, 0] = 0.0
    return GreenOperator(grid, *(plane.astype(np.complex128)
                                 for plane in _invert_blocks(a, d, b)))


def green_blocks(green):
    """The Green operator's planes as one (n, n//2 + 1, 2, 2) block array."""
    return np.stack([np.stack([green.g11, green.g12], axis=-1),
                     np.stack([green.g12, green.g22], axis=-1)], axis=-2)


def reference_apply_green(green, r):
    """Forward FFT, block einsum, inverse FFT."""
    n = r.shape[1]
    zhat = np.einsum("xyab,bxy->axy", green_blocks(green),
                     np.fft.rfftn(r, axes=(1, 2)))
    return np.fft.irfftn(zhat, s=(n, n), axes=(1, 2))


# ---------------------------------------------------------------------------
# Reference solve paths: the one-load PCG loop and the sequential three-load
# solve of topology optimization.  The stacked PCG must reproduce each load
# of them bit for bit.
# ---------------------------------------------------------------------------

def reference_pcg(op, rhs, preconditioner, green, eta=1e-6, max_iter=999):
    """One-load Green-norm PCG from the zero guess, as a plain loop over the
    production layers; returns (iterations, history, terminated, solution
    values)."""
    from jfft.grid import VectorField, dot
    from jfft.operators import apply_system
    from jfft.preconditioners import prepare_green_norm2
    from jfft.solver import SolverAbortError

    reuse_green = preconditioner.kind == "green" and preconditioner.green is green

    def checked(value):
        if not np.isfinite(value):
            raise SolverAbortError("non-finite value in the reference PCG")
        return value

    def green_norm(r, z):
        return checked(dot(r.values, z.values) if reuse_green
                       else prepare_green_norm2(green, r)()[0])

    x = np.zeros_like(rhs.values)
    r = VectorField(rhs.grid, rhs.values.copy())
    z = preconditioner.prepare(r)()
    history = [green_norm(r, z)]
    if history[-1] <= eta:
        return 0, history, "converged", x
    rz = checked(dot(r.values, z.values))
    p = z.values.copy()
    iterations, terminated = 0, "iteration-cap"
    while iterations < max_iter:
        kp = apply_system(op, VectorField(rhs.grid, p)).values
        curvature = checked(dot(p, kp))
        if curvature <= 0.0:
            raise SolverAbortError("non-positive curvature in reference PCG")
        alpha = rz / curvature
        x += p * alpha
        r.values -= kp * alpha
        iterations += 1
        z = preconditioner.prepare(r)()
        history.append(green_norm(r, z))
        if history[-1] <= eta:
            terminated = "converged"
            break
        rz_new = checked(dot(r.values, z.values))
        p *= rz_new / rz
        p += z.values
        rz = rz_new
    x -= x.mean(axis=(1, 2))[:, None, None]
    return iterations, history, terminated, x


def total_strain(u, eps_bar):
    """Macroscopic Mandel strain ``eps_bar`` plus the fluctuation gradient
    of ``u``, at quadrature points, as a new field."""
    from jfft.fem import sym_gradient

    eps = sym_gradient(u)
    eps.values += np.asarray(eps_bar, dtype=np.float64)[:, None, None, None]
    return eps


def reference_homogenized_stress(op, u, eps_bar):
    """Volume-averaged stress from fresh arrays: the total strain, the
    stress of the production material law and the cell average, each a
    new field."""
    from jfft.fem import cell_average
    from jfft.material import stress

    return cell_average(stress(op.density, op.material,
                               total_strain(u, eps_bar)))


def reference_solve_load_cases(problem, rho, preconditioner):
    """The three canonical loads solved one after another with
    :func:`reference_pcg`; the same returns as
    ``jfft.topopt._solve_load_cases``."""
    from jfft.grid import VectorField
    from jfft.operators import SystemOperator, assemble_rhs
    from jfft.preconditioners import build_preconditioner
    from jfft.solver import SolverAbortError

    cfg = problem.cfg
    op = SystemOperator(rho, problem.material)
    precond = build_preconditioner(preconditioner, op, problem.green)
    n = problem.grid.n
    strains = np.empty((3, 3, 2, n, n))
    counts = []
    for gamma, load in enumerate(np.eye(3)):
        iterations, history, terminated, x = reference_pcg(
            op, assemble_rhs(op, load), precond, problem.green,
            eta=cfg.eta_cg, max_iter=cfg.max_iter)
        if terminated != "converged" and history[-1] > 1e3 * cfg.eta_cg:
            raise SolverAbortError(f"load case {gamma}: iteration cap reached")
        strains[gamma] = total_strain(VectorField(op.grid, x), load).values
        counts.append(iterations)
    return strains, counts
