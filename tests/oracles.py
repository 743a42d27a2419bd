"""Independent reference implementations used as test oracles.

Everything here is derived from first principles (explicit element
stencils, dense matrices, direct DFT summation) without touching the
matrix-free production kernels, so agreement is meaningful.  The reference
solve paths at the end are the exception: they drive the production layers
one load at a time, to pin the stacked solver's control flow and sums.
"""

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


def green_blocks(green):
    """The Green operator's planes as one (n, n//2 + 1, 2, 2) block array."""
    return np.stack([np.stack([green.g11, green.g12], axis=-1),
                     np.stack([green.g21, green.g22], axis=-1)], axis=-2)


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
    from jfft.grid import VectorField
    from jfft.operators import apply_system
    from jfft.preconditioners import green_norm2
    from jfft.solver import SolverAbortError

    reuse_green = preconditioner.kind == "green" and preconditioner.green is green

    def checked(value):
        if not np.isfinite(value):
            raise SolverAbortError("non-finite value in the reference PCG")
        return value

    def green_norm(r, z):
        return checked(float(np.vdot(r.values, z.values)) if reuse_green
                       else green_norm2(green, r))

    x = np.zeros_like(rhs.values)
    r = VectorField(rhs.grid, rhs.values.copy())
    z = preconditioner.apply(r)
    history = [green_norm(r, z)]
    if history[-1] <= eta:
        return 0, history, "converged", x
    rz = checked(float(np.vdot(r.values, z.values)))
    p = z.values.copy()
    iterations, terminated = 0, "iteration-cap"
    while iterations < max_iter:
        kp = apply_system(op, VectorField(rhs.grid, p)).values
        curvature = checked(float(np.vdot(p, kp)))
        if curvature <= 0.0:
            raise SolverAbortError("non-positive curvature in reference PCG")
        alpha = rz / curvature
        x += p * alpha
        r.values -= kp * alpha
        iterations += 1
        z = preconditioner.apply(r)
        history.append(green_norm(r, z))
        if history[-1] <= eta:
            terminated = "converged"
            break
        rz_new = checked(float(np.vdot(r.values, z.values)))
        p *= rz_new / rz
        p += z.values
        rz = rz_new
    x -= x.mean(axis=(1, 2))[:, None, None]
    return iterations, history, terminated, x


def reference_solve_load_cases(problem, rho, preconditioner):
    """The three canonical loads solved one after another with
    :func:`reference_pcg`; the same returns as
    ``jfft.topopt._solve_load_cases``."""
    from jfft.grid import VectorField
    from jfft.operators import assemble_rhs, make_operator, total_strain
    from jfft.preconditioners import build_preconditioner
    from jfft.solver import SolverAbortError
    from jfft.topopt import _stress_matrix

    cfg = problem.cfg
    op = make_operator(rho, problem.material)
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
        strains[gamma] = total_strain(op, VectorField(op.grid, x), load).values
        counts.append(iterations)
    return strains, _stress_matrix(problem, strains, rho.values), counts
