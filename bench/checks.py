"""Independent correctness checks for the benchmark's workloads.

Each check compares the program's output with a reference that does not
come from the program: a closed form, a variational bound, a second
preconditioner, central differences, or a property the method guarantees.
None compares with a stored copy of earlier output.  A check returns
``None`` when the output passes and a one-line description otherwise.
"""

from __future__ import annotations

import numpy as np

#: Relative stress error allowed against the laminate closed form.  P1
#: elements are exact for layers normal to x1, so what remains is the PCG
#: error at eta_cg = 1e-6: at most 6e-13 on the p = 512 laminate at n = 512
#: over four loads.
LAMINATE_RTOL = 1e-8

#: Relative distance allowed between the homogenized stresses of the Green
#: and the Green-Jacobi solve of one cell at eta_cg = 1e-6.  The stress
#: average is linear in the solution error, so the two may differ by about
#: sqrt(eta_cg); on the cosine cell at n = 512 they differed by 3e-5 to
#: 5.6e-4 over 14 loads.
AGREEMENT_RTOL = 5e-3

#: Relative error allowed between the adjoint directional derivative and
#: its central difference at eta_cg = 1e-12.  At the final iterates of
#: twelve topopt-32 runs it was at most 1.9e-6 with the step h = 1e-4; with
#: h = 3e-4 the truncation error alone reached 1.4e-5.
GRADIENT_RTOL = 1e-5


def _relative(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def laminate_stress(rho: np.ndarray, lam: float, mu: float, eps_bar) -> np.ndarray:
    """Exact homogenized Mandel stress of layers normal to x1.

    ``rho[i1, i2]`` scales the isotropic stiffness ``(lam, mu)`` and depends
    on ``i1`` only.  With ``L = lam + 2 mu``, ``a = <1/rho>`` and
    ``m = <rho>`` the traction continuity across the layers gives
    ``s1 = (L E1 + lam E2) / a``, ``s2 = lam s1 / L + m (L - lam^2 / L) E2``
    and ``s3 = 2 mu E3 / a``.
    """
    e1, e2, e3 = (float(v) for v in eps_bar)
    big_l = lam + 2.0 * mu
    a = float(np.mean(1.0 / rho))
    m = float(np.mean(rho))
    s1 = (big_l * e1 + lam * e2) / a
    s2 = lam * s1 / big_l + m * (big_l - lam ** 2 / big_l) * e2
    s3 = 2.0 * mu * e3 / a
    return np.array([s1, s2, s3])


def check_laminate(sigma, rho: np.ndarray, lam: float, mu: float,
                   eps_bar) -> str | None:
    err = _relative(sigma, laminate_stress(rho, lam, mu, eps_bar))
    if not err <= LAMINATE_RTOL:
        return f"laminate stress off the closed form by {err:.3e} (> {LAMINATE_RTOL:g})"
    return None


def check_energy_bounds(sigma, rho: np.ndarray, stiffness: np.ndarray,
                        eps_bar) -> str | None:
    """``E . sigma`` must lie between the Reuss and the Voigt energy.

    The discrete solution is a conforming approximation, so its energy is
    at most the Voigt value ``<rho> E.C0.E`` and at least the exact energy,
    which is at least the Reuss value ``E.C0.E / <1/rho>``.
    """
    e = np.asarray(eps_bar, dtype=float)
    base = float(e @ stiffness @ e)
    reuss = base / float(np.mean(1.0 / rho))
    voigt = base * float(np.mean(rho))
    energy = float(e @ np.asarray(sigma, dtype=float))
    slack = 1e-9 * voigt
    if not reuss - slack <= energy <= voigt + slack:
        return (f"energy {energy:.6e} outside the Reuss/Voigt bounds "
                f"[{reuss:.6e}, {voigt:.6e}]")
    return None


def check_agreement(sigma_a, sigma_b, what: str) -> str | None:
    err = _relative(sigma_a, sigma_b)
    if not err <= AGREEMENT_RTOL:
        return f"{what}: stresses disagree by {err:.3e} (> {AGREEMENT_RTOL:g})"
    return None


def check_monotone(objective) -> str | None:
    """Accepted Armijo steps never increase the objective."""
    values = [float(v) for v in objective]
    for k, (before, after) in enumerate(zip(values, values[1:]), start=1):
        if not after <= before:
            return f"objective rose at step {k}: {before!r} -> {after!r}"
    return None


def check_directional_derivative(slope: float, f_plus: float, f_minus: float,
                                 h: float) -> str | None:
    """Adjoint slope ``g . d`` against ``(f(x + h d) - f(x - h d)) / 2h``."""
    fd = (f_plus - f_minus) / (2.0 * h)
    err = abs(slope - fd) / max(abs(fd), 1e-300)
    if not err <= GRADIENT_RTOL:
        return (f"adjoint slope {slope:.9e} vs central difference {fd:.9e}: "
                f"relative error {err:.3e} (> {GRADIENT_RTOL:g})")
    return None


def check_sweep(exit_code: int, rows: list[dict]) -> list[str]:
    """Exit code 0, every row converged, and Green counts independent of n
    for each p (criterion 5a of the acceptance suite)."""
    problems = []
    if exit_code != 0:
        problems.append(f"laminate-sweep exited with {exit_code}")
    if not rows:
        problems.append("laminate-sweep wrote no rows")
    for row in rows:
        if row["terminated"] != "converged":
            problems.append(f"row {row['preconditioner']} p={row['p']} "
                            f"n={row['n']} ended {row['terminated']}")
    green: dict[int, set[int]] = {}
    for row in rows:
        if row["preconditioner"] == "green":
            green.setdefault(int(row["p"]), set()).add(int(row["iterations"]))
    for p, counts in sorted(green.items()):
        if len(counts) != 1:
            problems.append(f"Green counts for p={p} vary with n: {sorted(counts)}")
    return problems
