"""Shows that each of the benchmark's correctness checks passes on the
program's real output and fails on wrong output.

Run from the root of a checkout::

    python3 bench/selftest.py

Small grids keep it to a few seconds.  Exit code 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

J = workloads.load_program()
MATERIAL = J.material.isotropic_material(workloads.LAMBDA0, workloads.MU0)
results = []


def expect(label: str, problem, should_fail: bool):
    failed = bool(problem)
    ok = failed == should_fail
    results.append(ok)
    verdict = "fails" if failed else "passes"
    print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}"
          + (f" ({problem})" if failed else ""))


def solve(rho, kind, load):
    op = J.operators.make_operator(rho, MATERIAL)
    green = J.preconditioners.assemble_green(rho.grid, MATERIAL)
    precond = J.preconditioners.build_preconditioner(kind, op, green)
    report = J.solver.pcg(op, J.operators.assemble_rhs(op, load), precond,
                          green, eta=workloads.ETA_CG)
    return J.operators.homogenized_stress(op, report.solution, load)


def cell_checks():
    load = workloads.unit_load(np.random.default_rng(0))
    lam, mu = MATERIAL.lambda0, MATERIAL.mu0
    laminate = J.micro.laminate_density(64, workloads.CONTRAST)
    sigma = solve(laminate, "green", load)
    expect("laminate stress", checks.check_laminate(
        sigma, laminate.values, lam, mu, load), False)
    wrong = sigma.copy()
    wrong[0] *= 1.0 + 1e-4
    expect("perturbed laminate stress", checks.check_laminate(
        wrong, laminate.values, lam, mu, load), True)

    cosine = J.micro.refine_to_grid(
        J.micro.cosine_density(16, workloads.CONTRAST), 64)
    sigma_g = solve(cosine, "green", load)
    sigma_gj = solve(cosine, "green-jacobi", load)
    expect("cosine energy", checks.check_energy_bounds(
        sigma_g, cosine.values, MATERIAL.stiffness, load), False)
    voigt = float(load @ MATERIAL.stiffness @ load) * cosine.values.mean()
    energy = float(load @ sigma_g)
    expect("energy above Voigt", checks.check_energy_bounds(
        sigma_g * 1.01 * voigt / energy, cosine.values, MATERIAL.stiffness,
        load), True)
    expect("energy below Reuss", checks.check_energy_bounds(
        sigma_g * 1e-6, cosine.values, MATERIAL.stiffness, load), True)
    expect("Green vs Green-Jacobi", checks.check_agreement(
        sigma_g, sigma_gj, "cosine"), False)
    expect("perturbed Green-Jacobi stress", checks.check_agreement(
        sigma_g, sigma_gj + 2e-2 * np.linalg.norm(sigma_gj), "cosine"), True)


def topopt_checks():
    n = 8
    rng = np.random.default_rng(0)
    cfg = J.topopt.TopOptConfig(n=n, max_outer=5, lambda0=workloads.LAMBDA0,
                                mu0=workloads.MU0)
    rho0 = J.grid.ScalarField(J.grid.make_grid(n), rng.uniform(0, 1, (n, n)))
    x, history = J.topopt.lbfgs_minimize(cfg, rho0=rho0)
    expect("objective history", checks.check_monotone(history.objective), False)
    rising = list(history.objective)
    rising[-1] = rising[-2] * 1.001
    expect("rising objective", checks.check_monotone(rising), True)

    problem = workloads.gradient_problem(J, n)
    gradient = J.topopt.evaluate(problem, x.values).gradient
    direction = rng.normal(size=(n, n))
    expect("adjoint gradient", workloads.check_gradient(
        J, problem, x.values, gradient, direction), False)
    expect("sign-flipped gradient", workloads.check_gradient(
        J, problem, x.values, -gradient, direction), True)


def sweep_checks():
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tmp = Path(tmp)
        config = tmp / "sweep.json"
        config.write_text(json.dumps({
            "contrasts": [workloads.CONTRAST], "p_values": [4, 8],
            "n_values": [8, 16], "preconditioners": ["green", "jacobi"]}))
        code = J.cli.main(["laminate-sweep", "--config", str(config),
                           "--out", str(tmp / "out"), "--threads", "1"])
        with open(tmp / "out" / "iterations.csv") as fh:
            next(fh)
            rows = list(csv.DictReader(fh))
    expect("sweep table", checks.check_sweep(code, rows), False)
    expect("sweep exit code 2", checks.check_sweep(2, rows), True)
    capped = [dict(r) for r in rows]
    capped[-1]["terminated"] = "iteration-cap"
    expect("row at the iteration cap", checks.check_sweep(code, capped), True)
    drifting = [dict(r) for r in rows]
    first_green = next(r for r in drifting if r["preconditioner"] == "green")
    first_green["iterations"] = str(int(first_green["iterations"]) + 1)
    expect("Green count that varies with n", checks.check_sweep(code, drifting), True)


if __name__ == "__main__":
    cell_checks()
    topopt_checks()
    sweep_checks()
    print(f"{sum(results)} of {len(results)} checks behave as expected")
    sys.exit(0 if all(results) else 1)
