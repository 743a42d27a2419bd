"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
appear; the expensive iteration-count studies are computed once per session
and shared.  Criteria 5-7 and 9-10 are trend assertions on desk-scale
reproductions of the iteration-count studies; 1-4 and 8 are exact
properties.
"""

import csv
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from jfft import microstructures as micro
from jfft.grid import ScalarField, VectorField, make_grid, save_field
from jfft.material import isotropic_material
from jfft.operators import (apply_system, assemble_rhs, homogenized_stress,
                            make_operator)
from jfft.preconditioners import (apply_green, assemble_green,
                                  assemble_jacobi, build_preconditioner)
from jfft.solver import CONVERGED, ITERATION_CAP, pcg, solve_cell
from jfft.topopt import (DENSITY_FLOOR, TopOptConfig, evaluate,
                         lbfgs_minimize, make_problem)
from jfft.experiments import (run_cosine_sweep, run_laminate_sweep,
                              run_motivate, run_smooth_vs_sharp)

from oracles import dense_k, green_blocks, impulse_diagonal, vec_flat, vec_unflat

MATERIAL = isotropic_material(2.0 / 3.0, 0.5)
SWEEP_SIZES = [2 ** k for k in range(3, 9)]


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(f"\n{line}", flush=True)
    assert passed, line


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# shared expensive studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def laminate_table(tmp_path_factory):
    cfg = {
        "p_values": SWEEP_SIZES,
        "n_values": SWEEP_SIZES,
        "contrasts": [1e4],
        "preconditioners": ["green", "jacobi", "green-jacobi"],
    }
    out = tmp_path_factory.mktemp("laminate")
    return timed(run_laminate_sweep, cfg, out, 2)


@pytest.fixture(scope="session")
def cosine_table(tmp_path_factory):
    cfg = {
        "p_values": SWEEP_SIZES,
        "n_values": SWEEP_SIZES,
        "contrasts": [1e4, "inf"],
        "preconditioners": ["green-jacobi"],
    }
    out = tmp_path_factory.mktemp("cosine")
    return timed(run_cosine_sweep, cfg, out, 2)


@pytest.fixture(scope="session")
def motivate_rows(tmp_path_factory):
    cfg = {
        "n": 128,
        "stop_contrast": 100.0,
        "stride": 1,
        "preconditioners": ["green", "green-jacobi"],
    }
    out = tmp_path_factory.mktemp("motivate")
    return timed(run_motivate, cfg, out)


@pytest.fixture(scope="session")
def topopt_run():
    cfg = TopOptConfig(n=32, seed=0, max_outer=250,
                       preconditioner="green-jacobi", measure=("green",))
    return timed(lbfgs_minimize, cfg)


@pytest.fixture(scope="session")
def smooth_sharp_reports(tmp_path_factory):
    start = time.perf_counter()
    rho, _ = lbfgs_minimize(TopOptConfig(n=64, seed=1, max_outer=40,
                                         preconditioner="green-jacobi"))
    base = tmp_path_factory.mktemp("svs")
    save_field(base / "rho_smooth", rho)
    cfg = {
        "rho_file": "rho_smooth",
        "contrasts": [1e2, 1e5, 1e8],
        "preconditioners": ["green", "green-jacobi"],
        "_config_dir": str(base),
    }
    reports = run_smooth_vs_sharp(cfg, base / "out")
    return reports, time.perf_counter() - start


def cells(rows, kind, chi=None):
    out = {}
    for row in rows:
        if row["preconditioner"] != kind:
            continue
        if chi is not None and row["chi_tot"] != chi:
            continue
        out[(row["p"], row["n"])] = row["iterations"]
    return out


# ---------------------------------------------------------------------------
# criterion 1: matrix-free operators match dense oracles
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_k = 0.0
    worst_diag = 0.0
    for n in (4, 8):
        grid = make_grid(n)
        rho = ScalarField(grid, rng.uniform(0.05, 2.0, (n, n)))
        op = make_operator(rho, MATERIAL)
        dense = dense_k(n, rho.values, MATERIAL.stiffness)
        for _ in range(20):
            u = VectorField(grid, rng.normal(size=(2, n, n)))
            ours = vec_flat(apply_system(op, u).values)
            ref = dense @ vec_flat(u.values)
            worst_k = max(worst_k,
                          np.abs(ours - ref).max() / np.abs(ref).max())
        jac = assemble_jacobi(op)

        def apply_flat(flat, op=op, grid=grid, n=n):
            u = VectorField(grid, vec_unflat(flat, n))
            return vec_flat(apply_system(op, u).values)

        diag = impulse_diagonal(apply_flat, 2 * n * n)
        diag[diag == 0.0] = 1.0
        worst_diag = max(worst_diag,
                         np.abs(vec_flat(jac.inv_sqrt) - 1.0 / np.sqrt(diag)).max())
    elapsed = time.perf_counter() - start
    passed = worst_k <= 1e-12 and worst_diag <= 1e-14 and elapsed < 5.0
    report(1, passed,
           f"apply_K vs dense {worst_k:.2e} (<=1e-12), Jacobi diagonal "
           f"{worst_diag:.2e} (<=1e-14), {elapsed:.1f}s (<5s)")


# ---------------------------------------------------------------------------
# criterion 2: Green operator is the pseudo-inverse of the reference
# ---------------------------------------------------------------------------

def test_criterion_2_green_pseudo_inverse():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    zero_block = 0.0
    for n in (8, 16):
        grid = make_grid(n)
        green = assemble_green(grid, MATERIAL)
        zero_block = max(zero_block, np.abs(green_blocks(green)[0, 0]).max())
        ref_op = make_operator(ScalarField.full(grid, 1.0), MATERIAL)
        for _ in range(20):
            v = VectorField(grid, rng.normal(size=(2, n, n)))
            gkv = apply_green(green, apply_system(ref_op, v))
            expected = v.values - v.values.mean(axis=(1, 2))[:, None, None]
            worst = max(worst,
                        np.abs(gkv.values - expected).max()
                        / np.abs(expected).max())
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and zero_block == 0.0 and elapsed < 5.0
    report(2, passed,
           f"G K_ref v deviation {worst:.2e} (<=1e-10), zero-frequency block "
           f"{zero_block} (exact 0), {elapsed:.1f}s (<5s)")


# ---------------------------------------------------------------------------
# criterion 3: uniform medium is exact
# ---------------------------------------------------------------------------

def test_criterion_3_uniform_medium():
    grid = make_grid(16)
    rho = ScalarField.full(grid, 1.0)
    solve = solve_cell(rho, np.array([1.0, 1.0, 1.0]), "green", MATERIAL)
    op = make_operator(rho, MATERIAL)
    sigma = homogenized_stress(op, solve.solution, np.array([1.0, 1.0, 1.0]))
    err = np.abs(sigma - np.array([7.0 / 3.0, 7.0 / 3.0, 1.0])).max()
    passed = err <= 1e-12 and solve.iterations <= 1
    report(3, passed,
           f"sigma_bar error {err:.2e} (<=1e-12), Green PCG iterations "
           f"{solve.iterations} (<=1)")


# ---------------------------------------------------------------------------
# criterion 4: termination contract
# ---------------------------------------------------------------------------

def test_criterion_4_termination_contract(laminate_table):
    rows, _ = laminate_table
    cap_ok = all(row["iterations"] <= 999 for row in rows)
    status_ok = all(row["terminated"] in (CONVERGED, ITERATION_CAP)
                    for row in rows)

    # converged reports end at or below the tolerance; capped runs report
    # the cap faithfully
    grid = make_grid(32)
    rho = micro.refine_to_grid(micro.laminate_density(16, 1e4), 32)
    op = make_operator(rho, MATERIAL)
    green = assemble_green(grid, MATERIAL)
    rhs = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
    last_ok = True
    for kind in ("green", "jacobi", "green-jacobi"):
        rep = pcg(op, rhs, build_preconditioner(kind, op, green), green,
                  eta=1e-6, max_iter=999)
        last_ok &= rep.terminated == CONVERGED
        last_ok &= rep.residual_history[-1] <= 1e-6
    capped = pcg(op, rhs, build_preconditioner("none", op, green), green,
                 eta=1e-30, max_iter=999)
    cap_honored = (capped.terminated == ITERATION_CAP
                   and capped.iterations == 999
                   and len(capped.residual_history) == 1000)
    passed = cap_ok and status_ok and last_ok and cap_honored
    report(4, passed,
           f"converged histories end <= 1e-6: {last_ok}; cap 999 honored: "
           f"{cap_honored}; sweep rows within cap: {cap_ok}")


# ---------------------------------------------------------------------------
# criterion 5: laminate iteration-count trends
# ---------------------------------------------------------------------------

def test_criterion_5_laminate_trends(laminate_table):
    rows, elapsed = laminate_table
    green = cells(rows, "green")
    jacobi = cells(rows, "jacobi")
    gj = cells(rows, "green-jacobi")

    # (a) Green counts are exactly mesh independent
    mesh_independent = all(
        len({green[(p, n)] for n in SWEEP_SIZES if n >= p}) == 1
        for p in SWEEP_SIZES)
    # (b) Green counts non-decreasing in the sampling resolution
    growing_p = all(green[(pa, n)] <= green[(pb, n)]
                    for n in SWEEP_SIZES
                    for pa, pb in zip(SWEEP_SIZES, SWEEP_SIZES[1:])
                    if pb <= n)
    # (c) Jacobi counts grow with the mesh and exceed Green everywhere
    jacobi_grows = all(
        jacobi[(p, na)] <= jacobi[(p, nb)]
        for p in SWEEP_SIZES
        for na, nb in zip(SWEEP_SIZES, SWEEP_SIZES[1:])
        if na >= p) and all(
        jacobi[(p, 256)] > jacobi[(p, max(p, 8))] or p == 256
        for p in SWEEP_SIZES)
    jacobi_exceeds = all(jacobi[key] > green[key] for key in green)
    # (d) Green-Jacobi beats Green at the finest laminate
    gj_beats = gj[(256, 256)] < green[(256, 256)]

    passed = (mesh_independent and growing_p and jacobi_grows
              and jacobi_exceeds and gj_beats and elapsed < 600.0)
    report(5, passed,
           f"Green mesh-independent: {mesh_independent}; Green grows in p: "
           f"{growing_p}; Jacobi grows in n: {jacobi_grows}; Jacobi > Green: "
           f"{jacobi_exceeds}; GJ({gj[(256, 256)]}) < Green"
           f"({green[(256, 256)]}) at 256^2: {gj_beats}; {elapsed:.0f}s (<600s)")


# ---------------------------------------------------------------------------
# criterion 6: cosine iteration-count trends
# ---------------------------------------------------------------------------

def test_criterion_6_cosine_trends(cosine_table):
    rows, elapsed = cosine_table
    finite = cells(rows, "green-jacobi", chi="10000")
    infinite = cells(rows, "green-jacobi", chi="inf")

    decreasing_p = all(
        finite[(pb, n)] <= finite[(pa, n)]
        and infinite[(pb, n)] <= infinite[(pa, n)]
        for n in SWEEP_SIZES
        for pa, pb in zip(SWEEP_SIZES, SWEEP_SIZES[1:])
        if pb <= n)
    void_not_slower = all(infinite[key] <= finite[key] for key in finite)
    passed = decreasing_p and void_not_slower and elapsed < 600.0
    report(6, passed,
           f"GJ counts decrease in p: {decreasing_p}; infinite-contrast "
           f"counts <= finite: {void_not_slower}; {elapsed:.0f}s (<600s)")


# ---------------------------------------------------------------------------
# criterion 7: motivating filter cascade
# ---------------------------------------------------------------------------

def test_criterion_7_motivate_shape(motivate_rows):
    rows, elapsed = motivate_rows
    green = {r["step"]: r["iterations"] for r in rows
             if r["preconditioner"] == "green"}
    gj = {r["step"]: r["iterations"] for r in rows
          if r["preconditioner"] == "green-jacobi"}
    steps = sorted(green)
    counts = [green[s] for s in steps]
    arg = int(np.argmax(counts))
    interior_max = 0 < arg < len(steps) - 1
    # some crossing step from which GJ stays below Green through the end of
    # the cascade (the earliest steps may oscillate while the interfaces
    # are still nearly sharp)
    violations = [s for s in steps if gj[s] >= green[s]]
    crossing = None
    if not violations:
        crossing = steps[1] if len(steps) > 1 else None
    else:
        later = [s for s in steps if s > violations[-1]]
        crossing = later[0] if later else None
    stays_below = crossing is not None and crossing >= 1
    passed = interior_max and stays_below and elapsed < 600.0
    report(7, passed,
           f"Green peak at step {steps[arg]} of {steps[-1]} (interior: "
           f"{interior_max}); GJ below Green from step {crossing} "
           f"through the end: {stays_below}; {elapsed:.0f}s (<600s)")


# ---------------------------------------------------------------------------
# criterion 8: adjoint gradient against finite differences
# ---------------------------------------------------------------------------

def test_criterion_8_topopt_gradient():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    problem = make_problem(TopOptConfig(n=8, eta_cg=1e-12, max_iter=5000,
                                        preconditioner="green"))
    rho = rng.uniform(0.2, 0.9, size=(8, 8))
    ev = evaluate(problem, rho)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        i, j = rng.integers(8), rng.integers(8)
        up = rho.copy()
        up[i, j] += h
        dn = rho.copy()
        dn[i, j] -= h
        fd = (evaluate(problem, up).value - evaluate(problem, dn).value) / (2 * h)
        worst = max(worst, abs(fd - ev.gradient[i, j]) / abs(fd))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-5 and elapsed < 60.0
    report(8, passed,
           f"adjoint vs central differences, worst relative error "
           f"{worst:.2e} (<=1e-5), {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# criterion 9: optimization-stage preconditioner gap
# ---------------------------------------------------------------------------

def test_criterion_9_topopt_iteration_gap(topopt_run):
    (rho, history), elapsed = topopt_run
    tail = history.inner_iterations[int(0.8 * len(history.inner_iterations)):]
    gj = float(np.median([c for rec in tail for c in rec["green-jacobi"]]))
    green = float(np.median([c for rec in tail for c in rec["green"]]))
    # the final layout decides which preconditioner wins: plain Green keeps
    # the lead on sharp, moderately contrasted layouts (criterion 10)
    lo, hi = float(rho.values.min()), float(rho.values.max())
    contrast = hi / max(lo, DENSITY_FLOOR)
    diffuse = float(np.mean((rho.values > 0.05) & (rho.values < 0.95)))
    passed = gj <= 150.0 and green >= 3.0 * gj and elapsed < 1800.0
    report(9, passed,
           f"last-20% medians: green-jacobi {gj:.0f} (<=150), green "
           f"{green:.0f} (>= 3x{gj:.0f}={3 * gj:.0f}); {elapsed:.0f}s (<1800s); "
           f"final layout: status {history.status} after "
           f"{len(history.objective) - 1} outer steps, density in "
           f"[{lo:.4g}, {hi:.7g}], contrast {contrast:.3g}, "
           f"{100 * diffuse:.1f}% of pixels in (0.05, 0.95)")


# ---------------------------------------------------------------------------
# criterion 10: smooth versus sharp crossover
# ---------------------------------------------------------------------------

def test_criterion_10_smooth_vs_sharp(smooth_sharp_reports):
    reports, elapsed = smooth_sharp_reports
    smooth_green = reports[("smooth", 1e5, "green")].iterations
    smooth_gj = reports[("smooth", 1e5, "green-jacobi")].iterations
    sharp_green = reports[("sharp", 1e5, "green")].iterations
    sharp_gj = reports[("sharp", 1e5, "green-jacobi")].iterations
    smooth_ok = smooth_gj < smooth_green
    sharp_ok = sharp_green < sharp_gj
    passed = smooth_ok and sharp_ok and elapsed < 300.0
    report(10, passed,
           f"smooth chi=1e5: GJ {smooth_gj} < Green {smooth_green}: "
           f"{smooth_ok}; sharp: Green {sharp_green} < GJ {sharp_gj}: "
           f"{sharp_ok}; {elapsed:.0f}s (<300s)")


# ---------------------------------------------------------------------------
# further reported-trend checks sharing the session fixtures
# ---------------------------------------------------------------------------

def cg_contrast_bound(chi, h0, eta):
    """Iterations after which Green PCG must have reached ``<r, G r> <= eta``.

    For pixel densities in ``[1, chi]`` the spectrum of ``G K(rho)`` on
    zero-mean fields lies in ``[1, chi]`` (Zeman et al., J. Comput. Phys.
    229 (2010) 8065; FE form in Ladecky et al., Appl. Math. Comput. 446
    (2023) 127835).  The CG energy-norm bound then gives
    ``h_k <= 4 chi q^(2k) h_0`` with ``q = (sqrt(chi) - 1) / (sqrt(chi) + 1)``
    for the squared Green norm ``h_k`` of the residual.
    """
    q = (np.sqrt(chi) - 1.0) / (np.sqrt(chi) + 1.0)
    return int(np.ceil(np.log(eta / (4.0 * chi * h0)) / (2.0 * np.log(q))))


def test_trend_laminate_saturation_at_low_contrast(tmp_path):
    # At contrast 10 the Green counts saturate once the sampling reaches
    # 2^5 layers: finer sampling stays within one iteration of p = 32 and
    # never exceeds the contrast-only CG bound (16-17 iterations for the
    # h_0 of 29-37 of these cells).  Exact equality is not promised: the
    # residual curves for p >= 32 nearly coincide, and at k = 13 the squared
    # Green norm is 6.53e-7 (p = 32), 1.087e-6 (p = 64) and 1.019e-6
    # (p = 128), so eta_cg = 1e-6 splits them between 13 and 14 iterations.
    chi, eta, n = 10.0, 1e-6, 128
    cfg = {
        "p_values": [8, 16, 32, 64, 128],
        "n_values": [n],
        "contrasts": [chi],
        "preconditioners": ["green"],
        "eta_cg": eta,
    }
    rows = run_laminate_sweep(cfg, tmp_path, 2)
    counts = {row["p"]: row["iterations"] for row in rows}

    green = assemble_green(make_grid(n), MATERIAL)
    bounds = {}
    for p in counts:
        op = make_operator(
            micro.refine_to_grid(micro.laminate_density(p, chi), n), MATERIAL)
        rhs = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
        h0 = float(np.vdot(rhs.values, apply_green(green, rhs).values))
        bounds[p] = cg_contrast_bound(chi, h0, eta)

    assert counts[8] <= counts[16] <= counts[32]
    assert all(abs(counts[p] - counts[32]) <= 1 for p in counts if p >= 32), \
        counts
    assert all(counts[p] <= bounds[p] for p in counts), (counts, bounds)


def test_trend_motivate_endpoints(motivate_rows):
    rows, _ = motivate_rows
    green = {r["step"]: r["iterations"] for r in rows
             if r["preconditioner"] == "green"}
    gj = {r["step"]: r["iterations"] for r in rows
          if r["preconditioner"] == "green-jacobi"}
    contrast = {r["step"]: float(r["chi_tot"]) for r in rows
                if r["preconditioner"] == "green"}
    steps = sorted(green)
    # sharp initial data: plain Green needs far fewer iterations
    assert green[0] < gj[0]
    # the Green peak sits where the field is smooth but still
    # high-contrast, and the cascade ends at the stop contrast
    peak = max(steps, key=lambda s: green[s])
    assert contrast[peak] >= 1e3
    assert contrast[steps[-1]] <= 100.0


def test_trend_sharp_counts_contrast_insensitive(smooth_sharp_reports):
    reports, _ = smooth_sharp_reports
    for kind in ("green", "green-jacobi"):
        counts = [reports[("sharp", chi, kind)].iterations
                  for chi in (1e2, 1e5, 1e8)]
        assert max(counts) < 2 * min(counts)


def test_trend_smooth_high_contrast_favors_green_jacobi(smooth_sharp_reports):
    reports, _ = smooth_sharp_reports
    assert reports[("smooth", 1e8, "green-jacobi")].iterations \
        < reports[("smooth", 1e8, "green")].iterations


# ---------------------------------------------------------------------------
# golden count ledger: the counts of every solve the studies above ran
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def ledgers(laminate_table, cosine_table, motivate_rows, topopt_run,
            smooth_sharp_reports):
    """Ledger name -> (key columns, value columns, rows of strings)."""
    sweep_keys = ("preconditioner", "p", "n", "chi_tot")
    outcome = ("iterations", "terminated")
    (_, history), _ = topopt_run
    reports, _ = smooth_sharp_reports

    def sweep(rows):
        return [tuple(row[c] for c in sweep_keys + outcome) for row in rows]

    tables = {
        "laminate": (sweep_keys, outcome, sweep(laminate_table[0])),
        "cosine": (sweep_keys, outcome, sweep(cosine_table[0])),
        "motivate": (("preconditioner", "step"),
                     ("chi_tot",) + outcome,
                     [(row["preconditioner"], row["step"], row["chi_tot"],
                       row["iterations"], row["terminated"])
                      for row in motivate_rows[0]]),
        "smooth_vs_sharp": (("variant", "chi_tot", "preconditioner"), outcome,
                            [(variant, f"{chi:g}", kind, rep.iterations,
                              rep.terminated)
                             for (variant, chi, kind), rep
                             in reports.items()]),
        # per accepted iterate, the counts of each load of the stacked solve
        "topopt": (("record", "preconditioner"), ("iterations",),
                   [(k, kind, " ".join(map(str, counts)))
                    for k, record in enumerate(history.inner_iterations)
                    for kind, counts in record.items()]),
        "topopt_run": (("entry",), ("value",),
                       [("status", history.status),
                        ("outer steps", len(history.objective) - 1)]),
    }
    return {name: (keys, values, [tuple(map(str, row)) for row in rows])
            for name, (keys, values, rows) in tables.items()}


def provenance() -> list[str]:
    return [f"# numpy {np.__version__}",
            f"# Python {platform.python_version()} on {platform.system()} "
            f"{platform.machine()}"]


def write_ledger(path, keys, values, rows):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(provenance()) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys + values)
        writer.writerows(rows)


def read_ledger(path, keys):
    """Key tuple -> value tuple of a ledger file, and its comment lines."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines
                            if not line.startswith("#")))
    assert tuple(table[0][:len(keys)]) == keys, (path, table[0])
    return ({tuple(row[:len(keys)]): tuple(row[len(keys):])
             for row in table[1:]}, comments)


def test_golden_count_ledger(laminate_table, cosine_table, motivate_rows,
                             topopt_run, smooth_sharp_reports):
    """Every count, termination and the topology-optimization outcome of
    the session studies equal the checked-in ledger in ``tests/golden``,
    exactly.  ``python tests/golden/regenerate.py`` rewrites the ledger
    from the current code; it records criterion 9's counts whether or not
    that criterion passes."""
    tables = ledgers(laminate_table, cosine_table, motivate_rows, topopt_run,
                     smooth_sharp_reports)
    if os.environ.get("JFFT_REGENERATE_GOLDEN") == "1":
        for name, (keys, values, rows) in tables.items():
            write_ledger(GOLDEN / f"{name}.csv", keys, values, rows)
        return
    moved = []
    for name, (keys, values, rows) in tables.items():
        old, comments = read_ledger(GOLDEN / f"{name}.csv", keys)
        new = {row[:len(keys)]: row[len(keys):] for row in rows}
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                where = ", ".join(f"{k}={v}" for k, v in zip(keys, key))
                was, now = (" ".join(v) if v else "(absent)"
                            for v in (old.get(key), new.get(key)))
                moved.append(f"{name} {where}: {was} -> {now}")

    def made_with(lines):
        return "; ".join(line.lstrip("# ") for line in lines)

    assert not moved, (f"{len(moved)} ledger rows moved (ledger made with "
                       f"{made_with(comments)}, now "
                       f"{made_with(provenance())}):\n" + "\n".join(moved))
