import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jfft.experiments
import jfft.solver
from jfft import microstructures as micro
from jfft.cli import main
from jfft.experiments import (ConfigError, build_geometry, load_config,
                              run_cosine_sweep, run_laminate_sweep,
                              run_motivate, run_smooth_vs_sharp, run_solve,
                              run_topopt)
from jfft.grid import QuadField, ScalarField, load_field, make_grid, save_field
from jfft.topopt import TopOptConfig


SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def read_rows(path):
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# schema: ")
        return first, list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_load_config_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 8,\n  "oops"\n}')
    with pytest.raises(ConfigError, match=r"bad.json:\d+:\d+"):
        load_config(bad)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_geometry_validation(tmp_path):
    with pytest.raises(ConfigError, match="geometry.kind"):
        build_geometry({"kind": "blob"}, str(tmp_path))
    with pytest.raises(ConfigError, match="chi_tot"):
        build_geometry({"kind": "laminate", "p": 4}, str(tmp_path))
    with pytest.raises(ConfigError, match="finite"):
        build_geometry({"kind": "laminate", "p": 4, "chi_tot": "inf"},
                       str(tmp_path))
    with pytest.raises(ConfigError, match="not found"):
        build_geometry({"kind": "from-file", "path": "missing"}, str(tmp_path))
    for chi in ("inf", float("inf")):
        rho = build_geometry({"kind": "cosine", "p": 4, "chi_tot": chi},
                             str(tmp_path))
        assert rho.values.min() == 0.0


def test_experiment_tag_mismatch(tmp_path):
    cfg = {"experiment": "solve", "n": 8}
    with pytest.raises(ConfigError, match="experiment"):
        run_motivate(cfg, tmp_path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_run_solve_uniform_medium(tmp_path):
    cfg = {
        "n": 8,
        "geometry": {"kind": "laminate", "p": 8, "chi_tot": 1.0},
        "preconditioner": "green",
    }
    report, sigma = run_solve(cfg, tmp_path / "out")
    # uniform density: homogenized stress is the solid response to [1,1,1]
    assert np.allclose(sigma, [7.0 / 3.0, 7.0 / 3.0, 1.0], atol=1e-12)

    out = tmp_path / "out"
    assert (out / "config.json").exists()
    stress = json.loads((out / "homogenized_stress.json").read_text())
    assert stress["eps_bar"] == [1.0, 1.0, 1.0]
    assert np.allclose(stress["sigma_bar"], sigma)
    schema, rows = read_rows(out / "residual_history.csv")
    assert "residual-history" in schema
    assert len(rows) == report.iterations + 1
    solution = load_field(out / "solution")
    assert np.array_equal(solution.values, report.solution.values)


def test_run_solve_from_file_geometry(tmp_path):
    grid = make_grid(8)
    rng = np.random.default_rng(0)
    save_field(tmp_path / "rho", ScalarField(grid, rng.uniform(0.5, 1.0, (8, 8))))
    cfg = {
        "n": 16,
        "geometry": {"kind": "from-file", "path": "rho"},
        "preconditioner": "green-jacobi",
        "_config_dir": str(tmp_path),
    }
    report, _ = run_solve(cfg, tmp_path / "out")
    assert report.terminated == "converged"


def test_run_solve_rejects_bad_refinement(tmp_path):
    cfg = {"n": 12, "geometry": {"kind": "laminate", "p": 8, "chi_tot": 10.0}}
    with pytest.raises(ConfigError, match="'n'"):
        run_solve(cfg, tmp_path / "out")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_config(**extra):
    cfg = {
        "p_values": [4, 8],
        "n_values": [4, 8],
        "contrasts": [10.0],
        "preconditioners": ["green", "jacobi"],
    }
    cfg.update(extra)
    return cfg


def test_laminate_sweep_rows(tmp_path):
    rows = run_laminate_sweep(sweep_config(), tmp_path / "out")
    # cells with p | n only: (4,4), (4,8), (8,8) per preconditioner
    assert len(rows) == 6
    keys = {(r["preconditioner"], r["p"], r["n"]) for r in rows}
    assert ("green", 4, 8) in keys
    assert all(r["terminated"] == "converged" for r in rows)
    schema, disk_rows = read_rows(tmp_path / "out" / "iterations.csv")
    assert "iteration-table" in schema
    assert len(disk_rows) == 6


def test_sweep_workers_agree(tmp_path):
    seq = run_laminate_sweep(sweep_config(), tmp_path / "seq")
    par = run_laminate_sweep(sweep_config(), tmp_path / "par", workers=2)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time"}
                          for r in rows]
    assert strip(seq) == strip(par)


def test_cosine_sweep_with_voids(tmp_path):
    rows = run_cosine_sweep(sweep_config(contrasts=["inf"],
                                         preconditioners=["green-jacobi"]),
                            tmp_path / "out")
    assert len(rows) == 3
    assert all(r["chi_tot"] == "inf" for r in rows)


def test_sweep_scale_guard(tmp_path):
    cfg = sweep_config(n_values=[4, 1024])
    with pytest.raises(ConfigError, match="desk-scale cap 256; set full_scale"):
        run_laminate_sweep(cfg, tmp_path / "out")
    cfg = sweep_config(n_values=[2048], full_scale=True)
    with pytest.raises(ConfigError, match="full-scale cap 1024$"):
        run_laminate_sweep(cfg, tmp_path / "out")


def test_laminate_sweep_rejects_infinite_contrast(tmp_path):
    with pytest.raises(ConfigError, match="finite"):
        run_laminate_sweep(sweep_config(contrasts=["inf"]), tmp_path / "out")


# ---------------------------------------------------------------------------
# motivate
# ---------------------------------------------------------------------------

def test_run_motivate_records_cascade(tmp_path):
    cfg = {
        "n": 16,
        "stop_contrast": 2.0,
        "stride": 10,
        "max_steps": 40,
        "preconditioners": ["green"],
    }
    rows = run_motivate(cfg, tmp_path / "out")
    steps = [r["step"] for r in rows]
    assert steps[0] == 0
    assert steps == sorted(steps)
    # contrast decreases monotonically along the cascade
    contrasts = [float(r["chi_tot"]) for r in rows]
    assert all(b <= a for a, b in zip(contrasts, contrasts[1:]))
    # last recorded step is the stop or the step cap
    assert contrasts[-1] <= 2.0 or steps[-1] == 40
    schema, _ = read_rows(tmp_path / "out" / "motivate.csv")
    assert "motivate-table" in schema


# ---------------------------------------------------------------------------
# topopt
# ---------------------------------------------------------------------------

def test_run_topopt_artifacts(tmp_path):
    cfg = {
        "n": 8,
        "seed": 3,
        "max_outer": 4,
        "snapshot_stride": 2,
        "measure": ["green"],
        "preconditioner": "green-jacobi",
    }
    rho, history = run_topopt(cfg, tmp_path / "out")
    out = tmp_path / "out"
    final = load_field(out / "rho_final")
    assert np.array_equal(final.values, rho.values)
    assert (out / "rho_000000.json").exists()
    assert (out / "rho_000002.json").exists()
    schema, rows = read_rows(out / "history.csv")
    assert "topopt-history" in schema
    assert len(rows) == len(history.objective)
    assert "iters_green_load0" in rows[0]
    assert "iters_green-jacobi_load2" in rows[0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outer_iterations"] == len(history.objective) - 1
    # keys the config leaves out take the defaults of TopOptConfig
    topt, _ = jfft.experiments._topopt_config({"n": 8, "max_outer": 4})
    assert topt == TopOptConfig(n=8, max_outer=4)


# ---------------------------------------------------------------------------
# smooth versus sharp
# ---------------------------------------------------------------------------

def test_run_smooth_vs_sharp(tmp_path):
    rng = np.random.default_rng(1)
    grid = make_grid(16)
    rho = ScalarField(grid, rng.uniform(0.0, 1.0, (16, 16)))
    for _ in range(4):
        rho = micro.gaussian_filter(rho)
    save_field(tmp_path / "smooth", rho)
    cfg = {
        "rho_file": "smooth",
        "contrasts": [100.0, 1e4],
        "preconditioners": ["green", "green-jacobi"],
        "_config_dir": str(tmp_path),
    }
    reports = run_smooth_vs_sharp(cfg, tmp_path / "out")
    assert len(reports) == 8
    out = tmp_path / "out"
    assert (out / "residuals_smooth_chi100_green.csv").exists()
    assert (out / "residuals_sharp_chi10000_green-jacobi.csv").exists()
    schema, rows = read_rows(out / "summary.csv")
    assert "smooth-vs-sharp" in schema
    assert len(rows) == 8


def test_run_smooth_vs_sharp_missing_file(tmp_path):
    cfg = {"rho_file": "ghost", "_config_dir": str(tmp_path)}
    with pytest.raises(ConfigError, match="not found"):
        run_smooth_vs_sharp(cfg, tmp_path / "out")


# ---------------------------------------------------------------------------
# Green operators
# ---------------------------------------------------------------------------

def _smooth_vs_sharp_config(tmp_path):
    rng = np.random.default_rng(2)
    rho = micro.gaussian_filter(
        ScalarField(make_grid(8), rng.uniform(0.0, 1.0, (8, 8))))
    save_field(tmp_path / "smooth", rho)
    return {"rho_file": "smooth", "contrasts": [100.0],
            "preconditioners": ["green"], "_config_dir": str(tmp_path)}


@pytest.mark.parametrize("runner, workers, make_config, assemblies", [
    (run_solve, None, lambda tmp_path: {
        "n": 8, "geometry": {"kind": "laminate", "p": 8, "chi_tot": 10.0}}, 1),
    (run_motivate, None, lambda tmp_path: {
        "n": 16, "stop_contrast": 2.0, "stride": 10, "max_steps": 20,
        "preconditioners": ["green"]}, 1),
    (run_smooth_vs_sharp, None, _smooth_vs_sharp_config, 1),
    (run_laminate_sweep, 1, lambda tmp_path: sweep_config(n_values=[8, 16]), 2),
    (run_laminate_sweep, 2, lambda tmp_path: sweep_config(n_values=[8, 16]), 2),
], ids=["solve", "motivate", "smooth-vs-sharp", "sweep-serial", "sweep-pool"])
def test_each_run_assembles_its_own_green(tmp_path, monkeypatch, runner,
                                          workers, make_config, assemblies):
    # one Green operator per grid size and run, none kept for the next run
    grids = []
    assemble = jfft.experiments.assemble_green

    def counted(grid, material):
        grids.append(grid.n)
        return assemble(grid, material)

    monkeypatch.setattr(jfft.experiments, "assemble_green", counted)
    monkeypatch.setattr(jfft.solver, "assemble_green", counted)
    cfg = make_config(tmp_path)
    extra = {} if workers is None else {"workers": workers}
    for run in range(2):
        grids.clear()
        runner(cfg, tmp_path / f"out{run}", **extra)
        assert len(grids) == assemblies, run


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_solve_success(tmp_path):
    cfg = write_config(tmp_path / "solve.json", {
        "n": 8,
        "geometry": {"kind": "cosine", "p": 8, "chi_tot": 100.0},
        "preconditioner": "green-jacobi",
    })
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "homogenized_stress.json").exists()


def test_cli_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path / "bad.json", {
        "n": 8,
        "geometry": {"kind": "laminate", "p": 8},
    })
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_missing_geometry_file_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "n": 8,
        "geometry": {"kind": "from-file", "path": "not-there"},
    })
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_solver_abort_exit_code(tmp_path):
    # an impossible inner budget makes the first objective evaluation abort
    cfg = write_config(tmp_path / "topopt.json", {
        "n": 8,
        "seed": 0,
        "max_outer": 2,
        "max_iter": 1,
        "eta_cg": 1e-14,
        "preconditioner": "none",
    })
    assert main(["topopt", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 3


def test_cli_laminate_sweep_with_threads(tmp_path):
    cfg = write_config(tmp_path / "sweep.json", {
        "p_values": [4],
        "n_values": [4, 8],
        "contrasts": [10.0],
        "preconditioners": ["green"],
    })
    code = main(["laminate-sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out"), "--threads", "2"])
    assert code == 0
    assert (tmp_path / "out" / "iterations.csv").exists()


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records the requested worker
    count and maps in this process, so no process is started."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells):
        return map(fn, cells)


@pytest.mark.parametrize("threads, cores, workers", [
    (100_000, 64, [2]), (100_000, 1, []), (2, 64, [2]), (1, 64, [])])
def test_sweep_workers_bounded_by_cells_and_cores(tmp_path, monkeypatch,
                                                  threads, cores, workers):
    monkeypatch.setattr(jfft.experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jfft.experiments.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(RecordingPool, "requested", [])
    cfg = {"p_values": [4], "n_values": [4, 8], "contrasts": [10.0],
           "preconditioners": ["green"]}
    rows = run_laminate_sweep(cfg, tmp_path / "out", workers=threads)
    assert RecordingPool.requested == workers
    serial = run_laminate_sweep(cfg, tmp_path / "serial", workers=1)
    assert ([row["iterations"] for row in rows]
            == [row["iterations"] for row in serial])


def test_cli_rejects_bad_threads(tmp_path):
    cfg = write_config(tmp_path / "sweep.json", {
        "p_values": [4], "n_values": [4], "contrasts": [10.0],
        "preconditioners": ["green"],
    })
    assert main(["laminate-sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out"), "--threads", "0"]) == 2


@pytest.mark.parametrize("command, cfg", [
    ("solve", {"n": 9, "geometry": {"kind": "cosine", "p": 3, "chi_tot": 100.0},
               "preconditioner": "green-jacobi"}),
    ("topopt", {"n": 9, "max_outer": 1}),
    ("topopt", {"n": 9, "max_outer": 1, "preconditioner": "green",
                "measure": ["jacobi"]}),
    ("laminate-sweep", {"p_values": [3], "n_values": [3], "contrasts": [10.0],
                        "preconditioners": ["jacobi"]}),
], ids=["solve", "topopt", "topopt-measure", "laminate-sweep"])
def test_cli_solves_odd_n_with_jacobi(tmp_path, command, cfg):
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("key, value", [
    ("eta_cg", float("nan")),
    ("eta_cg", float("inf")),
    ("eta_cg", 10 ** 400),
    ("chi_tot", float("nan")),
    ("eps_bar", [1.0, float("nan"), 0.0]),
    ("eps_bar", [True, 0, 0]),
], ids=["eta_cg-nan", "eta_cg-inf", "eta_cg-huge", "chi_tot-nan", "eps_bar-nan", "eps_bar-bool"])
def test_cli_rejects_non_finite_and_boolean_numbers(tmp_path, key, value):
    cfg = {"n": 8, "geometry": {"kind": "cosine", "p": 8, "chi_tot": 100.0}}
    if key == "chi_tot":
        cfg["geometry"]["chi_tot"] = value
    else:
        cfg[key] = value
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def solve_from_file(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "n": 8, "geometry": {"kind": "from-file", "path": "rho"}})
    return main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_cli_rejects_bad_density_file_values(tmp_path, bad):
    values = np.ones((8, 8))
    values[2, 3] = bad
    save_field(tmp_path / "rho", ScalarField(make_grid(8), values))
    assert solve_from_file(tmp_path) == 2


def test_cli_rejects_malformed_density_header(tmp_path):
    save_field(tmp_path / "rho", ScalarField.full(make_grid(8), 1.0))
    header = json.loads((tmp_path / "rho.json").read_text())
    del header["order"]
    (tmp_path / "rho.json").write_text(json.dumps(header))
    assert solve_from_file(tmp_path) == 2


def test_cli_rejects_quad_density_file(tmp_path):
    # field files hold scalar and vector fields only; a file of the former
    # quadrature kind (six planes) is an unknown kind
    with pytest.raises(TypeError):
        save_field(tmp_path / "rho", QuadField.zeros(make_grid(8)))
    save_field(tmp_path / "rho", ScalarField.full(make_grid(8), 1.0))
    header = json.loads((tmp_path / "rho.json").read_text())
    header["kind"] = "quad"
    (tmp_path / "rho.json").write_text(json.dumps(header))
    np.ones(6 * 8 * 8).astype("<f8").tofile(tmp_path / "rho.raw")
    assert solve_from_file(tmp_path) == 2


def _save_constant_rho(tmp_path):
    save_field(tmp_path / "rho", ScalarField.full(make_grid(8), 0.5))


def _save_rho_with_scalar_lengths(tmp_path):
    save_field(tmp_path / "rho", ScalarField.full(make_grid(8), 1.0))
    header = json.loads((tmp_path / "rho.json").read_text())
    header["lengths"] = 5
    (tmp_path / "rho.json").write_text(json.dumps(header))


@pytest.mark.parametrize("command, cfg, prepare", [
    ("solve", {"n": 8, "geometry": {"kind": "laminate", "p": 1, "chi_tot": 10.0}},
     None),
    ("solve", {"n": 8, "geometry": {"kind": "cosine", "p": 1, "chi_tot": 10.0}},
     None),
    ("solve", {"n": 8, "geometry": {"kind": "inclusion", "p": 8,
                                    "radius_fraction": 0.7}}, None),
    ("topopt", {"n": 1, "preconditioner": "green", "max_outer": 1}, None),
    ("topopt", {"n": 8, "preconditioner": "green", "max_outer": 1,
                "mu_target": -0.1}, None),
    ("topopt", {"n": 8, "preconditioner": "green", "max_outer": 1,
                "k_target": -1}, None),
    ("topopt", {"n": 8, "preconditioner": "green", "max_outer": 1,
                "seed": -3}, None),
    ("topopt", {"n": 8, "preconditioner": "green", "max_outer": -1}, None),
    ("smooth-vs-sharp", {"rho_file": "rho", "contrasts": [10.0],
                         "preconditioners": ["green"]}, _save_constant_rho),
    ("solve", {"n": 8, "geometry": {"kind": "from-file", "path": "rho"}},
     _save_rho_with_scalar_lengths),
], ids=["laminate-p1", "cosine-p1", "inclusion-radius", "topopt-n1",
        "topopt-mu-target", "topopt-k-target", "topopt-seed",
        "topopt-max-outer", "smooth-vs-sharp-constant", "from-file-lengths"])
def test_cli_rejects_out_of_range_config(tmp_path, command, cfg, prepare):
    if prepare is not None:
        prepare(tmp_path)
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_quickstart_demo_runs():
    demo = SRC.parent / "demos" / "quickstart.py"
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    kinds = [row[0] for row in rows
             if len(row) == 3 and row[1].isdigit()]
    assert kinds == ["none", "green", "jacobi", "green-jacobi"]


def test_import_leaves_scipy_unloaded():
    # importing scipy takes 0.25-0.30 s, more than importing this package
    code = "import sys, jfft.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "False"
