"""Experiment harness behind the command line: validated JSON configs in,
CSV/JSON artifacts out.

Every runner copies the exact configuration it executed into the output
directory, so results are reproducible from the output folder alone.  CSV
files carry a schema-version comment in their first line.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import microstructures as micro
from .grid import ScalarField, finite_number, load_field, make_grid, save_field
from .material import MaterialModel, isotropic_material
from .operators import homogenized_stress, make_operator
from .preconditioners import PRECONDITIONER_KINDS, assemble_green
from .solver import (DEFAULT_ETA_CG, DEFAULT_LAMBDA0, DEFAULT_MAX_ITER,
                     DEFAULT_MU0, SolveReport, solve_cell)
from .topopt import OptHistory, TopOptConfig, lbfgs_minimize

DEFAULT_EPS_BAR = (1.0, 1.0, 1.0)

#: Sweep axes default to powers of two on desk scale; the paper-scale 1024
#: cells are opt-in via the ``full_scale`` flag.
DESK_SCALE_MAX_N = 2 ** 8
FULL_SCALE_MAX_N = 2 ** 10
DEFAULT_SWEEP_SIZES = tuple(2 ** k for k in range(2, 9))


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the key."""


# ----------------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------------

def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    cfg["_config_dir"] = str(path.parent)
    return cfg


def _get(cfg: dict, key: str, kinds, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value = cfg[key]
    if kinds is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")
        return value
    if kinds is float:
        if not finite_number(value):
            raise ConfigError(
                f"key {key!r}: expected a finite number, got {value!r}")
        return float(value)
    if kinds is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kinds):
        raise ConfigError(f"key {key!r}: unexpected type {type(value).__name__}")
    return value


def _contrast(value, key: str) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return np.inf
        raise ConfigError(f"key {key!r}: bad contrast {value!r}")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and np.isnan(value))):
        raise ConfigError(f"key {key!r}: bad contrast {value!r}")
    if value < 1.0:
        raise ConfigError(f"key {key!r}: contrast must be >= 1, got {value}")
    return float(value)


def _material(cfg: dict) -> MaterialModel:
    mat = _get(cfg, "material", dict, default={})
    lam = _get(mat, "lambda0", float, default=DEFAULT_LAMBDA0)
    mu = _get(mat, "mu0", float, default=DEFAULT_MU0)
    try:
        return isotropic_material(lam, mu)
    except ValueError as exc:
        raise ConfigError(f"key 'material': {exc}") from exc


def _eps_bar(cfg: dict) -> np.ndarray:
    raw = _get(cfg, "eps_bar", list, default=list(DEFAULT_EPS_BAR))
    if len(raw) != 3 or not all(finite_number(v) for v in raw):
        raise ConfigError(
            f"key 'eps_bar': expected three finite numbers, got {raw!r}")
    return np.asarray(raw, dtype=float)


def _preconditioner_name(name, key: str) -> str:
    if name not in PRECONDITIONER_KINDS:
        raise ConfigError(
            f"key {key!r}: unknown preconditioner {name!r}; "
            f"choose one of {PRECONDITIONER_KINDS}")
    return name


def _solver_opts(cfg: dict) -> tuple[float, int]:
    eta = _get(cfg, "eta_cg", float, default=DEFAULT_ETA_CG)
    cap = _get(cfg, "max_iter", int, default=DEFAULT_MAX_ITER)
    if eta <= 0 or cap < 1:
        raise ConfigError("keys 'eta_cg'/'max_iter': need eta_cg > 0, max_iter >= 1")
    return eta, cap


def _generate(key: str, generator, *args) -> ScalarField:
    """Run a density generator; its range checks become config errors."""
    try:
        return generator(*args)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def _inclusion(cfg: dict, key: str, p: int) -> ScalarField:
    return _generate(key, micro.inclusion_density, p,
                     _get(cfg, "rho_soft", float, default=1e-4),
                     _get(cfg, "radius_fraction", float, default=0.25))


#: Generators of the geometries given by a resolution ``p`` and a contrast.
_GEOMETRIES = {"laminate": micro.laminate_density,
               "cosine": micro.cosine_density}


def build_geometry(spec: dict, config_dir: str) -> ScalarField:
    """Resolve a geometry spec to a density field on its sampling lattice."""
    if not isinstance(spec, dict):
        raise ConfigError("key 'geometry': expected an object")
    kind = _get(spec, "kind", str, required=True)
    if kind in _GEOMETRIES:
        p = _get(spec, "p", int, required=True)
        if "chi_tot" not in spec:
            raise ConfigError("missing required key 'geometry.chi_tot'")
        return _generate("geometry", _GEOMETRIES[kind], p,
                         _contrast(spec["chi_tot"], "geometry.chi_tot"))
    if kind == "inclusion":
        return _inclusion(spec, "geometry", _get(spec, "p", int, required=True))
    if kind == "from-file":
        rho = _load_density(config_dir, _get(spec, "path", str, required=True),
                            "geometry.path")
        if np.any(rho.values < 0.0):
            raise ConfigError("key 'geometry.path': negative density")
        return rho
    raise ConfigError(f"key 'geometry.kind': unknown geometry {kind!r}")


def _load_density(config_dir: str, rel: str, key: str) -> ScalarField:
    """Read a finite density field from a file named in a config.

    Negative values pass: smooth-vs-sharp rescales the field it reads, which
    may be an unconstrained optimizer iterate."""
    base = Path(config_dir) / rel
    if not (base.parent / (base.name + ".json")).exists():
        raise ConfigError(f"geometry file not found: {base}.json")
    try:
        rho = load_field(base)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if not isinstance(rho, ScalarField):
        raise ConfigError(f"key {key!r}: {base} is not a scalar field")
    if not np.all(np.isfinite(rho.values)):
        raise ConfigError(f"key {key!r}: {base} holds non-finite densities")
    return rho


def _begin_run(cfg: dict, expected: str, out_dir) -> Path:
    """Check the config's experiment tag, then copy the config into the
    output directory."""
    tag = _get(cfg, "experiment", str, default=expected)
    if tag != expected:
        raise ConfigError(
            f"key 'experiment': config says {tag!r} but the "
            f"{expected!r} command was invoked")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    copy = {k: v for k, v in cfg.items() if not k.startswith("_")}
    with open(out_dir / "config.json", "w") as fh:
        json.dump(copy, fh, indent=2, default=str)
        fh.write("\n")
    return out_dir


def _write_csv(path: Path, schema: str, fieldnames: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_residuals(path: Path, report: SolveReport) -> None:
    _write_csv(path, "residual-history v1", ["k", "green_norm_squared"],
               ({"k": k, "green_norm_squared": repr(v)}
                for k, v in enumerate(report.residual_history)))


def _fmt_chi(chi: float) -> str:
    return "inf" if np.isinf(chi) else f"{chi:.6g}"


# ----------------------------------------------------------------------------
# single solve
# ----------------------------------------------------------------------------

def run_solve(cfg: dict, out_dir: Path) -> tuple[SolveReport, np.ndarray]:
    """Solve one cell problem and write solution/residuals/stress artifacts."""
    out_dir = _begin_run(cfg, "solve", out_dir)
    n = _get(cfg, "n", int, required=True)
    geometry = build_geometry(_get(cfg, "geometry", dict, required=True),
                              cfg.get("_config_dir", "."))
    try:
        rho = micro.refine_to_grid(geometry, n)
    except ValueError as exc:
        raise ConfigError(f"key 'n': {exc}") from exc
    material = _material(cfg)
    kind = _preconditioner_name(
        _get(cfg, "preconditioner", str, default="green"), "preconditioner")
    eta, cap = _solver_opts(cfg)
    eps_bar = _eps_bar(cfg)

    report = solve_cell(rho, eps_bar, kind, material, eta=eta, max_iter=cap)
    sigma = homogenized_stress(make_operator(rho, material), report.solution,
                               eps_bar)

    save_field(out_dir / "solution", report.solution)
    _write_residuals(out_dir / "residual_history.csv", report)
    with open(out_dir / "homogenized_stress.json", "w") as fh:
        json.dump({
            "eps_bar": list(eps_bar),
            "sigma_bar": [float(s) for s in sigma],
            "iterations": report.iterations,
            "terminated": report.terminated,
            "preconditioner": kind,
        }, fh, indent=2)
        fh.write("\n")
    return report, sigma


# ----------------------------------------------------------------------------
# iteration-count sweeps over (preconditioner, p, n, contrast)
# ----------------------------------------------------------------------------

SWEEP_COLUMNS = ["experiment", "preconditioner", "p", "n", "chi_tot",
                 "iterations", "terminated", "wall_time"]


def _sweep_cell(args) -> dict:
    (family, kind, p, n, chi, material, green, eps_bar, eta, cap) = args
    rho = micro.refine_to_grid(_GEOMETRIES[family](p, chi), n)
    report = solve_cell(rho, np.asarray(eps_bar), kind, material, green,
                        eta, cap)
    return {
        "experiment": f"{family}-sweep",
        "preconditioner": kind,
        "p": p,
        "n": n,
        "chi_tot": _fmt_chi(chi),
        "iterations": report.iterations,
        "terminated": report.terminated,
        "wall_time": round(report.wall_time, 6),
    }


def _sweep_axes(cfg: dict) -> tuple[list[int], list[int]]:
    full = _get(cfg, "full_scale", bool, default=False)
    cap = FULL_SCALE_MAX_N if full else DESK_SCALE_MAX_N
    default = [s for s in DEFAULT_SWEEP_SIZES if s <= cap]
    p_values = _get(cfg, "p_values", list, default=default)
    n_values = _get(cfg, "n_values", list, default=default)
    for label, values in (("p_values", p_values), ("n_values", n_values)):
        if not values or not all(isinstance(v, int) and v >= 2 for v in values):
            raise ConfigError(f"key {label!r}: expected integers >= 2")
        if max(values) > cap:
            hint = "" if full else "; set full_scale=true for paper-scale sweeps"
            raise ConfigError(
                f"key {label!r}: {max(values)} exceeds the "
                f"{'full' if full else 'desk'}-scale cap {cap}{hint}")
    return sorted(p_values), sorted(n_values)


def _run_sweep(family: str, cfg: dict, out_dir: Path, workers: int) -> list[dict]:
    out_dir = _begin_run(cfg, f"{family}-sweep", out_dir)
    p_values, n_values = _sweep_axes(cfg)
    contrasts = [_contrast(c, "contrasts")
                 for c in _get(cfg, "contrasts", list, required=True)]
    if family == "laminate" and any(np.isinf(c) for c in contrasts):
        raise ConfigError("key 'contrasts': laminate contrast must be finite")
    kinds = [_preconditioner_name(k, "preconditioners") for k in
             _get(cfg, "preconditioners", list,
                  default=["green", "jacobi", "green-jacobi"])]
    material = _material(cfg)
    eta, cap = _solver_opts(cfg)
    eps_bar = tuple(_eps_bar(cfg))

    # one Green operator per grid size, pickled into the cells of a pool
    greens = {n: assemble_green(make_grid(n), material) for n in n_values
              if any(n % p == 0 for p in p_values)}
    cells = [(family, kind, p, n, chi, material, greens[n], eps_bar, eta, cap)
             for kind in kinds
             for chi in contrasts
             for p in p_values
             for n in n_values
             if n % p == 0]
    # the pool forks all its workers at the first submit
    workers = min(workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    _write_csv(out_dir / "iterations.csv", "iteration-table v1",
               SWEEP_COLUMNS, rows)
    return rows


def run_laminate_sweep(cfg: dict, out_dir: Path, workers: int = 1) -> list[dict]:
    return _run_sweep("laminate", cfg, out_dir, workers)


def run_cosine_sweep(cfg: dict, out_dir: Path, workers: int = 1) -> list[dict]:
    return _run_sweep("cosine", cfg, out_dir, workers)


# ----------------------------------------------------------------------------
# motivating filter study
# ----------------------------------------------------------------------------

MOTIVATE_COLUMNS = ["experiment", "preconditioner", "p", "n", "chi_tot",
                    "step", "iterations", "terminated", "wall_time"]


def run_motivate(cfg: dict, out_dir: Path) -> list[dict]:
    """Iteration counts while a sharp inclusion is smeared step by step.

    The density is filtered once per step; the cell problem is solved for
    each configured preconditioner every ``stride`` steps and always at the
    final step, where the total contrast has dropped to the stop value.
    """
    out_dir = _begin_run(cfg, "motivate", out_dir)
    n = _get(cfg, "n", int, default=256)
    rho = _inclusion(cfg, "rho_soft/radius_fraction/n", n)
    stop_contrast = _get(cfg, "stop_contrast", float, default=100.0)
    stride = _get(cfg, "stride", int, default=1)
    max_steps = _get(cfg, "max_steps", int, default=100_000)
    if stride < 1:
        raise ConfigError("key 'stride': must be >= 1")
    kinds = [_preconditioner_name(k, "preconditioners") for k in
             _get(cfg, "preconditioners", list,
                  default=["green", "green-jacobi"])]
    material = _material(cfg)
    eta, cap = _solver_opts(cfg)
    eps_bar = _eps_bar(cfg)
    green = assemble_green(rho.grid, material)

    rows = []
    step = 0
    while True:
        contrast = micro.total_contrast(rho)
        done = contrast <= stop_contrast or step >= max_steps
        if step % stride == 0 or done:
            for kind in kinds:
                report = solve_cell(rho, eps_bar, kind, material, green,
                                    eta, cap)
                rows.append({
                    "experiment": "motivate",
                    "preconditioner": kind,
                    "p": n,
                    "n": n,
                    "chi_tot": _fmt_chi(contrast),
                    "step": step,
                    "iterations": report.iterations,
                    "terminated": report.terminated,
                    "wall_time": round(report.wall_time, 6),
                })
        if done:
            break
        rho = micro.gaussian_filter(rho)
        step += 1
    _write_csv(out_dir / "motivate.csv", "motivate-table v1",
               MOTIVATE_COLUMNS, rows)
    return rows


# ----------------------------------------------------------------------------
# topology optimization
# ----------------------------------------------------------------------------

#: Keys of a topopt config passed to :class:`TopOptConfig` as they are,
#: with their types; the dataclass owns their defaults.
_TOPOPT_KEYS = {"eta_pf": float, "k_target": float, "mu_target": float,
                "lbfgs_memory": int, "max_outer": int, "objective_tol": float,
                "seed": int, "preconditioner": str}


def _topopt_config(cfg: dict) -> tuple[TopOptConfig, int]:
    measure = _get(cfg, "measure", list, default=[])
    kinds = tuple(_preconditioner_name(k, "measure") for k in measure)
    material = _material(cfg)
    eta, cap = _solver_opts(cfg)
    n = _get(cfg, "n", int, required=True)
    given = {key: _get(cfg, key, kind) for key, kind in _TOPOPT_KEYS.items()
             if key in cfg}
    if "preconditioner" in given:
        _preconditioner_name(given["preconditioner"], "preconditioner")
    try:
        topt = TopOptConfig(n=n, lambda0=material.lambda0, mu0=material.mu0,
                            measure=kinds, eta_cg=eta, max_iter=cap, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return topt, _get(cfg, "snapshot_stride", int, default=0)


def _history_rows(history: OptHistory) -> tuple[list[str], list[dict]]:
    # every record counts the same kinds: the driving one and the measured
    kinds = list(history.inner_iterations[0])
    columns = ["outer", "objective", "stress_part", "phase_part"]
    for kind in kinds:
        columns += [f"iters_{kind}_load{g}" for g in range(3)]
    rows = []
    for outer, counts in enumerate(history.inner_iterations):
        row = {
            "outer": outer,
            "objective": repr(history.objective[outer]),
            "stress_part": repr(history.stress_part[outer]),
            "phase_part": repr(history.phase_part[outer]),
        }
        for kind in kinds:
            for g in range(3):
                row[f"iters_{kind}_load{g}"] = counts[kind][g]
        rows.append(row)
    return columns, rows


def run_topopt(cfg: dict, out_dir: Path) -> tuple[ScalarField, OptHistory]:
    """Optimize a density layout and write history, snapshots, and summary."""
    out_dir = _begin_run(cfg, "topopt", out_dir)
    topt_cfg, stride = _topopt_config(cfg)

    def snapshot(outer: int, rho: ScalarField):
        if stride > 0 and outer % stride == 0:
            save_field(out_dir / f"rho_{outer:06d}", rho)

    rho_opt, history = lbfgs_minimize(topt_cfg, callback=snapshot)
    save_field(out_dir / "rho_final", rho_opt)
    columns, rows = _history_rows(history)
    _write_csv(out_dir / "history.csv", "topopt-history v1", columns, rows)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump({
            "status": history.status,
            "outer_iterations": len(history.objective) - 1,
            "objective": history.objective[-1],
            "stress_part": history.stress_part[-1],
            "phase_part": history.phase_part[-1],
        }, fh, indent=2)
        fh.write("\n")
    return rho_opt, history


# ----------------------------------------------------------------------------
# smooth versus sharp interphases
# ----------------------------------------------------------------------------

def run_smooth_vs_sharp(cfg: dict, out_dir: Path) -> dict:
    """Residual histories for a smooth density and its thresholded twin.

    The smooth field is affinely rescaled to each requested contrast; the
    sharp field thresholds the original at one half.  Both variants are
    solved with every configured preconditioner.
    """
    out_dir = _begin_run(cfg, "smooth-vs-sharp", out_dir)
    rho_smooth = _load_density(cfg.get("_config_dir", "."),
                               _get(cfg, "rho_file", str, required=True),
                               "rho_file")
    contrasts = [_contrast(c, "contrasts")
                 for c in _get(cfg, "contrasts", list,
                               default=[1e2, 1e5, 1e8])]
    kinds = [_preconditioner_name(k, "preconditioners") for k in
             _get(cfg, "preconditioners", list,
                  default=["green", "green-jacobi"])]
    material = _material(cfg)
    eta, cap = _solver_opts(cfg)
    eps_bar = _eps_bar(cfg)
    green = assemble_green(rho_smooth.grid, material)

    reports = {}
    for chi in contrasts:
        variants = {
            "smooth": _generate("rho_file", micro.rescale_contrast, rho_smooth, chi),
            "sharp": micro.threshold(rho_smooth, chi),
        }
        for variant, rho in variants.items():
            for kind in kinds:
                report = solve_cell(rho, eps_bar, kind, material, green,
                                    eta, cap)
                reports[(variant, chi, kind)] = report
                name = f"residuals_{variant}_chi{_fmt_chi(chi)}_{kind}.csv"
                _write_residuals(out_dir / name, report)
    summary = [{
        "variant": variant,
        "chi_tot": _fmt_chi(chi),
        "preconditioner": kind,
        "iterations": rep.iterations,
        "terminated": rep.terminated,
    } for (variant, chi, kind), rep in sorted(
        reports.items(), key=lambda item: (item[0][0], item[0][1], item[0][2]))]
    _write_csv(out_dir / "summary.csv", "smooth-vs-sharp v1",
               ["variant", "chi_tot", "preconditioner", "iterations",
                "terminated"], summary)
    return reports
