import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jfft import microstructures as micro
from jfft import operators
from jfft.grid import ScalarField, VectorField, make_grid
from jfft.operators import (SystemOperator, apply_system, assemble_rhs,
                            homogenized_stress)
from jfft.preconditioners import (Preconditioner, apply_green,
                                  apply_green_jacobi, apply_jacobi,
                                  assemble_green, assemble_jacobi,
                                  build_preconditioner)
from jfft.solver import (CONVERGED, ITERATION_CAP, SolverAbortError, pcg,
                         pcg_stack, solve_cell)
from jfft.topopt import TopOptConfig, lbfgs_minimize

from oracles import reference_pcg


def laminate_problem(n, chi, material):
    rho = micro.refine_to_grid(micro.laminate_density(n, chi), n)
    op = SystemOperator(rho, material)
    green = assemble_green(op.grid, material)
    return op, green


def test_zero_rhs_short_circuits(solid_material):
    op, green = laminate_problem(8, 10.0, solid_material)
    report = pcg(op, VectorField.zeros(op.grid),
                 build_preconditioner("green", op, green), green)
    assert report.iterations == 0
    assert report.terminated == CONVERGED
    assert report.residual_history == [0.0]
    assert np.abs(report.solution.values).max() == 0.0


def test_history_and_termination_contract(solid_material):
    op, green = laminate_problem(16, 1e4, solid_material)
    rhs = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
    for kind in ("none", "green", "jacobi", "green-jacobi"):
        report = pcg(op, rhs, build_preconditioner(kind, op, green), green,
                     eta=1e-6, max_iter=999)
        assert report.terminated == CONVERGED
        assert len(report.residual_history) == report.iterations + 1
        assert report.residual_history[-1] <= 1e-6
        assert all(v > 1e-6 for v in report.residual_history[:-1])


def test_iteration_cap_reported_not_raised(solid_material):
    op, green = laminate_problem(16, 1e4, solid_material)
    rhs = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
    report = pcg(op, rhs, build_preconditioner("jacobi", op, green), green,
                 eta=1e-12, max_iter=3)
    assert report.terminated == ITERATION_CAP
    assert report.iterations == 3
    assert len(report.residual_history) == 4


def test_solutions_agree_across_preconditioners(solid_material):
    op, green = laminate_problem(16, 1e4, solid_material)
    rhs = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
    solutions = {}
    for kind in ("none", "green", "jacobi", "green-jacobi"):
        report = pcg(op, rhs, build_preconditioner(kind, op, green), green,
                     eta=1e-10, max_iter=5000)
        assert report.terminated == CONVERGED
        solutions[kind] = report.solution.values
    scale = np.abs(solutions["green"]).max()
    for kind, values in solutions.items():
        assert np.abs(values - solutions["green"]).max() <= 1e-6 * scale


def test_solution_zero_mean(solid_material):
    op, green = laminate_problem(16, 100.0, solid_material)
    rhs = assemble_rhs(op, np.array([1.0, 0.0, -1.0]))
    report = pcg(op, rhs, build_preconditioner("green", op, green), green)
    means = report.solution.component_means()
    assert np.abs(means).max() <= 1e-12 * np.abs(report.solution.values).max()


def test_deterministic_reports(solid_material):
    op, green = laminate_problem(16, 1e3, solid_material)
    rhs = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
    pre = build_preconditioner("green-jacobi", op, green)
    first = pcg(op, rhs, pre, green)
    second = pcg(op, rhs, pre, green)
    assert first.iterations == second.iterations
    assert first.residual_history == second.residual_history
    assert np.array_equal(first.solution.values, second.solution.values)


def test_nan_rhs_aborts(solid_material):
    op, green = laminate_problem(8, 10.0, solid_material)
    bad = VectorField.zeros(op.grid)
    bad.values[0, 0, 0] = np.nan
    with pytest.raises(SolverAbortError):
        pcg(op, bad, build_preconditioner("green", op, green), green)


@pytest.mark.parametrize("solver", ["pcg", "solve_cell", "topopt"])
@pytest.mark.parametrize("stop,name", [
    ({"eta": np.nan}, "eta"), ({"eta": -1.0}, "eta"), ({"eta": 0.0}, "eta"),
    ({"eta": np.inf}, "eta"), ({"max_iter": -3}, "max_iter")],
    ids=["eta-nan", "eta-negative", "eta-zero", "eta-inf", "max_iter-negative"])
def test_unusable_stopping_parameters_rejected(solver, stop, name,
                                               solid_material):
    # NaN and negative tolerances ran to the iteration cap, an infinite one
    # stopped at once with a zero solution, and so did a negative cap
    op, green = laminate_problem(8, 10.0, solid_material)
    with pytest.raises(ValueError, match=name):
        if solver == "pcg":
            pcg(op, assemble_rhs(op, np.ones(3)),
                build_preconditioner("green", op, green), green, **stop)
        elif solver == "solve_cell":
            solve_cell(op.density, np.ones(3), "green", solid_material,
                       **stop)
        else:
            keys = {"eta": "eta_cg", "max_iter": "max_iter"}
            lbfgs_minimize(TopOptConfig(
                n=8, max_outer=2, **{keys[k]: v for k, v in stop.items()}))


def test_green_norm_is_measured_for_every_preconditioner(solid_material):
    # identical rhs: the k = 0 entry of the history is <f, G f> no matter
    # which preconditioner runs
    op, green = laminate_problem(8, 100.0, solid_material)
    rhs = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
    histories = [pcg(op, rhs, build_preconditioner(kind, op, green), green,
                     eta=1e-8).residual_history
                 for kind in ("none", "green", "jacobi", "green-jacobi")]
    first = histories[0][0]
    assert all(abs(h[0] - first) <= 1e-12 * first for h in histories)


def test_solve_cell_is_the_rhs_then_pcg_path(solid_material):
    rho = micro.refine_to_grid(micro.laminate_density(8, 100.0), 16)
    eps_bar = np.array([1.0, 1.0, 1.0])
    report = solve_cell(rho, eps_bar, "green", solid_material)
    op = SystemOperator(rho, solid_material)
    green = assemble_green(op.grid, solid_material)
    direct = pcg(op, assemble_rhs(op, eps_bar),
                 build_preconditioner("green", op, green), green)
    assert report.terminated == CONVERGED
    assert report.iterations == direct.iterations
    assert report.residual_history == direct.residual_history
    assert np.array_equal(report.solution.values, direct.solution.values)


def test_solve_cell_zero_load_takes_zero_iterations(solid_material):
    rho = ScalarField.full(make_grid(8), 1.0)
    report = solve_cell(rho, np.zeros(3), "green", solid_material)
    assert report.iterations == 0
    assert report.terminated == CONVERGED


def test_solve_cell_uniform_medium_stress(solid_material):
    grid = make_grid(8)
    rho = ScalarField.full(grid, 1.0)
    eps_bar = np.array([1.0, 1.0, 1.0])
    report = solve_cell(rho, eps_bar, "green", solid_material)
    op = SystemOperator(rho, solid_material)
    sigma = homogenized_stress(op, report.solution, eps_bar)
    assert np.allclose(sigma, [7.0 / 3.0, 7.0 / 3.0, 1.0], rtol=0, atol=1e-12)


def test_solve_cell_solution_satisfies_tolerance(solid_material):
    rho = micro.refine_to_grid(micro.cosine_density(8, 1e4), 16)
    report = solve_cell(rho, np.array([1.0, 1.0, 1.0]), "green-jacobi",
                        solid_material, eta=1e-6)
    op = SystemOperator(rho, solid_material)
    green = assemble_green(op.grid, solid_material)
    residual = assemble_rhs(op, np.array([1.0, 1.0, 1.0]))
    residual.values -= apply_system(op, report.solution).values
    gnorm2 = float(np.vdot(residual.values,
                           apply_green(green, residual).values))
    assert gnorm2 <= 1e-6 * 1.0001


def stack_problem(n, kind, material):
    """Random-density cell with a stack of five loads: the three canonical
    ones, a zero load that stops at k = 0 and a random one."""
    rng = np.random.default_rng(40 + n)
    rho = ScalarField(make_grid(n), rng.uniform(0.01, 1.0, (n, n)))
    op = SystemOperator(rho, material)
    green = assemble_green(op.grid, material)
    loads = np.vstack([np.eye(3), np.zeros((1, 3)), rng.normal(size=(1, 3))])
    return op, green, build_preconditioner(kind, op, green), loads


@pytest.mark.parametrize("n,kind", [
    (8, "none"), (8, "green"), (8, "jacobi"), (8, "green-jacobi"),
    (9, "none"), (9, "green"), (9, "jacobi"),
    (32, "none"), (32, "green"), (32, "jacobi"), (32, "green-jacobi"),
    # a stacked sum would already differ from the one-load sum here
    (128, "green-jacobi")])
def test_stacked_loads_bitwise_equal_solo_solves(n, kind, solid_material):
    op, green, pre, loads = stack_problem(n, kind, solid_material)
    reports = pcg_stack(op, assemble_rhs(op, loads), pre, green)
    assert len(reports) == len(loads)
    assert reports[3].iterations == 0
    assert len({r.iterations for r in reports}) > 2
    for report, load in zip(reports, loads):
        rhs = assemble_rhs(op, load)
        solo = pcg(op, rhs, pre, green)
        iterations, history, terminated, x = reference_pcg(op, rhs, pre, green)
        assert report.terminated == solo.terminated == terminated == CONVERGED
        assert report.iterations == solo.iterations == iterations
        assert report.residual_history == solo.residual_history == history
        assert np.array_equal(report.solution.values, solo.solution.values)
        assert np.array_equal(report.solution.values, x)


@pytest.mark.parametrize("kind", ["green", "jacobi", "green-jacobi"])
def test_banded_kernel_solves_bitwise_equal_whole_grid(kind, bands,
                                                       solid_material):
    n = 64
    rng = np.random.default_rng(64)
    op = SystemOperator(
        ScalarField(make_grid(n), rng.uniform(0.01, 1.0, (n, n))),
        solid_material)
    green = assemble_green(op.grid, solid_material)
    pre = build_preconditioner(kind, op, green)
    rhs = assemble_rhs(op, rng.normal(size=(3, 3)))
    bands.count = 0
    whole = pcg_stack(op, rhs, pre, green)
    passes = bands.count
    bands.force(5)
    banded = pcg_stack(op, rhs, pre, green)
    # 13 bands of 4 or 5 rows in every pass, however many loads still run
    assert bands.count - passes == 13 * passes
    for a, b in zip(banded, whole):
        assert a.terminated == b.terminated == CONVERGED
        assert a.iterations == b.iterations
        assert a.residual_history == b.residual_history
        assert np.array_equal(a.solution.values, b.solution.values)


def test_stack_at_iteration_cap_matches_solo_solves(solid_material):
    op, green, pre, loads = stack_problem(8, "jacobi", solid_material)
    solos = [pcg(op, assemble_rhs(op, load), pre, green, max_iter=11)
             for load in loads]
    reports = pcg_stack(op, assemble_rhs(op, loads), pre, green, max_iter=11)
    terminated = [r.terminated for r in reports]
    assert CONVERGED in terminated and ITERATION_CAP in terminated
    for report, solo in zip(reports, solos):
        assert report.terminated == solo.terminated
        assert report.iterations == solo.iterations <= 11
        assert report.residual_history == solo.residual_history
        assert np.array_equal(report.solution.values, solo.solution.values)


def test_stack_nan_in_one_load_aborts(solid_material):
    op, green, pre, loads = stack_problem(8, "green", solid_material)
    rhs = assemble_rhs(op, loads)
    rhs.values[1, 0, 0, 0] = np.nan
    with pytest.raises(SolverAbortError):
        pcg_stack(op, rhs, pre, green)
    with pytest.raises(ValueError, match="stack"):
        pcg_stack(op, assemble_rhs(op, loads[0]), pre, green)
    # B = 0 is no stack either
    with pytest.raises(ValueError, match="stack"):
        pcg_stack(op, VectorField(op.grid, np.empty((0, 2, 8, 8))), pre, green)
    # the same densities on a cell of other lengths: same n, other grid
    stretched = ScalarField(make_grid(8, (2.0, 0.5)), op.density.values)
    other = assemble_rhs(SystemOperator(stretched, solid_material), loads)
    with pytest.raises(ValueError, match="grid"):
        pcg_stack(op, other, pre, green)
    with pytest.raises(ValueError, match="grid"):
        pcg(op, VectorField(other.grid, other.values[0]), pre, green)


def test_foreign_jacobi_diagonal_rejected(solid_material):
    # the same densities on a cell of lengths (2.0, 0.5): solved with the
    # unit-grid operator, this diagonal used to converge in 32 iterations
    # instead of the 24 of the operator's own, without notice
    rho = np.random.default_rng(0).uniform(0.01, 1.0, (8, 8))
    op = SystemOperator(ScalarField(make_grid(8), rho), solid_material)
    other = SystemOperator(ScalarField(make_grid(8, (2.0, 0.5)), rho),
                           solid_material)
    green = assemble_green(op.grid, solid_material)
    rhs = assemble_rhs(op, np.ones(3))
    assert pcg(op, rhs, build_preconditioner("jacobi", op, green),
               green).iterations == 24
    foreign = assemble_jacobi(other)
    for pre in (Preconditioner(jacobi=foreign),
                Preconditioner(green=green, jacobi=foreign),
                Preconditioner(green=assemble_green(other.grid,
                                                    solid_material))):
        with pytest.raises(ValueError, match="grid"):
            pcg(op, rhs, pre, green)
    with pytest.raises(ValueError, match="grid"):
        apply_jacobi(foreign, rhs)
    with pytest.raises(ValueError, match="grid"):
        apply_green_jacobi(foreign, green, rhs)


def _traced_peak(solve) -> tuple[int, list]:
    tracemalloc.start()
    try:
        reports = solve()
        return tracemalloc.get_traced_memory()[1], reports
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["none", "green", "jacobi", "green-jacobi"])
@pytest.mark.parametrize("loads", [1, 3])
def test_solve_allocates_four_fields_per_load(kind, loads, solid_material):
    # x, r, p and one work buffer per load, allocated before the first
    # iteration: the peak does not grow with the iteration count
    n = 128
    rng = np.random.default_rng(90)
    rho = ScalarField(make_grid(n), rng.uniform(0.01, 1.0, (n, n)))
    op = SystemOperator(rho, solid_material)
    green = assemble_green(op.grid, solid_material)
    pre = build_preconditioner(kind, op, green)
    rhs = assemble_rhs(op, rng.normal(size=(loads, 3)))
    # the operators' workspaces grow to the stack once, outside the trace
    pcg_stack(op, rhs, pre, green, max_iter=2)
    field = 2 * n * n * 8
    peaks, longest = [], []
    for cap in (2, 40):
        peak, reports = _traced_peak(
            lambda: pcg_stack(op, rhs, pre, green, max_iter=cap))
        solutions = sum(r.solution.values.nbytes for r in reports)
        assert peak <= 4 * loads * field + solutions + 256 * 1024, (
            peak / field / loads)
        peaks.append(peak)
        longest.append(max(r.iterations for r in reports))
    assert longest[0] == 2 < longest[1]
    assert abs(peaks[1] - peaks[0]) <= 16 * 1024


@pytest.mark.parametrize("kind", ["none", "green", "jacobi", "green-jacobi"])
@pytest.mark.parametrize("loads", [1, 3])
def test_first_solve_holds_three_spectral_planes_per_load(kind, loads,
                                                          solid_material):
    # the first stacked solve on fresh operators grows their workspaces
    # inside the trace: the four fields per load, three spectral planes per
    # load (every kind measures the Green norm) and K's workspace, where a
    # stack outgrows the one load it was built for; a fourth spectral plane
    # would add 130 KB per load
    n = 128
    rng = np.random.default_rng(92)
    rho = ScalarField(make_grid(n), rng.uniform(0.01, 1.0, (n, n)))
    # the right-hand side on a twin operator, so that the solve's is fresh
    rhs = assemble_rhs(SystemOperator(rho, solid_material),
                       rng.normal(size=(loads, 3)))
    op = SystemOperator(rho, solid_material)
    green = assemble_green(op.grid, solid_material)
    pre = build_preconditioner(kind, op, green)
    built = (op._strain, op._planes)
    peak, reports = _traced_peak(
        lambda: pcg_stack(op, rhs, pre, green, max_iter=2))
    field = 2 * n * n * 8
    planes = 3 * loads * n * (n // 2 + 1) * 16
    workspace = sum(buffer.nbytes for buffer in (op._strain, op._planes)
                    if not any(buffer is old for old in built))
    # copies of x when more than one load stops at once
    solutions = sum(r.solution.values.nbytes for r in reports
                    if r.solution.values.flags.owndata)
    # 20 to 27 KB above the sum measured on numpy 2.4.6
    assert peak <= (4 * loads * field + planes + workspace + solutions
                    + 64 * 1024), (
        (peak - 4 * loads * field - planes - workspace - solutions) / 1024)


def _banded_solve_excess(kind, material):
    """Peak of building K, its right-hand side and the ``kind``
    preconditioner at n = 512 and solving, less the four fields, one band
    of the operator's workspace, the solution and ``diagonal`` planes of
    Jacobi diagonal, in KB."""
    n = 512
    rng = np.random.default_rng(91)
    rho = ScalarField(make_grid(n), rng.uniform(0.01, 1.0, (n, n)))
    green = assemble_green(rho.grid, material)
    # the Green operator's spectra grow once, outside the trace
    apply_green(green, VectorField.zeros(rho.grid))

    def solve():
        op = SystemOperator(rho, material)
        return pcg_stack(op, assemble_rhs(op, rng.normal(size=(1, 3))),
                         build_preconditioner(kind, op, green), green,
                         max_iter=2)

    peak, reports = _traced_peak(solve)
    field, plane = 2 * n * n * 8, n * n * 8
    count = operators._band_count(n, 1)
    band = (8 + 2 + 1) * (-(-n // count) + 2) * n * 8
    solution = reports[0].solution.values.nbytes
    diagonal = 1 if kind == "green-jacobi" else 0
    return (peak - 4 * field - diagonal * plane - band - solution) / 1024


def test_banded_solve_holds_one_band_of_operator_workspace(solid_material):
    # at n = 512 K runs in row bands and scales by the density itself:
    # building the operator, the right-hand side and the solve hold the
    # four fields, one band of the operator's workspace and the solution,
    # and neither a w rho plane (which would add 2 MB) nor a whole-grid
    # operator buffer (16 MB); 52 KB above the sum measured on numpy 2.4.6
    assert _banded_solve_excess("green", solid_material) <= 256


def test_banded_green_jacobi_solve_holds_half_a_field_of_diagonal(
        solid_material):
    # on square pixels the two components of the Jacobi diagonal are one
    # plane; a second plane would add 2 MB
    assert _banded_solve_excess("green-jacobi", solid_material) <= 256


# one process per BLAS thread count: OpenBLAS reads the variable at load time
_THREADS_CHILD = """
import hashlib, json
import numpy as np
from jfft import microstructures as micro
from jfft import operators
from jfft.grid import dot
from jfft.material import MaterialModel
from jfft.solver import solve_cell
from jfft.topopt import _two_loop_direction

rho = micro.refine_to_grid(micro.laminate_density(16, 1e4), 128)
report = solve_cell(rho, np.ones(3), "jacobi", MaterialModel(2 / 3, 0.5))
rng = np.random.default_rng(7)
memory = []
for _ in range(10):
    s = rng.standard_normal((128, 128))
    y = s + 0.5 * rng.standard_normal((128, 128))
    memory.append((s, y, 1.0 / dot(s, y)))
direction = _two_loop_direction(rng.standard_normal((128, 128)), memory)
print(json.dumps({
    "iterations": report.iterations,
    "history": [value.hex() for value in report.residual_history],
    "solution": hashlib.sha256(report.solution.values.tobytes()).hexdigest(),
    "direction": hashlib.sha256(direction.tobytes()).hexdigest(),
}))
"""


def test_counts_and_iterates_independent_of_blas_threads():
    # fields of 2 * 128^2 entries, where OpenBLAS would thread a dot
    src = Path(__file__).resolve().parents[1] / "src"
    results = []
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_CHILD], capture_output=True,
            text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src),
                 "OPENBLAS_NUM_THREADS": threads})
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout))
    one, two = results
    assert one["iterations"] == two["iterations"]
    assert one["history"] == two["history"]
    assert one["solution"] == two["solution"]
    assert one["direction"] == two["direction"]
