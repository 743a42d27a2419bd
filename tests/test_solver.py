import numpy as np
import pytest

from jfft import microstructures as micro
from jfft.grid import ScalarField, VectorField, make_grid
from jfft.operators import (apply_system, assemble_rhs, homogenized_stress,
                            make_operator)
from jfft.preconditioners import assemble_green, build_preconditioner
from jfft.preconditioners import apply_green
from jfft.solver import (CONVERGED, ITERATION_CAP, SolverAbortError, pcg,
                         pcg_stack, solve_cell)

from oracles import reference_pcg


def laminate_problem(n, chi, material):
    rho = micro.refine_to_grid(micro.laminate_density(n, chi), n)
    op = make_operator(rho, material)
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
    op = make_operator(rho, solid_material)
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
    op = make_operator(rho, solid_material)
    sigma = homogenized_stress(op, report.solution, eps_bar)
    assert np.allclose(sigma, [7.0 / 3.0, 7.0 / 3.0, 1.0], rtol=0, atol=1e-12)


def test_solve_cell_solution_satisfies_tolerance(solid_material):
    rho = micro.refine_to_grid(micro.cosine_density(8, 1e4), 16)
    report = solve_cell(rho, np.array([1.0, 1.0, 1.0]), "green-jacobi",
                        solid_material, eta=1e-6)
    op = make_operator(rho, solid_material)
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
    op = make_operator(rho, material)
    green = assemble_green(op.grid, material)
    loads = np.vstack([np.eye(3), np.zeros((1, 3)), rng.normal(size=(1, 3))])
    return op, green, build_preconditioner(kind, op, green), loads


@pytest.mark.parametrize("n,kind", [
    (8, "none"), (8, "green"), (8, "jacobi"), (8, "green-jacobi"),
    (9, "none"), (9, "green"),
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
