import numpy as np
import pytest

import jfft.topopt
from jfft.grid import ScalarField, dot, make_grid
from jfft.topopt import (DENSITY_FLOOR, TopOptConfig, evaluate, lbfgs_minimize,
                         make_problem, target_stiffness,
                         _measured_counts, _phase_field_parts,
                         _two_loop_direction)

from oracles import (dense_average_stress, dense_equilibrium,
                     reference_solve_load_cases)


def tight_problem(n=8, kind="green"):
    return make_problem(TopOptConfig(n=n, eta_cg=1e-12, max_iter=5000,
                                     preconditioner=kind))


def test_target_stiffness_matrix():
    c = target_stiffness(0.025, 0.15).stiffness
    expected = np.array([
        [0.225, -0.075, 0.0],
        [-0.075, 0.225, 0.0],
        [0.0, 0.0, 0.3],
    ])
    assert np.allclose(c, expected, rtol=0, atol=1e-15)


def test_target_engineering_constants():
    # the paper-style targets correspond to a soft auxetic material
    k_t, mu_t = 0.025, 0.15
    young = 9.0 * k_t * mu_t / (3.0 * k_t + mu_t)
    poisson = (3.0 * k_t - 2.0 * mu_t) / (6.0 * k_t + 2.0 * mu_t)
    assert young == pytest.approx(0.15)
    assert poisson == pytest.approx(-0.5)


def test_target_stress_per_load():
    # row gamma of the targets is the target stress under Mandel load gamma
    cfg = TopOptConfig(n=4)
    c = target_stiffness(cfg.k_target, cfg.mu_target).stiffness
    targets = make_problem(cfg).targets
    for gamma in range(3):
        assert np.allclose(targets[gamma], c[:, gamma], rtol=0, atol=1e-15)


def test_objective_uniform_solid(solid_material):
    problem = tight_problem()
    ev = evaluate(problem, np.ones((8, 8)))
    expected_stress = float(((solid_material.stiffness
                              - problem.targets.T) ** 2).sum())
    assert ev.phase_part == pytest.approx(0.0, abs=1e-12)
    assert ev.stress_part == pytest.approx(expected_stress, rel=1e-10)
    assert ev.value == pytest.approx(expected_stress, rel=1e-10)


def test_objective_half_density_double_well():
    problem = tight_problem()
    ev = evaluate(problem, np.full((8, 8), 0.5))
    # rho = 1/2 maximizes the double well: 0.0625 / eta per unit volume
    assert ev.phase_part == pytest.approx(0.0625 / 0.01, rel=1e-12)


def test_objective_matches_dense_direct_solver(solid_material):
    rng = np.random.default_rng(0)
    problem = tight_problem()
    rho = rng.uniform(0.2, 1.0, size=(8, 8))

    f_stress = 0.0
    for gamma in range(3):
        load = np.zeros(3)
        load[gamma] = 1.0
        u = dense_equilibrium(8, rho, solid_material.stiffness, load)
        sigma = dense_average_stress(8, rho, solid_material.stiffness, load, u)
        f_stress += float(((sigma - problem.targets[gamma]) ** 2).sum())

    # independent rebuild of the phase-field term
    dx = 1.0 / 8
    d1 = (np.roll(rho, -1, axis=0) - rho) / dx
    d2 = (np.roll(rho, -1, axis=1) - rho) / dx
    f_pf = 0.01 * dx * dx * float((d1 ** 2 + d2 ** 2).sum()) \
        + dx * dx / 0.01 * float((rho ** 2 * (1 - rho) ** 2).sum())

    ev = evaluate(problem, rho)
    assert ev.stress_part == pytest.approx(f_stress, rel=1e-10)
    assert ev.phase_part == pytest.approx(f_pf, rel=1e-12)
    assert ev.value == pytest.approx(f_stress + f_pf, rel=1e-10)


def test_gradient_uniform_density_is_uniform(solid_material):
    problem = tight_problem()
    grad = evaluate(problem, np.ones((8, 8))).gradient
    # translation symmetry: identical entry on every pixel, zero phase part
    assert np.abs(grad - grad[0, 0]).max() <= 1e-10 * abs(grad[0, 0])


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    problem = tight_problem()
    rho = rng.uniform(0.2, 0.9, size=(8, 8))
    ev = evaluate(problem, rho)
    h = 1e-6
    for _ in range(10):
        i, j = rng.integers(8), rng.integers(8)
        up = rho.copy()
        up[i, j] += h
        dn = rho.copy()
        dn[i, j] -= h
        fd = (evaluate(problem, up).value - evaluate(problem, dn).value) / (2 * h)
        assert abs(fd - ev.gradient[i, j]) <= 1e-5 * abs(fd)


@pytest.mark.parametrize("n,kind", [(8, "green-jacobi"), (16, "green"),
                                    (16, "jacobi"), (9, "none")])
def test_evaluate_bitwise_equal_sequential_solves(n, kind, monkeypatch):
    problem = make_problem(TopOptConfig(n=n, preconditioner=kind))
    rho = np.random.default_rng(11).uniform(0.0, 1.0, size=(n, n))
    stacked = evaluate(problem, rho)
    counts = _measured_counts(problem, rho, ("green", kind))
    monkeypatch.setattr(jfft.topopt, "_solve_load_cases",
                        reference_solve_load_cases)
    sequential = evaluate(problem, rho)
    assert stacked.value == sequential.value
    assert np.array_equal(stacked.gradient, sequential.gradient)
    assert stacked.inner_counts == sequential.inner_counts
    assert counts[kind] == sequential.inner_counts
    assert counts["green"] == reference_solve_load_cases(
        problem, ScalarField(problem.grid, np.maximum(rho, DENSITY_FLOOR)),
        "green")[1]


def test_phase_field_parts_scale_with_eta():
    # doubling eta doubles the gradient-penalty share and halves the
    # double-well share, for values and gradients alike
    rng = np.random.default_rng(4)
    grid = make_grid(8)
    rho = rng.uniform(0.0, 1.0, size=(8, 8))
    f1, g1 = _phase_field_parts(TopOptConfig(n=8, eta_pf=0.01), grid, rho)
    f2, g2 = _phase_field_parts(TopOptConfig(n=8, eta_pf=0.02), grid, rho)
    dx = 1.0 / 8
    d1 = (np.roll(rho, -1, 0) - rho) / dx
    d2 = (np.roll(rho, -1, 1) - rho) / dx
    a = dx * dx * float((d1 ** 2 + d2 ** 2).sum())
    b = dx * dx * float((rho ** 2 * (1 - rho) ** 2).sum())
    assert f1 == pytest.approx(0.01 * a + b / 0.01, rel=1e-12)
    assert f2 == pytest.approx(0.02 * a + b / 0.02, rel=1e-12)
    # solve g(eta) = eta * ga + gb / eta from two etas, predict a third
    ga = (2.0 * g2 - g1) / 0.03
    gb = (g1 - 0.01 * ga) * 0.01
    f4, g4 = _phase_field_parts(TopOptConfig(n=8, eta_pf=0.04), grid, rho)
    assert np.allclose(0.04 * ga + gb / 0.04, g4, rtol=1e-9, atol=1e-12)


def test_phase_field_nonnegative_and_zero_on_pure_phases():
    grid = make_grid(8)
    cfg = TopOptConfig(n=8)
    for value in (0.0, 1.0):
        f, g = _phase_field_parts(cfg, grid, np.full((8, 8), value))
        assert f == 0.0
        assert np.abs(g).max() == 0.0
    rng = np.random.default_rng(5)
    f, _ = _phase_field_parts(cfg, grid, rng.uniform(0, 1, (8, 8)))
    assert f > 0.0


def reference_two_loop(grad, s_hist, y_hist):
    """The two-loop recursion with each curvature ``1 / <s, y>`` taken
    afresh in both loops."""
    q = grad.copy()
    alphas = []
    for s, y in reversed(list(zip(s_hist, y_hist))):
        alphas.append((1.0 / dot(s, y)) * dot(s, q))
        q -= alphas[-1] * y
    q *= dot(s_hist[-1], y_hist[-1]) / dot(y_hist[-1], y_hist[-1])
    for s, y, a in zip(s_hist, y_hist, reversed(alphas)):
        q += (a - (1.0 / dot(s, y)) * dot(y, q)) * s
    return -q


def test_two_loop_direction_bitwise_equal_reference():
    rng = np.random.default_rng(11)
    s_hist = [rng.standard_normal((16, 16)) for _ in range(4)]
    y_hist = [s + 0.3 * rng.standard_normal((16, 16)) for s in s_hist]
    memory = [(s, y, 1.0 / dot(s, y)) for s, y in zip(s_hist, y_hist)]
    grad = rng.standard_normal((16, 16))
    direction = _two_loop_direction(grad, memory)
    assert np.array_equal(direction, reference_two_loop(grad, s_hist, y_hist))
    # the newest pair satisfies the secant equation H y = s
    assert np.allclose(-_two_loop_direction(y_hist[-1], memory), s_hist[-1],
                       rtol=1e-10, atol=1e-10)
    assert np.array_equal(_two_loop_direction(grad, []), -grad)


def test_lbfgs_objective_non_increasing():
    cfg = TopOptConfig(n=8, seed=1, max_outer=25, eta_cg=1e-8)
    _, history = lbfgs_minimize(cfg)
    diffs = np.diff(history.objective)
    assert np.all(diffs <= 0.0)
    assert len(history.inner_iterations) == len(history.objective)


def test_lbfgs_stationary_start():
    # uniform solid density with targets equal to the solid response is a
    # global minimum: the run stops immediately with a ~zero objective
    cfg = TopOptConfig(n=8, k_target=1.0, mu_target=0.5, max_outer=50,
                       eta_cg=1e-10)
    rho0 = ScalarField.full(make_grid(8), 1.0)
    rho, history = lbfgs_minimize(cfg, rho0=rho0)
    assert len(history.objective) <= 3
    assert history.objective[-1] <= 1e-12
    assert np.abs(rho.values - 1.0).max() <= 1e-9


@pytest.mark.parametrize("grid", [make_grid(16), make_grid(8, (2.0, 0.5))])
def test_lbfgs_rejects_start_on_other_grid(grid):
    cfg = TopOptConfig(n=8, max_outer=1)
    with pytest.raises(ValueError, match="grid"):
        lbfgs_minimize(cfg, rho0=ScalarField.full(grid, 1.0))


def test_lbfgs_deterministic():
    cfg = TopOptConfig(n=8, seed=7, max_outer=10, eta_cg=1e-8)
    _, first = lbfgs_minimize(cfg)
    _, second = lbfgs_minimize(cfg)
    assert first.objective == second.objective
    assert first.inner_iterations == second.inner_iterations


def test_lbfgs_records_measured_preconditioners():
    cfg = TopOptConfig(n=8, seed=2, max_outer=5, eta_cg=1e-8,
                       preconditioner="green-jacobi", measure=("green",))
    _, history = lbfgs_minimize(cfg)
    for counts in history.inner_iterations:
        assert set(counts) == {"green-jacobi", "green"}
        assert all(len(v) == 3 for v in counts.values())


@pytest.mark.parametrize("field, value, match", [
    ("eta_pf", np.inf, "eta_pf"), ("eta_pf", np.nan, "eta_pf"),
    ("eta_pf", -1.0, "eta_pf"), ("lambda0", np.nan, "lambda0"),
    ("lambda0", np.inf, "lambda0"), ("mu0", np.nan, "mu0"),
    ("mu0", np.inf, "mu0"), ("k_target", np.nan, "k_target"),
    ("mu_target", np.inf, "mu_target")])
def test_config_rejects_non_finite_parameters(field, value, match):
    # these ran and failed later: eta_pf=inf ended with an infinite
    # objective, the others as a non-finite density or Jacobi diagonal
    with pytest.raises(ValueError, match=match):
        TopOptConfig(n=8, max_outer=2, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("objective_tol", np.nan), ("objective_tol", np.inf),
    ("objective_tol", -1e-6), ("eta_cg", np.nan), ("eta_cg", np.inf),
    ("eta_cg", 0.0), ("max_iter", -1), ("max_iter", 0),
    ("preconditioner", "ilu"), ("measure", ("green", "ilu"))])
def test_config_rejects_ignored_or_later_failing_values(field, value):
    # objective_tol=nan turned the convergence test off; the others were
    # accepted and raised inside the first evaluation
    with pytest.raises(ValueError, match=field):
        TopOptConfig(n=8, max_outer=2, **{field: value})


def test_config_validation():
    with pytest.raises(ValueError):
        TopOptConfig(n=8, eta_pf=0.0)
    with pytest.raises(ValueError):
        TopOptConfig(n=8, lbfgs_memory=0)
