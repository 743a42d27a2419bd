"""Prepared layers: a K, preconditioner or Green norm prepared once and run
many times gives, at every run, bitwise what the one-shot function and the
oracle give on what its input buffer holds at that run; and it holds
views, not fields."""

import tracemalloc

import numpy as np
import pytest

from jfft import operators
from jfft.grid import ScalarField, VectorField, make_grid
from jfft.operators import apply_system, make_operator, prepare_system
from jfft.preconditioners import (assemble_green, build_preconditioner,
                                  green_norm2, prepare_green_norm2)

from oracles import reference_apply_green, reference_apply_k

SIZES = pytest.mark.parametrize("n", [2, 3, 8, 9, 32])
# (1, 1.5) makes the differences divide: 1.5 / n is no power of two
LENGTHS = pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5)])
LOADS = pytest.mark.parametrize("loads", [1, 3])
RUNS = 3


def cell(n, lengths, loads, material, seed):
    """Operator, Green operator, an input field whose buffer the runs
    refill, and an output buffer."""
    rng = np.random.default_rng(seed)
    grid = make_grid(n, lengths)
    op = make_operator(ScalarField(grid, rng.uniform(0.01, 1.0, (n, n))),
                       material)
    shape = (2, n, n) if loads == 1 else (loads, 2, n, n)
    field = VectorField(grid, np.zeros(shape))
    return rng, op, assemble_green(grid, material), field, np.empty(shape)


def per_load(values):
    return values.reshape((-1,) + values.shape[-3:])


@SIZES
@LENGTHS
@LOADS
def test_prepared_k_runs_match_one_shot_and_oracle(n, lengths, loads,
                                                   solid_material):
    rng, op, _, u, out = cell(n, lengths, loads, solid_material, 10 + n)
    run = prepare_system(op, u, out)
    c0, rho = solid_material.stiffness, op.density.values
    for _ in range(RUNS):
        u.values[...] = rng.normal(size=u.values.shape)
        assert run().values is out
        assert np.array_equal(out, apply_system(op, u).values)
        for ku, uj in zip(per_load(out), per_load(u.values)):
            assert np.array_equal(ku, reference_apply_k(uj, rho, c0, lengths))


def oracle(kind, pre, green, r):
    """One load's ``M r`` from the einsum Green form and the diagonal."""
    if kind == "none":
        return r
    if kind == "green":
        return reference_apply_green(green, r)
    d = pre.jacobi.inv_sqrt
    if kind == "jacobi":
        return d * r * d
    return reference_apply_green(green, d * r) * d


@SIZES
@LENGTHS
@LOADS
@pytest.mark.parametrize("kind", ["none", "green", "jacobi", "green-jacobi"])
def test_prepared_preconditioner_runs_match_one_shot_and_oracle(
        n, lengths, loads, kind, solid_material):
    rng, op, green, r, out = cell(n, lengths, loads, solid_material, 20 + n)
    pre = build_preconditioner(kind, op, green)
    run = pre.prepare(r, out)
    for _ in range(RUNS):
        r.values[...] = rng.normal(size=r.values.shape)
        assert run().values is out
        assert np.array_equal(out, pre.apply(r).values)
        for z, rj in zip(per_load(out), per_load(r.values)):
            assert np.array_equal(z, oracle(kind, pre, green, rj))


@SIZES
@LENGTHS
@LOADS
def test_prepared_green_norm_runs_match_one_shot_and_oracle(
        n, lengths, loads, solid_material):
    rng, _, green, r, _ = cell(n, lengths, loads, solid_material, 30 + n)
    run = prepare_green_norm2(green, r)
    for _ in range(RUNS):
        r.values[...] = rng.normal(size=r.values.shape)
        values = run()
        assert values == green_norm2(green, r)
        values = [values] if loads == 1 else values
        for value, rj in zip(values, per_load(r.values)):
            expected = float(np.vdot(rj, reference_apply_green(green, rj)))
            assert abs(value - expected) <= 1e-12 * abs(expected)


def held_and_peak(call):
    """Bytes that ``call``'s result keeps alive, and the peak above the
    start while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held - base, peak - base


def k_cell(n, loads, material):
    _, op, _, u, out = cell(n, (1.0, 1.0), loads, material, n)
    apply_system(op, u, out=out)  # the workspace is grown
    return op, u, out


@LOADS
def test_prepared_whole_grid_k_holds_under_32_kb(loads, bands,
                                                  solid_material):
    op, u, out = k_cell(32, loads, solid_material)
    held, _ = held_and_peak(lambda: prepare_system(op, u, out))
    assert held < 32 * 1024
    run = prepare_system(op, u, out)
    bands.count = 0
    run()
    run()
    assert bands.count == 2


@LOADS
def test_banded_k_holds_two_band_plans_and_a_few_steps_per_band(
        loads, bands, solid_material):
    # a whole-grid K's plan, which is as large as one band height's
    small = k_cell(32, loads, solid_material)
    plan, _ = held_and_peak(lambda: prepare_system(*small))
    op, u, out = k_cell(512, loads, solid_material)
    held, _ = held_and_peak(lambda: prepare_system(op, u, out))
    run = prepare_system(op, u, out)
    bands.count = 0
    _, peak = held_and_peak(run)
    count = operators._band_count(512, loads)
    assert bands.count == count >= 11
    # one plan per band height, of which there are two, and its copy and
    # scaling steps per band: 33 KB for 11 bands and 47 KB for 35 bands
    # measured, 0.4-0.6 KB per band beyond the two plans, where one plan
    # per band would hold 13-14 KB per band; a run prepares nothing
    assert held < 2 * plan + count * 1024 < count * plan, (plan, held)
    assert peak < 4 * 1024, (plan, held, peak)
