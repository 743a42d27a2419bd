"""The package's public surface: the names ``jfft`` exports, and the
docstring cross-references of its modules."""

import importlib
import inspect
import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import jfft
from jfft import (MaterialModel, Preconditioner, ScalarField, SystemOperator,
                  TopOptConfig, VectorField, assemble_green, make_grid,
                  solve_cell)
from jfft.grid import QuadField
from jfft.preconditioners import assemble_jacobi
from jfft.topopt import evaluate, make_problem

SRC = Path(jfft.__file__).parent
MODULES = {path.stem: importlib.import_module(f"jfft.{path.stem}")
           for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}

#: What the README quick start, the demo, the CLI and the studies use.
PUBLIC = {
    "Grid", "ScalarField", "VectorField", "make_grid", "load_field",
    "save_field",
    "MaterialModel", "SystemOperator", "assemble_rhs", "homogenized_stress",
    "GreenOperator", "Preconditioner", "assemble_green",
    "build_preconditioner",
    "pcg", "pcg_stack", "solve_cell", "SolveReport", "SolverAbortError",
    "CONVERGED", "ITERATION_CAP",
    "TopOptConfig", "OptHistory", "lbfgs_minimize",
}

#: A Sphinx role naming a function, method, class or attribute.
ROLE = re.compile(r":(?:func|meth|class|attr):`~?([\w.]+)`")


def test_package_exports_exactly_the_documented_names():
    exported = {name for name, value in vars(jfft).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC


def _resolves(target: str, module) -> bool:
    """``target`` is an attribute path from ``module``, from a class of
    ``module`` or from a module of the package, or starts at ``jfft``."""
    path = target.split(".")
    if path[0] == "jfft":
        starts, path = [jfft], path[1:]
    else:
        starts = [module, *MODULES.values(),
                  *(value for value in vars(module).values()
                    if inspect.isclass(value))]
    return any(reduce(lambda value, name: getattr(value, name, None),
                      path, start) is not None for start in starts)


def test_docstring_cross_references_resolve():
    unresolved = []
    for stem, module in MODULES.items():
        for target in ROLE.findall((SRC / f"{stem}.py").read_text()):
            if not _resolves(target, module):
                unresolved.append(f"{stem}: {target}")
    assert not unresolved


#: A layer the README names: a backticked ``prepare_*`` or ``apply_*``
#: function, or a class's ``prepare`` method.
LAYER = re.compile(r"`((?:\w+\.)*(?:prepare|apply)_\w+|\w+\.prepare)`")


def test_readme_layer_names_resolve():
    readme = (SRC.parents[1] / "README.md").read_text()
    names = LAYER.findall(readme)
    assert "Preconditioner.prepare" in names
    assert [name for name in names if not _resolves(name, jfft)] == []


def test_readme_quick_start_converges():
    # the first python block under the heading, run as a reader would
    readme = (SRC.parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].terminated == "converged"


GRID = make_grid(8)
MATERIAL = MaterialModel(2.0 / 3.0, 0.5)
DENSITY = ScalarField(GRID, np.linspace(0.1, 1.0, 64).reshape(8, 8))
PROBLEM = make_problem(TopOptConfig(n=8, preconditioner="green"))
GREEN = assemble_green(GRID, MATERIAL)
JACOBI = assemble_jacobi(SystemOperator(DENSITY, MATERIAL))

#: Builders of a fresh instance of each container that holds arrays; some
#: share their parts between instances, some do not.
HOLDERS = {
    "ScalarField": lambda: ScalarField.full(GRID, 1.0),
    "VectorField": lambda: VectorField.zeros(GRID),
    "QuadField": lambda: QuadField(GRID, np.zeros((3, 2, 8, 8))),
    "SystemOperator": lambda: SystemOperator(DENSITY, MATERIAL),
    "SystemOperator-fresh-density": lambda: SystemOperator(
        ScalarField.full(GRID, 1.0), MATERIAL),
    "GreenOperator": lambda: assemble_green(GRID, MATERIAL),
    "JacobiDiagonal": lambda: assemble_jacobi(SystemOperator(DENSITY,
                                                             MATERIAL)),
    "Preconditioner": lambda: Preconditioner(GREEN, JACOBI),
    "SolveReport": lambda: solve_cell(DENSITY, [1.0, 1.0, 1.0], "green",
                                      MATERIAL, GREEN),
    "TopOptProblem": lambda: make_problem(PROBLEM.cfg),
    "Evaluation": lambda: evaluate(PROBLEM, DENSITY.values),
}


@pytest.mark.parametrize("name", HOLDERS)
def test_array_holders_compare_by_identity(name):
    # the generated __eq__ compared arrays and raised "truth value of an
    # array is ambiguous", and the classes were unhashable
    a, b = HOLDERS[name](), HOLDERS[name]()
    assert a is not b and a != b and not a == b
    assert a == a and not a != a
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("build", [
    lambda: make_grid(8, (1.0, 2.0)),
    lambda: TopOptConfig(n=8, measure=("green",))])
def test_value_types_compare_by_value(build):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
