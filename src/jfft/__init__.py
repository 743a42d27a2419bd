"""Matrix-free solvers for periodic small-strain elasticity cell problems
on regular 2D grids, with Green, Jacobi, and Green-Jacobi preconditioned
conjugate gradients, plus the experiment harness built on them."""

from .grid import (Grid, ScalarField, VectorField, load_field, make_grid,
                   save_field)
from .material import MaterialModel
from .operators import SystemOperator, assemble_rhs, homogenized_stress
from .preconditioners import (GreenOperator, Preconditioner, assemble_green,
                              build_preconditioner)
from .solver import (CONVERGED, ITERATION_CAP, SolveReport, SolverAbortError,
                     pcg, pcg_stack, solve_cell)
from .topopt import OptHistory, TopOptConfig, lbfgs_minimize

__version__ = "0.1.0"
