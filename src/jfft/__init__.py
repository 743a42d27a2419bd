"""Matrix-free solvers for periodic small-strain elasticity cell problems
on regular 2D grids, with Green, Jacobi, and Green-Jacobi preconditioned
conjugate gradients, plus the experiment harness built on them."""

from .fem import cell_average, sym_gradient, sym_gradient_adjoint
from .grid import (Grid, QuadField, ScalarField, VectorField, fft_forward,
                   fft_inverse, load_field, make_grid, save_field)
from .material import MaterialModel, isotropic_material, stress
from .operators import (SystemOperator, apply_system, assemble_rhs,
                        homogenized_stress, make_operator, total_strain)
from .preconditioners import (GreenOperator, JacobiDiagonal, Preconditioner,
                              apply_green, apply_green_jacobi, apply_jacobi,
                              assemble_green, assemble_jacobi,
                              build_preconditioner)
from .solver import (CONVERGED, ITERATION_CAP, SolveReport, SolverAbortError,
                     pcg, pcg_stack, solve_cell)
from .topopt import (OptHistory, TopOptConfig, lbfgs_minimize,
                     target_stiffness)

__version__ = "0.1.0"
