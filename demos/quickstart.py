"""Solve one periodic elasticity cell problem with all four preconditioners.

The microstructure is the two-cosine pattern with material contrast 10^4,
sampled on a coarse 16^2 lattice and carried to a 64^2 finite-element grid.
Every solver run reports its iteration count against the same Green-norm
termination test, so the counts are directly comparable.
"""

import numpy as np

from jfft import (MaterialModel, SystemOperator, assemble_green, assemble_rhs,
                  build_preconditioner, homogenized_stress, pcg)
from jfft.microstructures import cosine_density, refine_to_grid

n = 64
material = MaterialModel(2.0 / 3.0, 0.5)
rho = refine_to_grid(cosine_density(16, 1e4), n)

op = SystemOperator(rho, material)
green = assemble_green(op.grid, material)
eps_bar = np.array([1.0, 1.0, 1.0])
rhs = assemble_rhs(op, eps_bar)

print(f"cosine microstructure, 16^2 sampling on a {n}^2 grid, contrast 1e4")
print(f"{'preconditioner':>14s} {'iterations':>10s} {'final |r|_G^2':>14s}")
for kind in ("none", "green", "jacobi", "green-jacobi"):
    precond = build_preconditioner(kind, op, green)
    result = pcg(op, rhs, precond, green, eta=1e-6, max_iter=999)
    print(f"{kind:>14s} {result.iterations:>10d} "
          f"{result.residual_history[-1]:>14.3e}")

result = pcg(op, rhs, build_preconditioner("green-jacobi", op, green), green)
sigma = homogenized_stress(op, result.solution, eps_bar)
print("\nhomogenized stress for the unit macroscopic strain:")
print(f"  sigma_bar = [{sigma[0]:.6f}, {sigma[1]:.6f}, {sigma[2]:.6f}]")
