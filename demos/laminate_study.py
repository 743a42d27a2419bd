"""Iteration counts on the graded laminate while sampling and mesh refine.

Reproduces the desk-scale laminate study: the Green preconditioner is
exactly mesh independent but degrades as the number of sampled layers
grows; Jacobi degrades with mesh refinement instead; the Green-Jacobi
composition stays flat in both directions.
"""

import numpy as np

from jfft import assemble_green, isotropic_material, solve_cell
from jfft.microstructures import laminate_density, refine_to_grid

material = isotropic_material(2.0 / 3.0, 0.5)
chi = 1e4
sizes = [8, 16, 32, 64]

greens = {}
for kind in ("green", "jacobi", "green-jacobi"):
    print(f"\n{kind} preconditioner, laminate contrast {chi:g}")
    header = "p \\ n " + "".join(f"{n:>6d}" for n in sizes)
    print(header)
    for p in sizes:
        row = f"{p:>5d} "
        for n in sizes:
            if n % p:
                row += "     -"
                continue
            rho = refine_to_grid(laminate_density(p, chi), n)
            if n not in greens:
                greens[n] = assemble_green(rho.grid, material)
            report = solve_cell(rho, np.array([1.0, 1.0, 1.0]), kind,
                                material, greens[n])
            row += f"{report.iterations:>6d}"
        print(row)

print("\nGreen columns are constant (mesh independence); Jacobi rows grow "
      "with n; Green-Jacobi stays small everywhere.")
