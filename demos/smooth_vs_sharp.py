"""Convergence on a smooth density field versus its thresholded twin.

A smooth structured field (filtered noise from a short optimization run)
is affinely rescaled to a sequence of total contrasts and also thresholded
into a two-phase layout at the same contrasts.  Green-Jacobi handles the
smooth high-contrast fields best; the plain Green preconditioner prefers
the sharp two-phase ones and is almost insensitive to their contrast.
"""

import numpy as np

from jfft import (TopOptConfig, assemble_green, isotropic_material,
                  lbfgs_minimize, solve_cell)
from jfft.microstructures import rescale_contrast, threshold

rho, _ = lbfgs_minimize(TopOptConfig(n=64, seed=1, max_outer=40,
                                     preconditioner="green-jacobi"))
material = isotropic_material(2.0 / 3.0, 0.5)
green = assemble_green(rho.grid, material)
eps_bar = np.array([1.0, 1.0, 1.0])

print(f"{'variant':>8s} {'contrast':>9s} {'green':>7s} {'green-jacobi':>13s}")
for chi in (1e2, 1e5, 1e8):
    for variant, field in (("smooth", rescale_contrast(rho, chi)),
                           ("sharp", threshold(rho, chi))):
        counts = {kind: solve_cell(field, eps_bar, kind, material,
                                   green).iterations
                  for kind in ("green", "green-jacobi")}
        print(f"{variant:>8s} {chi:>9.0e} {counts['green']:>7d} "
              f"{counts['green-jacobi']:>13d}")
