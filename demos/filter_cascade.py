"""Green versus Green-Jacobi while a sharp inclusion is smeared out.

A compliant circular inclusion (contrast 1e4) is repeatedly convolved with
the 3x3 binomial kernel.  With sharp interfaces the plain Green
preconditioner wins; as soon as the data become smooth while the contrast
is still high, the Green-Jacobi composition takes over, until the contrast
itself has decayed.  Desk-scale version of the study on a 64^2 grid.
"""

import numpy as np

from jfft import assemble_green, isotropic_material, solve_cell
from jfft.microstructures import (gaussian_filter, inclusion_density,
                                  total_contrast)

n = 64
material = isotropic_material(2.0 / 3.0, 0.5)
rho = inclusion_density(n, rho_soft=1e-4, radius_fraction=0.25)
green = assemble_green(rho.grid, material)
eps_bar = np.array([1.0, 1.0, 1.0])

print(f"{'step':>5s} {'contrast':>10s} {'green':>7s} {'green-jacobi':>13s}")
step = 0
while True:
    contrast = total_contrast(rho)
    done = contrast <= 100.0
    if step % 5 == 0 or done:
        counts = {kind: solve_cell(rho, eps_bar, kind, material,
                                   green).iterations
                  for kind in ("green", "green-jacobi")}
        print(f"{step:>5d} {contrast:>10.1f} {counts['green']:>7d} "
              f"{counts['green-jacobi']:>13d}")
    if done:
        break
    rho = gaussian_filter(rho)
    step += 1
