"""Density-scaled isotropic linear elasticity in Mandel notation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import QuadField, ScalarField


@dataclass(frozen=True)
class MaterialModel:
    """Base stiffness of the solid phase; local stiffness is ``rho * C0``."""

    lambda0: float
    mu0: float
    stiffness: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "stiffness",
                           np.asarray(self.stiffness, dtype=np.float64))


def isotropic_material(lambda0: float, mu0: float) -> MaterialModel:
    """Isotropic Mandel stiffness from the Lame parameters.

    In 2D Mandel components the matrix is::

        [[lambda + 2 mu, lambda,        0    ]
         [lambda,        lambda + 2 mu, 0    ]
         [0,             0,             2 mu ]]

    Parameters follow the 3D convention, i.e. the bulk modulus of the solid
    phase is ``lambda + 2 mu / 3``.
    """
    lam, mu = float(lambda0), float(mu0)
    if mu <= 0.0 or lam + mu <= 0.0:
        raise ValueError(
            f"stiffness not positive definite (lambda={lam}, mu={mu})")
    c = np.array([
        [lam + 2.0 * mu, lam, 0.0],
        [lam, lam + 2.0 * mu, 0.0],
        [0.0, 0.0, 2.0 * mu],
    ])
    return MaterialModel(lam, mu, c)


def stress(rho: ScalarField, material: MaterialModel, eps: QuadField) -> QuadField:
    """Local stress ``sigma_Q = rho(pixel(Q)) * C0 * eps_Q``.

    Both triangles of a pixel share the pixel's density value.
    """
    if rho.grid != eps.grid:
        raise ValueError("density and strain live on different grids")
    sig = np.einsum("mk,ktij->mtij", material.stiffness, eps.values)
    sig *= rho.values[None, None, :, :]
    return QuadField(eps.grid, sig)

