"""Density-scaled isotropic linear elasticity in Mandel notation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import QuadField, ScalarField


@dataclass(frozen=True)
class MaterialModel:
    """Base stiffness of the solid phase; local stiffness is ``rho * C0``.

    ``C0`` has the isotropic Mandel pattern of :func:`isotropic_material`
    (no coupling between normal and shear components), which
    :func:`stiffness_product_into` relies on.
    """

    lambda0: float
    mu0: float
    stiffness: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.stiffness, dtype=np.float64)
        if c.shape != (3, 3) or np.any(c[:2, 2] != 0.0) or np.any(c[2, :2] != 0.0):
            raise ValueError("stiffness must be a 3x3 Mandel matrix without "
                             "normal-shear coupling")
        object.__setattr__(self, "stiffness", c)


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


def stiffness_product_into(material: MaterialModel, eps: np.ndarray,
                           planes: np.ndarray) -> None:
    """Overwrite Mandel planes ``eps`` (..., 3, 2, n, n) with ``C0 eps``.

    Written out for the isotropic pattern: ``c00 e0 + c01 e1``,
    ``c10 e0 + c11 e1`` and ``c22 e2``, triangle by triangle, with
    ``planes`` (2, ..., n, n) as scratch.  Leading axes are load axes.
    """
    c = material.stiffness
    c0_of_e0, c1_of_e0 = planes
    for t in range(2):
        e0, e1 = eps[..., 0, t, :, :], eps[..., 1, t, :, :]
        np.multiply(e0, c[1, 0], out=c1_of_e0)
        np.multiply(e0, c[0, 0], out=c0_of_e0)
        np.multiply(e1, c[0, 1], out=e0)
        e0 += c0_of_e0
        e1 *= c[1, 1]
        e1 += c1_of_e0
    eps[..., 2, :, :, :] *= c[2, 2]


def stress(rho: ScalarField, material: MaterialModel, eps: QuadField) -> QuadField:
    """Local stress ``sigma_Q = rho(pixel(Q)) * C0 * eps_Q``.

    Both triangles of a pixel share the pixel's density value.
    """
    if rho.grid != eps.grid:
        raise ValueError("density and strain live on different grids")
    sig = eps.values.copy()
    stiffness_product_into(material, sig, np.empty((2,) + sig.shape[2:]))
    sig *= rho.values
    return QuadField(eps.grid, sig)
