"""Density-scaled isotropic linear elasticity in Mandel notation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import QuadField, ScalarField, sequence, step


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic solid phase of finite Lame parameters that make ``C0``
    positive definite; local stiffness is ``rho * C0``.

    ``stiffness`` is the read-only ``C0`` in 2D Mandel components, built
    from ``lambda0`` and ``mu0``::

        [[lambda + 2 mu, lambda,        0    ]
         [lambda,        lambda + 2 mu, 0    ]
         [0,             0,             2 mu ]]

    It has no coupling between normal and shear components, which
    :func:`prepare_stiffness_product` relies on.  Parameters follow the 3D
    convention, i.e. the bulk modulus of the solid phase is
    ``lambda + 2 mu / 3``.
    """

    lambda0: float
    mu0: float
    stiffness: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam, mu = float(self.lambda0), float(self.mu0)
        for name, value in (("lambda", lam), ("mu", mu)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if mu <= 0.0 or lam + mu <= 0.0:
            raise ValueError(
                f"stiffness not positive definite (lambda={lam}, mu={mu})")
        c = np.array([
            [lam + 2.0 * mu, lam, 0.0],
            [lam, lam + 2.0 * mu, 0.0],
            [0.0, 0.0, 2.0 * mu],
        ])
        c.flags.writeable = False
        object.__setattr__(self, "stiffness", c)

    def __reduce__(self):
        # rebuilt from the parameters, so a copy's matrix is read-only too
        return MaterialModel, (self.lambda0, self.mu0)


# ``bench/`` is the only caller of this name; it goes with benchmark v2
isotropic_material = MaterialModel


def prepare_stiffness_product(c: np.ndarray, eps: np.ndarray,
                              planes: np.ndarray):
    """Overwrite Mandel planes ``eps`` (3, 2, ..., n, n) with ``c eps``,
    as often as run, for ``c`` a material's ``C0`` or a multiple of it.

    Written out for the isotropic pattern: ``c00 e0 + c01 e1``,
    ``c10 e0 + c11 e1`` and ``c22 e2``, triangle by triangle, with
    ``planes`` (2, ..., n, n) as scratch.  The axes marked ``...`` are load
    axes.
    """
    c0_of_e0, c1_of_e0 = planes
    steps = []
    for t in range(2):
        e0, e1 = eps[0, t], eps[1, t]
        steps += [step(np.multiply, e0, c[1, 0], c1_of_e0),
                  step(np.multiply, e0, c[0, 0], c0_of_e0),
                  step(np.multiply, e1, c[0, 1], e0),
                  step(np.add, e0, c0_of_e0, e0),
                  step(np.multiply, e1, c[1, 1], e1),
                  step(np.add, e1, c1_of_e0, e1)]
    shear = eps[2]
    steps.append(step(np.multiply, shear, c[2, 2], shear))
    return sequence(steps)


def stress(rho: ScalarField, material: MaterialModel, eps: QuadField) -> QuadField:
    """Local stress ``sigma_Q = rho(pixel(Q)) * C0 * eps_Q``.

    Both triangles of a pixel share the pixel's density value.
    """
    if rho.grid != eps.grid:
        raise ValueError("density and strain live on different grids")
    sig = eps.values.copy()
    prepare_stiffness_product(material.stiffness, sig,
                              np.empty((2,) + sig.shape[2:]))()
    sig *= rho.values
    return QuadField(eps.grid, sig)
