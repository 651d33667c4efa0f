"""Densities of fixed total mass and their square-root images on the sphere.

A density is the Radon-Nikodym derivative of a measure with respect to the
reference volume form, sampled on the grid.  Its pointwise square root lies
on the sphere of radius sqrt(mass) in L^2; under the convention
mass = total grid volume the radius is sqrt(mu(M)) and the uniform density
maps to the constant function 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MassMismatch, NegativeDensity, NonFiniteInput, NonPositiveInput
from .errors import OffSphere, ValidationError
from .grid import PeriodicGrid, ScalarField, integrate, l2_inner

# the largest share of the mass that negative values (roundoff) may carry;
# sqrt_map drops them, which moves |sqrt ρ|² off the sphere by that share
POSITIVITY_TOL = 1e-12
MASS_TOL = 1e-10  # of a quadrature against its mass, and between two masses
# of |f|² against r²: both tolerances above, so every admitted density has a
# square root, and 1e-13 for the roundoff of √ρ² and of the two quadratures
SPHERE_TOL = MASS_TOL + POSITIVITY_TOL + 1e-13


@dataclass(frozen=True)
class Density:
    """Non-negative field integrating to ``mass`` (to ``MASS_TOL`` of it).

    Negative values are roundoff: together they may carry at most
    ``POSITIVITY_TOL`` of the mass, the one negativity rule of the package.
    ``degenerate`` marks densities that arose by squaring a sign-changing
    sphere point (the continuation of a flow past blowup); such densities
    have genuine zeros.
    """

    field: ScalarField
    mass: float
    degenerate: bool = False

    def __post_init__(self):
        values = self.field.values
        if not (np.all(np.isfinite(values)) and np.isfinite(self.mass)):
            raise NonFiniteInput("density values and mass must be finite")
        if not self.mass > 0.0:
            raise NonPositiveInput(f"density mass must be positive, got {self.mass!r}")
        if self.grid.node_weight * np.sum(np.minimum(values, 0.0)) < -POSITIVITY_TOL * self.mass:
            raise NegativeDensity("density values must be non-negative")
        total = integrate(self.field)
        if abs(total - self.mass) > MASS_TOL * abs(self.mass):
            raise MassMismatch(
                f"density integrates to {total!r}, expected mass {self.mass!r}"
            )

    @property
    def grid(self) -> PeriodicGrid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values


@dataclass(frozen=True)
class SpherePoint:
    """Square root of a density: a point on the radius-r sphere in L^2 (to SPHERE_TOL)."""

    field: ScalarField
    radius: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.field.values)) and np.isfinite(self.radius)):
            raise NonFiniteInput("sphere point values and radius must be finite")
        norm_sq = l2_inner(self.field, self.field)
        if abs(norm_sq - self.radius**2) > SPHERE_TOL * self.radius**2:
            raise OffSphere(
                f"sphere constraint violated: |f|^2 = {norm_sq!r}, r^2 = {self.radius**2!r}"
            )

    @property
    def grid(self) -> PeriodicGrid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values


def _check_pair(a: Density, b: Density) -> None:
    """Raise unless ``a`` and ``b`` share a grid and agree in mass to MASS_TOL."""
    a.grid.check_compatible(b.grid)
    if abs(a.mass - b.mass) > MASS_TOL * max(a.mass, b.mass):
        raise MassMismatch(f"masses differ: {a.mass!r} vs {b.mass!r}")


def uniform_density(grid: PeriodicGrid, mass: float | None = None) -> Density:
    """Constant density; by default of mass mu(M), i.e. the value 1."""
    if mass is None:
        mass = grid.total_volume
    return _normal(Density(ScalarField.constant(grid, mass / grid.total_volume), float(mass)))


def sqrt_map(d: Density) -> SpherePoint:
    """Pointwise square root, landing on the sphere of radius sqrt(mass).

    ``Density`` alone decides which negatives are roundoff; the ones it
    admitted map to 0, and none is rejected here.
    """
    values = np.where(d.values < 0.0, 0.0, d.values)
    return SpherePoint(ScalarField(d.grid, np.sqrt(values)), float(np.sqrt(d.mass)))


def square_map(p: SpherePoint) -> Density:
    """Pointwise square with its quadrature mass |f|², which ``SpherePoint``
    has checked against r² to SPHERE_TOL; flags the result degenerate if f
    changes sign."""
    values = p.values
    sign_change = bool(np.min(values) < 0.0 < np.max(values))
    squared = ScalarField(p.grid, values**2)
    return Density(squared, integrate(squared), degenerate=sign_change)


def normalize(field: ScalarField, mass: float) -> Density:
    """Rescale a strictly positive field to integrate to ``mass``."""
    if np.min(field.values) <= 0.0:
        raise NonPositiveInput("normalize requires a strictly positive field")
    total = integrate(field)
    scale = mass / total
    return _normal(Density(ScalarField(field.grid, field.values * scale), float(mass)))


def _normal(d: Density) -> Density:
    """``d``, unless scaling took a node value below the normal floats, where it
    has lost digits.  Densities from squaring may have genuine near-zeros."""
    if np.min(d.values) < np.finfo(float).tiny:
        raise ValidationError(f"mass {d.mass!r} puts node values below the normal floats")
    return d


def density_from_values(grid: PeriodicGrid, values: np.ndarray) -> Density:
    """Wrap non-negative samples as a Density with their quadrature mass."""
    f = ScalarField(grid, values)
    return Density(f, integrate(f))
