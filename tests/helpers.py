"""Shared builders for the test suite."""

import numpy as np

from densgeo.density import Density
from densgeo.grid import (
    PeriodicGrid,
    ScalarField,
    directional_derivative,
    gradient,
    integrate,
    random_band_limited,
)
from densgeo.hsflow import HsGeodesic


def sin_geodesic(n: int = 256) -> HsGeodesic:
    """The Hunter-Saxton geodesic of ρ0 = sin 2πx on the unit circle of n nodes."""
    grid = PeriodicGrid(n)
    return HsGeodesic.from_divergence(ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0))))


def torus_geodesic(n: int) -> HsGeodesic:
    """The Hunter-Saxton geodesic of ρ0 = 0.5 sin 2πx · sin 2πy on the unit torus of n² nodes."""
    grid = PeriodicGrid((n, n))
    x, y = grid.coordinate(0), grid.coordinate(1)
    return HsGeodesic.from_divergence(
        ScalarField(grid, 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    )


def random_positive_density(grid: PeriodicGrid, rng, mass=None, wiggle=0.5):
    """Strictly positive random trigonometric density of the given mass."""
    bump = random_band_limited(grid, 6, rng)
    values = 1.0 + wiggle * bump.values / max(1.0, np.max(np.abs(bump.values)))
    field = ScalarField(grid, values)
    total = integrate(field)
    mass = grid.total_volume if mass is None else mass
    return Density(ScalarField(grid, values * (mass / total)), mass)


def peaked_density(grid: PeriodicGrid, concentration: float, center=None) -> Density:
    """Mollified bump of unit mass whose peak value is ~``concentration``.

    A periodic von-Mises profile exp(c (cos 2π(x-x0)/L - 1)); the sharpness
    c is chosen so the normalized peak height equals the concentration.
    """
    c = concentration**2 / (2.0 * np.pi)
    x = grid.coordinate(0)
    x0 = grid.lengths[0] / 2.0 if center is None else center
    profile = np.exp(c * (np.cos(2.0 * np.pi * (x - x0) / grid.lengths[0]) - 1.0))
    if grid.dim == 2:
        profile = np.broadcast_to(profile, grid.shape).copy()
    field = ScalarField(grid, profile)
    total = integrate(field)
    # extreme concentrations underflow to genuine zeros in the tails
    return Density(
        ScalarField(grid, profile * (grid.total_volume / total)),
        grid.total_volume,
        degenerate=bool(np.min(profile) == 0.0),
    )


def lie_bracket(grid: PeriodicGrid, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """[w, u] = (w·∇)u - (u·∇)w of two vector fields (dim, *shape)."""
    return directional_derivative(grid, w, u) - directional_derivative(grid, u, w)


def divergence_free_field(grid: PeriodicGrid, rng) -> np.ndarray:
    """Random divergence-free vector field: a constant in 1D, a curl in 2D."""
    if grid.dim == 1:
        return np.full((1,) + grid.shape, rng.standard_normal())
    d0, d1 = gradient(random_band_limited(grid, 5, rng))
    return np.array([d1, -d0])
