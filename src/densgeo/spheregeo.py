"""Metric geometry of the density sphere.

Distances between densities reduce to one chord: h = ‖√(a/m) − √(b/m)‖
between the mass-normalized square roots on the L^2 sphere.  The Hellinger
distance is √m·h, and the angle between the roots is 2·arcsin(h/2), so the
geodesic (spherical Hellinger) distance is √m·2·arcsin(h/2): √m·arccos of
the Bhattacharyya coefficient in exact arithmetic, and accurate near 0.
Geodesics are great-circle arcs, interpolated by slerp with the weights
sin(sθ)/sin θ = s·sinc(sθ)/sinc(θ), so equal endpoints (θ = 0) need no
separate formula.  Two inner products pair vector fields,
(dim, *shape) arrays, through their divergences: the quarter-normalized
one whose sphere radius is sqrt(mass), and the information-metric
convention, exactly 4 times larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Density, SpherePoint, _check_pair, sqrt_map, square_map
from .grid import PeriodicGrid, ScalarField, divergence, fourier, integrate, l2_inner, sinc


def _roots(a: Density, b: Density) -> tuple[np.ndarray, np.ndarray]:
    """The mass-normalized roots √(a/m), √(b/m): each is ~ 1/√volume, so at any mass
    and grid volume their products neither under- nor overflow."""
    _check_pair(a, b)
    return tuple(np.sqrt(np.clip(d.values / a.mass, 0.0, None)) for d in (a, b))


def bhattacharyya(a: Density, b: Density) -> float:
    """Normalized affinity (1/mass) ∫ sqrt(da/dμ · db/dμ) dμ, clamped to [-1, 1]."""
    root_a, root_b = _roots(a, b)
    overlap = integrate(ScalarField(a.grid, root_a * root_b))
    return float(np.clip(overlap, -1.0, 1.0))


def _chord(a: Density, b: Density) -> float:
    """The chord h = ‖√(a/m) − √(b/m)‖ between the mass-normalized roots."""
    root_a, root_b = _roots(a, b)
    diff = ScalarField(a.grid, root_a - root_b)
    return math.sqrt(l2_inner(diff, diff))


def spherical_distance(a: Density, b: Density) -> float:
    """Geodesic distance √m·2·arcsin(h/2) of the chord h; values lie in [0, π·√m/2]."""
    return math.sqrt(a.mass) * 2.0 * math.asin(0.5 * _chord(a, b))


def hellinger_distance(a: Density, b: Density) -> float:
    """Chordal distance ‖√a − √b‖ = √m·h."""
    return math.sqrt(a.mass) * _chord(a, b)


@dataclass(frozen=True)
class GeodesicPath:
    """Great-circle arc between two sphere points, parameterized on [0, 1]."""

    start: SpherePoint
    end: SpherePoint
    angle: float

    def samples(self, t: float) -> SpherePoint:
        """Point at parameter t; arc length from start is t * angle * radius."""
        # slerp weights sin(sθ)/sin θ = s·sinc(sθ)/sinc(θ), 1 - t and t at θ = 0
        theta, norm = self.angle, sinc(self.angle)
        w_start = (1.0 - t) * sinc((1.0 - t) * theta) / norm
        w_end = t * sinc(t * theta) / norm
        blend = w_start * self.start.values + w_end * self.end.values
        return SpherePoint(ScalarField(self.start.grid, blend), self.start.radius)

    def density_at(self, t: float) -> Density:
        return square_map(self.samples(t))

    @property
    def length(self) -> float:
        return self.angle * self.start.radius


def geodesic(a: Density, b: Density) -> GeodesicPath:
    """Great-circle interpolation between two equal-mass densities.

    The angle is 2·arcsin(h/2) of the chord h, as in ``spherical_distance``,
    so ``length`` equals it bit for bit.
    """
    return GeodesicPath(sqrt_map(a), sqrt_map(b), 2.0 * math.asin(0.5 * _chord(a, b)))


def h1dot_inner(grid: PeriodicGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Quarter-normalized divergence pairing (1/4) ∫ div u · div v dμ of two
    vector fields (dim, *shape); GridMismatch for any other shape."""
    return 0.25 * fisher_rao_inner(grid, u, v)


def fisher_rao_inner(grid: PeriodicGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Information-metric pairing ∫ div u · div v dμ = 4 × h1dot_inner."""
    return l2_inner(divergence(grid, u), divergence(grid, v))


def heat_flow(d0: Density, t_final: float) -> Density:
    """Evolve ∂ρ/∂t = Δρ, the gradient flow of the Dirichlet energy.

    Integrated exactly mode by mode (ρ(t) = exp(tΔ) ρ0), so there is no
    step size and no stability bound.  The zero mode is untouched, so mass
    is conserved exactly.
    """
    grid = d0.grid
    values = fourier(grid, d0.values, np.exp(-grid.k2 * t_final))
    return Density(ScalarField(grid, values), d0.mass)
