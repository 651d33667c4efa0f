"""Finite sample spaces: the probability simplex as a piece of a round sphere.

Componentwise square roots scaled by 2 embed the n-outcome simplex
isometrically (for the information metric) into the radius-2 sphere, where
geodesics are great circles.  Distances follow the rule of the density
sphere at mass 1: the chord h = ‖√p − √q‖ is the Hellinger distance, and
the angle is 2·arcsin(h/2).  Squaring a great circle gives probability
curves that touch the simplex walls and bounce back without ever turning
negative; the classic three-outcome curve through the uniform distribution
is provided explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, ValidationError


@dataclass(frozen=True)
class SimplexPoint:
    """Probability vector with finite, non-negative entries summing to one;
    entries down to -1e-12 are roundoff and are stored as 0.  A NaN or
    infinite entry is NonFiniteInput."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(probs) < 2:
            raise ValidationError("a simplex point needs at least two outcomes")
        if not np.all(np.isfinite(probs)):
            raise NonFiniteInput("probabilities must be finite")
        if np.min(probs) < -1e-12:
            raise ValidationError("probabilities must be non-negative")
        if abs(np.sum(probs) - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {np.sum(probs)!r}, not 1")
        object.__setattr__(self, "probs", np.where(probs < 0.0, 0.0, probs))


def embed(s: SimplexPoint) -> np.ndarray:
    """Isometric embedding p ↦ 2 sqrt(p) onto the radius-2 sphere."""
    return 2.0 * np.sqrt(s.probs)


def geodesic_probs(t: float) -> SimplexPoint:
    """The demo great-circle geodesic through the uniform three-outcome
    distribution, squared back to probabilities; 2π-periodic in t.

    The middle coordinate touches zero at t = arctan(sqrt(2/3)) and bounces;
    all three coordinates stay non-negative for every t.
    """
    c, s = np.cos(t), np.sin(t)
    a = 0.25 * (2.0 / np.sqrt(3.0) * c + np.sqrt(2.0) * s) ** 2
    b = 0.25 * (2.0 / np.sqrt(3.0) * c - np.sqrt(2.0) * s) ** 2
    r = (1.0 / 3.0) * c**2
    return SimplexPoint(np.array([a, b, r]))


BOUNCE_TIME = float(np.arctan(np.sqrt(2.0 / 3.0)))
"""First wall contact of the demo geodesic (middle probability hits zero)."""


def _check_pair(a: SimplexPoint, b: SimplexPoint) -> None:
    if len(a.probs) != len(b.probs):
        raise ValidationError("simplex points have different outcome counts")


def affinity(a: SimplexPoint, b: SimplexPoint) -> float:
    """Discrete overlap Σ sqrt(a_i b_i), clamped into [0, 1]."""
    _check_pair(a, b)
    return float(np.clip(np.sum(np.sqrt(a.probs * b.probs)), 0.0, 1.0))


def fisher_rao_distance(a: SimplexPoint, b: SimplexPoint) -> float:
    """Geodesic distance between discrete distributions on the unit sphere:
    2·arcsin(h/2) of the chord h = ‖√a − √b‖ (arccos of the affinity in exact
    arithmetic, and accurate near 0), matching the continuum density distance
    at total mass 1.  The statistics convention (radius-2 embedding) is twice it."""
    _check_pair(a, b)
    chord = np.linalg.norm(np.sqrt(a.probs) - np.sqrt(b.probs))
    return 2.0 * math.asin(0.5 * chord)
