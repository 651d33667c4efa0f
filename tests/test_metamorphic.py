"""Metamorphic properties from the symmetries of the density sphere.

The metric is right-invariant, so a common grid roll of every input leaves
the distances, the geodesic length and the constants κ, t_max and ∫ρ² of
a Hunter-Saxton solution unchanged.  The square-root map scales with the
mass, so multiplying two densities and their mass by λ multiplies both
distances and the geodesic length by √λ.  For ρ0 of degree at most N/4 the
rectangle rule integrates ρ0² exactly, so resampling ρ0 on 2N nodes by
zero-padding its spectrum leaves κ and ∫ρ² unchanged.  t_max is left out
of the refinement: it rests on the minimum of ρ0 that one Newton step from
the lowest node finds, and the finer grid moves that minimum by up to 10 %.

The drifts that ``densgeo invariants`` reports are first integrals along
the great circle, so they are roundoff-sized, and a roll of ρ0 moves them
by roundoff only.

Every bound is a few times the largest roundoff measured over 1,500 random
draws of the strategies below: relative for roll (3.7e-14), mass (4.7e-14)
and refinement (9.2e-16), and absolute for the drifts, which are already
relative (2.1e-15).
"""

import contextlib
import io
import json
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from densgeo import _interp, cli
from densgeo.density import Density
from densgeo.grid import PeriodicGrid, ScalarField, random_band_limited
from densgeo.hsflow import HsGeodesic
from densgeo.spheregeo import geodesic, hellinger_distance, spherical_distance
from helpers import random_positive_density

ROLL_TOL = 2e-13
MASS_SCALING_TOL = 2e-13
REFINEMENT_TOL = 1e-14
DRIFT_ROLL_TOL = 1e-14
DRIFTS = ("angular_momentum_drift", "nested_chain_drift", "projected_chain_drift")

SHAPES = st.sampled_from([(64,), (32, 32), (16, 48)])
LENGTHS = st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0))
SEEDS = st.integers(0, 2**32 - 1)


def _relative(got, want) -> float:
    return float(np.max(np.abs(np.subtract(got, want)) / np.abs(want)))


def _distances(a: Density, b: Density) -> list[float]:
    return [spherical_distance(a, b), hellinger_distance(a, b), geodesic(a, b).length]


def _constants(rho0: ScalarField) -> list[float]:
    g = HsGeodesic.from_divergence(rho0)
    return [g.kappa, g.t_max, g.conserved_energy]


@settings(max_examples=60, deadline=None)
@given(shape=SHAPES, lengths=LENGTHS, seed=SEEDS, data=st.data())
def test_grid_roll_leaves_distances_and_constants_unchanged(shape, lengths, seed, data):
    grid = PeriodicGrid(shape, lengths[: len(shape)])
    shift = data.draw(st.tuples(*(st.integers(1, n - 1) for n in shape)), label="shift")
    rng = np.random.default_rng(seed)
    a, b = random_positive_density(grid, rng), random_positive_density(grid, rng)
    rho0 = random_band_limited(grid, min(shape) // 4, rng)

    def roll(values):
        return np.roll(values, shift, axis=tuple(range(grid.dim)))

    rolled = [Density(ScalarField(grid, roll(d.values)), d.mass) for d in (a, b)]
    assert _relative(_distances(*rolled), _distances(a, b)) <= ROLL_TOL
    assert _relative(_constants(ScalarField(grid, roll(rho0.values))), _constants(rho0)) <= ROLL_TOL


@settings(max_examples=60, deadline=None)
@given(shape=SHAPES, lengths=LENGTHS, seed=SEEDS, factor=st.floats(1e-3, 1e3))
def test_mass_scaling_scales_distances_by_its_root(shape, lengths, seed, factor):
    grid = PeriodicGrid(shape, lengths[: len(shape)])
    rng = np.random.default_rng(seed)
    a, b = random_positive_density(grid, rng), random_positive_density(grid, rng)
    scaled = [Density(ScalarField(grid, factor * d.values), factor * d.mass) for d in (a, b)]
    expected = np.sqrt(factor) * np.array(_distances(a, b))
    assert _relative(_distances(*scaled), expected) <= MASS_SCALING_TOL


@settings(max_examples=60, deadline=None)
@given(shape=SHAPES, lengths=LENGTHS, seed=SEEDS, data=st.data())
def test_refinement_keeps_kappa_and_energy(shape, lengths, seed, data):
    grid = PeriodicGrid(shape, lengths[: len(shape)])
    fine = PeriodicGrid(tuple(2 * n for n in shape), grid.lengths)
    degree = data.draw(st.integers(1, min(shape) // 4), label="degree")
    rho0 = random_band_limited(grid, degree, np.random.default_rng(seed))
    coarse = HsGeodesic.from_divergence(rho0)
    refined = HsGeodesic.from_divergence(ScalarField(fine, _interp.pad_values(grid, rho0.values, 2)))
    assert _relative(
        [refined.kappa, refined.conserved_energy], [coarse.kappa, coarse.conserved_energy]
    ) <= REFINEMENT_TOL


def _drifts(values: np.ndarray) -> list[float]:
    """The invariants drifts of ``densgeo invariants`` for ρ0 given as a node-value file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/div_u0.json"
        with open(path, "w") as fh:
            json.dump({"values": values.tolist()}, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["invariants", "--div-u0", "@" + path, "--grid", str(values.shape[0]),
                             "--dim", str(values.ndim), "--samples", "12"])
    assert code == 0, out.getvalue()
    return [json.loads(out.getvalue())["results"][key] for key in DRIFTS]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(16,), (64,), (128,), (16, 16)]), seed=SEEDS,
       amp=st.floats(1e-3, 1e3), data=st.data())
def test_grid_roll_leaves_invariants_drifts_unchanged(shape, seed, amp, data):
    grid = PeriodicGrid(shape)
    shift = data.draw(st.tuples(*(st.integers(1, n - 1) for n in shape)), label="shift")
    degree = data.draw(st.integers(1, min(shape) // 4), label="degree")
    rho0 = amp * random_band_limited(grid, degree, np.random.default_rng(seed)).values
    rolled = np.roll(rho0, shift, axis=tuple(range(grid.dim)))
    assert np.max(np.abs(np.subtract(_drifts(rolled), _drifts(rho0)))) <= DRIFT_ROLL_TOL
