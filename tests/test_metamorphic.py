"""Metamorphic properties from the symmetries of the density sphere.

The metric is right-invariant, so a common grid roll of every input leaves
the distances, the geodesic length and the constants κ, t_max and ∫ρ² of
a Hunter-Saxton solution unchanged.  The square-root map scales with the
mass, so multiplying two densities and their mass by λ multiplies both
distances and the geodesic length by √λ.  For ρ0 of degree at most N/4 the
rectangle rule integrates ρ0² exactly, so resampling ρ0 on 2N nodes by
zero-padding its spectrum leaves κ and ∫ρ² unchanged, and t_max too, which
rests on the infimum of ρ0's interpolant, the same function on both grids.

The integrators commute with the symmetries of the flat torus.  Rolling
their input by whole nodes rolls the displacement η - id and the Jacobian
of ``integrate_flow``, ``lift_flow`` and ``transport_map`` (the circle lift
is anchored at x = 0, so there the displacement moves by a constant too,
and the circle transport map, anchored the same way, is left out).
Stretching an isotropic period L with the node values kept multiplies the
positions by L and leaves the Jacobians and t_max unchanged.

Diff(M) acts on densities by pushforward, and the sphere's overlap and
chord are invariant under it: pulling a and b back by a circle
diffeomorphism ψ, a ↦ (a∘ψ)·ψ′, leaves ``bhattacharyya`` and
``hellinger_distance`` unchanged in the continuum.  On 256 nodes, with the
densities in closed form at ψ, the defect is a discretization figure; the
worst of a seeded sweep over the strategies' corners was 2.1e-13, against a
bound of 1e-12.  ``spherical_distance`` takes its angle from the chord, as
2·arcsin(chord/2), so a coincident pair keeps its distance to roundoff too
(arccos of the overlap was off by about 1.5e-8 there).  On the torus the
shear ψ(x, y) = (x + ε sin(2πy)/2π, y) preserves volume, so a ↦ a∘ψ; it
translates each row of nodes along x, so the rectangle rule changes only by
the aliasing of each row's integrand, and on 128 × 64 nodes the worst of a
seeded sweep of 236 draws over the three measures was 4.4e-16.  The same
shear of a mean-zero ρ0 leaves κ, t_max, ∫ρ0² and ``flow_energy`` at equal
times unchanged; a seeded sweep of 504 corner draws moved them by at most
6.9e-16 relative, against a bound of 1e-10.  The ``hs`` series' sup ρ and
min Jac are extrema over the nodes, which the shear moves off the nodes, so
they change by O(h²) and are left out.

The drifts that ``densgeo invariants`` reports are first integrals along
the great circle, so they are roundoff-sized, and a roll of ρ0 moves them
by roundoff only.

Every bound is a few times the largest roundoff measured over 1,500 random
draws of the strategies below: relative for roll (3.7e-14), mass (4.7e-14)
and refinement (9.2e-16), and absolute for the drifts, which are already
relative (2.1e-15).  The bounds of t_max's refinement and of the
integrators' symmetries are at most ten times the worst of seeded sweeps:
3,000 refinement draws gave 2.1e-15 relative, and 3,280 integrator draws
gave 4.4e-16 of the period for the positions, 1.1e-14 for the Jacobians and
1.9e-15 relative for t_max.  In the sweep ``rho0_min`` lay at least 3.6e-9
below every value of a dense sample of the interpolant; the bound lets it
exceed one by 1e-12.
"""

import contextlib
import io
import json
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from densgeo import _interp, cli
from densgeo.density import Density, normalize
from densgeo.grid import PeriodicGrid, ScalarField, random_band_limited, transform
from densgeo.hsflow import HsGeodesic, flow_energy, integrate_flow, jacobian_formula
from densgeo.moser import lift_flow, transport_map
from densgeo.spheregeo import bhattacharyya, geodesic, hellinger_distance, spherical_distance
from helpers import random_positive_density

ROLL_TOL = 2e-13
MASS_SCALING_TOL = 2e-13
REFINEMENT_TOL = 1e-14
T_MAX_REFINEMENT_TOL = 1e-14
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
    assert _relative(refined.t_max, coarse.t_max) <= T_MAX_REFINEMENT_TOL
    # a dense sample of the interpolant, off the nodes of every power-of-two
    # refinement but the origin
    axes = [np.arange(2 * n + 1) * (L / (2 * n + 1)) for n, L in zip(shape, grid.lengths)]
    dense = _interp.trig_eval(grid, rho0.values, *np.meshgrid(*axes, indexing="ij"))
    assert coarse.rho0_min <= np.min(dense) + 1e-12


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


def _integrator_run(kind: str, grid: PeriodicGrid, fields: np.ndarray):
    """(positions, Jacobians, t_max) at the last time of one integrator, from
    two node-value fields: a source and a target density for
    ``transport_map`` (whose t_max is None), and ρ0 in the first field for
    ``integrate_flow`` and for ``lift_flow`` of ρ0's Jacobian history."""
    if kind == "transport_map":
        source, target = (normalize(ScalarField(grid, f), grid.total_volume) for f in fields)
        flow = transport_map(source, target, dt=0.1)
        return flow.positions[-1], flow.jacobians[-1], None
    geo = HsGeodesic.from_divergence(ScalarField(grid, fields[0]))
    if kind == "integrate_flow":
        flow = integrate_flow(geo, 0.04, 0.01, n_store=1)
    else:
        flow = lift_flow(lambda t: jacobian_formula(geo, t), [0.0, 0.04], grid, dt=0.01)
    return flow.positions[-1], flow.jacobians[-1], geo.t_max


def _integrator_fields(kind: str, grid: PeriodicGrid, seed: int) -> np.ndarray:
    """The two input fields of ``_integrator_run``, of degree 3 at most."""
    rng = np.random.default_rng(seed)
    fields = [random_band_limited(grid, 3, rng).values for _ in range(2)]
    fields = [0.5 * f / np.max(np.abs(f)) for f in fields]
    return 1.0 + np.array(fields) if kind == "transport_map" else np.array(fields)


INTEGRATORS = st.sampled_from(["integrate_flow", "lift_flow", "transport_map"])
FLOW_SHAPES = st.sampled_from([(32,), (16, 16), (8, 16)])
TORUS_SHAPES = st.sampled_from([(16, 16), (8, 16)])
FLOW_POSITION_TOL = 4e-15  # of the period
FLOW_JACOBIAN_TOL = 9e-14
FLOW_T_MAX_TOL = 1e-14  # relative


@settings(max_examples=20, deadline=None)
@given(kind=INTEGRATORS, seed=SEEDS, data=st.data())
def test_grid_roll_translates_the_flow(kind, seed, data):
    shape = data.draw(TORUS_SHAPES if kind == "transport_map" else FLOW_SHAPES, label="shape")
    grid = PeriodicGrid(shape)
    shift = data.draw(st.tuples(*(st.integers(1, n - 1) for n in shape)), label="shift")
    axes = tuple(range(-grid.dim, 0))
    fields = _integrator_fields(kind, grid, seed)
    eta, jac, t_max = _integrator_run(kind, grid, fields)
    eta_r, jac_r, t_max_r = _integrator_run(kind, grid, np.roll(fields, shift, axis=axes))
    disp, disp_r = np.roll(eta - grid.identity, shift, axis=axes), eta_r - grid.identity
    if kind == "lift_flow" and grid.dim == 1:
        disp, disp_r = disp - np.mean(disp), disp_r - np.mean(disp_r)
    assert np.max(np.abs(disp_r - disp)) <= FLOW_POSITION_TOL
    assert np.max(np.abs(jac_r - np.roll(jac, shift, axis=axes))) <= FLOW_JACOBIAN_TOL
    assert t_max is None or _relative(t_max_r, t_max) <= FLOW_T_MAX_TOL


@settings(max_examples=20, deadline=None)
@given(kind=INTEGRATORS, shape=FLOW_SHAPES, seed=SEEDS, length=st.floats(0.25, 4.0))
def test_length_scaling_scales_the_positions(kind, shape, seed, length):
    unit, stretched = PeriodicGrid(shape), PeriodicGrid(shape, length)
    fields = _integrator_fields(kind, unit, seed)
    eta, jac, t_max = _integrator_run(kind, unit, fields)
    eta_s, jac_s, t_max_s = _integrator_run(kind, stretched, fields)
    assert np.max(np.abs(eta_s / length - eta)) <= FLOW_POSITION_TOL
    assert np.max(np.abs(jac_s - jac)) <= FLOW_JACOBIAN_TOL
    assert t_max is None or _relative(t_max_s, t_max) <= FLOW_T_MAX_TOL


PUSHFORWARD_TOL = 1e-12
WAVES = st.tuples(st.floats(-0.9, 0.9), st.integers(1, 3))  # 1 + c sin(2πkx)


def _pulled_back(eps: float, waves) -> list[tuple[Density, Density]]:
    """(a, (a∘ψ)·ψ′) on 256 nodes for each wave (c, k) of a = 1 + c sin(2πkx),
    with ψ(x) = x + ε sin(2πx)/2π and a taken in closed form at ψ."""
    grid = PeriodicGrid(256)
    x = grid.coordinate(0)
    psi = x + eps * np.sin(2 * np.pi * x) / (2 * np.pi)
    dpsi = 1.0 + eps * np.cos(2 * np.pi * x)
    return [tuple(Density(ScalarField(grid, values), 1.0)
                  for values in (1.0 + c * np.sin(2 * np.pi * k * x),
                                 (1.0 + c * np.sin(2 * np.pi * k * psi)) * dpsi))
            for c, k in waves]


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(-0.8, 0.8), waves=st.tuples(WAVES, WAVES))
def test_pushforward_leaves_overlap_and_chord_unchanged(eps, waves):
    (a, a_psi), (b, b_psi) = _pulled_back(eps, waves)
    for measure in (bhattacharyya, hellinger_distance):
        assert abs(measure(a_psi, b_psi) - measure(a, b)) <= PUSHFORWARD_TOL


def test_pushforward_leaves_the_spherical_distance_of_a_coincident_pair_unchanged():
    (a, a_psi), (b, b_psi) = _pulled_back(0.8, [(0.9, 3), (0.9, 3)])
    assert abs(spherical_distance(a_psi, b_psi) - spherical_distance(a, b)) <= PUSHFORWARD_TOL


TORUS_WAVES = st.tuples(st.floats(-0.9, 0.9), st.integers(0, 2), st.integers(-2, 2))


def _top_third_share(grid: PeriodicGrid, values: np.ndarray) -> float:
    """The share of a field's spectral energy beyond the 2/3-rule cut on either axis."""
    power = np.abs(transform(grid, values)) ** 2
    return float(power[~grid.dealias_mask].sum() / power.sum())


def _sheared(eps: float, waves) -> list[tuple[Density, Density]]:
    """(a, a∘ψ) on 128 × 64 torus nodes for each wave (c, k, l) of a = 1 + c sin 2π(kx + ly),
    with a taken in closed form at the shear ψ(x, y) = (x + ε sin(2πy)/2π, y), whose
    Jacobian is 1; both fields keep below 1e-20 of their spectral energy in the top third."""
    grid = PeriodicGrid((128, 64))
    x, y = grid.identity
    psi = x + eps * np.sin(2 * np.pi * y) / (2 * np.pi)
    pairs = []
    for c, k, l in waves:
        fields = [1.0 + c * np.sin(2 * np.pi * (k * at + l * y)) for at in (x, psi)]
        assert max(_top_third_share(grid, f) for f in fields) < 1e-20
        pairs.append(tuple(Density(ScalarField(grid, f), 1.0) for f in fields))
    return pairs


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(-0.8, 0.8), waves=st.tuples(TORUS_WAVES, TORUS_WAVES))
def test_torus_shear_leaves_overlap_chord_and_distance_unchanged(eps, waves):
    (a, a_psi), (b, b_psi) = _sheared(eps, waves)
    for measure in (bhattacharyya, hellinger_distance, spherical_distance):
        assert abs(measure(a_psi, b_psi) - measure(a, b)) <= PUSHFORWARD_TOL


SHEAR_CONSTANTS_TOL = 1e-10  # relative
# c sin 2π(kx + ly) with 0.01 ≤ |c| ≤ 0.9, 0 ≤ k ≤ 2, |l| ≤ 2 and (k, l) ≠ (0, 0)
SHEAR_WAVES = st.tuples(st.floats(0.01, 0.9), st.sampled_from([-1.0, 1.0]), st.sampled_from(
    [(k, l) for k in range(3) for l in range(-2, 3) if (k, l) != (0, 0)]))


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(-0.8, 0.8), wave=SHEAR_WAVES, frac=st.floats(0.0, 0.9))
def test_torus_shear_leaves_kappa_t_max_and_energies_unchanged(eps, wave, frac):
    # ρ0 = c sin 2π(kx + ly), mean removed, and ρ0∘ψ: the shear preserves volume,
    # so κ, inf ρ0 and t_max are invariants, and so is the hs series' energy
    # (flow_energy, bit for bit) at equal times; sup ρ and min Jac are extrema
    # over the nodes, which the shear moves off the nodes, so they are left out
    size, sign, (k, l) = wave
    c = sign * size
    grid = PeriodicGrid((128, 64))
    x, y = grid.identity
    psi = x + eps * np.sin(2 * np.pi * y) / (2 * np.pi)
    geos = []
    for at in (x, psi):
        rho0 = c * np.sin(2 * np.pi * (k * at + l * y))
        assert _top_third_share(grid, rho0) < 1e-20
        geos.append(HsGeodesic.from_divergence(ScalarField(grid, rho0 - np.mean(rho0))))
    t = frac * min(g.t_max for g in geos)

    def constants(g):
        return [g.kappa, g.t_max, g.conserved_energy, flow_energy(g, t)]

    assert _relative(constants(geos[1]), constants(geos[0])) <= SHEAR_CONSTANTS_TOL
