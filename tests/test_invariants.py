import numpy as np
import pytest

from densgeo.density import SpherePoint
from densgeo.errors import GridMismatch, NotTangent
from densgeo.grid import PeriodicGrid, ScalarField
from densgeo.hsflow import HsGeodesic, sphere_path, sphere_velocity
from densgeo.invariants import (
    TruncatedSphereCoords,
    angular_momenta,
    chain_Hk,
    chain_Hproj,
    default_truncation,
    fourier_basis,
    poisson_bracket_check,
    project,
)


def rich_geodesic(n=256):
    grid = PeriodicGrid(n)
    x = grid.coordinate(0)
    rho0 = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    return HsGeodesic.from_divergence(ScalarField(grid, rho0))


def coords_at(geo, t, count):
    point = SpherePoint(sphere_path(geo, t), np.sqrt(geo.mass))
    return project(point, sphere_velocity(geo, t), fourier_basis(geo.grid, count))


class TestBasis:
    @pytest.mark.parametrize("shape", [64, (16, 16)])
    def test_orthonormal(self, shape):
        grid = PeriodicGrid(shape)
        basis = fourier_basis(grid, 7)
        w = grid.node_weight
        gram = w * basis.reshape(7, -1) @ basis.reshape(7, -1).T
        assert np.max(np.abs(gram - np.eye(7))) <= 1e-12

    def test_first_element_constant(self):
        grid = PeriodicGrid(64, 2.0)
        basis = fourier_basis(grid, 3)
        assert np.allclose(basis[0], 1.0 / np.sqrt(2.0))


def _basis_loops(grid, count):
    """``fourier_basis`` as per-dimension loops: in 1-D the modes 1, 2, …, in
    2-D every mode below max(N)/2 sorted by (|k|², kx, ky)."""
    volume = grid.total_volume
    fields = [np.full(grid.shape, 1.0 / np.sqrt(volume))]
    amp = np.sqrt(2.0 / volume)
    if grid.dim == 1:
        x = grid.coordinate(0)
        m = 1
        while len(fields) < count:
            w = 2.0 * np.pi * m / grid.lengths[0]
            fields += [amp * np.cos(w * x), amp * np.sin(w * x)]
            m += 1
        return np.array(fields[:count])
    x, y = grid.coordinate(0), grid.coordinate(1)
    bound = max(grid.shape) // 2
    modes = sorted((kx * kx + ky * ky, kx, ky) for kx in range(bound)
                   for ky in range(-bound + 1, bound) if kx > 0 or ky > 0)
    for _, kx, ky in modes[: count // 2]:
        phase = 2.0 * np.pi * (kx * x / grid.lengths[0] + ky * y / grid.lengths[1])
        fields += [amp * np.cos(phase), amp * np.sin(phase)]
    return np.array(fields[:count])


class TestBasisOrder:
    @pytest.mark.parametrize("n,length", [(64, 1.0), (256, 2.5), (1024, 1.0), (1024, 0.3)])
    @pytest.mark.parametrize("count", [1, 2, 8, 33])
    def test_one_dimensional_bit_for_bit(self, n, length, count):
        count = min(count, n // 2 - 1)
        grid = PeriodicGrid(n, length)
        assert np.array_equal(fourier_basis(grid, count), _basis_loops(grid, count))

    @pytest.mark.parametrize("shape,lengths", [
        ((128, 128), 1.0), ((128, 128), (0.7, 3.1)), ((48, 48), 0.3), ((16, 24), (2.0, 1.0)),
        ((32, 16), 1.0),
    ])
    @pytest.mark.parametrize("count", [2, 7, 8, 33])
    def test_two_dimensional_order_kept(self, shape, lengths, count):
        # the phase is summed per axis, so values move by roundoff only
        count = min(count, min(shape) // 2 - 1)
        grid = PeriodicGrid(shape, lengths)
        ours, oracle = fourier_basis(grid, count), _basis_loops(grid, count)
        assert ours.shape == oracle.shape == (count,) + grid.shape
        assert np.max(np.abs(ours - oracle)) <= 1e-14 * np.sqrt(2.0 / grid.total_volume)


class TestProjection:
    def test_north_pole(self):
        grid = PeriodicGrid(64)
        point = SpherePoint(ScalarField.constant(grid, 1.0), 1.0)
        c = project(point, ScalarField.constant(grid, 0.0), fourier_basis(grid, 9))
        assert c.q[0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(c.q[1:], 0.0, atol=1e-14)
        assert np.allclose(c.p, 0.0)

    def test_initial_momentum_is_half_divergence(self):
        # at t = 0 the sphere velocity is ρ0/2; for ρ0 = sin(2πx) the
        # momentum sits on the normalized sine mode with weight √2/4
        grid = PeriodicGrid(256)
        geo = HsGeodesic.from_divergence(
            ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)))
        )
        c = coords_at(geo, 0.0, 9)
        assert c.q[0] == pytest.approx(1.0, abs=1e-12)
        sin_index = 2  # [const, cos₁, sin₁, ...]
        assert c.p[sin_index] == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-12)
        others = np.delete(c.p, sin_index)
        assert np.max(np.abs(others)) <= 1e-12

    def test_constraint_residuals(self):
        geo = rich_geodesic()
        c = coords_at(geo, 0.37 * geo.t_max, default_truncation(geo.grid))
        assert abs(c.q @ c.q - geo.mass) <= 1e-10
        assert abs(c.p @ c.q) <= 1e-10
        assert c.position_leak <= 1e-10
        assert c.momentum_leak <= 1e-10

    def test_basis_of_another_grid_rejected(self):
        grid = PeriodicGrid(64)
        point = SpherePoint(ScalarField.constant(grid, 1.0), 1.0)
        with pytest.raises(GridMismatch):
            project(point, ScalarField.constant(grid, 0.0), fourier_basis(PeriodicGrid(32), 5))

    def test_not_tangent_rejected(self):
        grid = PeriodicGrid(64)
        point = SpherePoint(ScalarField.constant(grid, 1.0), 1.0)
        with pytest.raises(NotTangent):
            project(point, ScalarField.constant(grid, 1.0), fourier_basis(grid, 5))


class TestAngularMomenta:
    def test_zero_momentum(self):
        c = TruncatedSphereCoords(np.array([1.0, 0, 0]),
                                  np.zeros(3), 1.0, 0.0, 0.0)
        assert np.allclose(angular_momenta(c), 0.0)

    def test_single_pair(self):
        q = np.array([1.0, 0.0, 0.0])
        p = np.array([0.0, 0.7, 0.0])
        c = TruncatedSphereCoords(q, p, 1.0, 0.0, 0.0)
        h = angular_momenta(c)
        assert h[0, 1] == pytest.approx(-0.7)
        assert h[1, 0] == pytest.approx(0.7)
        h[0, 1] = h[1, 0] = 0.0
        assert np.allclose(h, 0.0)

    def test_constant_along_geodesic(self):
        geo = rich_geodesic()
        count = 12
        reference = angular_momenta(coords_at(geo, 0.0, count))
        for t in (0.3, 0.6):
            h = angular_momenta(coords_at(geo, t, count))
            assert np.max(np.abs(h - reference)) <= 1e-9


class TestChains:
    def test_zero_momentum_gives_zeros(self):
        c = TruncatedSphereCoords(np.array([1.0, 0, 0, 0]),
                                  np.zeros(4), 1.0, 0.0, 0.0)
        assert np.allclose(chain_Hk(c), 0.0)
        assert np.allclose(chain_Hproj(c), 0.0)

    def test_top_element_is_energy_times_radius_squared(self):
        geo = rich_geodesic()
        c = coords_at(geo, 0.2, 16)
        top = chain_Hk(c)[-1]
        assert top == pytest.approx((c.p @ c.p) * geo.mass, abs=1e-10)

    def test_lagrange_identity(self):
        rng = np.random.default_rng(15)
        q, p = rng.standard_normal(10), rng.standard_normal(10)
        c = TruncatedSphereCoords(q, p, 1.0, 0.0, 0.0)
        expected = (p @ p) * (q @ q) - (p @ q) ** 2
        assert chain_Hk(c)[-1] == pytest.approx(expected, abs=1e-10)

    def test_projected_chain_base_case(self):
        # same function evaluated two ways (double sum vs Lagrange product)
        rng = np.random.default_rng(16)
        q, p = rng.standard_normal(8), rng.standard_normal(8)
        c = TruncatedSphereCoords(q, p, 1.0, 0.0, 0.0)
        assert chain_Hproj(c)[0] == pytest.approx(chain_Hk(c)[-1], rel=1e-12)

    def test_nondecreasing(self):
        rng = np.random.default_rng(17)
        q, p = rng.standard_normal(9), rng.standard_normal(9)
        c = TruncatedSphereCoords(q, p, 1.0, 0.0, 0.0)
        values = chain_Hk(c)
        assert np.all(np.diff(values) >= -1e-15)

    def test_constant_along_geodesic(self):
        geo = rich_geodesic()
        count = 12
        ref_k = chain_Hk(coords_at(geo, 0.0, count))
        ref_p = chain_Hproj(coords_at(geo, 0.0, count))
        for t in (0.4, 0.9, 1.7):
            c = coords_at(geo, t, count)
            assert np.max(np.abs(chain_Hk(c) - ref_k)) <= 1e-9
            assert np.max(np.abs(chain_Hproj(c)[:7] - ref_p[:7])) <= 1e-9


def loop_Hk(c):
    """H_m summed entry by entry, as the chain is defined."""
    h = angular_momenta(c)
    out, total = [], 0.0
    for m in range(1, c.size):
        total += sum(h[i, m] ** 2 for i in range(m))
        out.append(total)
    return np.array(out)


def loop_Hproj(c):
    """H^(k) from the projected vectors, and the scale |p^(k)|²|q^(k)|² of
    the two terms that cancel in it."""
    values, scales = [], []
    for k in range(c.size - 1):
        pk, qk = c.p[k:], c.q[k:]
        values.append((pk @ pk) * (qk @ qk) - (pk @ qk) ** 2)
        scales.append((pk @ pk) * (qk @ qk))
    return np.array(values), np.array(scales)


@pytest.mark.parametrize("size", [2, 3, 33])
@pytest.mark.parametrize("seed", range(5))
def test_chains_match_loop_definitions(size, seed):
    rng = np.random.default_rng([size, seed])
    c = TruncatedSphereCoords(rng.standard_normal(size), rng.standard_normal(size), 1.0, 0.0, 0.0)
    hk = chain_Hk(c)
    reference = loop_Hk(c)
    assert hk.shape == reference.shape
    assert np.all(np.abs(hk - reference) <= 1e-12 * reference)
    hp = chain_Hproj(c)
    reference, scale = loop_Hproj(c)
    assert hp.shape == reference.shape
    # relative to the cancelling terms: H^(k) itself can be far smaller
    assert np.all(np.abs(hp - reference) <= 1e-12 * scale)


class TestRotationInvariance:
    def test_leading_blocks_unchanged(self):
        rng = np.random.default_rng(19)
        count = 10
        q, p = rng.standard_normal(count), rng.standard_normal(count)
        c = TruncatedSphereCoords(q, p, 1.0, 0.0, 0.0)
        baseline = chain_Hk(c)
        for _ in range(10):
            i, j = sorted(rng.choice(count, size=2, replace=False))
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.eye(count)
            rot[i, i] = rot[j, j] = np.cos(theta)
            rot[i, j] = -np.sin(theta)
            rot[j, i] = np.sin(theta)
            rotated = TruncatedSphereCoords(
                rot @ q, rot @ p, 1.0, 0.0, 0.0
            )
            changed = chain_Hk(rotated)
            # H_m depends only on the leading (m+1)-block: rotations inside
            # it are symmetries, so H_m is fixed for m+1 > max(i, j)
            for m in range(max(i, j), count - 1):
                assert changed[m - 1] == pytest.approx(baseline[m - 1], abs=1e-10)


class TestPoissonBrackets:
    def test_relations(self):
        result = poisson_bracket_check(seed=7, count=8, n_points=100)
        assert result["so_residual"] <= 1e-12
        assert result["chain_residual"] <= 1e-10

    def test_origin(self):
        # all gradients vanish at q = p = 0, so every bracket does too
        from densgeo.invariants import _bracket, _chain_gradient, _h_gradient

        q = np.zeros(5)
        p = np.zeros(5)
        assert _bracket(_h_gradient(0, 1, q, p), _h_gradient(1, 2, q, p)) == 0.0
        assert _bracket(_chain_gradient(1, q, p), _chain_gradient(3, q, p)) == 0.0


class TestDriftCertificate:
    def test_full_period_sweep(self):
        geo = rich_geodesic()
        count = default_truncation(geo.grid)
        times = np.linspace(0.0, 2 * np.pi / geo.kappa, 50)
        coords = [coords_at(geo, float(t), count) for t in times]
        h_all = np.array([angular_momenta(c) for c in coords])
        hk_all = np.array([chain_Hk(c) for c in coords])
        hp_all = np.array([chain_Hproj(c) for c in coords])
        scale_h = np.max(np.abs(h_all[0])) or 1.0
        assert np.max(np.abs(h_all - h_all[0])) / scale_h <= 1e-8
        scale_k = np.max(np.abs(hk_all[0]))
        assert np.max(np.abs(hk_all - hk_all[0])) / scale_k <= 1e-8
        scale_p = np.max(np.abs(hp_all[0]))
        assert np.max(np.abs(hp_all - hp_all[0])) / scale_p <= 1e-8
