import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densgeo.errors import NonFiniteInput, ValidationError
from densgeo.simplex import (
    BOUNCE_TIME,
    SimplexPoint,
    affinity,
    embed,
    fisher_rao_distance,
    geodesic_probs,
)

UNIFORM3 = SimplexPoint(np.array([1.0, 1.0, 1.0]) / 3.0)
HALF_HALF = SimplexPoint(np.array([0.5, 0.5, 0.0]))


class TestEmbedding:
    def test_uniform(self):
        assert np.allclose(embed(UNIFORM3), 2.0 / np.sqrt(3.0))

    def test_vertex(self):
        assert np.allclose(embed(SimplexPoint(np.array([1.0, 0.0, 0.0]))), [2, 0, 0])

    def test_edge_midpoint(self):
        assert np.allclose(embed(HALF_HALF), [np.sqrt(2), np.sqrt(2), 0.0])

    def test_norm_is_two(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            raw = rng.uniform(0, 1, 5)
            point = SimplexPoint(raw / raw.sum())
            assert np.linalg.norm(embed(point)) == pytest.approx(2.0, abs=1e-12)

    def test_isometry_of_embedding(self):
        # angle between embedded points, times the radius 2, is the
        # statistics-convention distance
        rng = np.random.default_rng(5)
        for _ in range(20):
            raw_a, raw_b = rng.uniform(0, 1, (2, 4))
            a = SimplexPoint(raw_a / raw_a.sum())
            b = SimplexPoint(raw_b / raw_b.sum())
            cos_angle = embed(a) @ embed(b) / 4.0
            angle = np.arccos(np.clip(cos_angle, -1, 1))
            assert 2.0 * angle == pytest.approx(2 * fisher_rao_distance(a, b), abs=1e-12)


class TestDemoGeodesic:
    def test_starts_at_uniform(self):
        assert np.allclose(geodesic_probs(0.0).probs, 1.0 / 3.0, atol=1e-15)

    def test_wall_contact(self):
        assert BOUNCE_TIME == pytest.approx(0.684719203, abs=1e-9)
        probs = geodesic_probs(BOUNCE_TIME).probs
        assert probs[1] == pytest.approx(0.0, abs=1e-12)

    def test_normalized_everywhere(self):
        for t in np.linspace(-7.0, 7.0, 1000):
            assert np.sum(geodesic_probs(float(t)).probs) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_never_negative(self):
        for t in np.linspace(0.0, 2 * np.pi, 400):
            assert np.min(geodesic_probs(float(t)).probs) >= 0.0

    def test_periodic(self):
        for t in (0.3, 1.1, 2.9):
            a = geodesic_probs(t).probs
            b = geodesic_probs(t + 2 * np.pi).probs
            assert np.allclose(a, b, atol=1e-12)

    def test_initial_velocity_tangent(self):
        eps = 1e-6
        forward = geodesic_probs(eps).probs
        backward = geodesic_probs(-eps).probs
        velocity = (forward - backward) / (2 * eps)
        assert abs(np.sum(velocity)) <= 1e-10


class TestDistances:
    def test_identical(self):
        assert fisher_rao_distance(UNIFORM3, UNIFORM3) == 0.0

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           delta=st.floats(1e-12, 1e-6), sign=st.sampled_from([-1.0, 1.0]))
    def test_near_pair_is_the_chord_to_third_order(self, seed, n, delta, sign):
        # 2·arcsin(h/2) = h·(1 + h²/24) + O(h⁵) of the chord h = ‖√p − √q‖
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.05, 1.0, n)
        p = SimplexPoint(raw / raw.sum())
        i, j = rng.choice(n, 2, replace=False)
        moved = p.probs.copy()
        moved[i] += sign * delta
        moved[j] -= sign * delta
        q = SimplexPoint(moved)
        h = np.linalg.norm(np.sqrt(p.probs) - np.sqrt(q.probs))
        assert h > 0.0
        assert fisher_rao_distance(p, q) == pytest.approx(h * (1.0 + h**2 / 24.0), rel=1e-12)

    def test_uniform_to_edge(self):
        # closed-form affinity 2/√6
        assert affinity(UNIFORM3, HALF_HALF) == pytest.approx(2 / np.sqrt(6), abs=1e-14)
        assert fisher_rao_distance(UNIFORM3, HALF_HALF) == pytest.approx(
            0.6154797086703871, abs=1e-12
        )

    def test_disjoint_supports(self):
        a = SimplexPoint(np.array([1.0, 0.0, 0.0]))
        b = SimplexPoint(np.array([0.0, 1.0, 0.0]))
        assert fisher_rao_distance(a, b) == pytest.approx(np.pi / 2, abs=1e-14)

    def test_convention_factor(self):
        # the statistics convention, twice the unit-sphere angle, is the arc
        # length between the radius-2 embeddings
        cos_angle = embed(UNIFORM3) @ embed(HALF_HALF) / 4.0
        assert 2 * fisher_rao_distance(UNIFORM3, HALF_HALF) == pytest.approx(
            2.0 * np.arccos(cos_angle), abs=1e-14
        )


class TestValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            SimplexPoint(np.array([0.6, 0.5, -0.1]))

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), data=st.data())
    def test_admitted_negatives_have_finite_roots(self, seed, n, data):
        # entries down to -1e-12 are roundoff; every result is finite, with no warning
        rng = np.random.default_rng(seed)
        negatives = data.draw(st.integers(1, n - 1), label="negatives")
        probs = np.empty(n)
        probs[:negatives] = -rng.uniform(0.0, 1e-12, negatives)
        raw = rng.uniform(0.05, 1.0, n - negatives)
        probs[negatives:] = raw / raw.sum() * (1.0 - probs[:negatives].sum())
        a, b = SimplexPoint(rng.permutation(probs)), SimplexPoint(probs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [embed(a), affinity(a, b), fisher_rao_distance(a, b), fisher_rao_distance(b, b)]
        assert all(np.all(np.isfinite(r)) for r in results)
        assert np.min(a.probs) >= 0.0

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, position):
        probs = np.array([0.0, 0.5, 0.5])
        probs[position] = bad
        with pytest.raises(NonFiniteInput):
            SimplexPoint(probs)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            SimplexPoint(np.array([0.5, 0.6, 0.2]))
