"""Conserved quantities of the geodesic flow on the density sphere.

Position/velocity data on the sphere is projected onto a finite orthonormal
Fourier basis, giving canonical coordinates (q, p).  The angular momenta
h_ij = p_i q_j - p_j q_i are first integrals; two commuting chains are
built from them: nested sums of squares H_m over leading blocks, and
projected invariants H^(k) obtained by deleting the first k basis
directions.  The basis is the grid's own mode enumeration
(``grid.real_modes``) ordered by squared frequency.

A series of samples is projected a chunk at a time (``project_rows``): one
matrix product per chunk against the basis, weighted once per series.  The
chains act on a leading sample axis with the per-sample formulas, so a
sample's values do not depend on its chunk, and the CLI's ``invariants``
keeps only running maxima of the drifts and leaks, never the whole series.
A leak is the L² energy the truncation discards, so it is never negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import SPHERE_TOL, SpherePoint
from .errors import GridMismatch, InvalidGrid, NotTangent, OffSphere
from .grid import PeriodicGrid, ScalarField, _mode_phase, real_modes


def fourier_basis(grid: PeriodicGrid, count: int) -> np.ndarray:
    """First ``count`` real Fourier modes, orthonormal in L²(dμ).

    The first element is the constant 1/sqrt(μ(M)); subsequent elements are
    cosine/sine pairs over ``grid.real_modes`` sorted by (|k|², k).
    """
    if count > min(grid.shape) // 2 - 1:
        raise InvalidGrid("basis size exceeds the resolvable mode count")
    # the first m = count // 2 modes by |k|² have |kₐ| <= m: (1, 0..), ..., (m, 0..) do
    modes = sorted(real_modes(grid, count // 2), key=lambda k: (sum(a * a for a in k), k))
    basis = np.empty((1 + 2 * (count // 2),) + grid.shape)
    basis[0] = 1.0 / np.sqrt(grid.total_volume)
    for k, cos, sin in zip(modes, basis[1::2], basis[2::2]):  # one mode's fields stay in cache
        phase = _mode_phase(grid, k)
        np.cos(phase, out=cos)
        np.sin(phase, out=sin)
    basis[1:] *= np.sqrt(2.0 / grid.total_volume)
    return basis[:count]


@dataclass(frozen=True)
class TruncatedSphereCoords:
    """Coordinates (q, p) of a sphere point and tangent vector in a finite
    orthonormal basis, with the L² energy the truncation discards from each
    (a leak, never negative).  Of one sample, q and p have shape (K,) and the
    leaks are floats; of a stack of samples, q and p are (samples, K) and the
    leaks (samples,)."""

    q: np.ndarray
    p: np.ndarray
    radius: float
    position_leak: float | np.ndarray
    momentum_leak: float | np.ndarray

    @property
    def size(self) -> int:
        return self.q.shape[-1]


def project(f: SpherePoint, fdot: ScalarField, basis: np.ndarray) -> TruncatedSphereCoords:
    """Expand a sphere point and a tangent vector in an orthonormal basis of
    node-value fields, such as ``fourier_basis`` built once for a series.

    Raises NotTangent unless ∫ f · fdot dμ vanishes (relative to the data
    scale).  Each leak is the L² energy the truncation discards,
    max(0, ‖f‖² − |q|²) and max(0, ‖fdot‖² − |p|²): Bessel's inequality
    makes it non-negative, so a negative difference is roundoff and reads 0.
    One sample of ``project_rows``.
    """
    grid = f.grid
    grid.check_compatible(fdot.grid)
    if basis.shape[1:] != grid.shape:
        raise GridMismatch(f"basis fields of shape {basis.shape[1:]} on grid {grid.shape}")
    c = project_rows(grid, f.values.reshape(1, -1), fdot.values.reshape(1, -1),
                     float(f.radius), grid.node_weight * basis.reshape(len(basis), -1))
    return TruncatedSphereCoords(c.q[0], c.p[0], c.radius,
                                 float(c.position_leak[0]), float(c.momentum_leak[0]))


def project_rows(grid: PeriodicGrid, f: np.ndarray, fdot: np.ndarray, radius: float,
                 weighted_basis: np.ndarray) -> TruncatedSphereCoords:
    """``project`` for a stack of samples: rows of node values f and fdot
    (samples × nodes) against ``weighted_basis``, the basis fields as rows
    (K × nodes) times the node weight, formed once for a series.  q and p
    come from one matrix product each, and the stacked coordinates feed the
    chains directly.  Raises OffSphere unless every row of f lies on the
    sphere of the radius (to ``SPHERE_TOL``, as a ``SpherePoint``), and
    NotTangent unless every row pair is tangent."""
    w = grid.node_weight
    norm_f, norm_fdot, pairing = (w * np.einsum("sn,sn->s", a, b)
                                  for a, b in ((f, f), (fdot, fdot), (f, fdot)))
    off = ~(np.abs(norm_f - radius**2) <= SPHERE_TOL * radius**2)  # NaN is off too
    if np.any(off):
        row = int(np.argmax(off))
        raise OffSphere(f"sphere constraint violated at sample {row}: "
                        f"|f|^2 = {norm_f[row]!r}, r^2 = {radius**2!r}")
    skew = np.abs(pairing) > 1e-8 * np.maximum(np.sqrt(norm_f) * np.sqrt(norm_fdot), 1e-300)
    if np.any(skew):
        row = int(np.argmax(skew))
        raise NotTangent(f"velocity is not tangent at sample {row}: <f, fdot> = {pairing[row]!r}")
    # numpy's @ (BLAS), not einsum: 48 against 235 µs for 16 × 1024 × 33 on a
    # 2-vCPU Xeon; beside a competing busy process both had worst calls of
    # 7-9 ms, so BLAS threads add no stall of their own here
    q = f @ weighted_basis.T
    p = fdot @ weighted_basis.T
    return TruncatedSphereCoords(
        q, p, radius,
        np.maximum(norm_f - np.einsum("sk,sk->s", q, q), 0.0),
        np.maximum(norm_fdot - np.einsum("sk,sk->s", p, p), 0.0),
    )


def angular_momenta(c: TruncatedSphereCoords) -> np.ndarray:
    """Antisymmetric matrix h_ij = p_i q_j - p_j q_i, one per sample of a stack."""
    pq = np.einsum("...i,...j->...ij", c.p, c.q)  # p_j q_i is q_i p_j, bit for bit
    return pq - np.swapaxes(pq, -1, -2)


def chain_Hk(c: TruncatedSphereCoords) -> np.ndarray:
    """Nested invariants H_m = Σ_{i<j<=m+1} h_ij², m = 1..K-1, per sample.

    The top element equals |p|²|q|² - (p·q)² (Lagrange identity), which on
    the sphere with tangent p reduces to |p|² r².
    """
    return _nested_sums(angular_momenta(c))


def _nested_sums(h: np.ndarray) -> np.ndarray:
    """``chain_Hk`` from the angular momenta h, one matrix or a stack: the
    CLI's ``invariants`` series has h already."""
    # H_m adds column m of the strict upper triangle: the entries i < m
    h2 = np.square(h)
    np.copyto(h2, 0.0, where=np.tri(h.shape[-1], dtype=bool))  # triu(h², 1), in place
    return np.cumsum(np.sum(h2, axis=-2)[..., 1:], axis=-1)


def chain_Hproj(c: TruncatedSphereCoords) -> np.ndarray:
    """Projected invariants H^(k) for k = 0..K-2, per sample.

    H^(k) = |p^(k)|² |q^(k)|² - (p^(k)·q^(k))² with p^(k), q^(k) the
    projections orthogonal to the first k basis directions; H^(0) equals
    the top element of chain_Hk.
    """
    def tail_sums(v):  # Σ_{i>=k} v_i for k = 0..K-2
        return np.cumsum(v[..., ::-1], axis=-1)[..., :0:-1]

    pp, qq, pq = tail_sums(c.p**2), tail_sums(c.q**2), tail_sums(c.p * c.q)
    return pp * qq - pq**2


def _bracket(grad_a, grad_b) -> float:
    """Canonical Poisson bracket from (∂/∂q, ∂/∂p) gradients."""
    aq, ap = grad_a
    bq, bp = grad_b
    return float(aq @ bp - ap @ bq)


def _h_gradient(i: int, j: int, q: np.ndarray, p: np.ndarray):
    gq = np.zeros_like(q)
    gp = np.zeros_like(p)
    gq[j] = p[i]
    gq[i] -= p[j]
    gp[i] = q[j]
    gp[j] -= q[i]
    return gq, gp


def _chain_gradient(m: int, q: np.ndarray, p: np.ndarray):
    """Closed-form gradient of H_m = Σ_{i<j<=m+1} h_ij²."""
    n = m + 1
    h = np.outer(p[:n], q[:n]) - np.outer(q[:n], p[:n])
    gq = np.zeros_like(q)
    gp = np.zeros_like(p)
    gq[:n] = -2.0 * h @ p[:n]
    gp[:n] = 2.0 * h @ q[:n]
    return gq, gp


def poisson_bracket_check(seed: int, count: int = 8, n_points: int = 100) -> dict:
    """Verify the commutation relations at random phase-space points.

    Brackets are evaluated from closed-form partial derivatives (no finite
    differences).  Returns the largest defects of {h_ij, h_jk} = h_ik over
    ordered triples and of {H_i, H_j} = 0 over all chain pairs.
    """
    rng = np.random.default_rng(seed)
    so_residual = 0.0
    chain_residual = 0.0
    for _ in range(n_points):
        q = rng.standard_normal(count)
        p = rng.standard_normal(count)
        h = np.outer(p, q) - np.outer(q, p)
        for i in range(count):
            for j in range(i + 1, count):
                for k in range(j + 1, count):
                    value = _bracket(_h_gradient(i, j, q, p), _h_gradient(j, k, q, p))
                    so_residual = max(so_residual, abs(value - h[i, k]))
        grads = [_chain_gradient(m, q, p) for m in range(1, count)]
        for a in range(len(grads)):
            for b in range(a + 1, len(grads)):
                chain_residual = max(
                    chain_residual, abs(_bracket(grads[a], grads[b]))
                )
    return {"so_residual": so_residual, "chain_residual": chain_residual}


def default_truncation(grid: PeriodicGrid) -> int:
    """K = min(33, N/2 - 1): lossless for the band-limited geodesics used in
    verification, with the leak reported otherwise."""
    return min(33, min(grid.shape) // 2 - 1)
