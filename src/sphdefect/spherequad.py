"""Quadrature on [-1, 1] and on S^d, geodesics, and Gegenbauer moments.

Everything here targets exactness: rule orders are always chosen from the
polynomial degree of the integrand (k*l for k-th powers of a degree-l
Gegenbauer polynomial, 3*l for triple products), so identity checks test
mathematics rather than discretization.  Grids on S^d are hyperspherical
product rules, antipodally symmetric by construction, which makes parity
cancellations exact per realization.

High polynomial degrees (the variance series needs exactness ~4e5) use
Fejer rules (even d; FFT weights, O(n log n)) and closed-form
Gauss-Chebyshev rules for the weight sqrt(1-t^2) (odd d); Gauss-Legendre
node generation is O(n^2) in scipy and is kept for moderate orders and as
the public interval rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp
from scipy.fft import dct as _dct, next_fast_len

from .specfun import _gegenbauer_evaluator, sphere_surface

__all__ = [
    "IntervalRule",
    "QuadratureGrid",
    "gauss_legendre",
    "fejer_rule",
    "chebyshev_sqrt_rule",
    "build_grid",
    "geodesic",
    "gegenbauer_moment",
    "gegenbauer_moment_table",
    "cubic_integral",
    "grid_to_csv",
]


@dataclass(frozen=True)
class IntervalRule:
    """Nodes/weights on [-1, 1] for the plain Lebesgue weight.

    Integrates polynomials exactly (to rounding) up to ``exactness_degree``;
    the weights sum to 2.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def gauss_legendre(n: int) -> IntervalRule:
    """n-point Gauss-Legendre rule on [-1, 1], exactness degree 2n - 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    nodes, weights = _sp.roots_legendre(n)
    # enforce exact +-symmetry of the node set (used for parity arguments)
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return IntervalRule(nodes, weights, 2 * n - 1)


def fejer_rule(n: int) -> IntervalRule:
    """Fejer (first-kind) rule: n interior nodes cos((2j-1) pi / (2n)).

    Exactness degree n - 1 for the plain weight; the weights come from a
    single length-n DCT-III (O(n log n)), so degrees in the 1e5 range stay
    cheap where Gauss-Legendre node generation does not.
    """
    if n < 2:
        n = 2
    # w_j = (2/n) (1 - 2 sum_{m>=1} cos(2 m theta_j)/(4m^2-1)), theta_j =
    # (2j-1) pi/(2n); cos(2 m theta_j) is the k = 2m component of a DCT-III.
    x = np.zeros(n)
    x[0] = 1.0
    m = np.arange(1, (n - 1) // 2 + 1)
    x[2 * m] = -1.0 / (4.0 * m * m - 1.0)
    w = (2.0 / n) * _dct(x, type=3)
    nodes = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))[::-1]
    weights = w[::-1]
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return IntervalRule(nodes, weights, n - 1)


def chebyshev_sqrt_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight sqrt(1 - t^2) on [-1, 1] (Chebyshev, 2nd kind).

    Closed form: nodes cos(j pi/(n+1)), weights pi/(n+1) sin^2(j pi/(n+1));
    exact for polynomial factors up to degree 2n - 1 against the weight.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    j = np.arange(1, n + 1)
    theta = j * math.pi / (n + 1)
    nodes = np.cos(theta)[::-1]
    weights = (math.pi / (n + 1)) * np.sin(theta) ** 2
    weights = weights[::-1]
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


_GL_CUTOFF = 700  # beyond this scipy's O(n^2) root solve is slower than CC


def _weight_rule(d: int, poly_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating f(t) (1-t^2)^((d-2)/2) dt exactly on [-1, 1]
    for every polynomial f with deg f <= poly_degree."""
    m = d - 2
    if m < 0:
        raise ValueError(f"need d >= 2, got {d}")
    if m % 2 == 0:
        need = poly_degree + m  # weight folded into the integrand
        if need <= _GL_CUTOFF:
            rule = gauss_legendre(need // 2 + 1)
        else:
            # an FFT-friendly length: the DCT is several times faster, and
            # extra nodes only raise the exactness
            rule = fejer_rule(next_fast_len(need + 1))
        t, w = rule.nodes, rule.weights
        if m:
            w = w * (1.0 - t * t) ** (m // 2)
        return t, w
    need = poly_degree + (m - 1)
    n = need // 2 + 1
    t, w = chebyshev_sqrt_rule(n)
    if m > 1:
        w = w * (1.0 - t * t) ** ((m - 1) // 2)
    return t, w


def gegenbauer_moment_table(d: int, l: int, k_list) -> dict:
    """Full-range moments  M_k = int_{-1}^{1} G_{l;d}(t)^k (1-t^2)^((d-2)/2) dt
    for every k in ``k_list``, sharing one node set across all powers.

    Equals the theta form  int_0^pi G(cos x)^k (sin x)^(d-1) dx.  The rule is
    sized for the largest power evaluated, so every returned value is exact
    up to rounding.  Odd k*l gives exactly 0.0 by parity, with nothing
    evaluated.  The rule is +-symmetric and G(-t) = (-1)^l G(t) holds bit for
    bit, so the even moments sum over the nodes t >= 0 only, with doubled
    weights (a centre node t = 0 keeps its single weight).
    """
    ks = sorted(set(int(k) for k in k_list))
    if not ks or ks[0] < 1:
        raise ValueError("powers must be >= 1")
    even = [k for k in ks if (k * l) % 2 == 0]
    out = dict.fromkeys(ks, 0.0)
    if not even:
        return out
    t, w = _weight_rule(d, even[-1] * l)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    h = t.size // 2
    w_half = 2.0 * w[h:]
    if t.size % 2:
        w_half[0] = w[h]
    out.update(_gegenbauer_evaluator(d, l).powers_dot(t[h:], w_half, even))
    return out


def _half_range_odd(d: int, l: int, k: int) -> float:
    # int_0^(pi/2) G(cos x)^k (sin x)^(d-1) dx for odd k*l, where the
    # integrand is not even in t; analytic in x, so Gauss-Legendre in the
    # angle converges geometrically.  Doubled until stationary.
    n = max(64, 2 * k * l)
    prev = None
    while n <= 600_000:
        rule = gauss_legendre(n) if n <= _GL_CUTOFF else fejer_rule(n)
        x = (rule.nodes + 1.0) * (math.pi / 4.0)
        f = _gegenbauer_evaluator(d, l)._recurrence(np.cos(x)) ** k
        f *= np.sin(x) ** (d - 1)
        val = (math.pi / 4.0) * float(np.dot(rule.weights, f))
        if prev is not None and abs(val - prev) <= 1e-13 * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    return prev


def gegenbauer_moment(d: int, l: int, k: int, range: str = "half") -> float:
    """Moment integral of the k-th power of G_{l;d} against (sin theta)^(d-1).

    range="full": int_0^pi G_{l;d}(cos x)^k (sin x)^(d-1) dx
    range="half": the same over [0, pi/2].

    Parity: G(-t) = (-1)^l G(t), so the full-range moment vanishes for odd
    k*l and equals twice the half-range moment for even k*l.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if l < 0:
        raise ValueError(f"need l >= 0, got {l}")
    if range not in ("half", "full"):
        raise ValueError(f"range must be 'half' or 'full', got {range!r}")
    if range == "full":
        return gegenbauer_moment_table(d, l, [k])[k]
    if (k * l) % 2 == 1:
        return _half_range_odd(d, l, k)
    return 0.5 * gegenbauer_moment_table(d, l, [k])[k]


def cubic_integral(d: int, l: int) -> float:
    """int_{-1}^{1} G_{l;d}(t)^3 (sqrt(1-t^2))^(d-2) dt by exact-degree rules.

    Zero for odd l by parity.  This is the normalization integral behind the
    Gaunt-square identity and the circulant reduction.
    """
    return gegenbauer_moment(d, l, 3, range="full")


def geodesic(x, y) -> float:
    """Geodesic distance arccos(<x, y>) between unit vectors, in [0, pi].

    Inner products are clamped to [-1, 1] before arccos (rounding can push
    |<x,x>| a few ulp above 1).  Non-unit inputs are rejected.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for v, name in ((x, "x"), (y, "y")):
        norms = np.linalg.norm(v, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ValueError(f"{name} is not a unit vector (|{name}| = {norms})")
    dot = np.clip(np.sum(x * y, axis=-1), -1.0, 1.0)
    out = np.arccos(dot)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature grid on S^d.

    points: (N, d+1) unit vectors; weights sum to |S^d|;
    exactness_degree: polynomials on R^(d+1) of total degree <= this
    integrate exactly (to rounding) when restricted to the sphere;
    antipode_index[i] is the index of the point -points[i] (the point set is
    closed under the antipodal map with exactly equal weights, and the
    mirrored coordinates are exact IEEE negations).
    """

    d: int
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    antipodal_symmetric: bool
    antipode_index: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def primary_indices(self) -> np.ndarray:
        """Indices i with i < antipode_index[i]: one representative per pair."""
        if self.antipode_index is None:
            raise ValueError("grid is not antipodally symmetric")
        i = np.arange(self.size)
        return i[i < self.antipode_index]

    def integrate(self, values: np.ndarray) -> float:
        """Fixed-order weighted sum; deterministic for a given grid."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def _polar_rule(alpha2: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    # rule for weight (1-t^2)^(alpha2/2), alpha2 = d - j - 1 for factor j
    if alpha2 % 2 == 0:
        n = (degree + alpha2) // 2 + 1
        if alpha2 == 0:
            rule = gauss_legendre(n)
            t, w = rule.nodes, rule.weights
        else:
            t, w = _sp.roots_jacobi(n, alpha2 / 2.0, alpha2 / 2.0)
            t = 0.5 * (t - t[::-1])
            w = 0.5 * (w + w[::-1])
    else:
        n = (degree + alpha2 - 1) // 2 + 1
        t, w = chebyshev_sqrt_rule(n)
        if alpha2 > 1:
            w = w * (1.0 - t * t) ** ((alpha2 - 1) // 2)
    return t, w


def build_grid(d: int, degree: int, point_budget: int = 4_000_000) -> QuadratureGrid:
    """Antipodally symmetric product rule on S^d with polynomial exactness.

    Hyperspherical coordinates x = (cos t1, sin t1 cos t2, ...), polar
    factors handled by Gauss rules matched to their (sin)^power weights, the
    periodic angle by a uniform rule with an even node count >= degree + 1.
    The antipodal partner of each point is stored, and its coordinates are
    written as exact negations so parity cancellations are exact.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if d > 6:
        raise ValueError(f"d = {d} unsupported (product rules provided for d <= 6)")
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    degree = max(degree, 1)

    polar = [_polar_rule(d - j - 1, degree) for j in range(1, d)]
    n_phi = degree + 1
    if n_phi % 2:
        n_phi += 1
    n_phi = max(n_phi, 4)
    sizes = [len(t) for t, _ in polar] + [n_phi]
    total = int(np.prod(sizes))
    if total > point_budget:
        raise ValueError(
            f"grid would need {total} points, over the budget of {point_budget}"
        )

    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * math.pi / n_phi)

    # flat enumeration, last axis fastest
    grids = np.meshgrid(*[t for t, _ in polar], phi, indexing="ij")
    flat = [g.reshape(-1) for g in grids]
    weight_grids = np.meshgrid(*[w for _, w in polar], w_phi, indexing="ij")
    weights = np.ones(total)
    for wg in weight_grids:
        weights = weights * wg.reshape(-1)

    points = np.empty((total, d + 1))
    sin_prod = np.ones(total)
    for j in range(d - 1):
        tj = flat[j]
        points[:, j] = sin_prod * tj
        sin_prod = sin_prod * np.sqrt(np.maximum(0.0, 1.0 - tj * tj))
    points[:, d - 1] = sin_prod * np.cos(flat[d - 1])
    points[:, d] = sin_prod * np.sin(flat[d - 1])

    # antipode: every polar node list is exactly +-symmetric (enforced by the
    # rule constructors), phi -> phi + pi is an index shift of n_phi/2
    multi = np.unravel_index(np.arange(total), sizes)
    anti_multi = [sizes[j] - 1 - multi[j] for j in range(d - 1)]
    anti_multi.append((multi[d - 1] + n_phi // 2) % n_phi)
    anti = np.ravel_multi_index(anti_multi, sizes)

    # overwrite the mirror half with exact negations
    primary = np.arange(total) < anti
    points[anti[primary]] = -points[primary]
    weights[anti[primary]] = weights[primary]

    return QuadratureGrid(
        d=d,
        points=points,
        weights=weights,
        exactness_degree=degree,
        antipodal_symmetric=True,
        antipode_index=anti,
    )


def grid_to_csv(grid: QuadratureGrid, path: str) -> None:
    """Dump a grid as CSV with columns x0..xd, weight (debugging aid)."""
    header = ",".join(f"x{i}" for i in range(grid.d + 1)) + ",weight"
    data = np.column_stack([grid.points, grid.weights])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")
