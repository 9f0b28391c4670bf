"""Quadrature on [-1, 1] and on S^d, and Gegenbauer moments.

Everything here targets exactness: rule orders are always chosen from the
polynomial degree of the integrand (k*l for k-th powers of a degree-l
Gegenbauer polynomial, 3*l for triple products), so identity checks test
mathematics rather than discretization.  Grids on S^2 and S^3 are
hyperspherical product rules laid out ring by ring, antipodally symmetric
by construction, which makes parity cancellations exact per realization.

Gegenbauer moments (the variance series needs exactness ~4e5) use rules
that are uniform in the angle t = cos x: Fejer rules (even d; FFT weights,
O(n log n)) and closed-form Gauss-Chebyshev rules for the weight
sqrt(1-t^2) (odd d).  On those angles G_{l;d} is its finite cosine series,
lam = (d-1)/2,

    G_{l;d}(cos x) = sum_{k=0}^{l} c_k cos((l-2k) x),
    c_k proportional to (lam)_k (lam)_{l-k} / (k! (l-k)!),  sum_k c_k = 1,

so one DCT of the coefficients (specfun.dct, on numpy's real FFT) gives G
at the exact rule angles (DCT-III on Fejer rules, DCT-I on Chebyshev ones),
in place of l recurrence steps per node.  Gauss-Legendre rules come from
Newton's method on the three-term recurrence, O(n^2) and converged to
rounding; they serve the moderate orders of the product grids and the
Bessel lobe panels.  Adaptive angle-space integrals run Fejer rules at
every size.  Every interval rule is a (nodes, weights) pair of arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _gegenbauer_evaluator, dct, next_fast_len, powers_dot

__all__ = [
    "QuadratureGrid",
    "gauss_legendre",
    "fejer_rule",
    "chebyshev_sqrt_rule",
    "build_grid",
    "gegenbauer_moment",
    "gegenbauer_moment_table",
    "cubic_integral",
]


def _symmetric(x: np.ndarray, w: np.ndarray):
    """Nodes and weights made exactly +-symmetric (parity arguments use it)."""
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_(n-1)(x), P_n(x)) for n >= 1 by the three-term recurrence, in
    the form P_(k+1) = t + (k/(k+1)) (t - P_(k-1)), t = x P_k, in place."""
    prev, p, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, p, out=t)
        np.subtract(t, prev, out=prev)
        prev *= k / (k + 1)
        prev += t
        prev, p = p, prev
    return prev, p


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre (nodes, weights) on [-1, 1], exactness degree
    2n - 1; the weights sum to 2.

    Newton's method on P_n, run to convergence on the positive nodes from
    Tricomi's guesses (1 - (n-1)/(8 n^3)) cos(pi (4k-1)/(4n+2)), with
    P_n' = n (P_(n-1) - x P_n)/(1 - x^2) and the weights 2/((1 - x^2)
    P_n'^2), taken at the root to first order in the last step (Hale &
    Townsend, SIAM J. Sci. Comput. 2013).  The centre weight of odd n is
    the closed form 2/(n P_(n-1)(0))^2, P_(n-1)(0)^2 = C(n-1, (n-1)/2)^2
    / 4^(n-1), in exact integers.  The negative half is the mirror image,
    so nodes and weights are exactly +-symmetric and the centre node is
    0.0 (used for parity arguments).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    k = np.arange(n // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos((4.0 * k - 1.0) * (math.pi / (4 * n + 2)))
    for _ in range(20):  # three steps from these guesses
        pm, pn = _legendre_pair(n, x)
        s = 1.0 - x * x
        dp = n * (pm - x * pn) / s
        dx = pn / dp
        # w(x) = 2/(s dp^2) has d log w/dx = 2x/s at a root, and the root is x - dx
        w = 2.0 / (s * dp * dp) * (1.0 + 2.0 * x * dx / s)
        x -= dx
        # the error left is about x dx^2/s, relative to x
        if np.max(dx * dx / s, initial=0.0) <= 1e-20:
            break
    centre = [0.0] if n % 2 else []
    weight = [(2 * 4 ** (n - 1)) / (n * math.comb(n - 1, n // 2)) ** 2] if n % 2 else []
    return (np.concatenate([-x[::-1], centre, x]),
            np.concatenate([w[::-1], weight, w]))


def fejer_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fejer (first-kind) (nodes, weights): n interior nodes cos((2j-1) pi / (2n)).

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
    w = (2.0 / n) * dct(x, 3)
    nodes = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))[::-1]
    return _symmetric(nodes, w[::-1])


def chebyshev_sqrt_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight sqrt(1 - t^2) on [-1, 1] (Chebyshev, 2nd kind).

    Closed form: nodes cos(j pi/(n+1)), weights pi/(n+1) sin^2(j pi/(n+1));
    exact for polynomial factors up to degree 2n - 1 against the weight.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    j = np.arange(1, n + 1)
    theta = j * math.pi / (n + 1)
    weights = (math.pi / (n + 1)) * np.sin(theta) ** 2
    return _symmetric(np.cos(theta)[::-1], weights[::-1])


def _weight_rule(d: int, poly_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating f(t) (1-t^2)^((d-2)/2) dt exactly on [-1, 1]
    for every polynomial f with deg f <= poly_degree.

    The rule is uniform in the angle at every size: Fejer (first-kind
    Chebyshev points) for even d, Gauss-Chebyshev of the second kind for
    odd d.  Lengths are FFT-friendly, since the weights and the Gegenbauer
    values on the rule are DCTs of that length; extra nodes only raise the
    exactness.
    """
    m = d - 2
    if m < 0:
        raise ValueError(f"need d >= 2, got {d}")
    if m % 2 == 0:
        need = poly_degree + m  # weight folded into the integrand
        t, w = fejer_rule(next_fast_len(need + 1))
        if m:
            w = w * (1.0 - t * t) ** (m // 2)
        return t, w
    need = poly_degree + (m - 1)
    # n + 1 5-smooth: the values' DCT-I runs as a real FFT of length 2(n+1)
    n = next_fast_len(need // 2 + 2, real=True) - 1
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
    evaluated.  The rule is +-symmetric and G(-t) = (-1)^l G(t), so the even
    moments sum over the nodes t >= 0 only, with doubled weights (a centre
    node t = 0 keeps its single weight).  G on the rule is one DCT of its
    cosine series (GegenbauerEvaluator.chebyshev_values), at the exact rule
    angles.
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
    n = t.size
    h = n // 2
    w_half = 2.0 * w[h:]
    if n % 2:
        w_half[0] = w[h]
    del t, w  # only the t >= 0 half goes on; the transform needs the room
    g = np.ascontiguousarray(
        _gegenbauer_evaluator(d, l).chebyshev_values(n, 2 if d % 2 else 1)[h:])
    out.update(powers_dot(g, w_half, even))
    return out


def _half_angle_integral(f, n: int, rtol: float, n_max: int) -> float:
    """int_0^(pi/2) f(x) dx by the Fejer rule of n nodes, doubled until one
    sample resolves f or doubling would pass n_max.

    The rule integrates the sample's Chebyshev interpolant sum a_k T_k, so
    its error is the aliased tail k >= n, each term weighted by |int T_k|
    <= 2/(k^2-1).  Resolved: the last n/32 coefficients, taken for the next
    n/8, give 16 sum |a_k|/k^2 <= rtol |integral| (a chopping rule after
    Aurentz & Trefethen, ACM TOMS 2017).  The angle-space integrands here
    are analytic, so the a_k fall geometrically (Trefethen, SIAM Review
    2008); rule weights and coefficients are one DCT each.
    """
    while True:
        x, w = fejer_rule(n)
        fx = f((x + 1.0) * (math.pi / 4.0))
        val = float(np.dot(w, fx))
        m = max(n // 32, 1)
        k = np.arange(n - m, n, dtype=float)
        tail = 16.0 / n * float(np.sum(np.abs(dct(fx, 2)[-m:]) / (k * k)))
        if tail <= rtol * abs(val) or 2 * n > n_max:
            return (math.pi / 4.0) * val
        n *= 2


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
    if (k * l) % 2 == 1:  # the integrand is not even in t: angle-space rule
        g = _gegenbauer_evaluator(d, l)._recurrence
        return _half_angle_integral(lambda x: g(np.cos(x)) ** k * np.sin(x) ** (d - 1),
                                    max(64, 2 * k * l), 1e-13, 600_000)
    return 0.5 * gegenbauer_moment_table(d, l, [k])[k]


def cubic_integral(d: int, l: int) -> float:
    """int_{-1}^{1} G_{l;d}(t)^3 (sqrt(1-t^2))^(d-2) dt by exact-degree rules.

    Zero for odd l by parity.  This is the normalization integral behind the
    Gaunt-square identity and the circulant reduction.
    """
    return gegenbauer_moment(d, l, 3, range="full")


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product quadrature grid on S^2 or S^3, as built by :func:`build_grid`.

    The grid stores its ring layout only, O(rings) numbers: ``ring_nodes``
    holds one array of cos nodes per polar axis, whose entry g is ring g's
    node on that axis, ``ring_weights[g]`` is the weight of every point of
    ring g, and each ring has the azimuths phi_j = 2 pi j / n_phi.
    exactness_degree: polynomials on R^(d+1) of total degree <= this
    integrate exactly (to rounding) when restricted to the sphere.  The N
    points are numbered ring by ring, azimuth fastest within a ring.

    Antipodal ring rule: every polar node list is exactly +-symmetric, so
    ring R-1-g has the negated cos nodes of ring g and exactly its weight,
    and the antipode of point (g, j) is (R-1-g, j + n_phi/2 mod n_phi):
    ring R-1-g is ring g turned by half a ring.  For odd R the centre ring
    is its own image.  The first N/2 points are the primary half.  Grids
    compare and hash by identity.
    """

    d: int
    exactness_degree: int
    ring_nodes: tuple
    ring_weights: np.ndarray
    n_phi: int

    @property
    def size(self) -> int:
        return self.ring_weights.size * self.n_phi


# points a grid may have; build_grid refuses larger ones before any rule
_POINT_BUDGET = 4_000_000


def _ring_layout(rules, n_phi: int) -> tuple[list, np.ndarray]:
    """The rings of a product grid, in polar multi-index order (last axis
    fastest): one array of cos nodes per polar axis, whose entry g is ring
    g's node on that axis, and the weight of each point of ring g, the
    product of its polar weights times the azimuth weight 2 pi / n_phi."""
    nodes, weights = [], np.ones(1)
    for t, w in rules:
        nodes = [np.repeat(x, t.size) for x in nodes] + [np.tile(t, weights.size)]
        weights = np.multiply.outer(weights, w).ravel()
    return nodes, weights * (2.0 * math.pi / n_phi)


def build_grid(d: int, degree: int) -> QuadratureGrid:
    """Antipodally symmetric product rule on S^2 or S^3 with polynomial exactness.

    Hyperspherical coordinates x = (cos t1, sin t1 cos t2, ...).  Each polar
    factor has degree//2 + 1 Gauss nodes matched to its (sin)^power weight
    (second-kind Gauss-Chebyshev for the first angle on S^3, Gauss-Legendre
    for the last polar angle); the azimuth is a uniform rule with an even
    node count n_phi >= degree + 1.

    Only the ring layout is built: rings in polar multi-index order (last
    axis fastest), the azimuth phi_j = 2 pi j / n_phi fastest within a
    ring, under the antipodal ring rule of :class:`QuadratureGrid`.  The
    point count is checked against the budget before any rule is built.
    """
    if d not in (2, 3):
        raise ValueError(f"product grids exist for d in {{2, 3}}, got d={d}")
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    degree = max(degree, 1)
    n_polar = degree // 2 + 1
    n_phi = max(2 * n_polar, 4)
    total = n_polar ** (d - 1) * n_phi
    if total > _POINT_BUDGET:
        raise ValueError(
            f"grid would need {total} points, over the budget of {_POINT_BUDGET}"
        )

    polar = [gauss_legendre(n_polar)]
    if d == 3:  # chi's weight sin(chi) goes first
        polar.insert(0, chebyshev_sqrt_rule(n_polar))
    nodes, ring_weights = _ring_layout(polar, n_phi)
    return QuadratureGrid(d=d, exactness_degree=degree, ring_nodes=tuple(nodes),
                          ring_weights=ring_weights, n_phi=n_phi)
