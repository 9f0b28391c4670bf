"""Wiener-chaos series of the defect: weights, variances, limit constants.

The defect D of the random degree-l eigenfunction lives in the odd Wiener
chaoses; its variance is the series

    Var(D) = 2 sum_{q>=1} w_q |S^d| |S^(d-1)| int_0^(pi/2) G_{l;d}(cos x)^(2q+1) (sin x)^(d-1) dx,

with weights w_q = J_{2q+1}^2/(2q+1)! = (2/pi) (2q)! / (4^q (q!)^2 (2q+1)),
the squared odd-chaos coefficients of the sign function (equivalently the
Taylor coefficients of (2/pi) arcsin).  This module computes the weights
stably to q ~ 1e6, and the variance as a certified bracket: the series to
order q plus an enclosure of |S^d||S^(d-1)| int_0^pi R_q(G(cos x)) (sin
x)^(d-1) dx, R_q(g) = (2/pi)(arcsin g - g) - sum_{j<=q} w_j g^(2j+1).  R_q
has positive Taylor coefficients, so it is odd and R_q, R_q', R_q'' rise
on [0, 1): a cell with lo <= G <= hi adds between mu R_q(lo) and mu
R_q(hi).  On the polar cap x <= 1.25/l, G(cos x) = sum_m c_m cos(m x), all
c_m > 0 (Szego 4.9.19), falls strictly (m x < pi) with |G'| <= kappa x,
|G''| <= kappa, kappa = sum m^2 c_m = l(l+d-1)/d.  Next to the pole the
cell ends enclose G; on the rest of the cap each cell is its midpoint
value plus a second-derivative remainder (Tucker, Validated Numerics,
2011), so the cap's width falls as cells^-2.  Beyond, the degree-l trig
polynomial G(cos x), |G| <= 1, has |G''| <= l^2 (Bernstein; Borwein &
Erdelyi 1995), so it is within l^2 h^2/8 of its chord.  Also the
scaled limit constant

    C_d = 2 |S^d||S^(d-1)| sum_{q>=1} w_q c_{2q+1;d},
    c_{2q+1;d} = int_0^inf Jt_d(psi)^(2q+1) psi^(d-1) dpsi,

by that series and, independently, by the conditionally convergent integral

    C_d = (4/pi) |S^d||S^(d-1)| int_0^inf psi^(d-1) (arcsin Jt_d - Jt_d) dpsi,

both handled by lobe partition at the Bessel zeros plus repeated averaging
of the alternating partial sums (plain upper-limit truncation diverges too
slowly to be usable); all orders wanted form one (order x lobe) matrix of
lobe sums, averaged in one call.  One lobe rule per (d, n_lobes), with its
Jt_d values, is kept per process (read-only) and serves every order and
both routes.  Exact integer combinatorial inequalities of the
fourth-moment analysis: facile_check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import (_LOG_TINY, ScaledBesselKernel, _gegenbauer_evaluator, _horner,
                      bessel_j, hurwitz_zeta, sphere_surface)
from .spherequad import _half_angle_integral, gauss_legendre, gegenbauer_moment_table

__all__ = [
    "VarianceReport",
    "ConstantEstimate",
    "FacileReport",
    "chaos_weight",
    "chaos_weights_upto",
    "weight_tail_estimate",
    "indicator_l2_sum",
    "exact_variance",
    "variance_closed_form",
    "c3_closed",
    "c_coefficient",
    "constant_estimate",
    "defect_constant_lower_bound",
    "facile_check",
]

_W1 = 1.0 / (3.0 * math.pi)
_PI_32 = math.pi ** -1.5


def chaos_weights_upto(q_max: int) -> np.ndarray:
    """Array [w_1, ..., w_{q_max}] by the stable product recurrence.

    w_q / w_{q-1} = ((2q-1)/(2q)) * ((2q-1)/(2q+1)); no factorial overflow
    at any order (w_q ~ pi^(-3/2) q^(-3/2)).
    """
    if q_max < 1:
        raise ValueError(f"need q_max >= 1, got {q_max}")
    q = np.arange(2, q_max + 1, dtype=float)
    ratios = (2 * q - 1.0) ** 2 / ((2 * q) * (2 * q + 1.0))
    out = np.empty(q_max)
    out[0] = _W1
    if q_max > 1:
        out[1:] = _W1 * np.cumprod(ratios)
    return out


def chaos_weight(q: int) -> float:
    """w_q = (2/pi) (2q)!/(4^q (q!)^2 (2q+1)), the q-th odd-chaos weight."""
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    return float(chaos_weights_upto(q)[-1])


# w_q = pi^(-3/2) q^(-3/2) (1 - (5/8)/q + (41/128)/q^2 - (159/1024)/q^3 + ...)
_W_ASY = (1.0, -5.0 / 8.0, 41.0 / 128.0, -159.0 / 1024.0)


def weight_tail_estimate(q_from: int) -> float:
    """Accurate tail completion for sum_{q > q_from} w_q.

    Hurwitz-zeta sums of the q^(-3/2) asymptotic expansion; the neglected
    term is O(q_from^(-9/2)), so the estimate reaches ~1e-18 absolute by
    q_from = 1e4.
    """
    s = 0.0
    for j, coeff in enumerate(_W_ASY):
        s += coeff * hurwitz_zeta(1.5 + j, q_from + 1)
    return _PI_32 * s


def indicator_l2_sum(q_max: int = 100_000) -> float:
    """sum over q >= 0 of (phi(0) H_{2q}(0))^2 / (2q+1)! with tail completion.

    Equals Phi(0)(1 - Phi(0)) = 1/4, the L^2 norm of the centered indicator
    of a half-line under the standard Gaussian; each term is w_q / 4 with
    w_0 = 2/pi (the arcsin Taylor series evaluated at 1).
    """
    partial = 2.0 / math.pi + float(np.sum(chaos_weights_upto(q_max)))
    return 0.25 * (partial + weight_tail_estimate(q_max))


@dataclass(frozen=True)
class VarianceReport:
    """Defect variance certified in [value, value + tail_bound]: the series
    to order q_used (terms per_q) plus its remainder's lower enclosure, less
    the rounding allowance; tail_bound is the width, allowances included."""

    d: int
    l: int
    q_used: int
    value: float
    tail_bound: float
    per_q: np.ndarray
    tol: float
    tol_achieved: bool


# Relative rounding allowance at each end of the bracket: partial sums moved
# <= 1.3e-13 across rule sizes (d <= 5, l <= 400, q <= 2048), weights match
# mpmath to 3e-15, and the enclosure rounds far below that.
_ROUNDING = 2e-12
_Q_MIN, _Q_MAX = 64, 2048
_CELLS_MIN, _CELLS_MAX = 64, 2 ** 16
# first-order cells on [0, _POLE / l], where R_q'' grows as G -> 1
_POLE, _POLE_CELLS = 5e-4, 256


def _remainder(g, q: int) -> np.ndarray:
    """R_q(g), |g| <= 1: the difference, partial sum by Horner in g^2, for
    g^2 > 1/4; below, where that cancels, the positive tail g^(2q+3)
    sum_{j<40} w_(q+1+j) g^(2j), short by < (4/3) 4^-40 (decreasing w).
    """
    g = np.asarray(g, dtype=float)
    w = chaos_weights_upto(q + 40)
    small = g * g <= 0.25
    gs, gb = g[small], g[~small]
    out = np.empty_like(g)
    out[small] = gs ** (2 * q + 3) * _horner(w[q:], gs * gs)
    out[~small] = (2.0 / math.pi) * (np.arcsin(gb) - gb) - gb ** 3 * _horner(w[:q], gb * gb)
    return out


def _remainder_slopes(g, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(R_q'(g), R_q''(g)) for 0 <= g < 1, as :func:`_remainder` evaluates
    R_q: for g^2 > 1/4 the closed forms (2/pi)((1-g^2)^(-1/2) - 1) and
    (2/pi) g (1-g^2)^(-3/2) less their partial sums, floored at 0 (both are
    >= 0 there); below, the positive tails sum_{j>q} (2j+1) w_j g^(2j) and
    sum_{j>q} 2j (2j+1) w_j g^(2j-1) to 40 terms, whose ratios are at most
    (5/4) g^2, so short by < 1e-19 relative.
    """
    g = np.asarray(g, dtype=float)
    j = np.arange(1.0, q + 41)
    c1 = (2.0 * j + 1.0) * chaos_weights_upto(q + 40)  # of g^(2j) in R_q'
    c2 = 2.0 * j * c1  # of g^(2j-1) in R_q''
    small = g * g <= 0.25
    gs, gb = g[small], g[~small]
    r1, r2 = np.empty_like(g), np.empty_like(g)
    r1[small] = gs ** (2 * q + 2) * _horner(c1[q:], gs * gs)
    r2[small] = gs ** (2 * q + 1) * _horner(c2[q:], gs * gs)
    u = (1.0 - gb) * (1.0 + gb)
    r1[~small] = (2.0 / math.pi) * (u ** -0.5 - 1.0) - gb * gb * _horner(c1[:q], gb * gb)
    r2[~small] = (2.0 / math.pi) * gb * u ** -1.5 - gb * _horner(c2[:q], gb * gb)
    return np.maximum(r1, 0.0), np.maximum(r2, 0.0)


def _sin_power_integral(n: int, x: np.ndarray) -> np.ndarray:
    """int_0^x (sin t)^n dt, 0 <= x <= pi/2, to 2e-14 relative (n <= 7): up
    to pi/4 int_0^(sin x) u^n (1-u^2)^(-1/2) du, beyond the whole less
    int_0^(cos x) (1-u^2)^((n-1)/2) du, each by its binomial series in u^2
    <= 1/2 (positive, resp. first-term led).  From the u^6 term on, every
    coefficient is below 1/2 in modulus and 1 - u^2 >= 1/2, so K >= 3 terms
    with max(u^2)^K <= 2e-17 leave less than that: 56 terms at u^2 = 1/2, 4
    on the polar cap x <= 1.25/l at l = 400.
    """
    near = x <= math.pi / 4
    s, c = np.sin(x[near]), np.cos(x[~near])
    top = max(float(np.max(s * s, initial=0.0)), float(np.max(c * c, initial=0.0)))
    terms = max(3, math.ceil(math.log(2e-17) / math.log(top))) if top > 0.0 else 3
    k, odd = np.arange(1.0, terms), np.arange(1.0, 2.0 * terms, 2.0)
    up = np.cumprod(np.r_[1.0, (k - 0.5) / k]) / (odd + n)
    down = np.cumprod(np.r_[1.0, (k - 1.0 - (n - 1) / 2.0) / k]) / odd
    out = np.empty_like(x)
    out[near] = s ** (n + 1) * _horner(up, s * s)
    out[~near] = (math.sqrt(math.pi) * math.gamma((n + 1) / 2.0) / (2.0 * math.gamma(n / 2.0 + 1.0))
                  - c * _horner(down, c * c))
    return out


def _midpoint_radius(d: int, l: int, q: int, a: np.ndarray, b: np.ndarray,
                     g_a: np.ndarray) -> np.ndarray:
    """Per cap cell [a, b], 0 < a < b <= 1.25/l, with g_a = G(cos a): the
    radius about R_q(G(cos m)) mu0 that holds int R_q(G(cos x)) (sin
    x)^(d-1) dx over the cell, mu0 the cell's int (sin x)^(d-1).

    With phi = R_q o G, s = sin^(d-1), midpoint m and width h, the integral
    is phi(m) mu0 + phi'(m) mu1 + a remainder below (1/2) M2 s(b) h^3/12,
    |mu1| = |int (x-m)(s(x)-s(m))| <= s'max h^3/12, s'max = (d-1)
    sin^(d-2)(b).  G = sum_m c_m cos(m x) with c_m >= 0 gives |G'| <= kappa
    x and |G''| <= kappa, kappa = sum m^2 c_m = l(l+d-1)/d.  On the cap G
    falls and stays above 1 - kappa x^2/2 > 0.4, and R_q', R_q'' rise on
    [0, 1), so at G(a) they bound the cell: |phi'| <= R_q' kappa b and
    |phi''| <= M2 = R_q'' (kappa b)^2 + R_q' kappa.
    """
    r1, r2 = _remainder_slopes(g_a, q)
    kappa = l * (l + d - 1) / d
    sin_b = np.sin(b)
    m2 = r2 * (kappa * b) ** 2 + r1 * kappa
    return (b - a) ** 3 / 12.0 * (0.5 * m2 * sin_b ** (d - 1)
                                  + r1 * kappa * b * (d - 1) * sin_b ** (d - 2))


def _tail_bracket(d: int, l: int, q: int, cells: int) -> tuple[float, float]:
    """[lo, hi] enclosing int_0^pi R_q(G(cos x)) (sin x)^(d-1) dx, even l,
    as twice [0, pi/2].  The cap [0, X], X = j0 pi/p in [1/l, 1.25/l]:
    _POLE_CELLS equal cells up to _POLE/l, each between R_q at its ends,
    then ``cells`` geometric cells to X, each its midpoint value +-
    :func:`_midpoint_radius` (G from its pole series throughout); beyond,
    width pi/p <= 1/(4l), Bernstein chords.  One R_q call serves all cells.
    """
    ev = _gegenbauer_evaluator(d, l)
    p = 2 * math.ceil(2.0 * math.pi * l)
    j0 = math.ceil(p / (math.pi * l))
    x_out = np.arange(j0, p // 2 + 1) * (math.pi / p)
    g_out = ev.chebyshev_values(p - 1, 2)[::-1][j0 - 1:p // 2]
    x_pole = np.linspace(0.0, _POLE / l, _POLE_CELLS + 1)
    x_mid = np.geomspace(x_pole[-1], x_out[0], cells + 1)
    edges = np.concatenate((x_pole, x_mid[1:]))  # of every cap cell
    g_cap = 1.0 - ev.pole_gap(np.concatenate((edges, 0.5 * (x_mid[:-1] + x_mid[1:]))))
    slack = (l * math.pi / p) ** 2 / 8.0
    lo_out = np.maximum(np.minimum(g_out[:-1], g_out[1:]) - slack, -1.0)
    hi_out = np.minimum(np.maximum(g_out[:-1], g_out[1:]) + slack, 1.0)
    r = _remainder(np.concatenate((g_cap[:x_pole.size], g_cap[edges.size:], lo_out, hi_out)), q)
    r_pole, r_mid, r_lo, r_hi = np.split(r, np.cumsum([x_pole.size, cells, lo_out.size]))
    mu = np.diff(_sin_power_integral(d - 1, edges))
    mu_pole, mu_mid = mu[:_POLE_CELLS], mu[_POLE_CELLS:]
    mu_out = np.diff(_sin_power_integral(d - 1, x_out))
    mid = float(mu_mid @ r_mid)
    err = float(np.sum(_midpoint_radius(d, l, q, x_mid[:-1], x_mid[1:],
                                        g_cap[_POLE_CELLS:edges.size - 1])))
    return (2.0 * (float(mu_pole @ r_pole[1:]) + mid - err + float(mu_out @ r_lo)),
            2.0 * (float(mu_pole @ r_pole[:-1]) + mid + err + float(mu_out @ r_hi)))


def _plan(d: int, target: float, q_max: int | None) -> tuple[int, int]:
    """(order, midpoint cells) for a cap enclosure of relative width ``target``.

    Geometric cells of ratio e^eps, eps = ln(1.25/_POLE)/cells, bracket the
    remainder T to ~0.3 d(d-1) eps^2 T (measured, d = 2..6, the constant
    within 5% over l and q); T/Var is below the q^(-(3+d)/2) tail of sum
    w_q c_{2q+1;d} over its first term, about 2.5x high at d = 2.  The
    model takes d(d-1)/2, so it is met with room.  The table and the cells
    both cost more as q rises, so the order stays _Q_MIN unless that needs
    more than _CELLS_MAX cells; then it is the least meeting ``target``.
    Cells are planned at _Q_MIN, so a pinned order does not change them.
    """
    k_d = _PI_32 * d ** (d / 2.0) * math.gamma(d / 2.0) / 2.0  # w_q c_{2q+1;d} ~ k_d q^-(3+d)/2

    def need(q):
        return math.log(1.25 / _POLE) * math.sqrt(
            d * (d - 1) / 2.0 * k_d * hurwitz_zeta((3 + d) / 2.0, q + 1)
            / (_W1 * c3_closed(d) * target))
    cells = min(max(math.ceil(need(_Q_MIN)), _CELLS_MIN), _CELLS_MAX)
    q = _Q_MIN if q_max is None else q_max
    while q_max is None and q < _Q_MAX and need(q) > cells:
        q = min(_Q_MAX, q + q // 4)
    return q, cells


def exact_variance(d: int, l: int, tol: float = 1e-8, q_max: int | None = None) -> VarianceReport:
    """Var(D_l) on S^d as a certified bracket (see the module docstring).

    Odd l: exactly 0 (antipodal parity kills every odd moment).  Even l:
    the series to order q from the moment tables plus the enclosure of
    :func:`_tail_bracket`, widened by _ROUNDING (relative) at both ends.
    q and the cap cells are the cheapest meeting tol/5 in the asymptotic
    model of :func:`_plan`, unless ``q_max`` pins q; the realized width is
    about 0.12 tol.  tol_achieved compares the computed width with ``tol``.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if q_max is not None and q_max < 1:
        raise ValueError(f"need q_max >= 1, got {q_max}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"need a finite tol > 0, got {tol}")
    if l % 2 == 1:
        return VarianceReport(d, l, 0, 0.0, 0.0, np.zeros(0), tol, True)
    ss = sphere_surface(d) * sphere_surface(d - 1)
    q, cells = _plan(d, max(0.2 * tol - 2.0 * _ROUNDING, _ROUNDING), q_max)
    ks = range(3, 2 * q + 2, 2)
    table = gegenbauer_moment_table(d, l, ks)
    per_q = ss * chaos_weights_upto(q) * np.array([table[k] for k in ks])
    partial = float(np.sum(per_q))
    lo, hi = _tail_bracket(d, l, q, cells)
    value = partial * (1.0 - _ROUNDING) + ss * lo
    width = ss * (hi - lo) + 2.0 * _ROUNDING * partial
    return VarianceReport(d, l, q, value, width, per_q, tol,
                          bool(width <= tol * max(value, 1e-300)))


def variance_closed_form(d: int, l: int) -> float:
    """Var(D_l) by the summed series (4/pi) |S^d||S^(d-1)| *
    int_0^(pi/2) (arcsin G - G)(cos x) (sin x)^(d-1) dx  (even l >= 2 only;
    at l = 0 the first chaos, which the formula leaves out, does not vanish).

    Independent of the term-by-term route: the arcsin of G, G by its
    recurrence, is integrated directly under a Fejer rule in the angle of
    6l nodes, doubled until the sample's Chebyshev tail resolves it (the
    integrand is analytic).  Within 3e-14 (l = 100) to 2.5e-11 (l = 2000,
    the recurrence's rounding) of a 16l-node rule.  Used as a cross-check
    oracle.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if l % 2 == 1:
        raise ValueError("closed form applies to even l only (odd l gives 0)")
    ev = _gegenbauer_evaluator(d, l)

    def f(x):
        g = np.clip(ev._recurrence(np.cos(x)), -1.0, 1.0)
        return (np.arcsin(g) - g) * np.sin(x) ** (d - 1)

    val = _half_angle_integral(f, max(128, 6 * l), 1e-12, 300_000)
    return 4.0 / math.pi * sphere_surface(d) * sphere_surface(d - 1) * val


def c3_closed(d: int) -> float:
    """Closed form of c_{3;d} = int_0^inf Jt_d(psi)^3 psi^(d-1) dpsi:

    (2^(d/2-1) Gamma(d/2))^3 * 3^((d-3)/2) / (2^(3d/2 - 4) sqrt(pi) Gamma((d-1)/2)).
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    num = (2.0 ** (d / 2.0 - 1.0) * math.gamma(d / 2.0)) ** 3 * 3.0 ** (d / 2.0 - 1.5)
    den = 2.0 ** (3.0 * (d / 2.0 - 1.0) - 1.0) * math.sqrt(math.pi) * math.gamma(d / 2.0 - 0.5)
    return num / den


# ---------------------------------------------------------------------------
# oscillatory integrals over [0, inf): lobe partition at Bessel zeros +
# repeated averaging (Euler transformation) of the alternating partial sums


def _bessel_zeros(d: int, count: int) -> np.ndarray:
    """The first ``count`` positive zeros of J_nu, nu = d/2 - 1, increasing.

    Consecutive zeros are more than pi/2 apart at every nu >= 0 (their gaps
    tend to pi from below at nu < 1/2 and from above at nu > 1/2) and
    j_{nu,1} > nu, so a scan from nu in steps of pi/2 puts each zero alone
    in a cell where J_nu changes sign.  (McMahon guesses alone are too far
    off for the first zeros at large order.)
    """
    nu = d / 2.0 - 1.0
    k = np.arange(1, count + 1)
    beta = (k + nu / 2.0 - 0.25) * math.pi
    guess = beta - (4.0 * nu * nu - 1.0) / (8.0 * beta)
    end = guess[-1] + math.pi
    while True:
        x = nu + 0.5 * math.pi * np.arange(math.ceil((end - nu) / (0.5 * math.pi)) + 1)
        positive = bessel_j(nu, x) > 0.0
        cells = np.flatnonzero(positive[:-1] != positive[1:])
        if cells.size >= count:
            break
        end += (count - cells.size) * math.pi
    cells = cells[:count]
    lo, hi, lo_positive = x[cells], x[cells + 1], positive[cells]
    # Newton from the McMahon guess, with J' = (nu/x) J_nu - J_{nu+1};
    # a step that leaves the shrinking bracket is replaced by bisection
    z = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    for _ in range(100):
        f = bessel_j(nu, z)
        left = (f > 0.0) == lo_positive
        lo, hi = np.where(left, z, lo), np.where(left, hi, z)
        new = z - f / (nu / z * f - bessel_j(nu + 1.0, z))
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - z) <= 4.0 * np.finfo(float).eps * z
        z = new
        if done.all():
            break
    return z


@dataclass(frozen=True)
class _LobeRule:
    """Shared nodes for integrals between consecutive Bessel zeros, with the
    kernel Jt_d at the nodes; every array is read-only."""

    nodes: np.ndarray
    weights: np.ndarray
    lobe_id: np.ndarray
    kernel: np.ndarray


_GL_ORDER = 32  # Gauss-Legendre nodes on every lobe panel


@functools.cache
def _lobe_rule(d: int, n_lobes: int) -> _LobeRule:
    """Gauss-Legendre panels of order _GL_ORDER: the first lobe [0, z_1]
    cut geometrically at z_1 4^-k, k = 6..1 (7 panels), then one panel per
    lobe up to zero ``n_lobes`` of J_{d/2-1}.  Jt_d^(2q+1) peaks at 0 with
    width about sqrt(d/q), so the graded cuts resolve it at every order q.
    """
    zeros = _bessel_zeros(d, n_lobes)
    x, w = gauss_legendre(_GL_ORDER)
    first = zeros[0] * 4.0 ** -np.arange(6, 0, -1)
    edges = np.concatenate([[0.0], first, zeros])
    lobe_of_edge = np.concatenate([np.zeros(first.size + 1, dtype=int), np.arange(1, n_lobes)])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (edges[:-1, None] + half[:, None] * (x + 1.0)).ravel()
    arrays = (nodes, (half[:, None] * w).ravel(),
              np.repeat(lobe_of_edge, _GL_ORDER), ScaledBesselKernel(d)(nodes))
    for a in arrays:
        a.flags.writeable = False
    return _LobeRule(*arrays)


_LEVELS, _DEFAULT_LOBES = 12, 72  # averaging levels; lobes of a series


def _accelerate(lobe_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Limits of alternating lobe series, along the last axis, by repeated
    pairwise averaging of the partial sums: (estimates, error estimates of
    the leading shape, levels applied); an error estimate is the change of
    the tail value over the last level.  Rows of a matrix get their 1-D
    results to the bit.  Short series get min(_LEVELS, n - 2) + 1 levels.
    """
    s = np.cumsum(lobe_sums, axis=-1)
    levels = min(_LEVELS, s.shape[-1] - 2)
    for _ in range(levels):
        s = 0.5 * (s[..., :-1] + s[..., 1:])
    before = s[..., -1]
    s = 0.5 * (s[..., :-1] + s[..., 1:])
    # contiguous: BLAS dots of strided and contiguous vectors round apart
    return s[..., -1].copy(), np.abs(s[..., -1] - before), levels + 1


_ORDER_BLOCK = 16  # orders per block of lobe sums


def _c_batch(d: int, qs, n_lobes: int = _DEFAULT_LOBES) -> np.ndarray:
    """Lobe sums of Jt_d^(2q+1) psi^(d-1) for increasing orders qs >= 1.

    Returns the (len(qs), n_lobes) matrix, row i for qs[i], from one power
    chain of the shared Jt_d values; :func:`_accelerate` turns it into
    c_{2q+1;d} estimates.  The powers of up to _ORDER_BLOCK orders asked for
    are weighted as one block and summed per lobe by one reduceat.  After a
    block, trailing lobes whose |powers| are all below the smallest normal
    double (the underflow rule of :func:`specfun.powers_dot`) leave the
    chain and keep sums of 0.  Only whole lobes go, so each lobe is summed
    over the same nodes in the same order, and a row's sums do not depend
    on the other orders asked for or on the block size.
    """
    qs = [int(q) for q in qs]
    if not qs or qs[0] < 1 or any(a >= b for a, b in zip(qs, qs[1:])):
        raise ValueError(f"need increasing orders q >= 1, got {qs}")
    rule = _lobe_rule(d, n_lobes)
    starts = np.flatnonzero(np.diff(rule.lobe_id, prepend=-1))
    base = rule.weights * rule.nodes ** (d - 1)
    power, j2 = rule.kernel, rule.kernel * rule.kernel
    cur, live = 1, n_lobes
    lobes = np.zeros((len(qs), n_lobes))
    block = np.empty((min(_ORDER_BLOCK, len(qs)), power.size))
    for first in range(0, len(qs), _ORDER_BLOCK):
        orders = qs[first:first + _ORDER_BLOCK]
        rows = block[:len(orders), :power.size]
        for row, q in zip(rows, orders):
            while cur < 2 * q + 1:
                power = power * j2
                cur += 2
            row[:] = power
        rows *= base[:power.size]
        lobes[first:first + rows.shape[0], :live] = np.add.reduceat(rows, starts[:live], axis=1)
        with np.errstate(divide="ignore"):
            peak = np.log(np.maximum.reduceat(np.abs(power), starts[:live]))
        alive = np.flatnonzero(peak >= _LOG_TINY)
        if alive.size == 0:
            break
        live = int(alive[-1]) + 1
        size = starts[live] if live < n_lobes else rule.kernel.size
        power, j2 = power[:size], j2[:size]
    return lobes


def c_coefficient(d: int, q: int, method: str = "quadrature",
                  full_output: bool = False):
    """c_{2q+1;d} = int_0^inf Jt_d(psi)^(2q+1) psi^(d-1) dpsi.

    method="quadrature": lobe partition at the zeros of J_{d/2-1}, each lobe
    by Gauss-Legendre, the alternating lobe series accelerated by repeated
    averaging (the integral is only conditionally convergent for small q).
    method="closed": the exact closed form, available for q = 1 only.
    With full_output, (value, error estimate): for the quadrature, the
    change over the last averaging level plus the power chain's rounding.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    if method == "closed":
        if q != 1:
            raise ValueError("closed form is available for q = 1 only")
        value, err = c3_closed(d), 0.0
    elif method == "quadrature":
        lobes = _c_batch(d, [q])
        values, errors, _ = _accelerate(lobes)
        value, err = float(values[0]), float(errors[0])
        if err > 1e-6 * max(abs(value), 1e-12):
            raise ArithmeticError(
                f"lobe-series acceleration did not converge: c_({2*q+1};{d}) "
                f"~ {value} with error estimate {err}; partial sums "
                f"{np.array2string(np.cumsum(lobes[0]), precision=8)}"
            )
        # the power chain rounds Jt_d^(2q+1) by about (2q+1) ulp; the goldens
        # (d = 2..5, q <= 400) sit within 1.21 (2q+1) eps |c|: 2 leaves room
        err += 2.0 * (2 * q + 1) * math.ulp(1.0) * abs(value)
    else:
        raise ValueError(f"unknown method {method!r}")
    if full_output:
        return value, err
    return value


@dataclass(frozen=True)
class ConstantEstimate:
    """Limit constant C_d with the route used and an error estimate."""

    d: int
    method: str
    value: float
    error_estimate: float
    params: dict = field(default_factory=dict)


def defect_constant_lower_bound(d: int) -> float:
    """Strict lower bound 2 |S^d||S^(d-1)| w_1 c_{3;d} for C_d.

    The q = 1 term of the defining series; every term is positive whenever
    c_{2q+1;d} > 0, and the q = 1 term alone is already a proof-grade bound
    (c_{3;d} has a closed form).  For d = 2 this evaluates to 32/sqrt(27).
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    ss = sphere_surface(d) * sphere_surface(d - 1)
    return 2.0 * ss * _W1 * c3_closed(d)


def constant_estimate(d: int, method: str = "series",
                      q_terms: int = 400, n_lobes: int = _DEFAULT_LOBES) -> ConstantEstimate:
    """C_d = lim l^d Var(D_l), by two independent routes.

    series:   2 |S^d||S^(d-1)| sum_q w_q c_{2q+1;d}, q <= q_terms, completed
              with the Hurwitz-zeta tail of the q^(-(3+d)/2) asymptotics of
              w_q c_{2q+1;d}.
    integral: (4/pi) |S^d||S^(d-1)| int_0^inf psi^(d-1)(arcsin Jt - Jt) dpsi
              by the same lobe partition + averaging acceleration.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if q_terms < 1:
        raise ValueError(f"need q_terms >= 1, got {q_terms}")
    if n_lobes < 2:
        raise ValueError(f"need n_lobes >= 2, got {n_lobes}")
    ss = sphere_surface(d) * sphere_surface(d - 1)
    if method == "series":
        values, errors, levels = _accelerate(_c_batch(d, range(1, q_terms + 1), n_lobes))
        w = chaos_weights_upto(q_terms)
        partial = float(np.dot(w, values))
        k_d = _PI_32 * d ** (d / 2.0) * math.gamma(d / 2.0) / 2.0
        tail = k_d * (hurwitz_zeta((3 + d) / 2.0, q_terms + 1)
                      - (5.0 + 3.0 * d) / 8.0 * hurwitz_zeta((5 + d) / 2.0, q_terms + 1))
        tail_err = 3.0 * k_d * hurwitz_zeta((7 + d) / 2.0, q_terms + 1)
        quad_err = float(np.dot(w, errors))
        value = 2.0 * ss * (partial + tail)
        # truncation estimate plus a machine-rounding allowance on the sum
        err = 2.0 * ss * (tail_err + quad_err) + 2e-11 * abs(value)
        return ConstantEstimate(d, "series", value, err,
                                {"q_terms": q_terms, "n_lobes": n_lobes,
                                 "acceleration_levels": levels,
                                 "tail_completion": 2.0 * ss * tail})
    if method == "integral":
        rule = _lobe_rule(d, n_lobes)
        j = np.clip(rule.kernel, -1.0, 1.0)
        f = rule.weights * rule.nodes ** (d - 1) * (np.arcsin(j) - j)
        lobes = np.bincount(rule.lobe_id, f, minlength=n_lobes)
        est, err, levels = _accelerate(lobes)
        value = 4.0 / math.pi * ss * float(est)
        err = 4.0 / math.pi * ss * float(err) + 2e-11 * abs(value)
        return ConstantEstimate(d, "integral", value, err,
                                {"n_lobes": n_lobes, "gl_order": _GL_ORDER,
                                 "acceleration_levels": levels})
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class FacileReport:
    """Two exact-integer combinatorial inequalities for chaos moment bounds.

    first:  sum_{r=1}^{2q} ((r-1)!)^2 C(2q,r-1)^4 (2(2q+1)-2r)!
                <= ((2q)!)^2 3^(4q)
    second: sum_{r=1}^{2q+1} ((r-1)!)^2 C(2q,r-1)^2 C(2p,r-1)^2 (2q+2p+2-2r)!
                <= (2q)! (2p)! 3^(2q+2p)
    """

    q: int
    p: int
    lhs_first: int
    rhs_first: int
    holds_first: bool
    lhs_second: int
    rhs_second: int
    holds_second: bool

    @property
    def holds(self) -> bool:
        return self.holds_first and self.holds_second


def facile_check(q: int, p: int | None = None) -> FacileReport:
    """Verify the two factorial inequalities in exact integer arithmetic."""
    if p is None:
        p = q
    if not (1 <= q <= 8 and q <= p <= 8):
        raise ValueError(f"need 1 <= q <= p <= 8, got q={q}, p={p}")
    lhs1 = sum(
        math.factorial(r - 1) ** 2 * math.comb(2 * q, r - 1) ** 4
        * math.factorial(2 * (2 * q + 1) - 2 * r)
        for r in range(1, 2 * q + 1)
    )
    rhs1 = math.factorial(2 * q) ** 2 * 3 ** (4 * q)
    lhs2 = sum(
        math.factorial(r - 1) ** 2 * math.comb(2 * q, r - 1) ** 2
        * math.comb(2 * p, r - 1) ** 2 * math.factorial(2 * q + 2 * p + 2 - 2 * r)
        for r in range(1, 2 * q + 2)
    )
    rhs2 = math.factorial(2 * q) * math.factorial(2 * p) * 3 ** (2 * q + 2 * p)
    return FacileReport(q, p, lhs1, rhs1, lhs1 <= rhs1, lhs2, rhs2, lhs2 <= rhs2)
