"""Wiener-chaos series of the defect: weights, variances, limit constants.

The defect D of the random degree-l eigenfunction lives in the odd Wiener
chaoses; its variance is the series

    Var(D) = 2 sum_{q>=1} w_q |S^d| |S^(d-1)| int_0^(pi/2) G_{l;d}(cos x)^(2q+1) (sin x)^(d-1) dx,

with weights w_q = J_{2q+1}^2/(2q+1)! = (2/pi) (2q)! / (4^q (q!)^2 (2q+1)),
the squared odd-chaos coefficients of the sign function (equivalently the
Taylor coefficients of (2/pi) arcsin).  This module computes the weights
stably to q ~ 1e6, the variance with a certified truncation bound, the
scaled limit constant

    C_d = 2 |S^d||S^(d-1)| sum_{q>=1} w_q c_{2q+1;d},
    c_{2q+1;d} = int_0^inf Jt_d(psi)^(2q+1) psi^(d-1) dpsi,

by that series and, independently, by the conditionally convergent integral

    C_d = (4/pi) |S^d||S^(d-1)| int_0^inf psi^(d-1) (arcsin Jt_d - Jt_d) dpsi,

both handled by lobe partition at the Bessel zeros plus repeated averaging
of the alternating partial sums (plain upper-limit truncation diverges too
slowly to be usable).  Exact integer combinatorial inequalities used by the
fourth-moment analysis are checked in facile_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .specfun import sphere_surface, _kernel
from .spherequad import gauss_legendre, gegenbauer_moment_table, fejer_rule
from .specfun import _gegenbauer_evaluator

__all__ = [
    "ChaosCoefficients",
    "VarianceReport",
    "ConstantEstimate",
    "FacileReport",
    "chaos_weight",
    "chaos_weights_upto",
    "weight_tail_bound",
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


def weight_tail_bound(q_from: int) -> float:
    """Rigorous upper bound for sum_{q > q_from} w_q.

    w_q < pi^(-3/2) q^(-3/2) (Wendel's inequality for the central binomial),
    so the tail is below pi^(-3/2) zeta(3/2, q_from + 1).
    """
    return _PI_32 * float(_sp.zeta(1.5, q_from + 1)) * (1.0 + 1e-12)


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
        s += coeff * float(_sp.zeta(1.5 + j, q_from + 1))
    return _PI_32 * s


@dataclass(frozen=True)
class ChaosCoefficients:
    """Chaos weights w_q and sign-function coefficients J_{2q+1}, q = 1..Q.

    J_{2q+1} = sqrt(2/pi) H_{2q}(0) grows like (2q-1)!!, so it is stored as
    (sign, log magnitude); only ratios ever matter downstream.
    """

    q_max: int
    weights: np.ndarray
    j_sign: np.ndarray
    j_log: np.ndarray

    @classmethod
    def build(cls, q_max: int) -> "ChaosCoefficients":
        w = chaos_weights_upto(q_max)
        q = np.arange(1, q_max + 1)
        # w_q = J^2/(2q+1)!  =>  log|J| = (log w_q + lgamma(2q+2)) / 2
        j_log = 0.5 * (np.log(w) + _sp.gammaln(2 * q + 2))
        j_sign = np.where(q % 2 == 0, 1.0, -1.0)
        return cls(q_max=q_max, weights=w, j_sign=j_sign, j_log=j_log)


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
    """Exact-series defect variance with a certified truncation bound.

    value is the chaos series truncated at q_used; tail_bound is a rigorous
    upper bound for the discarded remainder (every discarded moment is
    dominated by the exactly computed even moment of order 2 q_used + 2,
    and the discarded weights by the Hurwitz-zeta majorant).
    """

    d: int
    l: int
    q_used: int
    value: float
    tail_bound: float
    per_q: np.ndarray
    tol: float
    tol_achieved: bool

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "l": self.l,
            "q_used": self.q_used,
            "value": self.value,
            "tail_bound": self.tail_bound,
            "tol": self.tol,
            "tol_achieved": self.tol_achieved,
        }


# q_cap solves 2 Q^2 l = _COST_BUDGET.  An order-Q table builds a rule of
# ~(2Q+2) l nodes and folds it onto t >= 0, ~(Q+1) l nodes.  G on the rule
# is one DCT of its cosine series, O(Q l log(Q l)); each folded node then
# pays one multiply and one dot term per odd order until the powers of its
# block underflow: at most ~Q^2 l = _COST_BUDGET / 2 power work, of which
# the underflow cut leaves 10-16% at the paper's variance points.  The
# budget fixes the schedule, hence q_used and the certificate, so it is not
# retuned to the faster kernel.
_COST_BUDGET = 6e8


def exact_variance(d: int, l: int, tol: float = 1e-8, q_max: int | None = None) -> VarianceReport:
    """Var(D_l) on S^d by the odd-chaos series with certified truncation.

    Odd l: exactly 0 (antipodal parity kills every odd moment).  Even l:
    the truncation order runs through 64, 256, 1024, ... (x4 per step), then
    the budget cap q_cap, and stops at the first order whose certified
    relative tail bound is below ``tol``; an unreachable ``tol`` is reported
    via ``tol_achieved``, never silently ignored.  ``q_max`` pins the
    truncation order instead (used for tail-soundness checks).

    The tail bound is |S^d||S^(d-1)| M_{2Q+2} weight_tail_bound(Q), with
    M_k the computed moment.  Its rigour rests on a rounding allowance that
    no margin states: weight_tail_bound's (1 + 1e-12) covers only the zeta
    rounding, while the computed high-order moments hold about 2e-12
    relative at d=2, l=400 (the order-1733 moment moved by at most 1.6e-12
    across Fejer rules of 694,575 to 720,000 nodes).  The bracket [value,
    value + tail_bound] is certified up to rounding of that size in
    tail_bound.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if l % 2 == 1:
        return VarianceReport(d, l, 0, 0.0, 0.0, np.zeros(0), tol, True)
    ss = sphere_surface(d) * sphere_surface(d - 1)
    q_cap = max(64, int(math.sqrt(_COST_BUDGET / (2.0 * l))))
    if q_max is not None:
        schedule = [min(q_max, q_cap)]
    else:
        schedule = []
        q = 64
        while q < q_cap:
            schedule.append(q)
            q *= 4
        schedule.append(q_cap)
    report = None
    for q_used in schedule:
        ks = list(range(3, 2 * q_used + 2, 2)) + [2 * q_used + 2]
        table = gegenbauer_moment_table(d, l, ks)
        w = chaos_weights_upto(q_used)
        moments = np.array([table[2 * q + 1] for q in range(1, q_used + 1)])
        per_q = ss * w * moments
        value = float(np.sum(per_q))
        tail = ss * table[2 * q_used + 2] * weight_tail_bound(q_used)
        report = VarianceReport(
            d, l, q_used, value, tail, per_q, tol,
            tol_achieved=bool(tail <= tol * max(value, 1e-300)),
        )
        if report.tol_achieved:
            break
    return report


def variance_closed_form(d: int, l: int) -> float:
    """Var(D_l) by the summed series (4/pi) |S^d||S^(d-1)| *
    int_0^(pi/2) (arcsin G - G)(cos x) (sin x)^(d-1) dx  (even l only).

    Independent of the term-by-term route: the arcsin is evaluated directly
    under an angle-space rule with geometric convergence (the integrand is
    analytic), doubled until stationary.  Used as a cross-check oracle.
    """
    if l % 2 == 1:
        raise ValueError("closed form applies to even l only (odd l gives 0)")
    ev = _gegenbauer_evaluator(d, l)
    n = max(128, 4 * l)
    prev = None
    while n <= 300_000:
        rule = gauss_legendre(n) if n <= 700 else fejer_rule(n)
        x = (rule.nodes + 1.0) * (math.pi / 4.0)
        g = np.clip(ev._recurrence(np.cos(x)), -1.0, 1.0)
        f = (np.arcsin(g) - g) * np.sin(x) ** (d - 1)
        val = (math.pi / 4.0) * float(np.dot(rule.weights, f))
        if prev is not None and abs(val - prev) <= 5e-14 * max(1.0, abs(val)):
            break
        prev = val
        n *= 2
    ss = sphere_surface(d) * sphere_surface(d - 1)
    return 4.0 / math.pi * ss * val


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
    """The first ``count`` positive zeros of J_{d/2-1}, increasing."""
    nu = d / 2.0 - 1.0
    if d == 3:
        return math.pi * np.arange(1, count + 1)
    if nu == int(nu):
        return _sp.jn_zeros(int(nu), count)
    # Half-integer order nu >= 3/2: consecutive zeros are more than pi
    # apart and j_{nu,1} > nu, so a scan from nu in steps of pi/2 puts each
    # zero alone in a cell where J_nu changes sign.  (McMahon guesses alone
    # are too far off for the first zeros at large order.)
    k = np.arange(1, count + 1)
    beta = (k + nu / 2.0 - 0.25) * math.pi
    guess = beta - (4.0 * nu * nu - 1.0) / (8.0 * beta)
    end = guess[-1] + math.pi
    while True:
        x = nu + 0.5 * math.pi * np.arange(math.ceil((end - nu) / (0.5 * math.pi)) + 1)
        positive = _sp.jv(nu, x) > 0.0
        cells = np.flatnonzero(positive[:-1] != positive[1:])
        if cells.size >= count:
            break
        end += (count - cells.size) * math.pi
    cells = cells[:count]
    lo, hi, lo_positive = x[cells], x[cells + 1], positive[cells]
    # Newton from the McMahon guess, with J' = J_{nu-1} - (nu/x) J_nu;
    # a step that leaves the shrinking bracket is replaced by bisection
    z = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    for _ in range(100):
        f = _sp.jv(nu, z)
        left = (f > 0.0) == lo_positive
        lo, hi = np.where(left, z, lo), np.where(left, hi, z)
        new = z - f / (_sp.jv(nu - 1.0, z) - nu / z * f)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - z) <= 4.0 * np.finfo(float).eps * z
        z = new
        if done.all():
            break
    return z


@dataclass(frozen=True)
class _LobeRule:
    """Shared nodes for integrals between consecutive Bessel zeros."""

    nodes: np.ndarray
    weights: np.ndarray
    lobe_id: np.ndarray
    n_lobes: int


# Gauss-Legendre panel rules by order, built once per process
_PANEL_RULES: dict = {}


def _lobe_rule(d: int, n_lobes: int, first_panels: int, gl_order: int = 24) -> _LobeRule:
    zeros = _bessel_zeros(d, n_lobes)
    base = _PANEL_RULES.get(gl_order)
    if base is None:
        base = _PANEL_RULES[gl_order] = gauss_legendre(gl_order)
    edges = np.concatenate([np.linspace(0.0, zeros[0], first_panels + 1), zeros[1:]])
    lobe_of_edge = np.concatenate([np.zeros(first_panels, dtype=int),
                                   np.arange(1, n_lobes)])
    nodes, weights, lobe_id = [], [], []
    for a, b, lob in zip(edges[:-1], edges[1:], lobe_of_edge):
        half = 0.5 * (b - a)
        nodes.append(a + half * (base.nodes + 1.0))
        weights.append(half * base.weights)
        lobe_id.append(np.full(gl_order, lob))
    return _LobeRule(np.concatenate(nodes), np.concatenate(weights),
                     np.concatenate(lobe_id), n_lobes)


def _accelerate(lobe_sums: np.ndarray, levels: int = 12) -> tuple[float, float, int]:
    """Limit of an alternating lobe series by repeated pairwise averaging.

    Returns (estimate, error estimate, averaging levels applied); the error
    estimate is the change in the tail value over the final averaging level.
    Short series get fewer levels: min(levels, len(lobe_sums) - 2) + 1.
    """
    s = np.cumsum(lobe_sums)
    levels = min(levels, len(s) - 2)
    for _ in range(levels):
        s = 0.5 * (s[:-1] + s[1:])
    before = s[-1]
    s = 0.5 * (s[:-1] + s[1:])
    return float(s[-1]), float(abs(s[-1] - before)), levels + 1


_DEFAULT_LOBES = 72


def _c_batch(d: int, q_list, n_lobes: int = _DEFAULT_LOBES,
             keep_lobes: bool = False):
    """c_{2q+1;d} for every q in q_list from one shared evaluation of Jt_d.

    Returns (values, errors, acceleration levels applied[, lobe sums]).
    """
    qs = sorted(set(int(q) for q in q_list))
    if qs[0] < 1:
        raise ValueError("need q >= 1")
    s_max = 2 * qs[-1] + 1
    first_panels = max(8, int(math.ceil(2.0 * math.sqrt(s_max / d))))
    rule = _lobe_rule(d, n_lobes, first_panels)
    j = _kernel(d)(rule.nodes)
    base = rule.weights * rule.nodes ** (d - 1)
    j2 = j * j
    power = j.copy()
    cur = 1
    values, errors, lobe_sums = {}, {}, {}
    for q in qs:
        while cur < 2 * q + 1:
            power = power * j2
            cur += 2
        lobes = np.bincount(rule.lobe_id, base * power, minlength=rule.n_lobes)
        values[q], errors[q], levels = _accelerate(lobes)
        if keep_lobes:
            lobe_sums[q] = lobes
    if keep_lobes:
        return values, errors, levels, lobe_sums
    return values, errors, levels


def c_coefficient(d: int, q: int, method: str = "quadrature",
                  full_output: bool = False):
    """c_{2q+1;d} = int_0^inf Jt_d(psi)^(2q+1) psi^(d-1) dpsi.

    method="quadrature": lobe partition at the zeros of J_{d/2-1}, each lobe
    by Gauss-Legendre, the alternating lobe series accelerated by repeated
    averaging (the integral is only conditionally convergent for small q).
    method="closed": the exact closed form, available for q = 1 only.
    """
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    if method == "closed":
        if q != 1:
            raise ValueError("closed form is available for q = 1 only")
        value, err = c3_closed(d), 0.0
    elif method == "quadrature":
        values, errors, _, lobes = _c_batch(d, [q], keep_lobes=True)
        value, err = values[q], errors[q]
        if err > 1e-6 * max(abs(value), 1e-12):
            raise ArithmeticError(
                f"lobe-series acceleration did not converge: c_({2*q+1};{d}) "
                f"~ {value} with error estimate {err}; partial sums "
                f"{np.array2string(np.cumsum(lobes[q]), precision=8)}"
            )
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

    def to_dict(self) -> dict:
        return {"d": self.d, "method": self.method, "value": self.value,
                "error_estimate": self.error_estimate, "params": self.params}


def defect_constant_lower_bound(d: int) -> float:
    """Strict lower bound 2 |S^d||S^(d-1)| w_1 c_{3;d} for C_d.

    The q = 1 term of the defining series; every term is positive whenever
    c_{2q+1;d} > 0, and the q = 1 term alone is already a proof-grade bound
    (c_{3;d} has a closed form).  For d = 2 this evaluates to 32/sqrt(27).
    """
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
    ss = sphere_surface(d) * sphere_surface(d - 1)
    if method == "series":
        values, errors, levels = _c_batch(d, range(1, q_terms + 1), n_lobes=n_lobes)
        w = chaos_weights_upto(q_terms)
        partial = float(np.dot(w, [values[q] for q in range(1, q_terms + 1)]))
        k_d = _PI_32 * d ** (d / 2.0) * math.gamma(d / 2.0) / 2.0
        tail = k_d * (float(_sp.zeta((3 + d) / 2.0, q_terms + 1))
                      - (5.0 + 3.0 * d) / 8.0 * float(_sp.zeta((5 + d) / 2.0, q_terms + 1)))
        tail_err = 3.0 * k_d * float(_sp.zeta((7 + d) / 2.0, q_terms + 1))
        quad_err = float(np.dot(w, [errors[q] for q in range(1, q_terms + 1)]))
        value = 2.0 * ss * (partial + tail)
        # truncation estimate plus a machine-rounding allowance on the sum
        err = 2.0 * ss * (tail_err + quad_err) + 2e-11 * abs(value)
        return ConstantEstimate(d, "series", value, err,
                                {"q_terms": q_terms, "n_lobes": n_lobes,
                                 "acceleration_levels": levels,
                                 "tail_completion": 2.0 * ss * tail})
    if method == "integral":
        first_panels = 8
        rule = _lobe_rule(d, n_lobes, first_panels, gl_order=32)
        j = np.clip(_kernel(d)(rule.nodes), -1.0, 1.0)
        f = rule.weights * rule.nodes ** (d - 1) * (np.arcsin(j) - j)
        lobes = np.bincount(rule.lobe_id, f, minlength=rule.n_lobes)
        est, err, levels = _accelerate(lobes)
        value = 4.0 / math.pi * ss * est
        err = 4.0 / math.pi * ss * err + 2e-11 * abs(value)
        return ConstantEstimate(d, "integral", value, err,
                                {"n_lobes": n_lobes, "gl_order": 32,
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
