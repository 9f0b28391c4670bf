"""Special functions underpinning the defect computations.

Normalized Gegenbauer (ultraspherical) polynomials G_{l;d} with G_{l;d}(1) = 1,
probabilists' Hermite polynomials, the scaled Bessel kernel

    Jt_d(psi) = 2^(d/2-1) * Gamma(d/2) * J_{d/2-1}(psi) * psi^(-(d/2-1)),

hypersphere surface measures |S^d|, and eigenspace dimensions n_{l;d} of the
degree-l spherical-harmonic space.  G_{l;d} is the covariance kernel of the
unit-variance random eigenfunction, Jt_d its high-degree scaling limit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "GegenbauerEvaluator",
    "HermiteSequence",
    "ScaledBesselKernel",
    "gegenbauer",
    "hermite",
    "hermite_even_at_zero",
    "scaled_bessel",
    "sphere_surface",
    "eigenspace_dim",
]


def sphere_surface(d: int) -> float:
    """Surface measure |S^d| = 2 pi^((d+1)/2) / Gamma((d+1)/2) of the unit d-sphere."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def eigenspace_dim(d: int, l: int) -> int:
    """Dimension n_{l;d} of the space of degree-l spherical harmonics on S^d.

    Exact integer arithmetic: n_{l;d} = C(d+l, l) - C(d+l-2, l-2), which equals
    ((2l+d-1)/l) * C(l+d-2, l-1) for l >= 1 and 1 for l = 0.  Python integers
    are unbounded, so overflow cannot occur for any input.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if l < 0:
        raise ValueError(f"need l >= 0, got {l}")
    if l < 2:
        return 1 if l == 0 else d + 1
    return math.comb(d + l, l) - math.comb(d + l - 2, l - 2)


def _check_t_domain(t: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    if np.any(np.abs(t) > 1.0 + tol):
        bad = float(np.max(np.abs(t)))
        raise ValueError(f"argument outside [-1, 1]: |t| = {bad}")
    return np.clip(t, -1.0, 1.0)


# Nodes per block of the recurrence and of the power chain: the few float64
# arrays of one block (64 KB each) stay in L2.
_BLOCK = 8192
# A power |G|^k whose log falls below this is under the smallest normal
# double: it adds nothing to a sum above rounding, and subnormal arithmetic
# is an order of magnitude slower.
_LOG_TINY = math.log(np.finfo(float).tiny)


class GegenbauerEvaluator:
    """Normalized Gegenbauer polynomials G_{l;d} for fixed (d, l).

    G_{l;d} is the degree-l ultraspherical polynomial with parameter
    lam = (d-1)/2, scaled so that G_{l;d}(1) = 1 exactly.  The three-term
    recurrence is applied directly to the normalized family,

        (n + 2 lam) G_{n+1}(t) = 2 (n + lam) t G_n(t) - n G_{n-1}(t),

    (G_0 = 1, G_1 = t), which keeps intermediates bounded by 1 on [-1, 1] and
    cannot overflow at any degree.  For d = 2 this is the Legendre recurrence.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, d: int, degree: int):
        if d < 2:
            raise ValueError(f"need d >= 2, got {d}")
        if degree < 0:
            raise ValueError(f"need degree >= 0, got {degree}")
        self.d = int(d)
        self.degree = int(degree)
        lam = (d - 1) / 2.0
        n = np.arange(max(degree, 1), dtype=float)
        # G_{n+1} = (_a[n] * t * G_n - _b[n] * G_{n-1})
        self._a = 2.0 * (n + lam) / (n + 2.0 * lam)
        self._b = n / (n + 2.0 * lam)

    def value(self, t):
        """G_{l;d}(t) for scalar or array t in [-1, 1]."""
        t_arr = _check_t_domain(np.asarray(t, dtype=float))
        out = self._recurrence(t_arr)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(out)
        return out

    def _recurrence(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.degree == 0:
            return np.ones_like(t)
        flat = t.reshape(-1)
        out = np.empty_like(flat)
        # three block-sized buffers rotated in place; each step computes
        # exactly (a[n] * t) * cur - b[n] * prev, so values match the
        # textbook form bit for bit
        m = max(1, min(flat.size, _BLOCK))
        bufs = np.empty((3, m))
        a, b = self._a, self._b
        for start in range(0, flat.size, m):
            x = flat[start:start + m]
            prev, cur, tmp = bufs[:, :x.size]
            prev.fill(1.0)
            cur[:] = x
            for n in range(1, self.degree):
                np.multiply(a[n], x, out=tmp)
                np.multiply(tmp, cur, out=tmp)
                np.multiply(b[n], prev, out=prev)
                np.subtract(tmp, prev, out=prev)
                prev, cur = cur, prev
            out[start:start + x.size] = cur
        return out.reshape(t.shape)

    def powers_dot(self, t: np.ndarray, weights: np.ndarray, k_list) -> dict:
        """Weighted sums  sum_i w_i G(t_i)^k  for every k in ``k_list``.

        The nodes are processed in blocks of ``_BLOCK`` that stay in L2.  Per
        block, G is evaluated once and a running power steps through the
        sorted orders: by G^2 while the parity of k stays, by G once where it
        flips, so the odd-order chain 3, 5, ..., 2Q+1 costs one multiply and
        one partial dot per order.  A block leaves the chain at the first
        order where even its largest |G|^k is below the smallest normal
        double (~2.2e-308); what it would still add is less than that times
        its weight sum, far under the rounding of any moment.  Memory stays
        O(len(t)) whatever the number of orders.  Relative rounding growth
        of the power is O(k_max * eps).
        """
        t = np.asarray(t, dtype=float).reshape(-1)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        ks = sorted(set(int(k) for k in k_list))
        if ks and ks[0] < 0:
            raise ValueError("powers must be >= 0")
        sums = [0.0] * len(ks)
        for start in range(0, t.size, _BLOCK):
            g = self._recurrence(t[start:start + _BLOCK])
            w = weights[start:start + _BLOCK]
            with np.errstate(divide="ignore"):
                log_max = float(np.log(np.max(np.abs(g))))
            g2 = g * g
            power = np.ones_like(g)
            cur_k = 0
            for i, k in enumerate(ks):
                if k * log_max < _LOG_TINY:
                    break
                if (k - cur_k) % 2:
                    power *= g
                    cur_k += 1
                while cur_k < k:
                    power *= g2
                    cur_k += 2
                sums[i] += float(np.dot(w, power))
        return dict(zip(ks, sums))


# Cache evaluators; construction cost is O(degree) but harmless to reuse.
_GEG_CACHE: dict = {}


def _gegenbauer_evaluator(d: int, l: int) -> GegenbauerEvaluator:
    key = (d, l)
    ev = _GEG_CACHE.get(key)
    if ev is None:
        ev = _GEG_CACHE[key] = GegenbauerEvaluator(d, l)
    return ev


def gegenbauer(d: int, l: int, t):
    """Normalized Gegenbauer polynomial G_{l;d}(t), G_{l;d}(1) = 1.

    Stable for l up to 10^4 and beyond (bounded normalized recurrence).
    Accepts scalar or array t; |t| <= 1 up to a 1e-9 guard, values clamped.
    """
    return _gegenbauer_evaluator(d, l).value(t)


def gegenbauer_lambda(lam: float, n: int, t):
    """Normalized ultraspherical polynomial C_n^(lam)(t) / C_n^(lam)(1).

    Same recurrence as :class:`GegenbauerEvaluator` with free parameter
    lam > 0; used by the explicit hyperspherical harmonic construction where
    lam = L + 1 for the polar factor of an order-L block.
    """
    if lam <= 0:
        raise ValueError(f"need lam > 0, got {lam}")
    t_arr = np.asarray(t, dtype=float)
    if n == 0:
        out = np.ones_like(t_arr)
    else:
        prev = np.ones_like(t_arr)
        cur = t_arr.copy()
        for m in range(1, n):
            prev, cur = cur, (2.0 * (m + lam) * t_arr * cur - m * prev) / (m + 2.0 * lam)
        out = cur
    if np.ndim(t) == 0:
        return float(out)
    return out


class HermiteSequence:
    """Probabilists' Hermite polynomials H_0 .. H_K.

    H_0 = 1, H_1 = t, H_{k+1} = t H_k - k H_{k-1}.  K is capped at 200;
    beyond that the values H_k(0) = (k-1)!! (k even) overflow double
    precision and callers should switch to :func:`hermite_even_at_zero`
    with ``log=True``.
    """

    MAX_ORDER = 200

    def __init__(self, max_order: int):
        if not 0 <= max_order <= self.MAX_ORDER:
            raise ValueError(
                f"max_order must be in [0, {self.MAX_ORDER}], got {max_order}"
            )
        self.max_order = int(max_order)

    def values(self, t) -> np.ndarray:
        """Array [H_0(t), ..., H_K(t)]; last axis enumerates the order."""
        t_arr = np.asarray(t, dtype=float)
        out = np.empty(t_arr.shape + (self.max_order + 1,))
        out[..., 0] = 1.0
        if self.max_order >= 1:
            out[..., 1] = t_arr
        for k in range(1, self.max_order):
            out[..., k + 1] = t_arr * out[..., k] - k * out[..., k - 1]
        return out


def hermite(k: int, t):
    """Probabilists' Hermite polynomial H_k(t) by the three-term recurrence."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k > HermiteSequence.MAX_ORDER:
        raise ValueError(
            f"order {k} > {HermiteSequence.MAX_ORDER} rejected: coefficients "
            "overflow double precision"
        )
    t_arr = np.asarray(t, dtype=float)
    vals = HermiteSequence(k).values(t_arr)[..., k]
    if np.ndim(t) == 0:
        return float(vals)
    return vals


def hermite_even_at_zero(q: int, log: bool = False):
    """H_{2q}(0) = (-1)^q (2q-1)!!.

    With ``log=True`` returns (sign, log|H_{2q}(0)|), usable for any q
    (log-scaled double factorial via lgamma); the linear-scale value is
    limited to q <= 100 where (2q-1)!! still fits in a double.
    """
    if q < 0:
        raise ValueError(f"need q >= 0, got {q}")
    sign = -1.0 if q % 2 else 1.0
    if q == 0:
        return (sign, 0.0) if log else 1.0
    # (2q-1)!! = (2q)! / (2^q q!)
    log_df = math.lgamma(2 * q + 1) - q * math.log(2.0) - math.lgamma(q + 1)
    if log:
        return sign, log_df
    if q > 100:
        raise ValueError("linear-scale H_{2q}(0) overflows for q > 100; use log=True")
    return sign * math.exp(log_df)


# Measured sup of |Jt_d(psi)| * psi^((d-1)/2) over psi >= 1, with ~2% headroom;
# d = 3 is exactly 1 (|sin|).  For d >= 4 the first lobe overshoots the
# sqrt(2/pi) 2^nu Gamma(nu+1) oscillation amplitude, so the sup sits at small
# psi, not in the tail.  Verified on a dense grid by the test suite.
_DECAY_C = {2: 0.82, 3: 1.0, 4: 1.69, 5: 3.26, 6: 7.15}


class ScaledBesselKernel:
    """Scaled Bessel kernel Jt_d(psi) = 2^nu Gamma(nu+1) J_nu(psi) psi^(-nu).

    nu = d/2 - 1.  Jt_d(0) = 1 (removable singularity, handled by an even
    power series for psi < 0.5 to relative 1e-14); |Jt_d| <= 1 on [0, inf).
    Half-integer orders (odd d) use closed trigonometric forms, integer
    orders standard J_n evaluation.  ``decay_constant`` records c with
    |Jt_d(psi)| <= c psi^(-(d-1)/2) for psi >= 1.
    """

    SERIES_CUT = 0.5

    def __init__(self, d: int):
        if d < 2:
            raise ValueError(f"need d >= 2, got {d}")
        self.d = int(d)
        self.nu = d / 2.0 - 1.0
        self.decay_constant = _DECAY_C.get(d)
        if self.decay_constant is None:
            # conservative fallback for d outside the measured table
            self.decay_constant = math.sqrt(2.0 / math.pi) * 2.0 ** self.nu \
                * math.gamma(self.nu + 1.0) * 4.0

    def __call__(self, psi):
        psi_arr = np.asarray(psi, dtype=float)
        if np.any(psi_arr < 0):
            raise ValueError("scaled Bessel kernel defined for psi >= 0 only")
        out = np.empty_like(psi_arr)
        small = psi_arr < self.SERIES_CUT
        if np.any(small):
            out[small] = self._series(psi_arr[small])
        if np.any(~small):
            out[~small] = self._large(psi_arr[~small])
        if np.ndim(psi) == 0:
            return float(out)
        return out

    def _series(self, psi: np.ndarray) -> np.ndarray:
        # Jt_d = sum_k (-1)^k (psi^2/4)^k / (k! (nu+1)_k); 12 terms reach
        # relative 1e-16 for psi < 0.5.
        u = psi * psi / 4.0
        total = np.ones_like(psi)
        term = np.ones_like(psi)
        for k in range(1, 13):
            term = term * (-u) / (k * (self.nu + k))
            total = total + term
        return total

    def _large(self, psi: np.ndarray) -> np.ndarray:
        d = self.d
        if d == 3:
            return np.sin(psi) / psi
        if d == 5:
            return 3.0 * (np.sin(psi) - psi * np.cos(psi)) / psi**3
        scale = 2.0 ** self.nu * math.gamma(self.nu + 1.0)
        return scale * _sp.jv(self.nu, psi) / psi ** self.nu


_KERNEL_CACHE: dict = {}


def _kernel(d: int) -> ScaledBesselKernel:
    k = _KERNEL_CACHE.get(d)
    if k is None:
        k = _KERNEL_CACHE[d] = ScaledBesselKernel(d)
    return k


def scaled_bessel(d: int, psi):
    """Jt_d(psi) = 2^(d/2-1) Gamma(d/2) J_{d/2-1}(psi) psi^(-(d/2-1)), psi >= 0."""
    return _kernel(d)(psi)
