"""Special functions underpinning the defect computations.

Normalized Gegenbauer (ultraspherical) polynomials G_{l;d} with G_{l;d}(1) = 1,
the scaled Bessel kernel

    Jt_d(psi) = 2^(d/2-1) * Gamma(d/2) * J_{d/2-1}(psi) * psi^(-(d/2-1)),

hypersphere surface measures |S^d|, and eigenspace dimensions n_{l;d} of the
degree-l spherical-harmonic space.  G_{l;d} is the covariance kernel of the
unit-variance random eigenfunction, Jt_d its high-degree scaling limit.

G_{l;d} is a finite cosine series in the angle (Szego, Orthogonal
Polynomials, eq. 4.9.19), with lam = (d-1)/2 and positive coefficients:

    C_l^lam(cos x) = sum_{k=0}^{l} (lam)_k (lam)_{l-k} / (k! (l-k)!) cos((l-2k) x).

On the uniform angles of a Chebyshev rule one DCT of that series gives G at
the exact rule angles, near the pole its Taylor series gives 1 - G to a few
eps relative; elsewhere G comes from the three-term recurrence.  The one
family serves every parameter lam: C_n^(lam) / C_n^(lam)(1) is G_{n;2 lam+1},
so the S^3 polar factors C_n^(L+1) are G_{n;2L+3}.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as _sp
from scipy.fft import dct as _dct

__all__ = [
    "GegenbauerEvaluator",
    "ScaledBesselKernel",
    "gegenbauer",
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


# Values per block of the recurrence and of the power chain: the few float64
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
    On Chebyshev points, :meth:`chebyshev_values` sums the cosine series
    instead.  Instances are immutable after construction and safe to share.
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
        # G(cos x) = c[0] + 2 sum_{m>=1} c[m] cos(m x), the DCT-III form:
        # c[l-2k] = a_k a_{l-k} with a_k = (lam)_k / k!, scaled to G(1) = 1
        k = np.arange(1.0, degree + 1)
        a = np.cumprod(np.concatenate(([1.0], (lam + k - 1.0) / k)))
        half = (a * a[::-1])[:degree // 2 + 1]
        self._cos = np.zeros(degree + 1)
        self._cos[degree::-2] = half
        # G(1) = sum_k c_k: each half term twice, a middle one (even l) once
        self._cos /= 2.0 * half.sum() - (half[-1] if degree % 2 == 0 else 0.0)
        self._full = np.concatenate((self._cos[:1], 2.0 * self._cos[1:]))  # of cos(m x)

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

    def chebyshev_values(self, n: int, kind: int) -> np.ndarray:
        """G at the n Chebyshev points of the given kind, in ascending t.

        kind 1: t_j = cos((2j-1) pi/(2n)), the Fejer nodes, by one DCT-III
        of length n (needs n > degree).  kind 2: t_j = cos(j pi/(n+1)), the
        Gauss nodes for the weight sqrt(1-t^2), by one DCT-I of length n+2;
        at these angles cos(m x) equals the cosine of m's alias in [0, n+1],
        so the series is folded there first and any n >= 1 works.  The
        values are those at the exact angles: the coefficients are positive
        and sum to 1, so the error is a few eps (no node rounding enters).
        """
        l = self.degree
        if kind == 1:
            if n <= l:
                raise ValueError(f"need n > degree for Chebyshev points of the "
                                 f"first kind, got n={n}, degree={l}")
            x = np.zeros(n)
            x[:l + 1] = self._cos
            return _dct(x, type=3)[::-1]
        if kind != 2:
            raise ValueError(f"kind must be 1 or 2, got {kind}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        # full coefficients of cos(m x), folded onto r in [0, p], p = n + 1;
        # DCT-I takes the two end coefficients whole and the inner ones halved
        p = n + 1
        r = np.arange(l + 1) % (2 * p)
        x = np.bincount(np.minimum(r, 2 * p - r), self._full, minlength=p + 1)
        x[1:p] *= 0.5
        return _dct(x, type=1)[-2:0:-1]

    def pole_gap(self, x: np.ndarray) -> np.ndarray:
        """1 - G(cos x) for 0 <= x <= pi/l, to a few eps relative: 14 terms
        of the Taylor series sum_{k>=1} (-1)^(k+1) b_k (l x)^(2k) of the
        cosine series, b_k = sum_m c_m (m/l)^(2k)/(2k)! <= 1/(2k)!, whose
        terms decrease here (< 4e-18 left).  No node t = cos x is rounded.
        """
        k = np.arange(1, 15)
        m2 = (np.arange(self.degree + 1) / max(self.degree, 1)) ** 2
        b = (-1.0) ** (k + 1) * (m2[None, :] ** k[:, None] @ self._full) / _sp.factorial(2 * k)
        y = (self.degree * np.asarray(x, dtype=float)) ** 2
        return _horner(b, y) * y


def _horner(coef, y: np.ndarray) -> np.ndarray:
    """sum_k coef[k] y^k, in place on one buffer (no steps on no values)."""
    p = np.full_like(y, coef[-1])
    for c in coef[-2::-1] if p.size else ():
        p *= y
        p += c
    return p


def powers_dot(g: np.ndarray, weights: np.ndarray, k_list) -> dict:
    """Weighted sums  sum_i w_i g_i^k  for every k in ``k_list``.

    The values are processed in blocks of ``_BLOCK`` that stay in L2.  Per
    block, a running power steps through the sorted orders: by g^2 while
    the parity of k stays, by g once where it flips, so the odd-order chain
    3, 5, ..., 2Q+1 costs one multiply and one partial dot per order.  A
    block leaves the chain at the first order where even its largest |g|^k
    is below the smallest normal double (~2.2e-308); what it would still add
    is less than that times its weight sum, far under the rounding of any
    moment.  Memory stays O(len(g)) whatever the number of orders.
    Relative rounding growth of the power is O(k_max * eps).
    """
    g_all = np.asarray(g, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    ks = sorted(set(int(k) for k in k_list))
    if ks and ks[0] < 0:
        raise ValueError("powers must be >= 0")
    sums = [0.0] * len(ks)
    for start in range(0, g_all.size, _BLOCK):
        g = g_all[start:start + _BLOCK]
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
@functools.cache
def _gegenbauer_evaluator(d: int, l: int) -> GegenbauerEvaluator:
    return GegenbauerEvaluator(d, l)


def gegenbauer(d: int, l: int, t):
    """Normalized Gegenbauer polynomial G_{l;d}(t), G_{l;d}(1) = 1.

    Stable for l up to 10^4 and beyond (bounded normalized recurrence).
    Accepts scalar or array t; |t| <= 1 up to a 1e-9 guard, values clamped.
    """
    return _gegenbauer_evaluator(d, l).value(t)


class ScaledBesselKernel:
    """Scaled Bessel kernel Jt_d(psi) = 2^nu Gamma(nu+1) J_nu(psi) psi^(-nu).

    nu = d/2 - 1.  Jt_d(0) = 1 (removable singularity, handled by an even
    power series for psi < 0.5 to relative 1e-14); |Jt_d| <= 1 on [0, inf).
    Half-integer orders (odd d) use closed trigonometric forms, integer
    orders standard J_n evaluation.
    """

    SERIES_CUT = 0.5

    def __init__(self, d: int):
        if d < 2:
            raise ValueError(f"need d >= 2, got {d}")
        self.d = int(d)
        self.nu = d / 2.0 - 1.0

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


@functools.cache
def _kernel(d: int) -> ScaledBesselKernel:
    return ScaledBesselKernel(d)


def scaled_bessel(d: int, psi):
    """Jt_d(psi) = 2^(d/2-1) Gamma(d/2) J_{d/2-1}(psi) psi^(-(d/2-1)), psi >= 0."""
    return _kernel(d)(psi)
