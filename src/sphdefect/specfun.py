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

The numerical building blocks the package needs are here too, on numpy and
``math`` alone: the unnormalised DCTs of types I-III on numpy's real FFT
(Makhoul, IEEE TASSP 1980) with their fast lengths, the Hurwitz zeta
function by Euler-Maclaurin summation, and Bessel functions J_nu of order
nu in {0, 1/2, 1, 3/2, ...}.  The standard normal distribution the Monte
Carlo statistics need comes from ``math.erfc`` and
``statistics.NormalDist``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "GegenbauerEvaluator",
    "ScaledBesselKernel",
    "bessel_j",
    "dct",
    "eigenspace_dim",
    "gegenbauer",
    "hurwitz_zeta",
    "next_fast_len",
    "scaled_bessel",
    "sphere_surface",
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


@functools.cache
def next_fast_len(target: int, real: bool = False) -> int:
    """The least n >= target with no prime factor above 11 (above 5 if
    ``real``): the lengths numpy's FFT runs fastest, and the ones
    scipy.fft.next_fast_len returns."""
    if target < 1:
        raise ValueError(f"need target >= 1, got {target}")
    odd = [1]  # the odd smooth numbers below 2 target
    for p in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m < 2 * target:
                grown.append(m)
                m *= p
        odd = grown
    # each odd m times the least power of two reaching target
    return min(m << ((target - 1) // m).bit_length() for m in odd)


@functools.lru_cache(maxsize=8)
def _twiddles(n: int, type: int) -> np.ndarray:
    """2 w^k (type 2) or n w^-k (type 3) for k = 0..n//2, w = exp(-i pi/(2n)),
    read-only; w^k is the outer product of a coarse and a fine table of
    about sqrt(n/2) entries each.  Cached, since a moment table takes its
    weights and its values from DCTs of one length."""
    h = n // 2
    step = math.isqrt(h) + 1
    angle = -0.5 * math.pi / n
    coarse = np.exp(1j * angle * step * np.arange(h // step + 1))
    w = np.multiply.outer(coarse, np.exp(1j * angle * np.arange(step))).ravel()[:h + 1]
    w = 2.0 * w if type == 2 else n * np.conj(w)
    w.flags.writeable = False
    return w


def dct(x, type: int) -> np.ndarray:
    """Unnormalised DCT of type 1, 2 or 3 of a real vector of length n, the
    transforms scipy.fft.dct computes with norm=None:

        1: y_k = x_0 + (-1)^k x_(n-1) + 2 sum_{0<j<n-1} x_j cos(pi j k/(n-1))
        2: y_k = 2 sum_j x_j cos(pi k (2j+1)/(2n))
        3: y_k = x_0 + 2 sum_{j>0} x_j cos(pi j (2k+1)/(2n))

    Type 1 is the real FFT of the even extension, of length 2n - 2.  Types
    2 and 3 are one real FFT of length n of the even-then-reversed-odd
    reordering v, with one twiddle w^k = exp(-i pi k/(2n)) per frequency
    (Makhoul, IEEE TASSP 1980): DCT-II y_k = 2 Re(w^k V_k) and y_(n-k) =
    -2 Im(w^k V_k), and DCT-III runs that map backwards.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if type == 1:
        return np.fft.rfft(np.concatenate((x, x[-2:0:-1]))).real
    h = n // 2
    if type == 2:
        z = np.fft.rfft(np.concatenate((x[::2], x[1::2][::-1])))
        z *= _twiddles(n, 2)
        y = np.empty(n)
        y[:h + 1] = z.real
        y[:h:-1] = -z.imag[1:(n + 1) // 2]
        return y
    if type == 3:
        # V_k = n w^-k (x_k - i x_(n-k)), x_n = 0
        spectrum = np.empty(h + 1, dtype=complex)
        spectrum.real = x[:h + 1]
        spectrum.imag[0] = 0.0
        np.negative(x[:n - h - 1:-1], out=spectrum.imag[1:])
        spectrum *= _twiddles(n, 3)
        v = np.fft.irfft(spectrum, n)
        y = np.empty(n)
        y[::2] = v[:n - h]
        y[1::2] = v[:n - h - 1:-1]
        return y
    raise ValueError(f"type must be 1, 2 or 3, got {type}")


# Values per block of the power chain: the few float64 arrays of one block
# (64 KB each) stay in L2.  The block sets the summation order of its sums.
_BLOCK = 8192
# Values per block of the recurrence: its three buffers (256 KB each) stay
# in L2, and a 12,000-node rule is one pass of the degree loop.  Each value
# is computed on its own, so the block size does not change a bit.
_RECURRENCE_BLOCK = 1 << 15
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
        m = max(1, min(flat.size, _RECURRENCE_BLOCK))
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
            return dct(x, 3)[::-1]
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
        return dct(x, 1)[-2:0:-1]

    def pole_gap(self, x: np.ndarray) -> np.ndarray:
        """1 - G(cos x) for 0 <= x <= pi/l, to a few eps relative: 14 terms
        of the Taylor series sum_{k>=1} (-1)^(k+1) b_k (l x)^(2k) of the
        cosine series, b_k = sum_m c_m (m/l)^(2k)/(2k)! <= 1/(2k)!, whose
        terms decrease here (< 4e-18 left).  No node t = cos x is rounded.
        """
        k = np.arange(1, 15)
        m2 = (np.arange(self.degree + 1) / max(self.degree, 1)) ** 2
        fact = np.array([math.factorial(2 * j) for j in k], dtype=float)
        b = (-1.0) ** (k + 1) * (m2[None, :] ** k[:, None] @ self._full) / fact
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


# Hankel's expansion is used from the least x >= 2 at which its terms fall
# below 2^-56 of the first with none above 4 (x = 19 for integer nu <= 5).
_HANKEL_TERM = 2.0 ** -56
_SQRT_HALF = math.sqrt(0.5)
_COS_EIGHTHS = (1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF, 0.0, _SQRT_HALF)


def _jt_series(nu: float, x: np.ndarray, terms: int) -> np.ndarray:
    """sum_k (-x^2/4)^k / (k! (nu+1)_k), the power series of
    Gamma(nu+1) (x/2)^(-nu) J_nu(x)."""
    u = x * x / 4.0
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, terms + 1):
        term = term * (-u) / (k * (nu + k))
        total = total + term
    return total


@functools.cache
def _hankel(nu: float) -> tuple[float, tuple, tuple]:
    """(x_min, P, Q): Hankel's coefficients (-1)^k a_2k(nu) and (-1)^k
    a_(2k+1)(nu) of J_nu (DLMF 10.17.3), as many as x >= x_min needs."""
    mu = 4.0 * nu * nu
    a = [1.0]
    while a[-1] != 0.0 and len(a) < 120:  # a_k = 0 for k > nu at half-integer nu
        k = len(a)
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    x = 2.0
    while True:
        terms = [abs(c) / x ** k for k, c in enumerate(a)]
        used = next((k for k, t in enumerate(terms) if t < _HANKEL_TERM), len(a))
        if used < len(a) and max(terms[:used]) <= 4.0:
            break
        x += 1.0
    sign = [(-1.0) ** (k // 2) * c for k, c in enumerate(a[:used])]
    return x, tuple(sign[0::2]), tuple(sign[1::2])


def _hankel_j(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) = (2/(pi x))^(1/2) (P cos w - Q sin w), w = x - (2 nu + 1) pi/4,
    with cos w and sin w from cos x and sin x (no rounded phase)."""
    _, p_coef, q_coef = _hankel(nu)
    y = 1.0 / (x * x)
    p = _horner(p_coef, y)
    q = _horner(q_coef, y) / x if q_coef else np.zeros_like(x)
    m = round(2.0 * nu) + 1
    cos_phi, sin_phi = _COS_EIGHTHS[m % 8], _COS_EIGHTHS[(m - 2) % 8]
    c, s = np.cos(x), np.sin(x)
    return np.sqrt(2.0 / (math.pi * x)) * (p * (c * cos_phi + s * sin_phi)
                                           - q * (s * cos_phi - c * sin_phi))


def _miller_j(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) by Miller's backward recurrence J_(m-1) = (2m/x) J_m - J_(m+1),
    started far enough above max(x) + nu that the start does not show."""
    frac = nu % 1.0
    x_max = float(np.max(x))
    top = math.ceil(nu + x_max + 10.0 + 8.0 * x_max ** (1 / 3))
    prev, cur, new = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    even = np.zeros_like(x)  # sum J_2k, k >= 1 (integer nu)
    out = None
    for m in range(top, -1 if frac else 0, -1):  # cur has order m + frac
        if m + frac == nu:
            out = cur.copy()
        if not frac and m % 2 == 0:
            even += cur
        np.divide(2.0 * (m + frac), x, out=new)
        new *= cur
        new -= prev
        prev, cur, new = cur, new, prev
        if top > 150 and m % 16 == 0:  # keep the growing solution finite
            scale = np.where(np.abs(cur) > 1e250, 1e-250, 1.0)
            for v in (prev, cur, even) if out is None else (prev, cur, even, out):
                v *= scale
    if frac:
        # prev, cur ~ J_(1/2), J_(-1/2) = (2/(pi x))^(1/2) (sin x, cos x)
        return out * np.sqrt(2.0 / (math.pi * x)) / (prev * np.sin(x) + cur * np.cos(x))
    return (cur if out is None else out) / (cur + 2.0 * even)  # 1 = J_0 + 2 sum J_2k


def bessel_j(nu: float, x) -> np.ndarray:
    """J_nu(x) for nu in {0, 1/2, 1, 3/2, ...} and x >= 0, within a few
    1e-16 absolute.

    Below x = 2 the power series; from x_min(nu) Hankel's expansion (x_min
    is 19 at integer nu <= 5; at half-integer nu the expansion ends after
    nu + 1/2 terms, and x_min = 2 up to nu = 5/2); between, Miller's
    backward recurrence, normalised by 1 = J_0 + 2 sum_k J_2k at integer
    nu (DLMF 10.12.4) and by J_(1/2), J_(-1/2) = (2/(pi x))^(1/2) (sin x,
    cos x) at half-integer nu (DLMF 10.16.1).
    """
    if nu < 0 or (2 * nu) % 1:
        raise ValueError(f"need nu in {{0, 1/2, 1, ...}}, got {nu}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small, large = x < 2.0, x >= _hankel(nu)[0]
    mid = ~(small | large)
    if small.any():
        xs = x[small]
        out[small] = _jt_series(nu, xs, 16) * (0.5 * xs) ** nu / math.gamma(nu + 1.0)
    if large.any():
        out[large] = _hankel_j(nu, x[large])
    if mid.any():
        out[mid] = _miller_j(nu, x[mid])
    return out


class ScaledBesselKernel:
    """Scaled Bessel kernel Jt_d(psi) = 2^nu Gamma(nu+1) J_nu(psi) psi^(-nu).

    nu = d/2 - 1.  Jt_d(0) = 1 (removable singularity, handled by an even
    power series for psi < 0.5 to relative 1e-14); |Jt_d| <= 1 on [0, inf).
    d = 3 and 5 use closed trigonometric forms, other d :func:`bessel_j`.
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
        # 12 terms reach relative 1e-16 for psi < 0.5
        return _jt_series(self.nu, psi, 12)

    def _large(self, psi: np.ndarray) -> np.ndarray:
        d = self.d
        if d == 3:
            return np.sin(psi) / psi
        if d == 5:
            return 3.0 * (np.sin(psi) - psi * np.cos(psi)) / psi**3
        scale = 2.0 ** self.nu * math.gamma(self.nu + 1.0)
        return scale * bessel_j(self.nu, psi) / psi ** self.nu


@functools.cache
def _kernel(d: int) -> ScaledBesselKernel:
    return ScaledBesselKernel(d)


def scaled_bessel(d: int, psi):
    """Jt_d(psi) = 2^(d/2-1) Gamma(d/2) J_{d/2-1}(psi) psi^(-(d/2-1)), psi >= 0."""
    return _kernel(d)(psi)


# B_2j / (2j)!, j = 1..10: the Euler-Maclaurin weights
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
               43867 / 5109094217170944000, -174611 / 802857662698291200000)


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) = sum_{k>=0} (a+k)^-s for s > 1 and a > 0.

    The terms with a + k below 10 + s are summed; the rest is the integral
    plus the half term plus the Bernoulli corrections of Euler-Maclaurin
    summation (DLMF 2.10.1 and 25.11.1), which fall by at least
    ((s + 2j)/(2 pi (a + k)))^2 per term there, until they no longer move
    the sum.
    """
    if not s > 1.0 or not a > 0.0:
        raise ValueError(f"need s > 1 and a > 0, got s={s}, a={a}")
    n = max(0, math.ceil(10.0 + s - a))
    x = a + n
    total = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** -s
    term = s * x ** (-s - 1.0)  # (s)_(2j-1) x^(1-s-2j)
    for j, weight in enumerate(_EM_WEIGHTS, 1):
        step = weight * term
        total += step
        if abs(step) < 1e-17 * total:
            break
        term *= (s + 2 * j - 1) * (s + 2 * j) / (x * x)
    return math.fsum([(a + k) ** -s for k in range(n)] + [total])
