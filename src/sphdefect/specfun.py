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
function by Euler-Maclaurin summation, the standard normal distribution
function and its inverse (Moshier's Cephes ``ndtr`` and ``ndtri``), and
Bessel functions J_nu of order nu in {0, 1/2, 1, 3/2, ...}.
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
    "ndtr",
    "ndtri",
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


# Moshier's Cephes ndtr (with its erf and erfc) and ndtri, operation for
# operation: Horner in the same order, exp and log per element from math
# (the C library's; numpy's vectorised exp and log differ in the last bit
# on a few inputs), so the results equal scipy.special.ndtr and ndtri.
_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef, monic: bool = False):
    """Cephes polevl, Horner from the leading coefficient, or p1evl with an
    implied leading 1 when ``monic``; x a float or an array."""
    p = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        p = p * x + c
    return p


def _per_element(f, x: np.ndarray) -> np.ndarray:
    return np.array([f(v) for v in x.tolist()], dtype=float).reshape(x.shape)


def _erf_small(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _erfc_positive(a: np.ndarray) -> np.ndarray:
    """Cephes erfc for a >= 0."""
    out = np.zeros_like(a)
    near = a < 1.0
    out[near] = 1.0 - _erf_small(a[near])
    with np.errstate(over="ignore"):
        mid = ~near & (-a * a >= -_MAXLOG)  # beyond: 0 (underflow)
    x = a[mid]
    far = x >= 8.0
    p, q = np.empty_like(x), np.empty_like(x)
    p[~far] = _polevl(x[~far], _ERFC_P)
    q[~far] = _polevl(x[~far], _ERFC_Q, monic=True)
    p[far] = _polevl(x[far], _ERFC_R)
    q[far] = _polevl(x[far], _ERFC_S, monic=True)
    out[mid] = _per_element(math.exp, -x * x) * p / q
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal distribution function Phi(a), elementwise; equals
    scipy.special.ndtr to the bit (Cephes: 0.5 + 0.5 erf(a/sqrt 2) while
    |a/sqrt 2| < 1/sqrt 2, the erfc form beyond)."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, np.nan)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf_small(x[inner])
    outer = z >= _SQRT1_2
    half = 0.5 * _erfc_positive(z[outer])
    y[outer] = np.where(x[outer] > 0, 1.0 - half, half)
    return y


def ndtri(y0) -> np.ndarray:
    """Inverse Phi^-1(y0) of the standard normal distribution function,
    elementwise; equals scipy.special.ndtri to the bit (Cephes: a rational
    function of y - 1/2 for exp(-2) < y < 1 - exp(-2), of 1/sqrt(-2 log y)
    in the tails; -inf at 0, inf at 1, nan outside [0, 1])."""
    y0 = np.asarray(y0, dtype=float)
    out = np.full_like(y0, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    inside = (y0 > 0.0) & (y0 < 1.0)
    y = y0[inside]
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    centre = y > _EXP_M2
    x = np.empty_like(y)
    c = y[centre] - 0.5
    c2 = c * c
    ratio = c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0, monic=True)
    x[centre] = (c + c * ratio) * _S2PI
    r = np.sqrt(-2.0 * _per_element(math.log, y[~centre]))
    r0 = r - _per_element(math.log, r) / r
    z = 1.0 / r
    near = r < 8.0
    r1 = np.where(near, z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, monic=True),
                  z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2, monic=True))
    x[~centre] = np.where(upper[~centre], r0 - r1, r1 - r0)
    out[inside] = x
    return out


# Cephes Gamma, reciprocal Gamma, log-Gamma and Beta, operation for
# operation as SciPy's xsf library evaluates them, for scalars.  Only the
# power-series coefficient of P_n near 0 uses them, so that gauss_legendre
# keeps scipy.special.roots_legendre's nodes and weights to the bit.
_MAXGAM = 171.624376956302725
_GAMMA_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3, 1.04213797561761569935E-2,
            4.76367800457137231464E-2, 2.07448227648435975150E-1, 4.94214826801497100753E-1,
            9.99999999999999996796E-1)
_GAMMA_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4, -4.45641913851797240494E-3,
            1.18139785222060435552E-2, 3.58236398605498653373E-2, -2.34591795718243348568E-1,
            7.14304917030273074085E-2, 1.00000000000000000320E0)
_STIRLING = (7.87311395793093628397E-4, -2.29549961613378126380E-4, -2.68132617805781232825E-3,
             3.47222221605458667310E-3, 8.33333333333482257126E-2)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
           -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
           -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6)
_RGAMMA_R = (3.13173458231230000000E-17, -6.70718606477908000000E-16, 2.20039078172259550000E-15,
             2.47691630348254132600E-13, -6.60074100411295197440E-12, 5.13850186324226978840E-11,
             1.08965386454418662084E-9, -3.33964630686836942556E-8, 2.68975996440595483619E-7,
             2.96001177518801696639E-6, -8.04814124978471142852E-5, 4.16609138709688864714E-4,
             5.06579864028608725080E-3, -6.41925436109158228810E-2, -4.98558728684003594785E-3,
             1.27546015610523951063E-1)


def _cephes_gamma(x: float) -> float:
    """Gamma(x) for -33 < x < 171.6, x not 0, -1, -2, ..."""
    if x > 33.0:  # Stirling's formula
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIRLING)
        y = math.exp(x)
        if x > 143.01608:  # pow would overflow
            v = x ** (0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = x ** (x - 0.5) / y
        return 2.50662827463100050242E0 * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        z /= x
        x += 1.0
    while x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _cephes_lgam(x: float) -> tuple[float, int]:
    """(log|Gamma(x)|, sign of Gamma(x)) for -34 < x <= 1e8, x not 0, -1, ..."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        sign = -1 if z < 0.0 else 1
        z = abs(z)
        if u == 2.0:
            return math.log(z), sign
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C, monic=True), sign
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # log sqrt(2 pi)
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q, 1


def _cephes_rgamma(x: float) -> float:
    """1/Gamma(x) for 0 < x < 171.6."""
    if x > 4.0:
        return 1.0 / _cephes_gamma(x)
    z, w = 1.0, x
    while w > 1.0:
        w -= 1.0
        z *= w
    if w == 1.0:
        return 1.0 / z
    t = 4.0 * w - 2.0  # Chebyshev series of 1/(w Gamma(w)) - 1 on [0, 1]
    b0, b1, b2 = _RGAMMA_R[0], 0.0, 0.0
    for c in _RGAMMA_R[1:]:
        b2, b1 = b1, b0
        b0 = t * b1 - b2 + c
    return w * (1.0 + 0.5 * (b0 - b2)) / z


def _cephes_beta(a: float, b: float) -> float:
    """B(a, b) for 1 <= a < 1e6 and 0 < |b| < 1: by Gamma functions while
    a + b < 171.6, by log-Gamma beyond."""
    y = a + b
    if y > _MAXGAM or a > _MAXGAM:
        ly, sy = _cephes_lgam(y)
        lb, sb = _cephes_lgam(b)
        la, sa = _cephes_lgam(a)
        return sy * sb * sa * math.exp(la + (lb - ly))
    y = _cephes_rgamma(y)
    ga, gb = _cephes_gamma(a), _cephes_gamma(b)
    if abs(abs(ga * y) - 1.0) > abs(abs(y * gb) - 1.0):
        return ga * (y * gb)
    return (ga * y) * gb
