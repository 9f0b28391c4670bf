"""Real hyperspherical harmonic bases, Gaunt tables, circulant diagrams.

Explicit orthonormal real bases of the degree-l harmonic eigenspace on S^2
and S^3, built from fully normalized associated Legendre functions and, for
S^3, Gegenbauer polar factors times an S^2 block per azimuthal order.  On
top of the bases: Gaunt coefficients (triple products of same-degree
harmonics) by exact-degree quadrature, summed ring by ring over the
factored basis (an azimuth triple sum times a polar sum over the grid's
rings), the double-sum identity

    sum_{m1,m2} Gaunt(m1,m2,M) Gaunt(m1,m2,M')
        = delta_{M,M'} (n^2/|S^d|) (|S^(d-1)|/|S^d|) int_{-1}^{1} G^3 w dt,

whose left side is the Gram matrix M of the table as an n^2 x n matrix,
and the circulant fourth-cumulant diagram (|S^d|/n)^6 sum M^2, the scaled
squared Frobenius norm of M, with closed form |S^d|^6 n^{-5} g^2, used to
quantify the fourth-moment CLT criterion for the sample bispectrum.

Flat index convention: m in {1..n} in stored tables and file formats
(0-based rows internally).  For d=2 the map is m=1 -> zonal, m=2k ->
cos(k phi) row, m=2k+1 -> sin(k phi) row; for d=3 blocks of the S^2 layout
repeat for L = 0..l with polar order L.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .specfun import _gegenbauer_evaluator, eigenspace_dim, sphere_surface
from .spherequad import build_grid, cubic_integral

__all__ = [
    "HarmonicBasis",
    "GauntTable",
    "CirculantClosed",
    "build_basis",
    "gaunt_table",
    "lemcg_check",
    "gaunt_diagonal",
    "circulant_sum",
    "circulant_closed",
    "cum4_ratio",
]

_D2_LMAX = 64
_D3_LMAX = 12


def _alp_rows(l: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values W_{l,m}, m = 0..l.

    Normalization: int_0^pi W_{l,m}(theta)^2 sin(theta) dtheta = 1, so the
    S^2 harmonics are W_{l,0}/sqrt(2 pi) and W_{l,m} {cos,sin}(m phi)/sqrt(pi).
    Diagonal seed W_{m,m} then upward degree recurrence; all coefficients
    bounded, stable far beyond l = 64.
    """
    out = np.empty((l + 1, ct.shape[0]))
    w_mm = np.full(ct.shape[0], 1.0 / math.sqrt(2.0))
    for m in range(l + 1):
        if m == l:
            out[m] = w_mm
            break
        prev = w_mm
        cur = math.sqrt(2 * m + 3.0) * ct * w_mm
        for k in range(m + 2, l + 1):
            a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
            b = math.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
            prev, cur = cur, a * (ct * cur - b * prev)
        out[m] = cur
        w_mm = math.sqrt((2 * m + 3.0) / (2 * m + 2.0)) * st * w_mm
    return out


def _check_points(points: np.ndarray, d: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d + 1:
        raise ValueError(f"points must have {d + 1} coordinates, got shape {pts.shape}")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("points must lie on the unit sphere (|x| - 1 > 1e-9)")
    return pts


def _polar_s3(l: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """S^3 polar factors N (sin chi)^L G_{l-L;2L+3}(cos chi), rows L = 0..l.

    G_{n;2L+3} is the Gegenbauer C_n^(L+1) scaled to 1 at 1 (lam = (d-1)/2).
    Its plain squared norm against (sin chi)^(2L+2) is
    h = pi 2^(-1-2L) Gamma(l+L+2) / ((l-L)! (l+1) Gamma(L+1)^2),
    and its value at 1 is binom(l+L+1, l-L), so N = binom/sqrt(h).
    """
    out = np.empty((l + 1, ct.shape[0]))
    s_pow = np.ones_like(st)
    for big_l in range(l + 1):
        log_h = (math.log(math.pi) - (1 + 2 * big_l) * math.log(2.0)
                 + math.lgamma(l + big_l + 2) - math.lgamma(l - big_l + 1)
                 - math.log(l + 1.0) - 2.0 * math.lgamma(big_l + 1))
        log_c1 = (math.lgamma(l + big_l + 2) - math.lgamma(l - big_l + 1)
                  - math.lgamma(2 * big_l + 2))
        out[big_l] = (math.exp(log_c1 - 0.5 * log_h) * s_pow
                      * _gegenbauer_evaluator(2 * big_l + 3, l - big_l).value(ct))
        s_pow = s_pow * st
    return out


def _polar_table(d: int, l: int, cos, sin):
    """(polar, slot) of :meth:`HarmonicBasis.ring_factors` at one cos and
    one sin array per polar axis; basis function i is polar[m, L] times
    azimuth row m, with L, m = divmod(slot[i], 2l+1)."""
    width = 2 * l + 1
    k_of_row = (np.arange(width) + 1) // 2
    if d == 2:
        return _alp_rows(l, cos[0], sin[0])[k_of_row][:, None, :], np.arange(width)
    polar = np.zeros((width, l + 1, cos[0].size))
    radial = _polar_s3(l, cos[0], sin[0])
    for big_l in range(l + 1):
        block = 2 * big_l + 1
        w = _alp_rows(big_l, cos[1], sin[1])
        polar[:block, big_l] = radial[big_l] * w[k_of_row[:block]]
    # block L fills rows m < 2L+1 of polar[:, L]: slot L*width + m, L-major
    return polar, np.flatnonzero(np.arange(width) < 2 * np.arange(l + 1)[:, None] + 1)


def _azimuth(l: int, angle: np.ndarray) -> np.ndarray:
    """Azimuth rows of :meth:`HarmonicBasis.ring_factors` at angle[k-1] = k phi."""
    azimuth = np.empty((2 * l + 1, angle.shape[1]))
    azimuth[0] = 1.0 / math.sqrt(2.0 * math.pi)
    azimuth[1::2] = np.cos(angle) / math.sqrt(math.pi)
    azimuth[2::2] = np.sin(angle) / math.sqrt(math.pi)
    return azimuth


@dataclass(frozen=True)
class HarmonicBasis:
    """Orthonormal real basis of the degree-l eigenspace on S^d.

    size = n_{l;d}; evaluate() returns the (size, npoints) value matrix.
    """

    d: int
    l: int
    size: int

    def evaluate(self, points) -> np.ndarray:
        pts = _check_points(points, self.d)
        # sines from the coordinates: sqrt(1 - cos^2) loses digits at the poles
        cos = [np.clip(pts[:, 0], -1.0, 1.0)]
        sin = [np.linalg.norm(pts[:, 1:], axis=1)]
        if self.d == 3:  # at s1 = 0 only the L = 0 block is nonzero: (1, 0) will do
            s1 = np.where(sin[0] > 0, sin[0], 1.0)
            cos.append(np.where(sin[0] > 0, pts[:, 1] / s1, 1.0))
            sin.append(np.hypot(pts[:, 2], pts[:, 3]) / s1)
        phi = np.arctan2(pts[:, -1], pts[:, -2])
        polar, slot = _polar_table(self.d, self.l, cos, sin)
        rows, big_l = slot % (2 * self.l + 1), slot // (2 * self.l + 1)
        azimuth = _azimuth(self.l, np.outer(np.arange(1, self.l + 1), phi))
        return polar[rows, big_l] * azimuth[rows]

    def ring_factors(self, polar_nodes, n_phi: int):
        """The basis on rings of a product grid, factored per ring.

        polar_nodes: one array of cos(polar angle) per polar axis, all of
        length G (one entry per ring; chi then theta on S^3).  Returns
        (polar, azimuth, slot) with polar of shape (2l+1, n_L, G), azimuth
        of shape (2l+1, n_phi) and slot of shape (size,), such that, with a
        coefficient vector a scattered as A.flat[slot] = a into an
        (n_L, 2l+1) array,

            T(ring g, phi_j) = sum_m (sum_L A[L, m] polar[m, L, g]) azimuth[m, j],

        at phi_j = 2 pi j / n_phi.  Row m of the azimuth table is the flat
        S^2 order: 1/sqrt(2 pi), then cos(k phi)/sqrt(pi), sin(k phi)/sqrt(pi)
        for k = 1..l.  n_L = 1 on S^2; on S^3, L runs over the l+1 polar
        orders, whose degree-L S^2 blocks are prefixes of that order.
        """
        cos = [np.asarray(t, dtype=float) for t in polar_nodes]
        sin = [np.sqrt(np.maximum(0.0, 1.0 - t * t)) for t in cos]
        polar, slot = _polar_table(self.d, self.l, cos, sin)
        # k*j reduced mod n_phi keeps every angle in [0, 2 pi) exactly
        kj = np.outer(np.arange(1, self.l + 1), np.arange(n_phi)) % n_phi
        return polar, _azimuth(self.l, (2.0 * math.pi / n_phi) * kj), slot


def build_basis(d: int, l: int) -> HarmonicBasis:
    """Orthonormal real harmonics of degree l on S^d (d = 2 or 3).

    d=2: associated-Legendre times cos/sin azimuth, l <= 64.
    d=3: Gegenbauer polar factor times a degree-L S^2 block, l <= 12.
    """
    cap = {2: _D2_LMAX, 3: _D3_LMAX}.get(d)
    if cap is None:
        raise ValueError(f"explicit bases exist for d in {{2, 3}}, got d={d}")
    if not 0 <= l <= cap:
        raise ValueError(f"d={d} basis supports 0 <= l <= {cap}, got l={l}")
    return HarmonicBasis(d=d, l=l, size=eigenspace_dim(d, l))


# ---------------------------------------------------------------------------
# Gaunt coefficients and the circulant fourth-cumulant diagram

_SNAP = 1e-12  # selection-rule zeros land ~1e3 below this at acceptance scale
_GAUNT_FLOP_BUDGET = 2e9


@dataclass(frozen=True)
class GauntTable:
    """All n^3 same-degree Gaunt coefficients int Y_m1 Y_m2 Y_m3 dx.

    coefficients[i, j, k] uses 0-based rows of the flat basis order; the
    text format is 1-based.  Entries are exactly symmetric
    under all 6 index permutations and exact 0 below the snap threshold.
    """

    d: int
    l: int
    n: int
    exactness: int
    coefficients: np.ndarray

    def to_text(self) -> str:
        lines = [f"{self.d} {self.l} {self.n} {self.exactness}"]
        for i in range(self.n):
            for j in range(i, self.n):
                for k in range(j, self.n):
                    v = self.coefficients[i, j, k]
                    if v != 0.0:
                        lines.append(f"{i + 1} {j + 1} {k + 1} {v:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path) -> "GauntTable":
        with open(path) as fh:
            header = fh.readline().split()
            d, l, n, exactness = (int(x) for x in header)
            coeff = np.zeros((n, n, n))
            for line in fh:
                if not line.strip():
                    continue
                *abc, v = line.split()
                for idx in itertools.permutations(int(x) - 1 for x in abc):
                    coeff[idx] = float(v)
        return cls(d=d, l=l, n=n, exactness=exactness, coefficients=coeff)


def gaunt_table(d: int, l: int) -> GauntTable:
    """Gaunt coefficients of the full degree-l basis by exact quadrature.

    The triple product has polynomial degree 3l, so the grid of exactness 3l
    integrates every coefficient exactly (up to rounding).  On its rings the
    basis factors as in :meth:`HarmonicBasis.ring_factors`; with
    p_a(g) = polar[m_a, L_a, g],

        Gaunt[a, b, c] = Z[m_a, m_b, m_c] sum_g w_g p_a(g) p_b(g) p_c(g),

    Z the sum of azimuth-row triple products over the n_phi azimuths (exact,
    as 3l < n_phi).  Slice a is one product over the G rings and one over
    the azimuths, for b, c >= a only; these canonical entries a <= b <= c
    are snapped to exact zeros when small and written to all their
    permutations, so the table is exactly symmetric with O(n^2) scratch.
    Odd l gives the zero table: the integrand is odd under x -> -x.
    """
    basis = build_basis(d, l)
    n = basis.size
    grid = build_grid(d, max(3 * l, 2))
    t = np.zeros((n, n, n))
    if l % 2 == 1:
        return GauntTable(d=d, l=l, n=n, exactness=grid.exactness_degree, coefficients=t)
    # slice i sums (n-i)^2 products over the G rings: sum_i (n-i)^2 G flops;
    # its azimuth sums, over n_phi = 2G points on S^2, add at most twice that
    flops = n * (n + 1) * (2 * n + 1) // 6 * grid.ring_weights.size
    if flops > _GAUNT_FLOP_BUDGET:
        raise ValueError(f"gaunt_table(d={d}, l={l}): {flops:.2e} flops "
                         f"exceeds budget {_GAUNT_FLOP_BUDGET:.0e}")
    polar, azimuth, slot = basis.ring_factors(grid.ring_nodes, grid.n_phi)
    m = slot % (2 * l + 1)
    p, a = polar[m, slot // (2 * l + 1)], azimuth[m]  # rows of basis function i
    pw = p * grid.ring_weights
    lower = np.tri(n, k=-1, dtype=bool)
    for i in range(n):
        s = ((a[i] * a[i:]) @ a[i:].T) * ((pw[i] * p[i:]) @ p[i:].T)
        s = np.where(lower[i:, i:], s.T, s)  # upper triangle mirrored
        s[np.abs(s) < _SNAP] = 0.0  # also clears -0.0
        t[i, i:, i:] = t[i:, i, i:] = t[i:, i:, i] = s
    return GauntTable(d=d, l=l, n=n, exactness=grid.exactness_degree, coefficients=t)


def gaunt_diagonal(d: int, l: int) -> float:
    """g_{l;d} = (n^2/|S^d|) (|S^(d-1)|/|S^d|) int_{-1}^1 G_{l;d}^3 w dt,

    the common diagonal of the Gaunt double-sum identity (zero for odd l).
    """
    n = eigenspace_dim(d, l)
    s_d = sphere_surface(d)
    return n * n / s_d * (sphere_surface(d - 1) / s_d) * cubic_integral(d, l)


def _gram(table: GauntTable) -> np.ndarray:
    """M = A^T A for A = coefficients.reshape(n*n, n), so that
    M[c, e] = sum_{a,b} G_abc G_abe: one dgemm of n^4 flops, within budget."""
    n = table.n
    if float(n) ** 4 > _GAUNT_FLOP_BUDGET:
        raise ValueError(f"Gram matrix of n={n}: n^4 = {float(n) ** 4:.2e} flops "
                         f"exceeds budget {_GAUNT_FLOP_BUDGET:.0e}")
    a = table.coefficients.reshape(n * n, n)
    return a.T @ a


def lemcg_check(table: GauntTable) -> np.ndarray:
    """Residual matrix of the Gaunt double-sum identity.

    Entry (M, M') = sum_{m1,m2} G_{m1 m2 M} G_{m1 m2 M'} - delta g_{l;d};
    the identity predicts an exact zero matrix.
    """
    if table.l % 2 == 1:
        raise ValueError("the double-sum identity is stated for even l only")
    return _gram(table) - gaunt_diagonal(table.d, table.l) * np.eye(table.n)


def circulant_sum(table: GauntTable) -> float:
    """Circulant diagram (|S^d|/n)^6 sum G_{abc} G_{abe} G_{fge} G_{fgc}.

    Summing over (a, b) and (f, g) first leaves sum_{c,e} M_ce M_ec with
    M the Gram matrix of :func:`_gram`, which is symmetric: the circulant
    is the scaled squared Frobenius norm of M.
    """
    m = _gram(table)
    scale = (sphere_surface(table.d) / table.n) ** 6
    return scale * float(np.sum(m * m))


class CirculantClosed(NamedTuple):
    value: float
    g: float


def circulant_closed(d: int, l: int) -> CirculantClosed:
    """Closed circulant value |S^d|^6 n^(-5) g_{l;d}^2, with g itself."""
    if l % 2 == 1:
        raise ValueError("circulant closed form is stated for even l only")
    g = gaunt_diagonal(d, l)
    n = eigenspace_dim(d, l)
    return CirculantClosed(value=sphere_surface(d) ** 6 / n ** 5 * g * g, g=g)


def cum4_ratio(d: int, l: int) -> float:
    """Fourth-moment CLT diagnostic for the sample bispectrum.

    Ratio of the dominant (circulant) fourth-cumulant contribution to the
    squared variance 3! |S^d| |S^(d-1)| int_0^pi G^3 (sin)^(d-1).  Both are
    multiples of g_{l;d}^2, which cancels: the ratio is exactly
    1/(36 n_{l;d}), decaying like l^-(d-1), which drives the bispectrum CLT.
    """
    if l % 2 == 1:
        raise ValueError("the fourth-moment ratio is defined for even l only")
    return 1.0 / (36.0 * eigenspace_dim(d, l))
