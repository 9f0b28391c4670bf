import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg
from scipy import special as sp

from sphdefect.specfun import (GegenbauerEvaluator, ScaledBesselKernel, bessel_j, dct,
                               eigenspace_dim, gegenbauer, hurwitz_zeta, next_fast_len,
                               scaled_bessel, sphere_surface)
from sphdefect.specfun import _BLOCK, _RECURRENCE_BLOCK, powers_dot


def test_sphere_surface_known_values():
    assert sphere_surface(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_surface(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    # recursion |S^d| = 2 pi |S^{d-2}| / (d-1)
    for d in range(3, 12):
        assert sphere_surface(d) == pytest.approx(
            2.0 * math.pi * sphere_surface(d - 2) / (d - 1), rel=1e-14)


def test_eigenspace_dim_closed_forms():
    for l in range(0, 30):
        assert eigenspace_dim(2, l) == 2 * l + 1
        assert eigenspace_dim(3, l) == (l + 1) ** 2
    assert eigenspace_dim(5, 0) == 1
    assert eigenspace_dim(5, 1) == 6
    # n_{l;d} = ((2l+d-1)/l) C(l+d-2, l-1) for l >= 1
    for d in (2, 3, 4, 7):
        for l in range(1, 20):
            expected = (2 * l + d - 1) * math.comb(l + d - 2, l - 1) // l
            assert eigenspace_dim(d, l) == expected


def test_eigenspace_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenspace_dim(1, 3)
    with pytest.raises(ValueError):
        eigenspace_dim(2, -1)


class TestGegenbauer:
    def test_matches_legendre_for_d2(self):
        t = np.linspace(-1.0, 1.0, 201)
        for l in (0, 1, 2, 5, 17, 40):
            coeffs = np.zeros(l + 1)
            coeffs[l] = 1.0
            assert np.max(np.abs(gegenbauer(2, l, t) - npleg.legval(t, coeffs))) < 1e-13

    def test_matches_chebyshev_u_for_d3(self):
        # lam = 1: C_l^(1) = U_l, U_l(cos x) = sin((l+1)x)/sin(x), U_l(1) = l+1
        x = np.linspace(0.05, math.pi - 0.05, 101)
        for l in (1, 2, 6, 13):
            ref = np.sin((l + 1) * x) / ((l + 1) * np.sin(x))
            assert np.max(np.abs(gegenbauer(3, l, np.cos(x)) - ref)) < 1e-13

    def test_matches_scipy_normalization(self):
        # d = 7 and 27 are lam = 3 and 13, polar factors of S^3 harmonics
        t = np.linspace(-1.0, 1.0, 51)
        for d in (4, 5, 8, 7, 27):
            lam = (d - 1) / 2.0
            for l in (2, 3, 9):
                ref = sp.eval_gegenbauer(l, lam, t) / sp.eval_gegenbauer(l, lam, 1.0)
                assert np.max(np.abs(gegenbauer(d, l, t) - ref)) < 1e-12

    def test_endpoints(self):
        # recurrence rounding leaves a few ulps at the endpoints
        for d in (2, 3, 4, 6):
            for l in range(0, 25):
                assert gegenbauer(d, l, 1.0) == pytest.approx(1.0, abs=5e-15)
                assert gegenbauer(d, l, -1.0) == pytest.approx((-1.0) ** l, abs=5e-15)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 6), l=st.integers(0, 120),
           t=st.floats(-1.0, 1.0, allow_nan=False))
    def test_bounded_by_one(self, d, l, t):
        assert abs(gegenbauer(d, l, t)) <= 1.0 + 1e-12

    def test_high_degree_stable(self):
        # normalized recurrence stays O(1) even at degree 10^4
        v = gegenbauer(2, 10_000, 0.3)
        assert abs(v) <= 1.0
        assert np.isfinite(v)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            gegenbauer(2, 4, 1.5)

    def test_powers_dot_matches_direct(self):
        ev = GegenbauerEvaluator(2, 6)
        rng = np.random.default_rng(5)
        t = rng.uniform(-1.0, 1.0, 64)
        w = rng.uniform(0.1, 1.0, 64)
        g = ev.value(t)
        got = powers_dot(g, w, [0, 3, 7, 8])
        for k, v in got.items():
            assert v == pytest.approx(float(np.dot(w, g**k)), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 17])
    def test_powers_dot_block_edges(self, n):
        # one node, under a block, exactly one block, and ragged last blocks;
        # k = 0 is the weight sum, and the k list mixes parities and gaps
        ev = GegenbauerEvaluator(3, 9)
        rng = np.random.default_rng(n)
        t = rng.uniform(-1.0, 1.0, n)
        w = rng.uniform(0.1, 1.0, n)
        ks = [0, 1, 2, 5, 6, 11, 14]
        g = ev.value(t)
        got = powers_dot(g, w, ks)
        assert sorted(got) == ks
        assert got[0] == pytest.approx(float(np.sum(w)), rel=1e-13)
        for k in ks:
            scale = float(np.dot(w, np.abs(g) ** k))
            assert abs(got[k] - float(np.dot(w, g**k))) <= 1e-13 * scale + 1e-300

    def test_powers_dot_underflow_cut(self):
        # blocks with |G| <= 0.06 leave the power chain once even their
        # largest |G|^k is below the smallest normal double; up to that order
        # they add their full share, and a block near t = 1 runs every order
        ev = GegenbauerEvaluator(2, 200)
        low = np.linspace(-0.5, 0.5, 2 * _BLOCK)
        tiny = np.finfo(float).tiny
        life = math.log(tiny) / math.log(np.max(np.abs(ev.value(low))))
        ks = [2, 51, int(0.9 * life), int(1.1 * life) + 1]
        rng = np.random.default_rng(3)
        for t in (low, np.concatenate([low, np.linspace(0.99, 1.0, _BLOCK)])):
            w = rng.uniform(0.1, 1.0, t.size)
            g = ev.value(t)
            got = powers_dot(g, w, ks)
            for k in ks:
                # rounding of a chained power grows like k * eps
                assert got[k] == pytest.approx(float(np.dot(w, g**k)), rel=1e-12,
                                               abs=tiny * float(np.sum(w)))

    @staticmethod
    def _textbook(ev, t):
        # G_{n+1} = (a[n] * t) * G_n - b[n] * G_{n-1}, one full array per step
        if ev.degree == 0:
            return np.ones_like(t)
        prev, ref = np.ones_like(t), t.copy()
        for n in range(1, ev.degree):
            prev, ref = ref, ev._a[n] * t * ref - ev._b[n] * prev
        return ref

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("l", [0, 1, 7, 400])
    def test_recurrence_bit_identical_to_textbook_form(self, d, l):
        # the in-place buffers must not change a single bit of the textbook form
        ev = GegenbauerEvaluator(d, l)
        t = np.concatenate([np.linspace(-1.0, 1.0, 1001),
                            np.random.default_rng(d + l).uniform(-1.0, 1.0, 500)])
        ref = self._textbook(ev, t)
        assert np.array_equal(ev._recurrence(t), ref)
        assert np.array_equal(gegenbauer(d, l, t), ref)

    @pytest.mark.parametrize("n", [_RECURRENCE_BLOCK, _RECURRENCE_BLOCK + 1])
    def test_recurrence_block_edges(self, n):
        # a whole block, and one with a one-value ragged block, keep every
        # bit of the textbook form
        ev = GegenbauerEvaluator(3, 9)
        t = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        assert np.array_equal(ev._recurrence(t), self._textbook(ev, t))


class TestCosineSeries:
    """G on Chebyshev points from one DCT of its cosine series."""

    @staticmethod
    def _angles(n, kind):
        # exact angles of the points in ascending t, as mpmath numbers
        import mpmath

        if kind == 1:
            return [(2 * (n - i) - 1) * mpmath.pi / (2 * n) for i in range(n)]
        return [(n - i) * mpmath.pi / (n + 1) for i in range(n)]

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("l", [0, 1, 2, 7, 40, 400])
    def test_matches_mpmath_at_exact_angles(self, d, l, kind):
        # kind 1 with twice the degree's nodes; kind 2 with about half, so
        # the series folds onto aliases for l >= 2
        import mpmath

        n = 2 * l + 3 if kind == 1 else l // 2 + 2
        got = GegenbauerEvaluator(d, l).chebyshev_values(n, kind)
        assert got.shape == (n,)
        # both ends, the centre and points between (all points when few)
        idx = sorted(set(np.linspace(0, n - 1, min(n, 25)).astype(int))
                     | {0, 1, n // 2, n - 2, n - 1} & set(range(n)))
        with mpmath.workdps(40):
            lam = mpmath.mpf(d - 1) / 2
            norm = mpmath.gegenbauer(l, lam, 1)
            angles = self._angles(n, kind)
            ref = [float(mpmath.gegenbauer(l, lam, mpmath.cos(angles[i])) / norm)
                   for i in idx]
        assert np.max(np.abs(got[idx] - ref)) <= 2e-15

    def test_short_second_kind_rule_aliases(self):
        # 14 points for degree 25 (the size the moment table picks for k = 1
        # at d = 3): every point must still equal the unfolded cosine sum
        d, l, n = 3, 25, 14
        ev = GegenbauerEvaluator(d, l)
        theta = (n - np.arange(n)) * math.pi / (n + 1)
        m = np.arange(l + 1)
        full = np.where(m == 0, 1.0, 2.0) * ev._cos
        direct = np.cos(np.outer(theta, m)) @ full
        assert np.max(np.abs(ev.chebyshev_values(n, 2) - direct)) <= 1e-15
        assert np.max(np.abs(ev.value(np.cos(theta)) - direct)) <= 1e-14

    def test_coefficients_positive_and_sum_to_one(self):
        for d, l in ((2, 0), (2, 9), (3, 12), (5, 300)):
            c = GegenbauerEvaluator(d, l)._cos
            assert np.all(c[l::-2] > 0.0)
            assert l == 0 or np.all(c[l - 1::-2] == 0.0)
            assert c[0] + 2.0 * np.sum(c[1:]) == pytest.approx(1.0, rel=1e-15)

    def test_first_kind_needs_more_points_than_the_degree(self):
        ev = GegenbauerEvaluator(2, 10)
        with pytest.raises(ValueError):
            ev.chebyshev_values(10, 1)
        with pytest.raises(ValueError):
            ev.chebyshev_values(11, 3)


class TestScaledBessel:
    def test_golden_values(self, golden):
        ref = golden("bessel_scaled")
        for d_str, table in ref.items():
            d = int(d_str)
            for psi_str, expected in table.items():
                got = scaled_bessel(d, float(psi_str))
                assert got == pytest.approx(expected, abs=5e-15), (d, psi_str)

    def test_unit_at_zero_and_bounded(self):
        psi = np.linspace(0.0, 60.0, 4001)
        for d in (2, 3, 4, 5, 6):
            vals = scaled_bessel(d, psi)
            assert vals[0] == 1.0
            assert np.max(np.abs(vals)) <= 1.0 + 1e-14

    def test_series_branch_matches_direct_formula(self):
        # the power series used below the cut must agree with the direct
        # Bessel form at the same psi, not merely be continuous
        for d in (2, 3, 4, 5, 7):
            k = ScaledBesselKernel(d)
            for psi in (0.05, 0.2, 0.4, 0.4999):
                series = k(psi)
                direct = (2.0 ** k.nu * math.gamma(k.nu + 1.0)
                          * sp.jv(k.nu, psi) / psi ** k.nu)
                assert series == pytest.approx(direct, rel=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scaled_bessel(2, -0.1)

    @pytest.mark.parametrize("d, closed", [
        (3, lambda p: np.sin(p) / p),
        (5, lambda p: 3.0 * (np.sin(p) - p * np.cos(p)) / p ** 3),
    ])
    def test_half_integer_closed_forms(self, d, closed):
        # Jt_3 and Jt_5 in closed trigonometric form, as oracles
        psi = np.linspace(0.5, 250.0, 20001)
        assert np.max(np.abs(ScaledBesselKernel(d)(psi) - closed(psi))) <= 2e-15


class TestBesselJ:
    """bessel_j against mpmath: power series, Miller's recurrence and
    Hankel's expansion, and the seams between them."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 29.5])
    def test_matches_mpmath_on_0_250(self, nu):
        import mpmath

        rng = np.random.default_rng(int(2 * nu))
        x = np.concatenate([np.linspace(0.0, 250.0, 501), rng.uniform(0.0, 250.0, 300),
                            [1e-3, 1.999999, 2.0, 18.99999, 19.0, 153.9999, 154.0]])
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(nu, mpmath.mpf(float(v)))) for v in x])
        assert np.max(np.abs(bessel_j(nu, x) - ref)) <= 1e-15

    def test_refuses_other_orders(self):
        for nu in (-0.5, 0.25, 1.1):
            with pytest.raises(ValueError):
                bessel_j(nu, np.ones(2))


class TestFastTransforms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 63, 64, 101, 600, 1001, 12000, 12001])
    @pytest.mark.parametrize("kind", [1, 2, 3])
    def test_dct_matches_scipy(self, n, kind):
        from scipy.fft import dct as scipy_dct

        if kind == 1 and n < 2:
            return
        x = np.random.default_rng(n).standard_normal(n)
        ref = scipy_dct(x, type=kind)
        assert np.max(np.abs(dct(x, kind) - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_dct_refuses_other_types(self):
        with pytest.raises(ValueError):
            dct(np.ones(4), 4)

    def test_next_fast_len_equals_scipy(self):
        from scipy.fft import next_fast_len as scipy_next_fast_len

        for real in (False, True):
            got = [next_fast_len(n, real) for n in range(1, 10_001)]
            assert got == [scipy_next_fast_len(n, real=real) for n in range(1, 10_001)]


class TestHurwitzZeta:
    def test_matches_mpmath_where_used(self):
        # weight_tail_estimate: s = 3/2..9/2; _plan and the constant's tail:
        # s = (3+d)/2, (5+d)/2, (7+d)/2; a = q + 1 from 2 to past 1e5
        import mpmath

        s_all = sorted({1.5, 2.5, 3.5, 4.5}
                       | {(k + d) / 2.0 for k in (3, 5, 7) for d in range(2, 9)})
        a_all = [2.0, 3.0, 5.0, 9.0, 10.0, 17.0, 65.0, 101.0, 401.0, 2049.0, 1e4 + 1, 1e5 + 1, 7.3]
        worst = 0.0
        with mpmath.workdps(50):
            for s in s_all:
                for a in a_all:
                    ref = mpmath.zeta(s, a)
                    worst = max(worst, float(abs(hurwitz_zeta(s, a) - ref) / ref))
        assert worst <= 2e-15

    def test_refuses_outside_domain(self):
        for s, a in ((1.0, 2.0), (0.5, 2.0), (2.0, 0.0)):
            with pytest.raises(ValueError):
                hurwitz_zeta(s, a)
