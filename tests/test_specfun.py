import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg
from scipy import special as sp

from sphdefect.specfun import (GegenbauerEvaluator, HermiteSequence,
                               ScaledBesselKernel, eigenspace_dim, gegenbauer,
                               hermite, hermite_even_at_zero, scaled_bessel,
                               sphere_surface)
from sphdefect.specfun import _BLOCK, gegenbauer_lambda


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
        t = np.linspace(-1.0, 1.0, 51)
        for d in (4, 5, 8):
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
        got = ev.powers_dot(t, w, [0, 3, 7, 8])
        g = ev.value(t)
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
        got = ev.powers_dot(t, w, ks)
        assert sorted(got) == ks
        assert got[0] == pytest.approx(float(np.sum(w)), rel=1e-13)
        g = ev.value(t)
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
            got = ev.powers_dot(t, w, ks)
            for k in ks:
                # rounding of a chained power grows like k * eps
                assert got[k] == pytest.approx(float(np.dot(w, g**k)), rel=1e-12,
                                               abs=tiny * float(np.sum(w)))

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("l", [0, 1, 7, 400])
    def test_recurrence_bit_identical_to_textbook_form(self, d, l):
        # the in-place buffers must not change a single bit of
        # G_{n+1} = (a[n] * t) * G_n - b[n] * G_{n-1}
        ev = GegenbauerEvaluator(d, l)
        t = np.concatenate([np.linspace(-1.0, 1.0, 1001),
                            np.random.default_rng(d + l).uniform(-1.0, 1.0, 500)])
        if l == 0:
            ref = np.ones_like(t)
        else:
            prev, ref = np.ones_like(t), t.copy()
            for n in range(1, l):
                prev, ref = ref, ev._a[n] * t * ref - ev._b[n] * prev
        assert np.array_equal(ev._recurrence(t), ref)
        assert np.array_equal(gegenbauer(d, l, t), ref)

    def test_lambda_parameter_family(self):
        t = np.linspace(-1.0, 1.0, 41)
        for lam in (0.5, 1.0, 2.5, 4.0):
            for n in (0, 1, 4, 9):
                ref = sp.eval_gegenbauer(n, lam, t) / sp.eval_gegenbauer(n, lam, 1.0)
                assert np.max(np.abs(gegenbauer_lambda(lam, n, t) - ref)) < 1e-12


class TestHermite:
    def test_matches_scipy_hermitenorm(self):
        t = np.linspace(-3.0, 3.0, 31)
        for k in (0, 1, 2, 5, 11):
            ref = sp.eval_hermitenorm(k, t)
            assert np.max(np.abs(hermite(k, t) - ref)) < 1e-9 * np.max(np.abs(ref) + 1)

    def test_sequence_consistency(self):
        vals = HermiteSequence(12).values(0.7)
        for k in range(13):
            assert vals[k] == pytest.approx(hermite(k, 0.7), rel=1e-14, abs=1e-14)

    def test_even_at_zero_double_factorial(self):
        assert hermite_even_at_zero(0) == 1.0
        for q in range(1, 20):
            df = 1.0
            for j in range(1, 2 * q, 2):
                df *= j
            assert hermite_even_at_zero(q) == pytest.approx((-1) ** q * df, rel=1e-13)
            assert hermite(2 * q, 0.0) == pytest.approx((-1) ** q * df, rel=1e-10)

    def test_even_at_zero_log_branch(self):
        sign, log_abs = hermite_even_at_zero(150, log=True)
        assert sign == 1.0
        # compare against lgamma-form double factorial
        ref = math.lgamma(301) - 150 * math.log(2.0) - math.lgamma(151)
        assert log_abs == pytest.approx(ref, rel=1e-14)
        with pytest.raises(ValueError):
            hermite_even_at_zero(101)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            hermite(201, 0.0)


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

    def test_decay_envelope(self):
        psi = np.linspace(1.0, 400.0, 20000)
        for d in (2, 3, 4, 5, 6):
            k = ScaledBesselKernel(d)
            envelope = k.decay_constant * psi ** (-(d - 1) / 2.0)
            assert np.all(np.abs(k(psi)) <= envelope * (1.0 + 1e-12))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scaled_bessel(2, -0.1)
