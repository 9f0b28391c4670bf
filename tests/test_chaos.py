import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdefect.chaos import (c3_closed, c_coefficient, chaos_weight,
                             chaos_weights_upto, constant_estimate,
                             defect_constant_lower_bound, exact_variance,
                             facile_check, indicator_l2_sum,
                             variance_closed_form, weight_tail_estimate)
from sphdefect.specfun import sphere_surface


class TestWeights:
    def test_first_weight_closed_form(self):
        assert chaos_weight(1) == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-15)

    def test_golden_table(self, golden):
        ref = golden("chaos_weights")["w_q"]
        w = chaos_weights_upto(len(ref))
        for q_str, expected in ref.items():
            assert w[int(q_str) - 1] == pytest.approx(expected, rel=1e-13)

    def test_ratio_recurrence(self):
        # w_q / w_{q-1} = (2q-1)^2 / ((2q)(2q+1)), from the explicit
        # factorial form of the sign-functional Hermite coefficients
        w = chaos_weights_upto(50)
        for q in range(2, 51):
            ratio = (2 * q - 1) ** 2 / (2.0 * q * (2 * q + 1))
            assert w[q - 1] / w[q - 2] == pytest.approx(ratio, rel=1e-14)

    def test_sum_identity(self, golden):
        # sum_{q>=1} w_q = 1 - 2/pi, the total sign variance minus chaos-1
        expected = golden("chaos_weights")["sum_q_ge_1"]
        assert expected == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-15)
        total = float(np.sum(chaos_weights_upto(100_000)))
        assert total + weight_tail_estimate(100_000) == pytest.approx(
            expected, abs=1e-12)

    def test_tail_estimate_accuracy(self):
        # the asymptotic completion should beat the rigorous bound by far
        w = chaos_weights_upto(200_000)
        for q_from in (100, 5000):
            true_tail = float(np.sum(w[q_from:])) + weight_tail_estimate(200_000)
            est = weight_tail_estimate(q_from)
            assert est == pytest.approx(true_tail, rel=1e-8)

    def test_indicator_l2_identity(self):
        assert indicator_l2_sum() == pytest.approx(0.25, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(q=st.integers(1, 3000))
    def test_weights_positive_decreasing(self, q):
        w = chaos_weights_upto(q + 1)
        assert w[q - 1] > 0.0
        assert w[q] < w[q - 1]


class TestExactVariance:
    def test_golden_values(self, golden):
        ref = golden("variance")
        for key, expected in ref.items():
            d, l = (int(x) for x in key.split(","))
            rep = exact_variance(d, l, tol=1e-6)
            # goldens were computed to ~1e-12; the certified tail bounds the
            # difference
            assert abs(rep.value - expected) <= rep.tail_bound + 1e-11

    def test_certified_against_closed_form(self):
        # the arcsine-integral closed form is an independent oracle: the
        # truncation defect must respect the certified tail bound
        for d, l in ((2, 2), (2, 8), (3, 4), (4, 2)):
            rep = exact_variance(d, l, tol=1e-8)
            oracle = variance_closed_form(d, l)
            assert abs(rep.value - oracle) <= rep.tail_bound + 1e-12 * oracle

    def test_tail_decreases_with_more_terms(self):
        r1 = exact_variance(2, 4, q_max=64)
        r2 = exact_variance(2, 4, q_max=1024)
        assert r2.tail_bound < r1.tail_bound
        assert abs(r2.value - variance_closed_form(2, 4)) <= r2.tail_bound

    def test_bracket_carries_rounding_allowance(self, monkeypatch):
        # the bracket is the partial sum plus the cell enclosure of the
        # remainder, widened at both ends by the documented relative
        # allowance of 2e-12, and it holds the independent closed form
        from sphdefect import chaos

        assert chaos._ROUNDING == 2e-12
        enclosures = []
        real = chaos._tail_bracket
        monkeypatch.setattr(chaos, "_tail_bracket",
                            lambda *args: enclosures.append(real(*args)) or enclosures[-1])
        rep = exact_variance(2, 4, q_max=8)
        ss = sphere_surface(2) * sphere_surface(1)
        partial = float(np.sum(rep.per_q))
        (lo, hi), = enclosures
        assert rep.value == pytest.approx(partial + ss * lo - 2e-12 * partial,
                                          rel=2e-13, abs=0.0)
        assert rep.value + rep.tail_bound == pytest.approx(
            partial + ss * hi + 2e-12 * partial, rel=2e-13, abs=0.0)
        assert rep.tail_bound - ss * (hi - lo) == pytest.approx(4e-12 * partial,
                                                                rel=1e-3, abs=0.0)
        assert rep.value <= variance_closed_form(2, 4) <= rep.value + rep.tail_bound

    def test_odd_degree_exactly_zero(self):
        for d, l in ((2, 3), (2, 11), (3, 5), (5, 7)):
            rep = exact_variance(d, l)
            assert rep.value == 0.0
            assert rep.tail_bound == 0.0
            assert rep.q_used == 0
            assert rep.tol_achieved

    def test_report_fields_and_dict(self):
        rep = exact_variance(2, 6, tol=1e-4)
        assert rep.tol_achieved  # 1e-4 is reachable at this size
        d = dataclasses.asdict(rep)
        assert d["value"] == rep.value
        assert d["q_used"] == rep.q_used
        assert rep.per_q.shape == (rep.q_used,)
        # partial sums are increasing: every chaos term is nonnegative
        assert np.all(rep.per_q >= 0.0)

    def test_rejects_order_below_one(self):
        # an order of 0 is refused, not read as "unset" and planned
        for l in (6, 7):
            for q_max in (0, -1):
                with pytest.raises(ValueError, match="q_max >= 1"):
                    exact_variance(2, l, q_max=q_max)
        assert exact_variance(2, 6, q_max=1).q_used == 1

    def test_rejects_dimension_below_two(self):
        # odd l is refused too, not answered with a certified 0
        for d in (1, 0, -4):
            for l in (3, 4):
                with pytest.raises(ValueError, match="d >= 2"):
                    exact_variance(d, l)

    def test_closed_form_rejects_degree_below_one(self):
        # the l = 0 field is constant, so its first chaos does not vanish and
        # the arcsine formula, which leaves that chaos out, does not apply
        for l in (0, -1, -2):
            for f in (exact_variance, variance_closed_form):
                with pytest.raises(ValueError, match=f"need l >= 1, got {l}"):
                    f(2, l)

    def test_rejects_bad_tolerance(self):
        for tol in (math.nan, math.inf, -math.inf, 0.0, -1.0, -1e-8):
            for l in (4, 5):
                with pytest.raises(ValueError, match="finite tol > 0"):
                    exact_variance(2, l, tol=tol)

    def test_unreachable_tolerance_reported_not_silent(self):
        rep = exact_variance(2, 2, tol=1e-15)
        assert not rep.tol_achieved
        assert rep.tail_bound > 1e-15

    def test_scaled_variance_approaches_constant(self):
        c2 = constant_estimate(2, "series").value
        dev = abs(100**2 * exact_variance(2, 100, tol=1e-6).value - c2) / c2
        assert dev < 0.011  # 1/l decay of the relative defect


class TestBracketProperties:
    @settings(max_examples=16, deadline=None)
    @given(d=st.integers(2, 5), half_l=st.integers(1, 30))
    def test_bracket_holds_closed_form(self, d, half_l):
        rep = exact_variance(d, 2 * half_l, tol=1e-6)
        assert rep.value <= variance_closed_form(d, 2 * half_l) <= rep.value + rep.tail_bound

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(2, 6), half_l=st.integers(0, 300))
    def test_odd_degree_exactly_zero(self, d, half_l):
        rep = exact_variance(d, 2 * half_l + 1)
        assert rep.value == 0.0 and rep.tail_bound == 0.0

    @settings(max_examples=10, deadline=None)
    @given(d=st.integers(2, 4), half_l=st.integers(1, 20), q=st.integers(8, 200))
    def test_width_falls_as_order_rises(self, d, half_l, q):
        narrow = exact_variance(d, 2 * half_l, q_max=2 * q)
        assert narrow.tail_bound < exact_variance(d, 2 * half_l, q_max=q).tail_bound

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([2, 3, 5]), half_l=st.integers(1, 200), q=st.integers(1, 400),
           at=st.floats(0.0, 1.0), ratio=st.floats(0.01, 1.0))
    def test_midpoint_cell_holds_fine_reference(self, d, half_l, q, at, ratio):
        # a random cap cell [a, b], a log-uniform on [_POLE/l, 0.5/l], b/a - 1
        # uniform on [0.01, 1]: its midpoint value +- the radius holds a
        # 16-panel Gauss-Legendre reference
        from sphdefect import chaos
        from sphdefect.spherequad import gauss_legendre
        from sphdefect.specfun import _gegenbauer_evaluator

        l = 2 * half_l
        ev = _gegenbauer_evaluator(d, l)
        a = chaos._POLE / l * (0.5 / chaos._POLE) ** at
        b = a * (1.0 + ratio)
        cell = np.array([a, b])
        gap = ev.pole_gap(np.array([a, 0.5 * (a + b)]))
        mu0 = float(np.diff(chaos._sin_power_integral(d - 1, cell))[0])
        centre = float(chaos._remainder(1.0 - gap[1:], q)[0]) * mu0
        radius = float(chaos._midpoint_radius(d, l, q, cell[:1], cell[1:], 1.0 - gap[:1])[0])
        t, w = gauss_legendre(20)
        edges = np.linspace(a, b, 17)
        half = 0.5 * np.diff(edges)[:, None]
        x = (edges[:-1, None] + half * (t + 1.0)).ravel()
        f = chaos._remainder(1.0 - ev.pole_gap(x), q) * np.sin(x) ** (d - 1)
        ref = float(np.sum((half * w).ravel() * f))
        assert radius >= 0.0
        assert abs(ref - centre) <= radius + 1e-13 * ref

    @pytest.mark.parametrize("q", [8, 256])
    def test_remainder_slopes_match_mpmath(self, q):
        import mpmath

        from sphdefect.chaos import _remainder_slopes

        gs = [1e-3, 0.3, 0.5, 0.9, 1.0 - 1e-9]
        r1, r2 = _remainder_slopes(np.array(gs), q)
        with mpmath.workdps(60):
            w = [2 / mpmath.pi * mpmath.binomial(2 * j, j) / (4 ** j * (2 * j + 1))
                 for j in range(1, q + 400)]
            for g, got1, got2 in zip(gs, r1, r2):
                x = mpmath.mpf(g)
                if g * g <= 0.25:  # positive tails, relative accuracy
                    ref1 = mpmath.fsum((2 * j + 1) * w[j - 1] * x ** (2 * j)
                                       for j in range(q + 1, q + 400))
                    ref2 = mpmath.fsum(2 * j * (2 * j + 1) * w[j - 1] * x ** (2 * j - 1)
                                       for j in range(q + 1, q + 400))
                    assert got1 == pytest.approx(float(ref1), rel=1e-13, abs=0.0)
                    assert got2 == pytest.approx(float(ref2), rel=1e-13, abs=0.0)
                else:  # difference forms, absolute error of the scale of the terms
                    u = 1 - x * x
                    ref1 = 2 / mpmath.pi * (u ** -0.5 - 1) - mpmath.fsum(
                        (2 * j + 1) * w[j - 1] * x ** (2 * j) for j in range(1, q + 1))
                    ref2 = 2 / mpmath.pi * x * u ** -1.5 - mpmath.fsum(
                        2 * j * (2 * j + 1) * w[j - 1] * x ** (2 * j - 1) for j in range(1, q + 1))
                    scale = float(u ** -1.5)
                    assert abs(got1 - float(ref1)) <= 8 * q * scale * np.finfo(float).eps
                    assert abs(got2 - float(ref2)) <= 8 * q * q * scale * np.finfo(float).eps
                    assert got1 >= 0.0 and got2 >= 0.0

    @pytest.mark.parametrize("d,l", [(2, 20), (2, 40), (2, 100), (3, 50), (5, 30)])
    def test_closed_form_matches_fine_rule(self, d, l):
        # the one-sample stop of the oracle against a 16l-node Fejer rule
        from sphdefect.spherequad import fejer_rule
        from sphdefect.specfun import _gegenbauer_evaluator

        x, w = fejer_rule(16 * l)
        theta = (x + 1.0) * (math.pi / 4.0)
        g = np.clip(_gegenbauer_evaluator(d, l)._recurrence(np.cos(theta)), -1.0, 1.0)
        ref = (sphere_surface(d) * sphere_surface(d - 1)
               * float(w @ ((np.arcsin(g) - g) * np.sin(theta) ** (d - 1))))
        assert variance_closed_form(d, l) == pytest.approx(ref, rel=1e-11, abs=0.0)

    @settings(max_examples=12, deadline=None)
    @given(half_l=st.integers(1, 200))
    def test_default_tolerance_certifies_at_d2(self, half_l):
        rep = exact_variance(2, 2 * half_l)
        assert rep.tol_achieved
        assert rep.value <= variance_closed_form(2, 2 * half_l) <= rep.value + rep.tail_bound

    @pytest.mark.parametrize("q", [8, 256])
    def test_remainder_matches_mpmath(self, q):
        import mpmath

        from sphdefect.chaos import _remainder

        gs = [1e-3, 0.5, 0.9, 1.0 - 1e-12, 1.0]
        got = _remainder(np.array(gs), q)
        with mpmath.workdps(60):
            w = [2 / mpmath.pi * mpmath.binomial(2 * j, j) / (4 ** j * (2 * j + 1))
                 for j in range(1, q + 400)]
            for g, r in zip(gs, got):
                x = mpmath.mpf(g)
                if g * g <= 0.25:  # positive tail, relative accuracy
                    ref = mpmath.fsum(w[j - 1] * x ** (2 * j + 1) for j in range(q + 1, q + 400))
                    assert r == pytest.approx(float(ref), rel=1e-13, abs=0.0)
                else:  # difference form, absolute error below 2 (q + 3) eps
                    ref = 2 / mpmath.pi * (mpmath.asin(x) - x) - mpmath.fsum(
                        w[j - 1] * x ** (2 * j + 1) for j in range(1, q + 1))
                    assert abs(r - float(ref)) <= 2 * (q + 3) * np.finfo(float).eps

    def test_sin_power_integral_matches_mpmath(self):
        import mpmath

        from sphdefect.chaos import _sin_power_integral

        quarter = math.pi / 4
        xs = np.array([0.0, 1e-2 / (400 * 8), 1.0 / 400, 1.25 / 400, 1.25 / 40,
                       np.nextafter(quarter, 0.0), quarter, np.nextafter(quarter, 2.0),
                       1.2, math.pi / 2])
        with mpmath.workdps(30):
            for n in range(1, 8):
                # as x^(n+1) int_0^1 (sin(x s)/x)^n ds, so the integrand is
                # not below mpmath's absolute tolerance at cap-sized x
                ref = np.array([0.0] + [
                    float(x ** (n + 1) * mpmath.quad(lambda s: (mpmath.sin(x * s) / x) ** n, [0, 1]))
                    for x in map(mpmath.mpf, xs[1:])])
                # series sized to the whole array, to the cap alone, to each point
                one = np.concatenate([_sin_power_integral(n, xs[i:i + 1]) for i in range(xs.size)])
                for got, want in ((_sin_power_integral(n, xs), ref),
                                  (_sin_power_integral(n, xs[:5]), ref[:5]), (one, ref)):
                    assert np.all(np.abs(got - want) <= 2e-14 * want), n

    @pytest.mark.parametrize("d,l", [(2, 400), (3, 100)])
    def test_cap_edges_non_increasing(self, d, l):
        # the cap enclosure [G(b), G(a)] needs G monotone on [0, X], X <= 1.25/l
        from sphdefect.specfun import _gegenbauer_evaluator

        ev = _gegenbauer_evaluator(d, l)
        x = np.concatenate(([0.0], np.geomspace(1e-2 / (l * 16), 1.25 / l, 20_000)))
        g = 1.0 - ev.pole_gap(x)
        assert np.all(np.diff(g) <= 0.0)
        assert np.max(np.abs(g - ev.value(np.cos(x)))) <= 1e-11


class TestExtrapolation:
    @pytest.mark.parametrize("d,l0", [(2, 300), (3, 100)])
    def test_richardson_limit_matches_golden_constant(self, golden, d, l0):
        # l^d Var(D_l) = C_d + a_1/l + a_2/l^2 + ...: Richardson in 1/l over
        # geometric l (closely spaced l amplify rounding and l mod 4 effects)
        row = [l ** d * variance_closed_form(d, l) for l in (l0 * 2 ** k for k in range(5))]
        for j in range(1, 5):
            row = [b + (b - a) / (2 ** j - 1) for a, b in zip(row, row[1:])]
        c_d = golden("constants")["C_d"][str(d)]
        assert row[0] == pytest.approx(c_d, rel=1e-8)


class TestCoefficients:
    def test_c3_closed_golden(self, golden):
        ref = golden("c_coefficients")["c3_closed"]
        for d_str, expected in ref.items():
            assert c3_closed(int(d_str)) == pytest.approx(expected, rel=1e-13)

    def test_quadrature_matches_oscillatory_goldens(self, golden):
        ref = golden("c_coefficients")["quadosc"]
        for d_str, by_q in ref.items():
            d = int(d_str)
            for q_str, expected in by_q.items():
                got = c_coefficient(d, int(q_str))
                assert got == pytest.approx(expected, rel=1e-12), (d, q_str)

    def test_closed_form_branch(self):
        for d in (2, 3, 4, 5):
            assert c_coefficient(d, 1, method="closed") == pytest.approx(
                c3_closed(d), rel=1e-15)
        with pytest.raises(ValueError):
            c_coefficient(2, 2, method="closed")

    def test_error_estimate_honest(self, golden):
        ref = golden("c_coefficients")["quadosc"]
        for d_str, by_q in ref.items():
            for q_str, expected in by_q.items():
                value, err = c_coefficient(int(d_str), int(q_str),
                                           full_output=True)
                assert abs(value - expected) <= err, (d_str, q_str)

    def test_positive_for_small_q(self):
        # positivity of every computed coefficient; observed (not proved)
        # for all q, the series route relies only on computed values
        for d in (2, 3, 4, 5):
            for q in range(1, 7):
                assert c_coefficient(d, q) > 0.0

    def test_rejects_dimension_below_two(self):
        for d in (1, 0, -1):
            for method in ("quadrature", "closed"):
                with pytest.raises(ValueError, match="d >= 2"):
                    c_coefficient(d, 1, method=method)

    def test_decay_in_q(self):
        # c_{2q+1;d} decreases in q once past the first few terms
        for d in (2, 3):
            vals = [c_coefficient(d, q) for q in range(2, 9)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestBesselZeros:
    @pytest.mark.parametrize("d", [3, 5, 9, 21, 41, 61])
    def test_half_integer_order_matches_mpmath(self, d):
        import mpmath

        from sphdefect.chaos import _DEFAULT_LOBES, _bessel_zeros

        nu = mpmath.mpf(d - 2) / 2
        ref = np.array([float(mpmath.besseljzero(nu, k))
                        for k in range(1, _DEFAULT_LOBES + 1)])
        zeros = _bessel_zeros(d, _DEFAULT_LOBES)
        # d >= 41 once returned the second zero twice and missed the first
        assert np.all(np.diff(zeros) > 0.0)
        assert np.max(np.abs(zeros - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_integer_order_matches_mpmath(self, d):
        import mpmath

        from sphdefect.chaos import _DEFAULT_LOBES, _bessel_zeros

        ref = np.array([float(mpmath.besseljzero(d // 2 - 1, k))
                        for k in range(1, _DEFAULT_LOBES + 1)])
        zeros = _bessel_zeros(d, _DEFAULT_LOBES)
        assert np.all(np.diff(zeros) > 0.0)
        assert np.max(np.abs(zeros - ref) / ref) <= 1e-13


@pytest.fixture(scope="module")
def fresh_c():
    """c_coefficient(d, q, full_output=True), d 2, 3 and q 1..40, each with
    the lobe-rule cache emptied first."""
    from sphdefect.chaos import _lobe_rule

    out = {}
    for d in (2, 3):
        for q in range(1, 41):
            _lobe_rule.cache_clear()
            out[d, q] = c_coefficient(d, q, full_output=True)
    return out


class TestLobeRule:
    @settings(max_examples=12, deadline=None)
    @given(d=st.sampled_from([2, 3]), order=st.permutations(range(1, 41)),
           between=st.lists(st.tuples(st.integers(0, 39), st.integers(2, 5),
                                      st.sampled_from(["series", "integral"])),
                            max_size=4))
    def test_cached_rule_gives_fresh_values(self, fresh_c, d, order, between):
        # constant_estimate calls build or reuse other rules mid-loop
        calls = {i: (dc, method) for i, dc, method in between}
        for i, q in enumerate(order):
            if i in calls:
                constant_estimate(calls[i][0], calls[i][1], q_terms=20)
            value, err = c_coefficient(d, q, full_output=True)
            assert value.hex() == fresh_c[d, q][0].hex(), q
            assert err.hex() == fresh_c[d, q][1].hex(), q

    def test_rule_arrays_refuse_writes(self):
        from sphdefect.chaos import _lobe_rule

        rule = _lobe_rule(3, 12)
        for name in ("nodes", "weights", "lobe_id", "kernel"):
            with pytest.raises(ValueError):
                getattr(rule, name)[0] = 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_panel_by_panel_construction(self, d):
        # the first lobe cut at z_1 4^-k, k = 6..1, then one panel per lobe,
        # Gauss-Legendre of order 32 on each
        from sphdefect.chaos import _bessel_zeros, _lobe_rule
        from sphdefect.specfun import ScaledBesselKernel
        from sphdefect.spherequad import gauss_legendre

        zeros = _bessel_zeros(d, 30)
        edges = [0.0] + [zeros[0] * 4.0 ** -k for k in range(6, 0, -1)] + list(zeros)
        owner = [0] * 7 + list(range(1, 30))
        x, w = gauss_legendre(32)
        nodes, weights, lobe_id = [], [], []
        for a, b, lobe in zip(edges[:-1], edges[1:], owner):
            half = 0.5 * (b - a)
            nodes.append(a + half * (x + 1.0))
            weights.append(half * w)
            lobe_id.append(np.full(32, lobe))
        rule = _lobe_rule(d, 30)
        assert np.array_equal(rule.nodes, np.concatenate(nodes))
        assert np.array_equal(rule.weights, np.concatenate(weights))
        assert np.array_equal(rule.lobe_id, np.concatenate(lobe_id))
        assert np.array_equal(rule.kernel, ScaledBesselKernel(d)(rule.nodes))

    def test_q_loop_and_both_routes_build_one_rule(self):
        # the paper-numbers call sequence at one dimension: every order and
        # both C_d routes read the one rule of (d, n_lobes)
        from sphdefect.chaos import _lobe_rule

        _lobe_rule.cache_clear()
        for q in range(1, 41):
            c_coefficient(2, q, full_output=True)
        for method in ("series", "integral"):
            constant_estimate(2, method, q_terms=400, n_lobes=72)
        assert _lobe_rule.cache_info().misses == 1


def _lobe_sums_and_blocks(monkeypatch, d, qs):
    """_c_batch(d, qs) and the number of lobes summed in each block of
    orders, read by a spy on the one np.add.reduceat call per block."""
    from sphdefect import chaos

    summed = []

    class Add:
        @staticmethod
        def reduceat(a, indices, axis=0):
            summed.append(len(indices))
            return np.add.reduceat(a, indices, axis=axis)

    class Numpy:
        add = Add

        def __getattr__(self, name):
            return getattr(np, name)

    with monkeypatch.context() as m:
        m.setattr(chaos, "np", Numpy())
        lobes = chaos._c_batch(d, qs)
    return lobes, summed


class TestLobeBlocks:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_value_per_order(self, monkeypatch, d):
        # c_coefficient sums one order over every lobe; the series route
        # sums 400 in blocks over a prefix that shrinks at block edges.
        # Whole lobes are dropped, so both give each order the same value
        from sphdefect.chaos import _ORDER_BLOCK, _accelerate

        lobes, summed = _lobe_sums_and_blocks(monkeypatch, d, range(1, 401))
        assert len(summed) == -(-400 // _ORDER_BLOCK) and summed[0] == 72
        drops = [b * _ORDER_BLOCK + 1 for b in range(1, len(summed))
                 if summed[b] < summed[b - 1]]
        assert len(drops) >= 5 and summed[-1] <= 3
        values = _accelerate(lobes)[0]
        edges = {1, 2, 15, 16, 17, 40, 100, 400}
        for q in sorted(edges.union(drops)):
            assert c_coefficient(d, q).hex() == float(values[q - 1]).hex(), (d, q)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sums_do_not_depend_on_block_size(self, monkeypatch, d):
        # a lobe that one block size still sums where another has dropped
        # it holds only powers below the smallest normal double
        from sphdefect import chaos

        runs = []
        for size in (1, 7, 16):
            monkeypatch.setattr(chaos, "_ORDER_BLOCK", size)
            runs.append(chaos._c_batch(d, range(1, 401)))
        ref = runs[-1]
        for lobes in runs[:-1]:
            both = (lobes != 0.0) & (ref != 0.0)
            assert np.array_equal(lobes[both], ref[both])
            assert np.max(np.abs(lobes - ref)[~both]) < 1e-290
            for got, want in zip(chaos._accelerate(lobes)[:2], chaos._accelerate(ref)[:2]):
                assert np.array_equal(got, want)


class TestConstant:
    def test_golden_both_methods(self, golden):
        ref = golden("constants")["C_d"]
        for d_str, expected in ref.items():
            d = int(d_str)
            for method in ("series", "integral"):
                est = constant_estimate(d, method)
                # the reported error estimate must cover the defect vs the
                # independently frozen reference
                assert abs(est.value - expected) <= est.error_estimate, (d, method)
            assert constant_estimate(d, "integral").value == pytest.approx(
                expected, rel=1e-10), d

    def test_methods_agree_within_reported_errors(self):
        for d in (2, 3, 4, 5):
            s = constant_estimate(d, "series")
            i = constant_estimate(d, "integral")
            assert abs(s.value - i.value) <= s.error_estimate + i.error_estimate

    def test_lower_bound_golden_and_closed_form(self, golden):
        ref = golden("constants")["lower_bound"]
        for d_str, expected in ref.items():
            d = int(d_str)
            lb = defect_constant_lower_bound(d)
            assert lb == pytest.approx(expected, rel=1e-13)
            assert constant_estimate(d, "integral").value > lb
        # d=2: the first chaos term gives exactly 32/sqrt(27)
        assert defect_constant_lower_bound(2) == pytest.approx(
            32.0 / math.sqrt(27.0), rel=1e-15)

    def test_acceleration_levels_reported_as_applied(self):
        # 10 lobes leave room for min(12, 10 - 2) + 1 = 9 averaging levels
        for method in ("series", "integral"):
            short = constant_estimate(2, method, q_terms=20, n_lobes=10)
            assert short.params["acceleration_levels"] == 9
            full = constant_estimate(2, method, q_terms=20)
            assert full.params["acceleration_levels"] == 13

    def test_one_acceleration_per_call(self, monkeypatch):
        from sphdefect import chaos

        calls = []
        real = chaos._accelerate

        def counted(lobe_sums):
            calls.append(np.shape(lobe_sums))
            return real(lobe_sums)

        monkeypatch.setattr(chaos, "_accelerate", counted)
        for d in (2, 3):
            for method, shape in (("series", (400, 72)), ("integral", (72,))):
                calls.clear()
                est = constant_estimate(d, method, q_terms=400)
                assert calls == [shape], (d, method)
                assert type(est.value) is float and type(est.error_estimate) is float
                json.dumps(dataclasses.asdict(est))
            for q in (1, 5):
                calls.clear()
                value, err = c_coefficient(d, q, full_output=True)
                assert calls == [(1, 72)]
                assert type(value) is float and type(err) is float

    def test_matrix_acceleration_equals_rows(self):
        from sphdefect.chaos import _accelerate, _c_batch

        rng = np.random.default_rng(5)
        for lobes in (_c_batch(3, range(1, 41)), _c_batch(2, range(1, 401), 9),
                      rng.standard_normal((7, 3)), rng.standard_normal((4, 30))):
            est, err, levels = _accelerate(lobes)
            assert est.shape == err.shape == lobes.shape[:1]
            for i, row in enumerate(lobes):
                e, r, lv = _accelerate(row)
                assert (float(est[i]).hex(), float(err[i]).hex()) == (float(e).hex(), float(r).hex())
                assert lv == levels == min(12, lobes.shape[1] - 2) + 1

    def test_lobe_matrix_has_only_the_rows_asked_for(self):
        from sphdefect.chaos import _c_batch

        full = _c_batch(2, range(1, 8), 20)
        assert full.shape == (7, 20)
        assert np.array_equal(_c_batch(2, [3, 7], 20), full[[2, 6]])
        for bad in ([], [0, 1], [2, 2], [3, 1]):
            with pytest.raises(ValueError, match="increasing"):
                _c_batch(2, bad)

    def test_estimate_metadata(self):
        est = constant_estimate(2, "series", q_terms=200)
        assert est.d == 2
        assert est.method == "series"
        assert est.params["q_terms"] == 200
        doc = dataclasses.asdict(est)
        assert doc["value"] == est.value
        with pytest.raises(ValueError):
            constant_estimate(2, "nonsense")


class TestFacile:
    def test_worked_example(self):
        # q = p = 1: diagonal sum 56 <= 324, cross sum 60 <= 324
        rep = facile_check(1, 1)
        assert (rep.lhs_first, rep.rhs_first) == (56, 324)
        assert (rep.lhs_second, rep.rhs_second) == (60, 324)
        assert rep.holds

    def test_exact_integer_types(self):
        rep = facile_check(3, 5)
        for v in (rep.lhs_first, rep.rhs_first, rep.lhs_second, rep.rhs_second):
            assert type(v) is int

    def test_full_box(self):
        for q in range(1, 9):
            for p in range(q, 9):
                assert facile_check(q, p).holds

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            facile_check(4, 2)
        with pytest.raises(ValueError):
            facile_check(0)
