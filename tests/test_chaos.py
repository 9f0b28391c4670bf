import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdefect.chaos import (ChaosCoefficients, c3_closed, c_coefficient,
                             chaos_weight, chaos_weights_upto,
                             constant_estimate, defect_constant_lower_bound,
                             exact_variance, facile_check, indicator_l2_sum,
                             variance_closed_form, weight_tail_bound,
                             weight_tail_estimate)
from sphdefect.specfun import sphere_surface
from sphdefect.spherequad import gegenbauer_moment_table


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

    def test_tail_bound_sound_and_tight(self):
        # rigorous: w_q < pi^(-3/2) q^(-3/2); check the Hurwitz-zeta bound
        # dominates the true remainder but not by more than ~3x
        w = chaos_weights_upto(40_000)
        for q_from in (10, 100, 1000):
            true_tail = float(np.sum(w[q_from:])) + weight_tail_estimate(40_000)
            bound = weight_tail_bound(q_from)
            assert bound >= true_tail
            assert bound <= 3.0 * true_tail

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

    def test_coefficient_bundle_consistency(self):
        cc = ChaosCoefficients.build(200)
        w = chaos_weights_upto(200)
        assert np.allclose(cc.weights, w, rtol=1e-14)
        # j_log stores (log w_q + log (2q+1)!) / 2
        q = np.arange(1, 201)
        ref = 0.5 * (np.log(w) + [math.lgamma(2 * k + 2) for k in q])
        assert np.allclose(cc.j_log, ref, rtol=1e-12)
        assert np.array_equal(cc.j_sign, (-1.0) ** q)


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

    def test_tail_bound_carries_rounding_margin(self):
        # the certificate multiplies the dominating even moment by the
        # rounded-up zeta majorant of weight_tail_bound, margin included
        rep = exact_variance(2, 4, q_max=8)
        ss = sphere_surface(2) * sphere_surface(1)
        even = gegenbauer_moment_table(2, 4, [18])[18]
        assert rep.tail_bound == pytest.approx(ss * even * weight_tail_bound(8),
                                               rel=2e-13, abs=0.0)

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
        d = rep.to_dict()
        assert d["value"] == rep.value
        assert d["q_used"] == rep.q_used
        assert rep.per_q.shape == (rep.q_used,)
        # partial sums are increasing: every chaos term is nonnegative
        assert np.all(rep.per_q >= 0.0)

    def test_unreachable_tolerance_reported_not_silent(self):
        rep = exact_variance(2, 2, tol=1e-15)
        assert not rep.tol_achieved
        assert rep.tail_bound > 1e-15

    def test_scaled_variance_approaches_constant(self):
        c2 = constant_estimate(2, "series").value
        dev = abs(100**2 * exact_variance(2, 100, tol=1e-6).value - c2) / c2
        assert dev < 0.011  # 1/l decay of the relative defect


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
                assert abs(value - expected) <= max(err, 1e-12 * abs(expected))

    def test_positive_for_small_q(self):
        # positivity of every computed coefficient; observed (not proved)
        # for all q, the series route relies only on computed values
        for d in (2, 3, 4, 5):
            for q in range(1, 7):
                assert c_coefficient(d, q) > 0.0

    def test_decay_in_q(self):
        # c_{2q+1;d} decreases in q once past the first few terms
        for d in (2, 3):
            vals = [c_coefficient(d, q) for q in range(2, 9)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


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

    def test_estimate_metadata(self):
        est = constant_estimate(2, "series", q_terms=200)
        assert est.d == 2
        assert est.method == "series"
        assert est.params["q_terms"] == 200
        doc = est.to_dict()
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
