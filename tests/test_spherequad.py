import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg
from scipy.fft import next_fast_len

from sphdefect.specfun import (GegenbauerEvaluator, eigenspace_dim, gegenbauer,
                               powers_dot, sphere_surface)
from sphdefect import spherequad
from sphdefect.spherequad import (_ring_layout, _weight_rule, build_grid,
                                  chebyshev_sqrt_rule, cubic_integral, fejer_rule,
                                  gauss_legendre, gegenbauer_moment,
                                  gegenbauer_moment_table)

from dense_grid import dense_grid


class TestIntervalRules:
    def test_gauss_legendre_polynomial_exactness(self):
        nodes, weights = gauss_legendre(12)  # exact through degree 23
        for k in range(0, 24):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.dot(weights, nodes**k) == pytest.approx(exact, abs=1e-14)

    def test_gauss_legendre_symmetry(self):
        # mirrored, so exactly +-symmetric, with the centre node of odd n 0.0
        for n in (1, 2, 5, 7, 8, 24, 31, 32, 33, 91, 200, 201, 1281):
            nodes, weights = gauss_legendre(n)
            assert np.max(np.abs(nodes + nodes[::-1])) == 0.0
            assert np.max(np.abs(weights - weights[::-1])) == 0.0
            assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)
            if n % 2:
                assert nodes[n // 2] == 0.0 and math.copysign(1.0, nodes[n // 2]) == 1.0
            assert np.sum(weights) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 160, 401, 700])
    def test_gauss_legendre_matches_scipy_roots(self, n):
        # nodes to an ulp of 1; SciPy's edge weights (one Newton step from
        # an eigenvalue solve) are off by up to 7e-10 relative at n = 401
        from scipy.special import roots_legendre

        nodes, weights = roots_legendre(n)
        x, w = gauss_legendre(n)
        assert np.max(np.abs(x - nodes), initial=0.0) <= 2.3e-16
        assert np.max(np.abs(w - weights) / weights, initial=0.0) <= 1e-9

    @pytest.mark.parametrize("n", [31, 91, 201])
    def test_gauss_legendre_weights_match_mpmath(self, n):
        # the roots refined from the computed nodes by Newton's method at 40
        # digits, and their weights 2/((1 - x^2) P_n'(x)^2); the rule by
        # SciPy's route was 6.4e-13, 1.1e-11 and 1.1e-10 off here
        import mpmath

        def legendre_pair(t):
            prev, p = mpmath.mpf(1), t
            for k in range(1, n):
                prev, p = p, ((2 * k + 1) * t * p - k * prev) / (k + 1)
            return prev, p

        x, w = gauss_legendre(n)
        half = n // 2  # the nodes x >= 0, the centre one included
        with mpmath.workdps(40):
            for xi, wi in zip(x[half:], w[half:]):
                r = mpmath.mpf(float(xi))
                for _ in range(4):
                    prev, p = legendre_pair(r)
                    dp = n * (prev - r * p) / (1 - r * r)
                    r -= p / dp
                weight = 2 / ((1 - r * r) * dp * dp)
                assert abs(float(r) - xi) <= 1.2e-16
                assert abs(wi - weight) <= 1e-12 * weight

    def test_fejer_positive_and_exact(self):
        nodes, weights = fejer_rule(20)
        assert np.all(weights > 0)
        for k in range(0, 20):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.dot(weights, nodes**k) == pytest.approx(exact, abs=1e-13)

    def test_chebyshev_sqrt_rule(self):
        # integrates f against sqrt(1-t^2) on [-1, 1]
        nodes, weights = chebyshev_sqrt_rule(30)
        assert np.sum(weights) == pytest.approx(math.pi / 2.0, rel=1e-14)
        assert np.dot(weights, nodes**2) == pytest.approx(math.pi / 8.0, rel=1e-13)


class TestMoments:
    def test_full_range_odd_power_parity(self):
        # G_l has parity (-1)^l, so odd powers of even-l G integrate to
        # nonzero while any odd total parity vanishes
        assert gegenbauer_moment(2, 3, 3, range="full") == pytest.approx(0.0, abs=1e-16)
        assert gegenbauer_moment(3, 5, 2, range="full") > 0.0

    def test_legendre_cube_full_range(self, golden):
        ref = golden("exact_integrals")["legendre_triple"]
        for l_str, frac in ref.items():
            l = int(l_str)
            got = gegenbauer_moment(2, l, 3, range="full")
            assert got == pytest.approx(frac["num"] / frac["den"], rel=1e-13)

    def test_half_vs_full_consistency(self):
        for d, l, k in ((2, 4, 3), (2, 6, 5), (3, 4, 3)):
            half = gegenbauer_moment(d, l, k, range="half")
            full = gegenbauer_moment(d, l, k, range="full")
            # even (-1)^(lk) parity: full = 2 * half
            assert full == pytest.approx(2.0 * half, rel=1e-12)

    def test_moment_table_matches_single_calls(self):
        # the table is full-range by contract; k=1 vanishes by orthogonality
        table = gegenbauer_moment_table(2, 6, [1, 3, 5, 7])
        assert table[1] == pytest.approx(0.0, abs=1e-14)
        for k, v in table.items():
            assert v == pytest.approx(gegenbauer_moment(2, 6, k, range="full"),
                                      rel=1e-13, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 5), l=st.integers(0, 30),
           ks=st.lists(st.integers(1, 40), min_size=1, max_size=6))
    def test_folded_table_matches_unfolded_sum(self, d, l, ks):
        # the table sums the t >= 0 half with doubled weights; the plain sum
        # over the whole symmetric rule it folds must agree to rounding, and
        # odd k*l must come out as an exact zero
        table = gegenbauer_moment_table(d, l, ks)
        assert sorted(table) == sorted(set(ks))
        even = [k for k in ks if (k * l) % 2 == 0]
        for k in set(ks) - set(even):
            assert table[k] == 0.0
        if not even:
            return
        t, w = _weight_rule(d, max(even) * l)
        g = gegenbauer(d, l, t)
        for k in even:
            ref = float(np.dot(w, g**k))
            assert table[k] == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_weight_rule_is_symmetric_with_fast_fejer_length(self):
        # even d above the Gauss-Legendre cutoff: the Fejer length is
        # rounded up to an FFT-friendly size, never down
        for d, degree in ((2, 693_600), (4, 5_001)):
            t, w = _weight_rule(d, degree)
            assert t.size == next_fast_len(degree + d - 1)
            assert np.array_equal(t, -t[::-1])
            assert np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("degree", [1, 26, 399, 5_001])
    def test_weight_rule_odd_d_has_5_smooth_chebyshev_length(self, d, degree):
        # odd d: Gauss-Chebyshev of the second kind with n + 1 5-smooth, the
        # smallest such n that is exact for the degree, and the weight
        # (1-t^2)^((d-2)/2) integrated exactly up to it (t^k rounds by
        # about k eps, 1e-12 at k = 5000)
        t, w = _weight_rule(d, degree)
        n = t.size
        need = degree + d - 3
        assert n + 1 == next_fast_len(need // 2 + 2, real=True)
        m = n + 1
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        assert m == 1
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
        k = degree - degree % 2
        exact = math.exp(math.lgamma((k + 1) / 2) + math.lgamma(d / 2)
                         - math.lgamma((k + d + 1) / 2))
        assert float(np.dot(w, t ** k)) == pytest.approx(exact, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("d", [3, 5])
    def test_short_chebyshev_rule_first_moment_vanishes(self, d):
        # k = 1 at l = 26 builds a second-kind rule with fewer than l + 1
        # nodes, so G comes from the folded series; int G w = 0 for l >= 1
        t, _ = _weight_rule(d, 26)
        assert t.size < 27
        assert abs(gegenbauer_moment_table(d, 26, [1])[1]) <= 1e-15

    def test_high_order_moment_stable_across_rule_lengths(self):
        # M_{2Q+1} at d=2, l=400, Q = 866 (the budget cap): the table's own
        # Fejer rule and a 694,577-node one (with a centre node) agree to
        # 1e-11; G by the recurrence on the rounded nodes moves it by
        # ~1e-10 between such rules
        d, l, k = 2, 400, 1733
        table = gegenbauer_moment_table(d, l, [k])[k]
        n = 694_577
        _, w = fejer_rule(n)
        h = n // 2
        w_half = 2.0 * w[h:]
        w_half[0] = w[h]
        g = GegenbauerEvaluator(d, l).chebyshev_values(n, 1)[h:]
        other = powers_dot(g, w_half, [k])[k]
        assert other == pytest.approx(table, rel=1e-11, abs=0.0)

    def test_second_moment_is_inverse_dimension(self):
        # int_{-1}^{1} G^2 w_d = |S^{d-1}|^{-1} |S^d| / n_{l;d}
        for d in (2, 3, 4):
            for l in (2, 3, 6):
                full = gegenbauer_moment(d, l, 2, range="full")
                expected = (sphere_surface(d) / sphere_surface(d - 1)
                            / eigenspace_dim(d, l))
                assert full == pytest.approx(expected, rel=1e-12)

    def test_cubic_integral_golden(self, golden):
        ref = golden("exact_integrals")["cubic"]
        for key, expected in ref.items():
            d, l = (int(x) for x in key.split(","))
            assert cubic_integral(d, l) == pytest.approx(expected, rel=1e-13)


class TestGrid:
    def test_weights_positive_and_sum_to_surface(self):
        for d in (2, 3):
            grid = build_grid(d, 16)
            assert np.all(grid.ring_weights > 0)
            assert grid.n_phi * np.sum(grid.ring_weights) == pytest.approx(
                sphere_surface(d), rel=1e-13)

    def test_points_on_sphere(self):
        norms = np.linalg.norm(dense_grid(build_grid(2, 25)).points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-14

    def test_polynomial_exactness(self):
        # x0^a x1^b moments on S^2 against the beta-function closed form
        grid = dense_grid(build_grid(2, 14))
        for a in range(0, 7):
            for b in range(0, 7):
                vals = grid.points[:, 0] ** a * grid.points[:, 1] ** b
                if a % 2 or b % 2:
                    exact = 0.0
                else:
                    exact = (2.0 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2)
                             * math.gamma(0.5) / math.gamma((a + b + 3) / 2))
                assert np.dot(grid.weights, vals) == pytest.approx(exact, abs=5e-14)

    def test_gegenbauer_orthogonality_on_grid(self):
        # <G_l, G_k> over the sphere via the zonal product identity
        grid = dense_grid(build_grid(2, 24))
        base = grid.points[0]
        t = np.clip(grid.points @ base, -1.0, 1.0)
        g4 = gegenbauer(2, 4, t)
        g6 = gegenbauer(2, 6, t)
        assert np.dot(grid.weights, g4 * g6) == pytest.approx(0.0, abs=1e-13)
        assert np.dot(grid.weights, g4 * g4) == pytest.approx(
            sphere_surface(2) / eigenspace_dim(2, 4), rel=1e-12)

    # degree//2 + 1 nodes per polar axis: an odd count (degree//2 even) puts
    # a centre ring, its own antipodal image, in the middle of the grid
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), degree=st.integers(0, 60))
    @example(d=2, degree=32)
    @example(d=2, degree=11)
    @example(d=3, degree=20)
    @example(d=3, degree=11)
    def test_antipodal_structure_exact(self, d, degree):
        grid = build_grid(d, degree)
        # the antipodal ring rule: ring R-1-g has the negated cos nodes of
        # ring g and exactly its weight
        assert all(np.array_equal(t[::-1], -t) for t in grid.ring_nodes)
        assert np.array_equal(grid.ring_weights[::-1], grid.ring_weights)
        # its dense form: an involution without fixed points, pairing the
        # first half of the points with the second; exact point negation,
        # exactly equal weights on paired nodes
        dense = dense_grid(grid)
        i = np.arange(grid.size)
        anti = dense.antipode_index
        assert np.array_equal(anti[anti], i)
        assert np.all(anti != i)
        assert np.array_equal(i < anti, i < grid.size // 2)
        assert np.array_equal(dense.points[anti], -dense.points)
        assert np.array_equal(dense.weights[anti], dense.weights)
        # the ring layout the grid carries is the helper's on the factor
        # rules: rings in polar multi-index order (last axis fastest), equal
        # weights within a ring summing to |S^d|, cos nodes equal to the
        # grid's polar coordinates ring by ring
        n_polar = max(degree, 1) // 2 + 1
        rules = [gauss_legendre(n_polar)]
        if d == 3:
            rules.insert(0, chebyshev_sqrt_rule(n_polar))
        nodes, ring_weights = grid.ring_nodes, grid.ring_weights
        helper_nodes, helper_weights = _ring_layout(rules, grid.n_phi)
        assert len(nodes) == len(helper_nodes) == d - 1
        assert all(np.array_equal(t, h) for t, h in zip(nodes, helper_nodes))
        assert np.array_equal(ring_weights, helper_weights)
        mesh = np.meshgrid(*[t for t, _ in rules], indexing="ij")
        assert all(np.array_equal(t, m.ravel()) for t, m in zip(nodes, mesh))
        rings = dense.points.reshape(-1, grid.n_phi, d + 1)
        assert rings.shape[0] == ring_weights.size == n_polar ** (d - 1)
        assert np.array_equal(dense.weights.reshape(rings.shape[:2]),
                              np.repeat(ring_weights[:, None], grid.n_phi, axis=1))
        assert np.sum(dense.weights) == pytest.approx(sphere_surface(d), rel=1e-13)
        assert np.array_equal(rings[:, :, 0], np.repeat(nodes[0][:, None], grid.n_phi, axis=1))
        if d == 3:
            cos2 = rings[:, :, 1] / np.linalg.norm(rings[:, :, 1:], axis=2)
            assert np.max(np.abs(cos2 - nodes[1][:, None])) <= 1e-15

    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([2, 3]), degree=st.integers(0, 60))
    @example(d=2, degree=9)
    @example(d=3, degree=20)
    def test_primary_indices_partition(self, d, degree):
        grid = build_grid(d, degree)
        anti = dense_grid(grid).antipode_index
        primary = np.arange(grid.size // 2)
        assert np.array_equal(primary, np.flatnonzero(np.arange(grid.size) < anti))
        mirrored = anti[primary]
        together = np.sort(np.concatenate([primary, mirrored]))
        assert np.array_equal(together, np.arange(grid.size))

    def test_point_budget(self):
        with pytest.raises(ValueError):
            build_grid(3, 2000)

    def test_grid_holds_only_its_ring_layout(self):
        # 1281 polar rings x 2562 azimuths, under the 4M-point budget: the
        # grid holds its ring layout, about 20 KB, and no per-point array
        grid = build_grid(2, 2560)
        assert grid.size == 1281 * 2562 == 3_281_922
        assert set(vars(grid)) == {"d", "exactness_degree", "ring_nodes",
                                   "ring_weights", "n_phi"}
        assert sum(t.nbytes for t in (*grid.ring_nodes, grid.ring_weights)) == 2 * 1281 * 8

    def test_point_budget_checked_before_any_rule(self, monkeypatch):
        def no_rule(n):
            raise AssertionError(f"built a {n}-node rule")

        # build_grid(2, 10) has 6 polar nodes x 12 azimuths = 72 points, all
        # from the Gauss-Legendre rule
        budget = spherequad._POINT_BUDGET
        monkeypatch.setattr(spherequad, "_POINT_BUDGET", 72)
        monkeypatch.setattr(spherequad, "chebyshev_sqrt_rule", no_rule)
        assert build_grid(2, 10).size == 72
        monkeypatch.setattr(spherequad, "gauss_legendre", no_rule)
        for d, degree, points in ((2, 10, 71), (2, 6000, budget), (3, 2000, budget)):
            monkeypatch.setattr(spherequad, "_POINT_BUDGET", points)
            with pytest.raises(ValueError, match="budget"):
                build_grid(d, degree)

    @pytest.mark.parametrize("d", [1, 4, 6])
    def test_only_s2_and_s3(self, d):
        with pytest.raises(ValueError, match=r"d in \{2, 3\}"):
            build_grid(d, 20)
