import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg
from scipy.fft import next_fast_len

from sphdefect.specfun import eigenspace_dim, gegenbauer, sphere_surface
from sphdefect.spherequad import (_weight_rule, build_grid, chebyshev_sqrt_rule,
                                  cubic_integral, fejer_rule, gauss_legendre,
                                  gegenbauer_moment, gegenbauer_moment_table,
                                  geodesic, grid_to_csv)


class TestIntervalRules:
    def test_gauss_legendre_polynomial_exactness(self):
        rule = gauss_legendre(12)  # exact through degree 23
        for k in range(0, 24):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert rule.integrate(rule.nodes**k) == pytest.approx(exact, abs=1e-14)

    def test_gauss_legendre_symmetry(self):
        for n in (7, 8, 33):
            rule = gauss_legendre(n)
            assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) == 0.0
            assert np.max(np.abs(rule.weights - rule.weights[::-1])) == 0.0
            assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-15)

    def test_fejer_positive_and_exact(self):
        rule = fejer_rule(20)
        assert np.all(rule.weights > 0)
        for k in range(0, 20):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert rule.integrate(rule.nodes**k) == pytest.approx(exact, abs=1e-13)

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


class TestGeodesic:
    def test_known_angles(self):
        e0 = np.array([1.0, 0.0, 0.0])
        e1 = np.array([0.0, 1.0, 0.0])
        assert geodesic(e0, e0) == 0.0
        assert geodesic(e0, -e0) == pytest.approx(math.pi, rel=1e-15)
        assert geodesic(e0, e1) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_near_antipodal_stability(self):
        # cross-product form stays accurate where arccos loses digits
        x = np.array([1.0, 0.0, 0.0])
        eps = 1e-9
        y = np.array([-math.cos(eps), math.sin(eps), 0.0])
        assert geodesic(x, y) == pytest.approx(math.pi - eps, rel=1e-9)


class TestGrid:
    def test_weights_positive_and_sum_to_surface(self):
        for d in (2, 3):
            grid = build_grid(d, 16)
            assert np.all(grid.weights > 0)
            assert np.sum(grid.weights) == pytest.approx(sphere_surface(d), rel=1e-13)

    def test_points_on_sphere(self):
        grid = build_grid(2, 25)
        norms = np.linalg.norm(grid.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-14

    def test_polynomial_exactness(self):
        # x0^a x1^b moments on S^2 against the beta-function closed form
        grid = build_grid(2, 14)
        for a in range(0, 7):
            for b in range(0, 7):
                vals = grid.points[:, 0] ** a * grid.points[:, 1] ** b
                if a % 2 or b % 2:
                    exact = 0.0
                else:
                    exact = (2.0 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2)
                             * math.gamma(0.5) / math.gamma((a + b + 3) / 2))
                assert grid.integrate(vals) == pytest.approx(exact, abs=5e-14)

    def test_gegenbauer_orthogonality_on_grid(self):
        # <G_l, G_k> over the sphere via the zonal product identity
        grid = build_grid(2, 24)
        base = grid.points[0]
        t = np.clip(grid.points @ base, -1.0, 1.0)
        g4 = gegenbauer(2, 4, t)
        g6 = gegenbauer(2, 6, t)
        assert grid.integrate(g4 * g6) == pytest.approx(0.0, abs=1e-13)
        assert grid.integrate(g4 * g4) == pytest.approx(
            sphere_surface(2) / eigenspace_dim(2, 4), rel=1e-12)

    def test_antipodal_structure_exact(self):
        for d in (2, 3):
            grid = build_grid(d, 11)
            assert grid.antipodal_symmetric
            anti = grid.antipode_index
            # involution without fixed points, exact point negation,
            # exactly equal weights on paired nodes
            assert np.all(anti[anti] == np.arange(grid.size))
            assert np.all(anti != np.arange(grid.size))
            assert np.array_equal(grid.points[anti], -grid.points)
            assert np.array_equal(grid.weights[anti], grid.weights)

    def test_primary_indices_partition(self):
        grid = build_grid(2, 9)
        primary = grid.primary_indices()
        mirrored = grid.antipode_index[primary]
        together = np.sort(np.concatenate([primary, mirrored]))
        assert np.array_equal(together, np.arange(grid.size))

    def test_point_budget(self):
        with pytest.raises(ValueError):
            build_grid(3, 2000)

    def test_grid_csv_roundtrip(self, tmp_path):
        grid = build_grid(2, 5)
        path = tmp_path / "grid.csv"
        grid_to_csv(grid, str(path))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (grid.size, grid.d + 2)
        assert np.array_equal(data[:, :-1], grid.points)
        assert np.array_equal(data[:, -1], grid.weights)
