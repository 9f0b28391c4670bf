import math
import tracemalloc

import numpy as np
import pytest

from sphdefect import harmonics
from sphdefect.harmonics import (GauntTable, build_basis, circulant_closed,
                                 circulant_sum, cum4_ratio, gaunt_diagonal,
                                 gaunt_table, lemcg_check)
from sphdefect.specfun import eigenspace_dim, gegenbauer, sphere_surface
from sphdefect.spherequad import build_grid, cubic_integral, gegenbauer_moment

from dense_grid import dense_grid


def _random_unit(rng, n, dim):
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


class TestBasis:
    @pytest.mark.parametrize("d,l", [(2, 1), (2, 3), (2, 8), (2, 21),
                                     (3, 1), (3, 2), (3, 5), (3, 9), (3, 12)])
    def test_orthonormal_on_grid(self, d, l):
        basis = build_basis(d, l)
        assert basis.size == eigenspace_dim(d, l)
        grid = dense_grid(build_grid(d, 2 * l))
        b = grid.basis_matrix(basis)
        gram = (b * grid.weights) @ b.T
        assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-12

    @pytest.mark.parametrize("d,l", [(2, 2), (2, 7), (3, 3), (3, 6), (3, 12)])
    def test_addition_formula(self, d, l):
        basis = build_basis(d, l)
        rng = np.random.default_rng(99)
        x = _random_unit(rng, 60, d + 1)
        y = _random_unit(rng, 60, d + 1)
        lhs = sphere_surface(d) / basis.size * np.sum(
            basis.evaluate(x) * basis.evaluate(y), axis=0)
        rhs = gegenbauer(d, l, np.clip(np.sum(x * y, axis=1), -1.0, 1.0))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_addition_formula_coincident(self):
        # x = y: sum of squares equals n_{l;d} / |S^d| pointwise
        basis = build_basis(3, 4)
        rng = np.random.default_rng(3)
        x = _random_unit(rng, 40, 4)
        s = np.sum(basis.evaluate(x) ** 2, axis=0)
        assert np.max(np.abs(s - basis.size / sphere_surface(3))) < 1e-10

    @pytest.mark.parametrize("d,l", [(2, 5), (2, 6), (3, 4), (3, 7)])
    def test_parity_exact_on_antipodal_grid(self, d, l):
        # Y(-x) = (-1)^l Y(x) on the grid's rings: the polar factors of ring
        # R-1-g are (-1)^(l+k) times those of ring g to the bit, k the
        # azimuthal order of the row, and the azimuth rows pick up (-1)^k
        # half a ring on, to rounding
        grid = build_grid(d, max(2 * l, 2))
        polar, azimuth, _ = build_basis(d, l).ring_factors(grid.ring_nodes, grid.n_phi)
        k = (np.arange(2 * l + 1) + 1) // 2
        assert np.array_equal(polar[:, :, ::-1], ((-1.0) ** (l + k))[:, None, None] * polar)
        turned = np.roll(azimuth, grid.n_phi // 2, axis=1)
        assert np.max(np.abs(turned - ((-1.0) ** k)[:, None] * azimuth)) <= 1e-15

    def test_evaluate_matches_grid_path(self):
        # evaluate at every point against the dense oracle, whose mirror half
        # is the primary half's exact (-1)^l copy
        grid = dense_grid(build_grid(2, 10))
        basis = build_basis(2, 4)
        direct = basis.evaluate(grid.points)
        via_grid = grid.basis_matrix(basis)
        assert np.max(np.abs(direct - via_grid)) < 1e-13

    @pytest.mark.parametrize("d,l,degree", [(2, 7, 16), (2, 12, 30), (3, 5, 12), (3, 8, 17)])
    def test_evaluate_matches_ring_factors(self, d, l, degree):
        # evaluate at grid points, plus S^3 points with s1 = 0 and points
        # with x2 = x3 = 0, against the factored values on their rings
        grid = build_grid(d, degree)
        nodes = grid.ring_nodes
        extra = [[1.0, -1.0]] if d == 2 else [[1.0, -1.0, 0.6, 0.6], [1.0, 0.3, 1.0, -1.0]]
        nodes = [np.concatenate([t, e]) for t, e in zip(nodes, extra)]
        phi = 2.0 * math.pi * np.arange(grid.n_phi) / grid.n_phi
        sin_prod, coords = np.ones(len(extra[0])), []
        for c in extra:
            c = np.array(c)
            coords.append(sin_prod * c)
            sin_prod = sin_prod * np.sqrt(1.0 - c * c)
        coords = [np.repeat(x, grid.n_phi) for x in coords]
        coords += [np.outer(sin_prod, np.cos(phi)).ravel(),
                   np.outer(sin_prod, np.sin(phi)).ravel()]
        points = np.vstack([dense_grid(grid).points, np.stack(coords, axis=1)])
        basis = build_basis(d, l)
        polar, azimuth, slot = basis.ring_factors(nodes, grid.n_phi)
        big_l, m = np.divmod(slot, 2 * l + 1)
        expected = polar[m, big_l][:, :, None] * azimuth[m][:, None, :]
        got = basis.evaluate(points)
        assert np.max(np.abs(got - expected.reshape(basis.size, -1))) < 1e-14

    def test_rejects_off_sphere_points(self):
        basis = build_basis(2, 3)
        with pytest.raises(ValueError):
            basis.evaluate(np.array([[1.0, 1.0, 0.0]]))

    def test_capability_bounds(self):
        with pytest.raises(ValueError, match=r"l <= 64"):
            build_basis(2, 65)
        with pytest.raises(ValueError, match=r"l <= 12"):
            build_basis(3, 13)
        with pytest.raises(ValueError):
            build_basis(4, 2)


_PAPER_CASES = [(2, l) for l in (2, 4, 6, 8, 10, 12, 20)] + [(3, 2), (3, 4), (3, 6)]


class TestGauntTable:
    def test_permutation_symmetry_bitwise(self):
        # mirrored slices keep a -0.0 where the raw product is -0.0; the
        # snap must clear it, or the signs of zero break the symmetry
        for d, l in ((2, 4), (2, 20), (3, 6)):
            t = gaunt_table(d, l).coefficients
            for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                assert np.array_equal(t, np.transpose(t, perm))
            assert not np.any(np.signbit(t[t == 0.0])), (d, l)

    @pytest.mark.parametrize("d,l", _PAPER_CASES + [(2, 40), (3, 8)])
    def test_matches_triple_product_contraction(self, d, l):
        # the ring sums against the direct weighted triple product over every
        # point of the dense grid, with the same selection-rule zeros
        basis = build_basis(d, l)
        grid = dense_grid(build_grid(d, 3 * l))
        b = grid.basis_matrix(basis)
        bw = b * grid.weights
        ref = np.stack([(bw[i] * b) @ b.T for i in range(basis.size)])
        got = gaunt_table(d, l).coefficients
        assert np.max(np.abs(got - ref)) <= 1e-12
        if (d, l) in _PAPER_CASES:
            assert np.array_equal(got == 0.0, np.abs(ref) < 1e-12)

    @pytest.mark.parametrize("d,l", [(2, 40), (3, 8)])
    def test_scratch_stays_near_table_size(self, d, l):
        # the symmetric gather runs slice by slice: no n^3 temporaries
        tracemalloc.start()
        try:
            table = gaunt_table(d, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * table.coefficients.nbytes

    def test_zonal_triple_closed_form(self):
        # zonal x zonal x zonal reduces to the Legendre cube integral
        for l in (2, 4, 6):
            table = gaunt_table(2, l)
            expected = ((2 * l + 1) / (4.0 * math.pi)) ** 1.5 \
                * 2.0 * math.pi * cubic_integral(2, l)
            assert table.coefficients[0, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_odd_degree_tables_vanish(self, monkeypatch):
        # parity: the integrand is odd under the antipodal map, so odd
        # degrees give exact zeros with no basis evaluated
        monkeypatch.delattr(harmonics.HarmonicBasis, "ring_factors")
        for d, l in ((2, 3), (3, 3)):
            table = gaunt_table(d, l)
            assert table.exactness == 9
            assert np.all(table.coefficients == 0.0)

    def test_wigner_squared_sum_rule(self, golden):
        # sum over (m2, m3) of squared coefficients with m1 fixed equals
        # the diagonal constant g_{l;2} for every m1
        table = gaunt_table(2, 4)
        sums = np.einsum("ijk,ijk->i", table.coefficients, table.coefficients)
        g = gaunt_diagonal(2, 4)
        assert np.max(np.abs(sums - g)) < 1e-12
        # and g itself against the frozen Wigner-3j route:
        # g = ((2l+1)^2 / (8 pi)) * int P_l^3
        frac = golden("exact_integrals")["legendre_triple"]["4"]
        predicted = 81.0 / (8.0 * math.pi) * frac["num"] / frac["den"]
        assert g == pytest.approx(predicted, rel=1e-12)

    def test_diagonal_small_case_closed_form(self):
        # d=2, l=2: g = (25 / (8 pi)) * 4/35 = 5/(14 pi)
        assert gaunt_diagonal(2, 2) == pytest.approx(5.0 / (14.0 * math.pi),
                                                     rel=1e-13)

    def test_save_load_roundtrip_exact(self, tmp_path):
        for d, l in ((2, 3), (2, 4), (3, 2)):
            table = gaunt_table(d, l)
            path = tmp_path / f"gaunt_{d}_{l}.txt"
            path.write_text(table.to_text())
            back = GauntTable.load(str(path))
            assert back.d == d and back.l == l and back.n == table.n
            assert back.exactness == table.exactness
            assert np.array_equal(back.coefficients, table.coefficients)

    def test_flop_budget_admits_l60(self):
        # (2, 60): n = 121 on 91 rings costs 597,861 * 91 = 5.4e7 flops
        table = gaunt_table(2, 60)
        res = lemcg_check(table)
        g = gaunt_diagonal(2, 60)
        assert np.max(np.abs(res - np.diag(np.diag(res)))) < 1e-12
        # Newton Gauss-Legendre weights: 2.0e-14 here (8.3e-13 by SciPy's route)
        assert np.max(np.abs(np.diag(res))) / g < 1e-13

    def test_gaunt_budget_models_canonical_slices(self, monkeypatch):
        # (2, 4): n = 9 on 7 rings; the slices j, k >= i cost
        # sum_i (9 - i)^2 * 7 = 285 * 7 flops
        monkeypatch.setattr(harmonics, "_GAUNT_FLOP_BUDGET", 285 * 7)
        assert gaunt_table(2, 4).n == 9
        monkeypatch.setattr(harmonics, "_GAUNT_FLOP_BUDGET", 285 * 7 - 1)
        with pytest.raises(ValueError, match="budget"):
            gaunt_table(2, 4)

    def test_gram_budget_refusal(self, monkeypatch):
        # the Gram matrix of n = 9 costs n^4 = 6561 flops
        table = gaunt_table(2, 4)
        monkeypatch.setattr(harmonics, "_GAUNT_FLOP_BUDGET", 9.0 ** 4)
        lemcg_check(table)
        circulant_sum(table)
        monkeypatch.setattr(harmonics, "_GAUNT_FLOP_BUDGET", 9.0 ** 4 - 1)
        for check in (lemcg_check, circulant_sum):
            with pytest.raises(ValueError, match="budget"):
                check(table)


class TestIdentities:
    @pytest.mark.parametrize("d,l", [(2, 2), (2, 4), (2, 8), (3, 2), (3, 4)])
    def test_double_sum_identity(self, d, l):
        table = gaunt_table(d, l)
        res = lemcg_check(table)
        g = gaunt_diagonal(d, l)
        off = np.max(np.abs(res - np.diag(np.diag(res))))
        diag = np.max(np.abs(np.diag(res)))
        assert off < 1e-12
        assert diag / g < 1e-12

    def test_identity_rejects_odd_degree(self):
        with pytest.raises(ValueError):
            lemcg_check(gaunt_table(2, 3))

    @pytest.mark.parametrize("d,l", [(2, 2), (2, 6), (3, 2)])
    def test_circulant_sum_equals_closed_form(self, d, l):
        s = circulant_sum(gaunt_table(d, l))
        c = circulant_closed(d, l)
        assert s == pytest.approx(c.value, rel=1e-12)
        assert c.g == pytest.approx(gaunt_diagonal(d, l), rel=1e-12)

    @pytest.mark.parametrize("d,l", [(2, 4), (3, 2)])
    def test_circulant_sum_matches_direct_contraction(self, d, l):
        table = gaunt_table(d, l)
        g = table.coefficients
        direct = ((sphere_surface(d) / table.n) ** 6
                  * np.einsum("abc,abe,fge,fgc->", g, g, g, g))
        assert circulant_sum(table) == pytest.approx(direct, rel=1e-13)

    def test_circulant_growth_exponent(self):
        ls = np.arange(2, 41, 2)
        for d, target in ((2, 0.0), (3, 1.0)):
            g = np.array([circulant_closed(d, int(l)).g for l in ls])
            slope = np.polyfit(np.log(ls), np.log(g), 1)[0]
            assert abs(slope - target) < 0.2

    def test_cum4_ratio_decays_at_clt_rate(self):
        # ratio ~ l^-(d-1): successive doubling shrinks it by ~2^(d-1)
        for d, lo, hi in ((2, 0.45, 0.60), (3, 0.20, 0.40)):
            ls = (4, 8, 16, 32) if d == 2 else (4, 8)
            vals = [cum4_ratio(d, l) for l in ls]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            for a, b in zip(vals, vals[1:]):
                assert lo < b / a < hi

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_cum4_ratio_matches_moment_quadrature(self, d):
        # circulant_closed over the squared variance 3! |S^d| |S^(d-1)| M_3
        for l in range(2, 61, 2):
            var3 = (6.0 * sphere_surface(d) * sphere_surface(d - 1)
                    * gegenbauer_moment(d, l, 3, "full"))
            quad = circulant_closed(d, l).value / (var3 * var3)
            assert cum4_ratio(d, l) == pytest.approx(quad, rel=1e-14, abs=0.0)

    def test_cum4_ratio_rejects_odd(self):
        with pytest.raises(ValueError):
            cum4_ratio(2, 5)
