import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdefect import montecarlo
from sphdefect.chaos import exact_variance
from sphdefect.harmonics import build_basis
from sphdefect.montecarlo import (CltConfig, FieldSample, clt_experiment,
                                  default_degree, defect_estimate,
                                  nyquist_degree, sample_field, stream,
                                  wasserstein1_empirical)
from sphdefect.montecarlo import _spectral_defects
from sphdefect.specfun import gegenbauer, sphere_surface
from sphdefect.spherequad import build_grid

SEED = 618970


class TestStreams:
    def test_deterministic_and_independent(self):
        a1 = stream(7, 0).standard_normal(5)
        a2 = stream(7, 0).standard_normal(5)
        b = stream(7, 1).standard_normal(5)
        c = stream(8, 0).standard_normal(5)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)

    def test_degree_rules(self):
        assert nyquist_degree(20) == 99
        assert default_degree(20) == 400
        # the hard floor wins for small l
        assert default_degree(2) == max(4 * 2 + 19, 40)


class TestFieldSamples:
    def test_pointwise_law(self):
        # T(x) is centered Gaussian with variance 1 at every point; pool
        # many realizations at a few fixed nodes
        grid = build_grid(2, 30)
        idx = [0, 17, grid.size - 1]
        vals = np.array([sample_field(2, 6, grid, rng=stream(SEED, i)).values[idx]
                         for i in range(3000)])
        mean = vals.mean(axis=0)
        var = vals.var(axis=0)
        assert np.all(np.abs(mean) < 5.0 / math.sqrt(3000))
        assert np.all(np.abs(var - 1.0) < 5.0 * math.sqrt(2.0 / 3000))

    def test_two_point_covariance(self):
        # E T(x) T(y) = G_l(cos d(x,y)) for an arbitrary node pair
        grid = build_grid(2, 30)
        i, j = 3, 200
        t = float(np.clip(grid.points[i] @ grid.points[j], -1, 1))
        target = gegenbauer(2, 6, t)
        prods = np.array([
            (lambda v: v[i] * v[j])(sample_field(2, 6, grid,
                                                 rng=stream(SEED, k)).values)
            for k in range(4000)])
        se = prods.std() / math.sqrt(4000)
        assert abs(prods.mean() - target) < 5.0 * se

    def test_methods_share_the_same_law(self):
        # the spectral sampler against an independent oracle of the same
        # law: Cholesky factors of the covariance K_ij = G_l(x_i . x_j) on
        # one small explicit grid; compare defect second moments
        l, degree, n = 8, nyquist_degree(8), 900
        grid = build_grid(2, degree)
        var_exact = exact_variance(2, l, tol=1e-6).value
        k = gegenbauer(2, l, np.clip(grid.points @ grid.points.T, -1.0, 1.0))
        # K has rank n_{l;d} < grid size: escalate a jitter until it factors
        scale = float(np.trace(k)) / grid.size
        for jitter in (0.0, 1e-12, 1e-10, 1e-8):
            try:
                factor = np.linalg.cholesky(k + jitter * scale * np.eye(grid.size))
                break
            except np.linalg.LinAlgError:
                continue
        else:
            pytest.fail("the covariance did not factor at any jitter")

        outs = {}
        for name, draw in (("spectral", lambda r: sample_field(2, l, grid, rng=r).values),
                           ("covariance", lambda r: factor @ r.standard_normal(grid.size))):
            d2 = np.array([defect_estimate(FieldSample(2, l, grid, draw(stream(SEED, i)))) ** 2
                           for i in range(n)])
            outs[name] = d2
            se = d2.std() / math.sqrt(n)
            # 4 SE against the exact value, plus 5% discretization headroom
            assert abs(d2.mean() - var_exact) < 4.0 * se + 0.05 * var_exact, name
        se_pair = math.hypot(outs["spectral"].std(),
                             outs["covariance"].std()) / math.sqrt(n)
        assert abs(outs["spectral"].mean()
                   - outs["covariance"].mean()) < 3.0 * se_pair

    def test_reproducible_bitwise(self):
        grid = build_grid(2, 24)
        v1 = sample_field(2, 4, grid, rng=stream(41, 7)).values
        v2 = sample_field(2, 4, grid, rng=stream(41, 7)).values
        assert np.array_equal(v1, v2)


class TestDefects:
    def test_bounded_by_surface(self):
        grid = build_grid(2, 40)
        surf = sphere_surface(2)
        for i in range(50):
            s = sample_field(2, 8, grid, rng=stream(SEED, i))
            assert abs(defect_estimate(s)) <= surf + 1e-12

    def test_constant_sign_field_gives_full_surface(self):
        grid = build_grid(2, 12)
        s = FieldSample(d=2, l=4, grid=grid, values=np.ones(grid.size))
        assert defect_estimate(s) == pytest.approx(sphere_surface(2), rel=1e-14)

    def test_sign_zero_contributes_nothing(self):
        grid = build_grid(2, 12)
        s = FieldSample(d=2, l=4, grid=grid, values=np.zeros(grid.size))
        assert defect_estimate(s) == 0.0

    @pytest.mark.parametrize("d,l", [(2, 5), (2, 9), (3, 3), (3, 11)])
    def test_odd_degree_defects_exactly_zero(self, d, l):
        grid = build_grid(d, max(2 * l + 1, 11))
        for i in range(40):
            s = sample_field(d, l, grid, rng=stream(SEED, i))
            assert defect_estimate(s) == 0.0

    def test_batched_path_matches_per_sample_path(self):
        # the batched all-realizations kernel must reproduce the one-sample
        # code path stream for stream
        l, degree, n = 6, 60, 130  # n > batch size to cover the tail batch
        grid = build_grid(2, degree)
        batched = _spectral_defects(2, l, grid, SEED, n)
        single = np.array([
            defect_estimate(sample_field(2, l, grid, rng=stream(SEED, i)))
            for i in range(n)])
        assert np.max(np.abs(batched - single)) < 1e-12


class TestRingSampler:
    # the dense basis matrix is the independent oracle of the ring path;
    # degree 32 on S^2 (17 polar nodes) and 20 on S^3 (11 x 11 rings) give
    # an equator / centre ring that is its own antipodal image
    @pytest.mark.parametrize("d,l,degree", [(2, 6, 30), (2, 6, 32), (2, 7, 32),
                                            (2, 40, 179), (3, 4, 21), (3, 4, 20),
                                            (3, 5, 20), (3, 12, 20)])
    def test_values_match_dense_basis(self, d, l, degree):
        grid = build_grid(d, degree)
        basis = build_basis(d, l)
        dense = basis.evaluate_on_grid(grid)
        sigma = math.sqrt(sphere_surface(d) / basis.size)
        for i in range(3):
            values = sample_field(d, l, grid, rng=stream(SEED, i)).values
            a = stream(SEED, i).normal(0.0, sigma, basis.size)
            assert np.max(np.abs(values - a @ dense)) <= 1e-12
            assert np.array_equal(values[grid.antipode_index], (-1.0) ** l * values)

    def test_grid_has_centre_ring(self):
        # the odd-count cases above really contain a self-antipodal ring
        for d, degree in ((2, 32), (3, 20)):
            grid = build_grid(d, degree)
            assert grid.ring_weights.size % 2 == 1
            assert all(t[t.size // 2] == 0.0 for t in grid.ring_nodes)

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from([(2, 4, 24), (2, 5, 24), (2, 6, 26),
                                 (3, 2, 12), (3, 3, 13), (3, 4, 18)]),
           n=st.integers(1, 150),
           cuts=st.lists(st.integers(0, 150), max_size=4),
           tile=st.sampled_from([1 << 9, 1 << 12, 1 << 20]),
           workers=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chunk_invariant_defects(self, case, n, cuts, tile, workers, seed):
        # defects of [0, n) = the concatenated defects of any split of it,
        # at any tile size and worker count, and = the one-sample route
        # stream for stream
        d, l, degree = case
        grid = build_grid(d, degree)
        whole = _spectral_defects(d, l, grid, seed, n)
        bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
        with mock.patch.object(montecarlo, "_TILE", tile), \
                mock.patch.object(montecarlo, "_cores", lambda: workers):
            chunked = np.concatenate([_spectral_defects(d, l, grid, seed, hi - lo, start=lo)
                                      for lo, hi in zip(bounds, bounds[1:])])
        assert np.array_equal(whole, chunked)
        single = np.array([defect_estimate(sample_field(d, l, grid, rng=stream(seed, i)))
                           for i in range(n)])
        assert np.max(np.abs(whole - single)) <= 1e-12
        if l % 2:
            assert np.all(whole == 0.0) and np.all(single == 0.0)

    def test_ring_tables_cached_per_grid(self, monkeypatch):
        # sample_field builds the ring tables once per (d, l, grid), and
        # cached tables give the same values as fresh ones
        built = []
        fresh_rings = montecarlo._rings
        monkeypatch.setattr(montecarlo, "_rings",
                            lambda *args: built.append(args) or fresh_rings(*args))
        montecarlo._sample_rings.cache_clear()
        grid, other = build_grid(2, 39), build_grid(2, 39)
        cached = [sample_field(2, 9, grid, rng=stream(SEED, i)).values for i in range(4)]
        assert len(built) == 1
        sample_field(2, 9, other, rng=stream(SEED, 0))
        sample_field(2, 8, other, rng=stream(SEED, 0))
        assert len(built) == 3
        fresh = []
        for i in range(4):
            montecarlo._sample_rings.cache_clear()
            fresh.append(sample_field(2, 9, grid, rng=stream(SEED, i)).values)
        assert len(built) == 7
        assert all(np.array_equal(a, b) for a, b in zip(cached, fresh))

    def test_refuses_grid_of_other_dimension(self):
        # an S^3 grid's rings would give an S^2 field wrong values, not an error
        for d, grid in ((2, build_grid(3, 12)), (3, build_grid(2, 12))):
            with pytest.raises(ValueError, match="dimension"):
                sample_field(d, 4, grid, rng=stream(SEED, 0))


class TestWorkers:
    # realization batches on worker threads over a 1-thread OpenBLAS

    @pytest.mark.parametrize("d,l,degree", [(2, 6, 60), (3, 4, 18)])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_equals_serial(self, d, l, degree, workers):
        # 5 batches (n = 300) divide among neither 2 nor 3 workers; a short
        # switch interval makes the workers interleave as often as it can
        grid = build_grid(d, degree)
        with mock.patch.object(montecarlo, "_cores", lambda: 1):
            serial = _spectral_defects(d, l, grid, SEED, 300, start=37)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(montecarlo, "_cores", lambda: workers):
                parallel = _spectral_defects(d, l, grid, SEED, 300, start=37)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(parallel, serial)

    def test_no_blas_handle_falls_back_to_the_loop(self):
        grid = build_grid(2, 60)
        with mock.patch.object(montecarlo, "_cores", lambda: 2):
            threaded = _spectral_defects(2, 6, grid, SEED, 200)
            with mock.patch.object(montecarlo, "_openblas", lambda: None):
                fallback = _spectral_defects(2, 6, grid, SEED, 200)
        assert np.array_equal(fallback, threaded)

    @pytest.fixture
    def blas(self):
        handle = montecarlo._openblas()
        if handle is None:
            pytest.skip("no OpenBLAS thread-count handle in this numpy")
        get, put = handle
        saved = get()
        put(2)  # a count other than the 1 the workers run at
        yield get
        put(saved)

    def test_blas_threads_restored(self, blas):
        seen = []
        kernel = montecarlo._ring_defects

        def spy(*args):
            seen.append(blas())
            return kernel(*args)

        grid = build_grid(2, 60)
        with mock.patch.object(montecarlo, "_cores", lambda: 2), \
                mock.patch.object(montecarlo, "_ring_defects", spy):
            _spectral_defects(2, 6, grid, SEED, 200)
        assert seen == [1] * 4
        assert blas() == 2
        clt_experiment(2, 6, 200, CltConfig(master_seed=SEED))
        assert blas() == 2

    def test_blas_threads_restored_after_worker_raises(self, blas):
        kernel = montecarlo._ring_defects
        calls = itertools.count()

        def failing(*args):
            if next(calls) == 1:  # next() on a count is atomic across threads
                raise RuntimeError("worker failed")
            return kernel(*args)

        grid = build_grid(2, 60)
        with mock.patch.object(montecarlo, "_cores", lambda: 2), \
                mock.patch.object(montecarlo, "_ring_defects", failing), \
                pytest.raises(RuntimeError, match="worker failed"):
            _spectral_defects(2, 6, grid, SEED, 400)
        assert blas() == 2


class TestWasserstein:
    def test_normal_reference_small_for_normal_sample(self):
        z = stream(3, 0).standard_normal(20000)
        assert wasserstein1_empirical(z) < 0.02

    def test_detects_scale_mismatch(self):
        z = 2.0 * stream(3, 1).standard_normal(20000)
        # W1 to N(0,1) approaches E|2Z - ...| ~ sigma difference
        assert wasserstein1_empirical(z) > 0.5

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            wasserstein1_empirical([1.0])


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize("n", [2, 10, 5000])
    def test_equals_scipy_kstest(self, n):
        from scipy import stats

        diag = clt_experiment(3, 4, n, CltConfig(master_seed=SEED))
        z = diag.defects / math.sqrt(diag.exact_var)
        assert diag.ks == stats.kstest(z, "norm").statistic


class TestCltExperiment:
    def test_seeded_run_matches_theory(self):
        diag = clt_experiment(2, 10, 600, CltConfig(master_seed=SEED))
        assert abs(diag.mean) < 4.0 * diag.mean_se
        assert abs(diag.variance - 1.0) < 5.0 * diag.variance_se
        assert diag.exact_var == pytest.approx(
            exact_variance(2, 10, tol=1e-6).value, rel=1e-6)
        assert 0.0 < diag.w1 < 0.2
        assert 0.0 < diag.ks < 1.0

    def test_reproducible(self):
        a = clt_experiment(2, 8, 120, CltConfig(master_seed=12))
        b = clt_experiment(2, 8, 120, CltConfig(master_seed=12))
        assert a == b  # dataclass equality: every statistic bitwise equal
        assert np.array_equal(a.defects, b.defects)

    def test_seed_changes_output(self):
        a = clt_experiment(2, 8, 120, CltConfig(master_seed=12))
        c = clt_experiment(2, 8, 120, CltConfig(master_seed=13))
        assert not np.array_equal(a.defects, c.defects)

    def test_grid_refinement_stable(self):
        # doubling the default grid beyond 20l must not move the variance
        # estimate by more than sampling noise (discretization bias gone)
        n = 700
        a = clt_experiment(2, 8, n, CltConfig(master_seed=SEED))
        b = clt_experiment(2, 8, n, CltConfig(master_seed=SEED,
                                              grid_degree=2 * default_degree(8)))
        # same streams, same realizations: difference is pure quadrature
        assert abs(a.variance - b.variance) < 0.01

    def test_rejects_odd_degree(self):
        with pytest.raises(ValueError, match="even"):
            clt_experiment(2, 7, 100)

    def test_rejects_underresolved_grid(self):
        with pytest.raises(ValueError, match="under-resolve"):
            clt_experiment(2, 20, 100, CltConfig(grid_degree=60))

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError, match="realizations"):
            clt_experiment(2, 8, 1)

    def test_rejects_unsupported_degree_before_any_grid(self, monkeypatch):
        # (3, 14) would need a grid over the point budget, (2, 100) a
        # 2M-point one: the basis range refuses both first
        def no_grid(d, degree):
            raise AssertionError(f"built a degree-{degree} grid on S^{d}")

        monkeypatch.setattr(montecarlo, "build_grid", no_grid)
        for d, l, cap in ((3, 14, 12), (2, 100, 64)):
            with pytest.raises(ValueError, match=f"d={d} basis supports 0 <= l <= {cap}"):
                clt_experiment(d, l, 10)
