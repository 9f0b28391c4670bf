import dataclasses
import itertools
import math
import signal
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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

from dense_grid import dense_grid

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

    # seeds of 1 to 4 words; indices 60..69 cross the batch boundary 64,
    # 2^32 - 1, 2^32 a word boundary, and 2^64 - 1 is the last index
    KEY_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 100 + 7)
    KEY_INDICES = (*range(60, 70), 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_reset_generator_draws_equal_stream(self, seed):
        sigma = 1.7
        draws = montecarlo._draws(montecarlo._key(seed), self.KEY_INDICES, sigma, 100)
        expected = np.array([stream(seed, i).normal(0.0, sigma, 100)
                             for i in self.KEY_INDICES])
        assert np.array_equal(draws, expected)

    @pytest.mark.parametrize("seed", KEY_SEEDS[:3])
    @pytest.mark.parametrize("index", [0, 5, 2 ** 64 - 1])
    def test_stream_state_is_seed_key_at_index_block(self, seed, index):
        state = stream(seed, index).bit_generator.state["state"]
        assert np.array_equal(state["key"],
                              np.random.SeedSequence(seed).generate_state(2, np.uint64))
        assert np.array_equal(state["counter"], [0, 0, index, 0])

    @pytest.mark.parametrize("index,error", [(-1, ValueError), (2 ** 64, ValueError),
                                             (2 ** 70, ValueError), (np.int64(-3), ValueError),
                                             (1.0, TypeError), (np.float64(2.0), TypeError),
                                             ("7", TypeError)])
    def test_stream_refuses_index_off_the_counter(self, index, error):
        with pytest.raises(error, match="index"):
            stream(7, index)

    @pytest.mark.parametrize("seed,error", [(-1, ValueError), (-2 ** 70, ValueError),
                                            (np.int64(-3), ValueError), (1.0, TypeError),
                                            (np.float64(2.0), TypeError)])
    def test_keys_refuse_what_seed_sequence_refuses(self, seed, error):
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        with pytest.raises(error):
            montecarlo._key(seed)
        with pytest.raises(error):
            stream(seed, 0)

    @pytest.mark.parametrize("seed", [True, np.uint64(2 ** 64 - 1), np.int8(5)])
    def test_integer_seeds_of_any_type_accepted(self, seed):
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert np.array_equal(montecarlo._key(seed), key)
        assert np.array_equal(stream(seed, 3).bit_generator.state["state"]["key"], key)

    def test_seed_must_be_an_integer(self):
        # SeedSequence would also read "7" or (1, 2); a master seed is an int
        for seed in ("7", (1, 2)):
            with pytest.raises(TypeError, match="master_seed must be an integer"):
                stream(seed, 0)

    def test_negative_seed_message(self):
        with pytest.raises(ValueError, match=r"need master_seed >= 0, got -1$"):
            stream(-1, 0)

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
        points = dense_grid(grid).points
        t = float(np.clip(points[i] @ points[j], -1, 1))
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
        points = dense_grid(grid).points
        k = gegenbauer(2, l, np.clip(points @ points.T, -1.0, 1.0))
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
        assert np.all(_spectral_defects(d, l, grid, SEED, 130) == 0.0)

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
        oracle = dense_grid(grid)
        basis = build_basis(d, l)
        dense = oracle.basis_matrix(basis)
        sigma = math.sqrt(sphere_surface(d) / basis.size)
        half = grid.size // 2
        mirror = oracle.antipode_index[:half]
        for i in range(3):
            sample = sample_field(d, l, grid, rng=stream(SEED, i))
            values = sample.values
            a = stream(SEED, i).normal(0.0, sigma, basis.size)
            assert np.max(np.abs(values - a @ dense)) <= 1e-12
            # a few ulps of the dot product's scale sum_m |a_m Y_m(x)|
            # (at most 54 measured, at (2, 40, 179))
            scale = np.abs(a) @ np.abs(dense)
            assert np.all(np.abs(values - a @ dense) <= 64 * np.finfo(float).eps * scale)
            assert np.array_equal(values[oracle.antipode_index], (-1.0) ** l * values)
            # the ring-form defect against the dense sum over antipodal pairs
            s, w = np.sign(values), oracle.weights
            pairs = w[:half] * s[:half] + w[mirror] * s[mirror]
            assert abs(defect_estimate(sample) - np.sum(pairs)) <= 1e-14

    # rings (R) and half-ring azimuths (n_phi/2): (2, 30) 16 and 16,
    # (2, 32) 17 and 17, (2, 1) 1 and 2, (3, 20) 121 and 11, (3, 18) 100
    # and 10, (3, 1) 1 and 2; odd R has a centre ring
    @pytest.mark.parametrize("d,l,degree", [(2, 6, 30), (2, 7, 32), (2, 3, 1), (2, 40, 179),
                                            (3, 4, 20), (3, 5, 18), (3, 2, 1)])
    def test_split_counts_equal_dense_sign_counts(self, d, l, degree):
        # both tile forms, the parity split and the stacked full-ring table
        # (forced through the width switch), count sign(T) on every primary
        # ring as the dense basis values do; one-hot pair weights read the
        # count of one ring out of the defect
        grid = build_grid(d, degree)
        a = np.random.default_rng(degree).normal(size=(20, build_basis(d, l).size))
        signs = np.sign(a @ dense_grid(grid).basis_matrix(build_basis(d, l)))
        signs = signs.reshape(a.shape[0], -1, grid.n_phi)
        for stack_width in (0, 1 << 10):
            with mock.patch.object(montecarlo, "_STACK_WIDTH", stack_width):
                rings = montecarlo._rings(d, l, grid)
            assert (rings.stacked is None) == (stack_width == 0)
            n_primary = rings.pair_weights.size
            expected = signs[:, :n_primary].sum(axis=2)
            if rings.centre:
                expected[:, -1] -= signs[:, n_primary - 1, grid.n_phi // 2:].sum(axis=1)
            for tile in (1 << 9, 1 << 12, montecarlo._TILE):
                with mock.patch.object(montecarlo, "_TILE", tile):
                    counts = np.column_stack([
                        montecarlo._ring_defects(
                            dataclasses.replace(rings, pair_weights=np.eye(n_primary)[g]), a)
                        for g in range(n_primary)])
                assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("d,l,degree", [(2, 6, 32), (3, 4, 20)])
    def test_split_at_offsets_off_the_batch_grid(self, d, l, degree):
        # [0, n) = [0, k) + [k, n) for k and start offsets that are not
        # multiples of the batch size, so batches straddle the cuts
        grid = build_grid(d, degree)
        n = 3 * montecarlo._BATCH + 11
        for start in (0, 37, montecarlo._BATCH + 5):
            whole = _spectral_defects(d, l, grid, SEED, n, start=start)
            for k in (1, 45, montecarlo._BATCH + 1, 2 * montecarlo._BATCH + 3):
                parts = np.concatenate([_spectral_defects(d, l, grid, SEED, k, start=start),
                                        _spectral_defects(d, l, grid, SEED, n - k,
                                                          start=start + k)])
                assert np.array_equal(whole, parts)

    def test_grid_has_centre_ring(self):
        # the odd-count cases above really contain a self-antipodal ring
        for d, degree in ((2, 32), (3, 20)):
            grid = build_grid(d, degree)
            assert grid.ring_weights.size % 2 == 1
            assert all(t[t.size // 2] == 0.0 for t in grid.ring_nodes)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), degree=st.integers(0, 60), l=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(d=2, degree=32, l=7, seed=0)
    @example(d=3, degree=20, l=4, seed=0)
    @example(d=2, degree=1, l=3, seed=0)
    @example(d=3, degree=1, l=5, seed=0)
    def test_antipodal_exactness(self, d, degree, l, seed):
        # ring R-1-g turned by half a ring is (-1)^l times ring g to the bit,
        # and so is a centre ring's second half against its first; odd l
        # then gives defects of exactly 0.0 on both paths
        grid = build_grid(d, degree)
        sample = sample_field(d, l, grid, rng=stream(seed, 0))
        values = sample.values.reshape(-1, grid.n_phi)
        n, half, s = values.shape[0], grid.n_phi // 2, (-1.0) ** l
        for g in range(n // 2):
            assert np.array_equal(np.roll(values[n - 1 - g], half), s * values[g])
        if n % 2:
            assert np.array_equal(values[n // 2, half:], s * values[n // 2, :half])
        if l % 2:
            assert defect_estimate(sample) == 0.0
            assert np.all(_spectral_defects(d, l, grid, seed, 3) == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from([(2, 4, 24), (2, 5, 24), (2, 6, 26),
                                 (3, 2, 12), (3, 3, 13), (3, 4, 18)]),
           n=st.integers(1, 150),
           cuts=st.lists(st.integers(0, 150), max_size=4),
           tile=st.sampled_from([1 << 9, 1 << 12, 1 << 20]),
           workers=st.integers(1, 3),
           stack_width=st.sampled_from([0, 1 << 10]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chunk_invariant_defects(self, case, n, cuts, tile, workers, stack_width, seed):
        # defects of [0, n) = the concatenated defects of any split of it,
        # at any tile size and worker count, in either tile form, and = the
        # one-sample route stream for stream
        d, l, degree = case
        grid = build_grid(d, degree)
        whole = _spectral_defects(d, l, grid, seed, n)
        bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
        with mock.patch.object(montecarlo, "_TILE", tile), \
                mock.patch.object(montecarlo, "_cores", lambda: workers), \
                mock.patch.object(montecarlo, "_STACK_WIDTH", stack_width):
            chunked = np.concatenate([_spectral_defects(d, l, grid, seed, hi - lo, start=lo)
                                      for lo, hi in zip(bounds, bounds[1:])])
        assert np.array_equal(whole, chunked)
        single = np.array([defect_estimate(sample_field(d, l, grid, rng=stream(seed, i)))
                           for i in range(n)])
        assert np.max(np.abs(whole - single)) <= 1e-12
        if l % 2:
            assert np.all(whole == 0.0) and np.all(single == 0.0)

    @pytest.mark.parametrize("d,l,degree", [(2, 6, 32), (2, 7, 32), (3, 4, 20), (2, 40, 179)])
    def test_sample_field_values_equal_in_both_forms(self, d, l, degree):
        # sample_field writes T by the split form whatever the width switch
        # says, so its values do not depend on the switch, to the bit
        grid = build_grid(d, degree)
        values = []
        for stack_width in (0, 1 << 10):
            montecarlo._sample_rings.cache_clear()
            with mock.patch.object(montecarlo, "_STACK_WIDTH", stack_width):
                values.append([sample_field(d, l, grid, rng=stream(SEED, i)).values
                               for i in range(2)])
        montecarlo._sample_rings.cache_clear()
        assert all(np.array_equal(a, b) for a, b in zip(*values))

    # defects of realizations 0, 1, 2 of SEED on the default grids, from the
    # sampler and the Newton Gauss-Legendre rings of version 0.5.0; a kernel
    # or rule change that moves any of them changes the printed mc-clt numbers
    @pytest.mark.parametrize("d,l,pinned", [
        (2, 8, ["-0x1.8b8609cad79cfp-2", "0x1.2c487d99d730cp-2", "0x1.d74e1b3af5df0p-1"]),
        (2, 40, ["0x1.76c014cdee5fep-5", "0x1.058bf1e2c3800p-10", "-0x1.7aa1e0322f721p-6"]),
        (3, 4, ["0x1.25e9efdc797e6p+0", "-0x1.e058e5ca84b9cp-1", "0x1.6d9e46b2af620p-3"]),
    ])
    def test_pinned_defects(self, d, l, pinned):
        defects = _spectral_defects(d, l, build_grid(d, default_degree(l)), SEED, 3)
        assert [float(x).hex() for x in defects] == pinned

    @pytest.mark.parametrize("d,l,degree", [(2, 6, 32), (3, 4, 20), (3, 4, 80), (2, 40, 179)])
    def test_workspace_reuse_equals_fresh(self, d, l, degree):
        # one workspace, its arrays first filled with junk, serves a full
        # batch, a short final batch and a full batch again (through the
        # tile views it laid out for the first), and gives each the defects
        # of a fresh workspace; at one of the tile sizes the last ring
        # block of the full batch is shorter than the others
        grid = build_grid(d, degree)
        rings = montecarlo._rings(d, l, grid)
        n_rings, batch = rings.pair_weights.size, montecarlo._BATCH
        rng = np.random.default_rng(degree)
        draws = [rng.normal(size=(k, rings.slot.size)) for k in (batch, batch - 27, batch)]
        short_last_block = False
        for tile in (1 << 17, montecarlo._TILE):
            with mock.patch.object(montecarlo, "_TILE", tile):
                work = montecarlo._Workspace(rings, batch)
                g_step = work.tile_cols // min(batch, work.tile_cols)
                short_last_block |= 1 < g_step < n_rings and n_rings % g_step > 0
                for junk in (work._c, work._values, work.counts):
                    junk.fill(np.nan)
                for junk in (work._signs, work._flags, work._ring_counts):
                    junk.fill(7)
                for a in draws:
                    assert np.array_equal(montecarlo._ring_defects(rings, a, work),
                                          montecarlo._ring_defects(rings, a))
        assert short_last_block

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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failure_stops_new_batches_and_joins_workers(self, workers):
        # 20 batches; the first call fails, so the workers stop long before
        # the range is done, and none is left running after the raise
        kernel = montecarlo._ring_defects
        calls = itertools.count()

        def failing(*args):
            if next(calls) == 0:
                raise RuntimeError("worker failed")
            return kernel(*args)

        grid = build_grid(2, 20)
        running = threading.active_count()
        with mock.patch.object(montecarlo, "_cores", lambda: workers), \
                mock.patch.object(montecarlo, "_ring_defects", failing), \
                pytest.raises(RuntimeError, match="worker failed"):
            _spectral_defects(2, 4, grid, SEED, 20 * montecarlo._BATCH)
        assert threading.active_count() == running
        started = next(calls)
        assert started == 1 if workers == 1 else started < 20

    def test_interrupt_in_join_stops_new_batches(self):
        # a signal delivered to the waiting thread raises there (at the
        # third batch, once every worker has started), the workers then
        # start no batch, and none is left running when the call raises.
        # From the third on, batches wait for the handler and then sleep
        # past the 5 ms switch interval: a worker holding the GIL could
        # otherwise start all 20 before the main thread records the signal
        kernel = montecarlo._ring_defects
        calls = itertools.count()
        main = threading.get_ident()
        handled = threading.Event()

        def interrupting(*args):
            call = next(calls)
            if call == 2:
                signal.pthread_kill(main, signal.SIGINT)
            if call >= 2:
                handled.wait(10.0)
                time.sleep(0.01)
            return kernel(*args)

        def interrupted(signum, frame):
            handled.set()
            raise RuntimeError("interrupted")

        grid = build_grid(2, 20)
        running = threading.active_count()
        saved = signal.signal(signal.SIGINT, interrupted)
        try:
            with mock.patch.object(montecarlo, "_cores", lambda: 2), \
                    mock.patch.object(montecarlo, "_ring_defects", interrupting):
                with pytest.raises(RuntimeError, match="interrupted"):
                    _spectral_defects(2, 4, grid, SEED, 20 * montecarlo._BATCH)
                alive = threading.active_count()
        finally:
            signal.signal(signal.SIGINT, saved)
        assert alive == running
        assert next(calls) < 20


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

    @pytest.mark.parametrize("n", [2, 7, 2000])
    def test_inverse_phi_matches_mpmath(self, n):
        # at the exact midpoint quantiles Phi^-1((i - 1/2)/n) = sqrt(2)
        # erfinv(2i/n - 1 - 1/n), W1 is the mean error of Phi^-1 itself
        import mpmath

        with mpmath.workdps(40):
            q = [mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(2 * i - 1) / n - 1)
                 for i in range(1, n + 1)]
            assert wasserstein1_empirical([float(v) for v in q]) <= 1e-15
            x = np.sort(stream(9, n).standard_normal(n))
            ref = float(mpmath.fsum(abs(mpmath.mpf(float(a)) - b) for a, b in zip(x, q)) / n)
        assert wasserstein1_empirical(x) == pytest.approx(ref, rel=1e-14)


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize("n", [2, 10, 5000])
    def test_equals_scipy_kstest(self, n):
        # to 1e-13 relative: Phi is math.erfc's, not SciPy's ndtr
        from scipy import stats

        diag = clt_experiment(3, 4, n, CltConfig(master_seed=SEED))
        z = diag.defects / math.sqrt(diag.exact_var)
        assert math.isclose(diag.ks, stats.kstest(z, "norm").statistic, rel_tol=1e-13)

    def test_phi_matches_mpmath(self):
        # one point z has the distance max(Phi(z), 1 - Phi(z)), so Phi is
        # checked point by point, then the sup over a sample of 5000
        import mpmath

        z = np.concatenate([np.linspace(-9.0, 9.0, 721), stream(5, 0).standard_normal(300),
                            [-37.5, -20.0, 0.0, 30.0]])
        with mpmath.workdps(40):
            for v in z:
                p = mpmath.ncdf(float(v))
                assert abs(montecarlo._ks_normal(np.array([v])) - float(max(p, 1 - p))) <= 2.3e-16
            x = np.sort(stream(7, 0).standard_normal(5000))
            c = [mpmath.ncdf(float(v)) for v in x]
            ref = float(max(max(mpmath.mpf(i + 1) / x.size - c[i], c[i] - mpmath.mpf(i) / x.size)
                            for i in range(x.size)))
        assert montecarlo._ks_normal(x) == pytest.approx(ref, rel=1e-14)


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

    def test_builds_no_dense_grid_arrays(self, monkeypatch):
        # the sampler reads the ring layout only; the dense arrays are
        # cached properties, so they appear in vars(grid) once built
        grids = []

        def spy(d, degree):
            grids.append(build_grid(d, degree))
            return grids[-1]

        monkeypatch.setattr(montecarlo, "build_grid", spy)
        clt_experiment(2, 6, 200, CltConfig(master_seed=SEED))
        assert len(grids) == 1
        assert set(vars(grids[0])) == {"d", "exactness_degree", "ring_nodes",
                                       "ring_weights", "n_phi"}

    def test_rejects_negative_seed_before_any_grid(self, monkeypatch):
        def no_grid(d, degree):
            raise AssertionError(f"built a degree-{degree} grid on S^{d}")

        monkeypatch.setattr(montecarlo, "build_grid", no_grid)
        with pytest.raises(ValueError, match=r"need master_seed >= 0, got -1$"):
            clt_experiment(2, 4, 10, CltConfig(master_seed=-1))

    def test_rejects_unsupported_degree_before_any_grid(self, monkeypatch):
        # (3, 14) would need a grid over the point budget, (2, 100) a
        # 2M-point one: the basis range refuses both first
        def no_grid(d, degree):
            raise AssertionError(f"built a degree-{degree} grid on S^{d}")

        monkeypatch.setattr(montecarlo, "build_grid", no_grid)
        for d, l, cap in ((3, 14, 12), (2, 100, 64)):
            with pytest.raises(ValueError, match=f"d={d} basis supports 0 <= l <= {cap}"):
                clt_experiment(d, l, 10)
