"""Seeded simulation of random spherical harmonics and CLT diagnostics.

T_l(x) = sum_m a_m Y_m(x) with a_m i.i.d. N(0, |S^d|/n) is sampled through
the explicit basis of the harmonics module on a product grid, with exact
antipodal parity.  Its covariance is E T(x) T(y) = G_{l;d}(x . y).  The
defect functional sum_i w_i sign(T(x_i)) feeds an N-realization experiment
whose output is compared against the exact chaos-series variance and the
standard normal (empirical mean/variance, quantile Wasserstein-1 distance,
Kolmogorov-Smirnov statistic).

The sampler never forms the n x N basis matrix.  It reads the ring
layout the grid carries (ring_nodes, ring_weights): on ring g of a uniform
azimuth rule

    T(ring g, phi_j) = sum_m c_m(g) E[m, j],

with 2l+1 ring coefficients c(g) contracted from the n coefficients by a
per-ring polar table, and one azimuth table E of shape (2l+1) x n_phi.
n_phi is even and phi_j + pi = phi_(j + n_phi/2), under which the row of
azimuthal order k (1, cos k phi, sin k phi) picks up (-1)^k.  So the
tables keep the first n_phi/2 azimuths, split into the even-k rows and
the odd-k rows (l+1 and l at even l): with te and to their two sums, a
ring is te + to on its first half and te - to on its second, for half
the flops of the full table (the parity split libsharp uses across the
equator).
Memory is the tables, O(l n_theta + l n_phi) on S^2 (O(l^2) per ring on
S^3), plus one workspace per worker, whatever the realization count; the
grid itself is O(rings), as the sampler reads only its ring layout.
T is evaluated on the rings holding the primary half of the grid only, a
tile of realizations x rings at a time, azimuth-major: the ring
coefficients of R * rings columns are multiplied by the tables and the
signs of the result are summed in cache over the azimuth axis, one long
contiguous row at a time, to per-ring counts; the mirror half follows by
antipodal parity.  For a table of width 2l+1 <= _STACK_WIDTH = 33 (all of
S^3, S^2 up to l = 16) a tile is one dgemm of the stacked table
[[even, odd], [even, -odd]], giving T on both half rings, and two
comparisons with 0; wider tables keep the split, whose two dgemms give
te and to and whose four comparisons of te with to and -to give the
signs.  The stacked form doubles the flops to save two comparisons and a
negation, so it wins while the dgemm is short: with two workers,
sampling took 0.58 s split and 0.46 s stacked at (3, 4, 5000), but 0.45
and 0.57 s at (2, 40, 1000) (BENCH_21.json).  Each worker keeps one
_Workspace, whose arrays every tile writes with out= and whose views of
each tile are laid out once per batch size, so no batch allocates or
re-faults its arrays (a fresh clt_experiment(3, 4, 5000) takes about
1,500 minor page faults, against 39,000-71,000 with per-batch arrays)
and the workers do not contend for the interpreter lock building views.
The dgemm replaces the real FFT along each ring on purpose: n_phi is not
FFT-friendly (802 = 2 * 401 at l = 40), and a batched real inverse FFT of
the 402,000 ring rows of 2000 realizations took 7.5-10.8 s there (SciPy's
irfft, measured before the package dropped SciPy), where the full-table
dgemm took 0.75 s (2-core Xeon, OpenBLAS).

The realization batches run on worker threads, one per core of the
process's affinity mask, taking batch starts from one shared iterator.
While they run, the OpenBLAS that numpy calls is held at one thread (its
global count, restored afterwards), so each core does its own dgemm and
its own sign count on a tile in its own L2.  Two workers over a 2-thread
BLAS were slower than one; when no OpenBLAS handle is found, or one core
is available, a single worker runs every batch.

Every realization draws from its own stream, stream(master_seed, i):
Philox under one key per master seed, SeedSequence(master_seed)'s first
128 bits, started at counter block (0, 0, i, 0), so realization i owns
2^128 blocks and no two streams overlap (Salmon et al., Parallel random
numbers: as easy as 1, 2, 3, SC 2011).  A batch keeps one Philox under
the key and moves it to each realization's counter block in turn: the
same draws for about 5 us per realization, held under the interpreter
lock, against about 20 us through stream() (81 normals, 2-core Xeon).  A
realization's defect is a fixed-order sum over its own ring counts, so
results are bit-identical for a given master seed no matter how the
loop is chunked, how many workers share it, or in which order they
finish.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .chaos import exact_variance
from .harmonics import build_basis
from .specfun import sphere_surface
from .spherequad import QuadratureGrid, build_grid

__all__ = [
    "FieldSample",
    "CltConfig",
    "CltDiagnostics",
    "stream",
    "nyquist_degree",
    "default_degree",
    "sample_field",
    "defect_estimate",
    "clt_experiment",
    "wasserstein1_empirical",
]

def stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for realization `index` of a master seed.

    Philox under the master seed's key, started at the counter block of
    the index: realization i's draws never depend on how many other
    realizations were sampled before it.  The master seed must be a
    non-negative integer and the index an integer in [0, 2^64).
    """
    counter = np.array(_counter(index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=_key(master_seed)))


def _key(master_seed: int) -> np.ndarray:
    """Philox key of a master seed: SeedSequence(master_seed)'s first 128 bits."""
    if not isinstance(master_seed, (int, np.integer)):
        raise TypeError(f"master_seed must be an integer, got {type(master_seed).__name__}")
    seed = int(master_seed)
    if seed < 0:
        raise ValueError(f"need master_seed >= 0, got {seed}")
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _counter(index: int) -> tuple[int, int, int, int]:
    """Philox counter block (low word first) at which realization `index` starts.

    The index is the third of the four 64-bit words, so each realization
    owns the 2^128 blocks of the two words below it and no two streams of
    one key overlap.
    """
    if not isinstance(index, (int, np.integer)):
        raise TypeError(f"index must be an integer, got {type(index).__name__}")
    i = int(index)
    if not 0 <= i < 1 << 64:
        raise ValueError(f"need 0 <= index < 2^64, got {i}")
    return (0, 0, i, 0)


def nyquist_degree(l: int) -> int:
    """Smallest allowed grid exactness: >= 4l + 20 nodes per great circle.

    The sign functional is discontinuous, so the grid must resolve the
    O(1/l) oscillation scale with margin; below this floor the defect of a
    degree-l field is qualitatively wrong.
    """
    return 4 * l + 19


def default_degree(l: int) -> int:
    """Default grid exactness 20l for defect experiments.

    The discretized variance sum_ij w_i w_j (2/pi) arcsin(G(x_i . x_j))
    carries a diagonal self-pair excess ~ sum_i w_i^2; measured against the
    exact series at l=20 (d=2) the variance bias is +34% at the bare 4l+20
    floor, +4% at 10l, +0.5% at 20l, +0.07% at 40l.  20l keeps the bias an
    order below MC noise at N ~ 2000 while doubling the resolution moves
    the variance by well under one SE.
    """
    return max(nyquist_degree(l), 20 * l)


@dataclass(frozen=True)
class FieldSample:
    """One realization of T_l on a grid."""

    d: int
    l: int
    grid: QuadratureGrid
    values: np.ndarray


@dataclass(frozen=True)
class _Rings:
    """The spectral sampler's tables for the primary rings of a product grid.

    HarmonicBasis.ring_factors on the G primary rings, split by the parity
    of the azimuthal order k: polar (rows m, polar blocks L, rings) holds
    the even-k rows (the first n_even) then the odd-k rows, slot scatters
    basis coefficient i to m * n_l + L in that row order (m-major, so each
    row's (R, n_l) block of a batch is a BLAS operand), and azimuth_t is
    (even rows, odd rows) of the azimuth table on the first n_phi/2
    azimuths, transposed.  For a narrow table (width 2l+1 <= _STACK_WIDTH)
    stacked is the full-ring table [[even, odd], [even, -odd]], else None.
    pair_weights[g] is the summed weight of a primary point and its
    antipode (2 w for even l, exactly 0 for odd l); when ``centre`` is set,
    the last primary ring is its own antipodal image and only its first
    n_phi/2 points are primary.
    """

    sigma: float
    polar: np.ndarray
    n_even: int
    azimuth_t: tuple[np.ndarray, np.ndarray]
    stacked: np.ndarray | None
    slot: np.ndarray
    pair_weights: np.ndarray
    centre: bool


# Widest table (2l+1) whose tile is one full-ring dgemm.  Swept with two
# workers on S^2 l = 4..20, 40 and S^3 l = 4, 6, 8 (BENCH_21.json): the
# stacked tile won through width 33 (S^2 l = 16), tied at 41 and lost 25%
# at 81, where the doubled flops dominate.
_STACK_WIDTH = 33


def _rings(d: int, l: int, grid: QuadratureGrid) -> _Rings:
    if grid.d != d:
        raise ValueError(f"grid dimension {grid.d} != field dimension {d}")
    basis = build_basis(d, l)
    # ring g and ring R-1-g are antipodal; a centre ring maps onto itself
    n_rings = grid.ring_weights.size
    primary = (n_rings + 1) // 2
    polar, azimuth, slot = basis.ring_factors([t[:primary] for t in grid.ring_nodes],
                                              grid.n_phi)
    # row m carries order k = (m+1)//2; even-k rows first, odd-k rows after
    width = 2 * l + 1
    order = np.argsort((np.arange(width) + 1) // 2 % 2, kind="stable")
    n_even = l // 2 * 2 + 1
    row = np.argsort(order)
    azimuth = azimuth[order, :grid.n_phi // 2]
    even_t = np.ascontiguousarray(azimuth[:n_even].T)
    odd_t = np.ascontiguousarray(azimuth[n_even:].T)
    stacked = np.block([[even_t, odd_t], [even_t, -odd_t]]) if width <= _STACK_WIDTH else None
    w = grid.ring_weights[:primary]
    return _Rings(sigma=math.sqrt(sphere_surface(d) / basis.size),
                  polar=polar[order], n_even=n_even, azimuth_t=(even_t, odd_t),
                  stacked=stacked, slot=row[slot % width] * polar.shape[1] + slot // width,
                  pair_weights=w + (-1.0) ** l * w, centre=n_rings % 2 == 1)


# Bytes of one tile's ring values: te and to (n_phi/2 azimuths x
# realizations x rings each), or the full-ring T of the same size.  The
# values and their sign scratch stay in L2 (2 MB per core on the reference
# box) while they are reduced to ring counts.  Swept with two workers
# (2-core Xeon, medians of 8 alternating in-process calls), 512 KB / 1 MB /
# 2 MB tiles took 1.28 / 0.90 / 0.88 s at l = 40 on S^2 (split, 2000
# realizations) and 0.63 / 0.48 / 0.48 s at l = 4 on S^3 (stacked, 5000):
# smaller tiles pay per-call overhead, and 2 MB would gain nothing for
# 1-2 MB more workspace per worker.
_TILE = 1 << 20


class _Tile(NamedTuple):
    """Views of one tile, realizations ``rows`` x primary rings ``block``
    (R x G columns), into the arrays of a _Workspace."""

    rows: slice
    block: slice
    coeff: np.ndarray  # (2l+1, R, n_l), a view of the scatter
    polar: np.ndarray  # (2l+1, n_l, G) polar factors of the block
    c: np.ndarray  # (2l+1, R, G) ring coefficients
    c2: np.ndarray  # c as (2l+1, R*G)
    values: np.ndarray  # (n_phi, R*G): T, or te above to
    halves: np.ndarray  # values as (2, n_phi/2, R*G)
    more: np.ndarray  # bool (2, n_phi/2, R*G): sign comparisons
    less: np.ndarray
    more8: np.ndarray  # their int8 views
    less8: np.ndarray
    signs: np.ndarray  # int8 (2, n_phi/2, R*G)
    centre: np.ndarray | None  # the second half of a centre ring's signs
    ring_counts: np.ndarray  # (R*G,)
    counts: np.ndarray  # the workspace's counts[rows, block]
    counts_rg: np.ndarray  # ring_counts as (R, G)


class _Workspace:
    """One worker's tile arrays and the views of every tile into them.

    The arrays are the coefficient scatter (its slots outside rings.slot
    stay 0), the ring coefficients, the ring values, the bool and int8
    sign scratch and the counts, sized for batches of up to n realizations
    and tiles of tile_cols columns.  tiles(n) lays out the tiles of an
    n-row batch once, so the tile loop does nothing but numpy calls that
    write leading blocks with out=: no batch allocates, and the pages,
    faulted in once, stay mapped.  With two workers the views matter as
    much as the arrays: built in the loop, they held the interpreter lock
    long enough to make the split tile 13% slower at l = 40 on S^2.  Both
    tile forms use the same arrays.
    """

    def __init__(self, rings: _Rings, n: int) -> None:
        width, n_l, n_rings = rings.polar.shape
        half = rings.azimuth_t[0].shape[0]
        self.rings = rings
        self.tile_cols = max(1, _TILE // (16 * half))
        cols = min(self.tile_cols, n * n_rings)
        self.scatter = np.zeros((n, width * n_l))
        self.counts = np.empty((n, n_rings))
        self._c = np.empty(width * cols)
        self._values = np.empty(2 * half * cols)
        self._flags = np.empty((2, 2 * half * cols), np.bool_)
        self._signs = np.empty(2 * half * cols, np.int8)
        # |count| <= n_phi: int8 sums (no cast) while that fits
        self._ring_counts = np.empty(cols, np.int8 if 2 * half <= 127 else np.int16)
        self._tiles: dict[int, list[_Tile]] = {}

    def tiles(self, n: int) -> list[_Tile]:
        if n not in self._tiles:
            self._tiles[n] = list(self._layout(n))
        return self._tiles[n]

    def _layout(self, n: int):
        rings = self.rings
        width, n_l, n_rings = rings.polar.shape
        half = rings.azimuth_t[0].shape[0]
        coeff = self.scatter[:n].reshape(n, width, n_l).transpose(1, 0, 2)
        r_step = min(n, self.tile_cols)
        g_step = max(1, self.tile_cols // r_step)
        for r0 in range(0, n, r_step):
            rows = slice(r0, min(r0 + r_step, n))
            for g0 in range(0, n_rings, g_step):
                block = slice(g0, min(g0 + g_step, n_rings))
                r, g = rows.stop - r0, block.stop - g0
                m = 2 * half * r * g
                c = self._c[:width * r * g].reshape(width, r, g)
                values = self._values[:m].reshape(2 * half, r * g)
                more, less = self._flags[:, :m].reshape(2, 2, half, r * g)
                signs = self._signs[:m].reshape(2, half, r * g)
                centre = rings.centre and block.stop == n_rings
                ring_counts = self._ring_counts[:r * g]
                yield _Tile(rows, block, coeff[:, rows], rings.polar[:, :, block], c,
                            c.reshape(width, r * g), values, values.reshape(2, half, r * g),
                            more, less, more.view(np.int8), less.view(np.int8), signs,
                            signs[1].reshape(half, r, g)[:, :, -1] if centre else None,
                            ring_counts, self.counts[rows, block], ring_counts.reshape(r, g))


def _ring_defects(rings: _Rings, a: np.ndarray, work: _Workspace | None = None,
                  values: np.ndarray | None = None) -> np.ndarray:
    """Defects of the fields with coefficient rows ``a``, tile by tile.

    On the uniform azimuth rule phi_j + pi = phi_(j + n_phi/2), where the
    azimuth row of order k picks up (-1)^k.  So with te and to the sums of
    the even-k and odd-k rows over the first n_phi/2 azimuths, a ring is
    T = te + to on its first half and T = te - to on its second.  A tile is
    azimuth-major, against the ring coefficients of realizations x rings
    columns: for a narrow table one dgemm of the stacked (n_phi, 2l+1)
    table gives T on both halves, and its sign comes from comparisons with
    0; otherwise two dgemms of the (n_phi/2, n_even) and (n_phi/2, n_odd)
    half tables give te and to, and the signs come from comparisons of te
    with to and -to, since fl(a + b) > 0 exactly when a > -b under gradual
    underflow.  The count of a column is the sum over axis 0 of sign(T)
    on the first half plus, except on a centre ring, the second, in int8
    when n_phi <= 127 and in int16 otherwise; |count| <= n_phi <= 2828
    under the grid's 4M-point budget, so neither can overflow.  The defect
    is the fixed-order sum of counts times pair weights, so it depends on
    neither the tiling nor the batch a realization arrives in.  ``work``
    (a _Workspace of these rings for at least len(a) rows; a fresh one
    when None) holds every array of the loop.  With ``values`` of shape
    (R, grid rings, n_phi), T = te +- to is also written on the primary
    rings, by the split form.
    """
    n = a.shape[0]
    work = _Workspace(rings, n) if work is None else work
    stacked = rings.stacked if values is None else None
    even_t, odd_t = rings.azimuth_t
    half, n_even = even_t.shape[0], rings.n_even
    work.scatter[:n, rings.slot] = a
    for tile in work.tiles(n):
        np.matmul(tile.coeff, tile.polar, out=tile.c)
        # signs as int8 views of comparisons: several times cheaper than
        # np.sign on float64, and exact
        if stacked is not None:
            np.matmul(stacked, tile.c2, out=tile.values)
            np.greater(tile.halves, 0.0, out=tile.more)
            np.less(tile.halves, 0.0, out=tile.less)
        else:
            te, to = tile.halves
            np.matmul(even_t, tile.c2[:n_even], out=te)
            np.matmul(odd_t, tile.c2[n_even:], out=to)
            if values is not None:
                ring = (half, *tile.c.shape[1:])
                values[tile.rows, tile.block, :half] = (te + to).reshape(ring).transpose(1, 2, 0)
                values[tile.rows, tile.block, half:] = (te - to).reshape(ring).transpose(1, 2, 0)
            # sign(te - to) into the second half, sign(te + to) into the
            # first against to negated in place
            np.greater(te, to, out=tile.more[1])
            np.less(te, to, out=tile.less[1])
            np.negative(to, out=to)
            np.greater(te, to, out=tile.more[0])
            np.less(te, to, out=tile.less[0])
        np.subtract(tile.more8, tile.less8, out=tile.signs)
        if tile.centre is not None:
            tile.centre[...] = 0
        # the two half rings first, then one sum over n_phi/2 rows
        np.add(tile.signs[0], tile.signs[1], out=tile.signs[0])
        np.sum(tile.signs[0], axis=0, dtype=tile.ring_counts.dtype, out=tile.ring_counts)
        tile.counts[...] = tile.counts_rg
    counts = work.counts[:n]
    np.multiply(counts, rings.pair_weights, out=counts)
    return counts.sum(axis=1)


_BATCH = 64

# thread-count entry points of the OpenBLAS builds numpy ships or links
_BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))
_BLAS_LOCK = threading.Lock()


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    Looks only at libraries already loaded: numpy's bundled OpenBLAS, then
    every OpenBLAS in the process's memory map.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "*openblas*.so*")))
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        paths += sorted({line.split()[-1] for line in fh if "openblas" in line})
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_LAZY", 0)
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:
            continue
        for get, put in _BLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread; yields False when there is no handle.

    The count set is the global one (the thread-local setter of this
    OpenBLAS also changed it), so it is saved and restored under a lock.
    """
    handle = _openblas()
    if handle is None:
        yield False
        return
    get, put = handle
    with _BLAS_LOCK:
        saved = get()
        put(1)
        try:
            yield True
        finally:
            put(saved)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draws(key: np.ndarray, indices: Sequence[int], sigma: float, size: int) -> np.ndarray:
    """Rows stream(master_seed, i).normal(0, sigma, size) for i in indices.

    ``key`` is the master seed's _key.  One Philox under it, moved to each
    index's counter block in turn, gives those draws without building a
    generator per realization.
    """
    bits = np.random.Philox(key=key)
    gen = np.random.Generator(bits)
    state = bits.state
    out = np.empty((len(indices), size))
    for row, i in zip(out, indices):
        state["state"]["counter"] = _counter(i)
        bits.state = state
        row[:] = gen.normal(0.0, sigma, size)
    return out


def _spectral_defects(d: int, l: int, grid: QuadratureGrid, master_seed: int,
                      n_realizations: int, start: int = 0) -> np.ndarray:
    """Defects of realizations start .. start + n - 1 of a master seed.

    Each realization's coefficient vector comes from its own stream, and
    its defect does not depend on the batch it is evaluated in, so any
    split of an index range gives the same values as the whole range.
    The master seed is keyed once; each batch draws its realizations
    through _draws, at their own counter blocks under that key.
    Batches run on one worker thread per core over a 1-thread BLAS, each
    writing only its own slice; the first failure stops them, then raises.
    """
    rings = _rings(d, l, grid)
    key = _key(master_seed)
    defects = np.empty(n_realizations)

    starts = range(0, n_realizations, _BATCH)
    pending, lock, failed = iter(starts), threading.Lock(), []

    def work(done: threading.Event) -> None:
        # batches from the shared iterator until it runs out or one fails,
        # all in one workspace; done is set however the worker ends
        try:
            space = _Workspace(rings, min(_BATCH, n_realizations))
            while True:
                with lock:
                    lo = None if failed else next(pending, None)
                if lo is None:
                    return
                indices = range(start + lo, start + min(lo + _BATCH, n_realizations))
                a = _draws(key, indices, rings.sigma, rings.slot.size)
                defects[lo:lo + _BATCH] = _ring_defects(rings, a, space)
        except BaseException as exc:  # the caller re-raises the first
            failed.append(exc)
        finally:
            done.set()

    workers = min(_cores(), len(starts))
    with _one_blas_thread() if workers > 1 else contextlib.nullcontext(False) as limited:
        done = [threading.Event() for _ in range(workers if limited else 1)]
        threads = [threading.Thread(target=work, args=(event,)) for event in done]
        try:
            for thread in threads:
                thread.start()
            for event in done:
                event.wait()
        except BaseException as exc:  # an interrupt: no batch starts, running ones end
            # an interrupted Thread.join would mark its thread stopped while
            # it runs, where an interrupted Event.wait can simply wait again;
            # a thread whose start() was interrupted may be starting still
            failed.insert(0, exc)
            for thread, event in zip(threads, done):
                while not event.wait(0.1) and thread.is_alive():
                    pass
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if failed:
        raise failed[0]
    return defects


# sample_field's ring tables for its last (d, l, grid); grids hash by identity
@functools.lru_cache(maxsize=1)
def _sample_rings(d: int, l: int, grid: QuadratureGrid) -> _Rings:
    return _rings(d, l, grid)


def sample_field(d: int, l: int, grid: QuadratureGrid,
                 rng: np.random.Generator | None = None) -> FieldSample:
    """Draw one realization of the degree-l Gaussian field on the grid.

    a_m i.i.d. N(0, |S^d|/n) against the explicit basis, evaluated ring by
    ring on a build_grid grid as a batch of 1; the mirror half is written
    as copies, so T(-x) = (-1)^l T(x) exactly.  The ring tables of
    the last (d, l, grid) are kept, so repeated draws on one grid build
    them once.
    """
    if rng is None:
        rng = stream(0, 0)
    rings = _sample_rings(d, l, grid)
    a = rng.normal(0.0, rings.sigma, rings.slot.size)
    values = np.empty(grid.size)
    _ring_defects(rings, a[None, :], None, values.reshape(1, -1, grid.n_phi))
    half = grid.size // 2
    values[grid.antipode_index[:half]] = (-1.0) ** l * values[:half]
    return FieldSample(d=d, l=l, grid=grid, values=values)


def defect_estimate(sample: FieldSample) -> float:
    """sum_i w_i sign(T(x_i)), with sign(0) = 0.

    The sum is grouped by antipodal pair, so the exact pointwise parity of
    odd-l spectral samples cancels to exactly 0.0.
    """
    grid = sample.grid
    if sample.values.shape != (grid.size,):
        raise ValueError("sample values and grid size disagree")
    s = np.sign(sample.values)
    half = grid.size // 2
    mirror = grid.antipode_index[:half]
    pair = grid.weights[:half] * s[:half] + grid.weights[mirror] * s[mirror]
    return float(np.sum(pair))


def wasserstein1_empirical(samples) -> float:
    """Quantile-form W1 distance of a sample to N(0,1).

    Mean |X_(i) - Phi^(-1)((i - 1/2)/N)| over the midpoint grid, the exact
    W1 between the empirical measure and the discretized normal.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    import statistics  # loads fractions and decimal: only when asked for

    inv_cdf = statistics.NormalDist().inv_cdf
    u = (np.arange(1, x.size + 1) - 0.5) / x.size
    q = np.array([inv_cdf(v) for v in u.tolist()])
    return float(np.mean(np.abs(x - q)))


def _ks_normal(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance sup |F_N - Phi| of a sample to N(0,1).

    The supremum sits at a sorted sample point z_(i), just after the jump
    (i/N - Phi) or just before it (Phi - (i-1)/N), as in SciPy's two-sided
    kstest(z, "norm"); Phi(x) = erfc(-x/sqrt 2)/2 keeps its relative
    accuracy in the lower tail.
    """
    root2 = math.sqrt(2.0)
    c = np.array([0.5 * math.erfc(-v / root2) for v in np.sort(z).tolist()])
    n = c.size
    return float(max(np.max(np.arange(1.0, n + 1) / n - c),
                     np.max(c - np.arange(0.0, n) / n)))


@dataclass(frozen=True)
class CltConfig:
    """Experiment knobs; grid_degree=None means default_degree(l)."""

    master_seed: int = 20260813
    grid_degree: int | None = None


# relative bracket width of the exact variance the defects are normalised by
_VARIANCE_TOL = 1e-6


@dataclass(frozen=True)
class CltDiagnostics:
    """Normal-approximation diagnostics of N normalized defect estimates.

    mean/variance (with standard errors) are of the defects normalized by
    sqrt(exact_variance); exact_var is the raw chaos-series variance; w1 and
    ks measure the distance of the normalized sample to N(0,1).
    """

    d: int
    l: int
    n_realizations: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    exact_var: float
    w1: float
    ks: float
    seed: int
    grid_degree: int
    defects: np.ndarray = field(repr=False, compare=False, default=None)


def clt_experiment(d: int, l: int, n_realizations: int,
                   config: CltConfig | None = None) -> CltDiagnostics:
    """N seeded defect realizations, normalized by the exact variance.

    Deterministic for a given config (per-realization streams, fixed-order
    reduction).  Requires even l (odd-l defects are identically zero) and a
    grid meeting the Nyquist rule.
    """
    if l % 2 == 1:
        raise ValueError("the defect of an odd-degree field is identically 0; "
                         "the CLT experiment needs even l")
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    cfg = config or CltConfig()
    degree = cfg.grid_degree if cfg.grid_degree is not None else default_degree(l)
    if degree < nyquist_degree(l):
        raise ValueError(
            f"grid degree {degree} under-resolves l={l}: the sign functional "
            f"needs exactness >= {nyquist_degree(l)} (4l + 20 nodes per great circle)"
        )
    # refuse a bad seed or an unsupported (d, l) before the grid is built
    _key(cfg.master_seed)
    build_basis(d, l)
    defects = _spectral_defects(d, l, build_grid(d, degree), cfg.master_seed,
                                n_realizations)
    exact = exact_variance(d, l, tol=_VARIANCE_TOL).value
    z = defects / math.sqrt(exact)
    n = n_realizations
    mean = float(np.mean(z))
    mean_se = float(np.std(z, ddof=1) / math.sqrt(n))
    var = float(np.var(z, ddof=1))
    # distribution-free SE of the sample variance via the fourth moment
    m4 = float(np.mean((z - mean) ** 4))
    var_se = math.sqrt(max(m4 - var ** 2, 0.0) / n)
    return CltDiagnostics(
        d=d, l=l, n_realizations=n, mean=mean, mean_se=mean_se,
        variance=var, variance_se=var_se, exact_var=exact,
        w1=wasserstein1_empirical(z),
        ks=_ks_normal(z),
        seed=cfg.master_seed, grid_degree=degree,
        defects=defects,
    )
