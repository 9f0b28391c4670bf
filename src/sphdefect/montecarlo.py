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
S^3), plus one tile of _TILE bytes, whatever the realization count; the
grid itself is O(rings), as the sampler reads only its ring layout.
T is evaluated on the rings holding the primary half of the grid only, a
tile of realizations x rings at a time.  The tile is azimuth-major: two
dgemms of the half tables, (n_phi/2, even rows) and (n_phi/2, odd rows),
against the ring coefficients of R * rings columns give te and to.  The
signs of te + to and te - to, taken from comparisons of te with -to and
to, are summed in cache over the azimuth axis, one long contiguous row
at a time, to per-ring counts; the mirror half follows by antipodal
parity.
The dgemm replaces the real FFT along each ring on purpose: n_phi is not
FFT-friendly (802 = 2 * 401 at l = 40), and a batched scipy.fft.irfft of
the 402,000 ring rows of 2000 realizations took 7.5-10.8 s there, where
the full-table dgemm took 0.75 s (2-core Xeon, OpenBLAS).

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

import numpy as np

from .chaos import exact_variance
from .harmonics import build_basis
from .specfun import ndtr, ndtri, sphere_surface
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
    of the azimuthal order k: polar holds the even-k rows (the first
    n_even) then the odd-k rows, slot scatters coefficients into that row
    order, and azimuth_t is (even rows, odd rows) of the azimuth table on
    the first n_phi/2 azimuths, transposed.  pair_weights[g] is the summed
    weight of a primary point and its antipode (2 w for even l, exactly 0
    for odd l); when ``centre`` is set, the last primary ring is its own
    antipodal image and only its first n_phi/2 points are primary.
    """

    sigma: float
    polar: np.ndarray
    n_even: int
    azimuth_t: tuple[np.ndarray, np.ndarray]
    slot: np.ndarray
    pair_weights: np.ndarray
    centre: bool


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
    w = grid.ring_weights[:primary]
    return _Rings(sigma=math.sqrt(sphere_surface(d) / basis.size),
                  polar=polar[order], n_even=n_even,
                  azimuth_t=(np.ascontiguousarray(azimuth[:n_even].T),
                             np.ascontiguousarray(azimuth[n_even:].T)),
                  slot=slot - slot % width + row[slot % width],
                  pair_weights=w + (-1.0) ** l * w, centre=n_rings % 2 == 1)


# Bytes of one tile's two half-ring products te and to (n_phi/2 azimuths x
# realizations x rings each): the pair and its sign arrays stay in L2
# (2 MB per core on the reference box) while they are reduced to ring
# counts.  Swept on the split, azimuth-major tile with one worker per core
# over a 1-thread BLAS (2-core Xeon), 256 KB / 512 KB / 1 MB / 2 MB tiles
# took 1.90 / 1.22 / 0.90 / 0.93 s at l = 40 on S^2 (2000 realizations)
# and 1.80 / 1.05 / 0.62 / 0.63 s at l = 4 on S^3 (5000): smaller tiles
# pay per-call overhead, larger ones leave L2.
_TILE = 1 << 20


def _ring_defects(rings: _Rings, a: np.ndarray,
                  values: np.ndarray | None = None) -> np.ndarray:
    """Defects of the fields with coefficient rows ``a``, tile by tile.

    On the uniform azimuth rule phi_j + pi = phi_(j + n_phi/2), where the
    azimuth row of order k picks up (-1)^k.  So with te and to the sums of
    the even-k and odd-k rows over the first n_phi/2 azimuths, a ring is
    T = te + to on its first half and T = te - to on its second.  A tile is
    two dgemms, azimuth-major: (n_phi/2, n_even) and (n_phi/2, n_odd) half
    tables times the ring coefficients of realizations x rings columns.
    Its signs are counted from comparisons, since fl(a + b) > 0 exactly
    when a > -b under gradual underflow, so T is never formed: the count
    of a column is the int16 sum over axis 0 of sign(te + to) and, except
    on a centre ring, sign(te - to); |count| <= n_phi <= 2828 under the
    grid's 4M-point budget, so int16 cannot overflow.  The defect is the
    fixed-order sum of counts times pair weights, so it depends on neither
    the tiling nor the batch a realization arrives in.  With ``values`` of
    shape (R, grid rings, n_phi), T is also written on the primary rings.
    """
    width, n_l, n_rings = rings.polar.shape
    even_t, odd_t = rings.azimuth_t
    half = even_t.shape[0]
    scattered = np.zeros((a.shape[0], n_l * width))
    scattered[:, rings.slot] = a
    coeff = scattered.reshape(-1, n_l, width).transpose(2, 0, 1)
    counts = np.empty((a.shape[0], n_rings))
    tile_cols = max(1, _TILE // (16 * half))
    r_step = min(a.shape[0], tile_cols)
    g_step = max(1, tile_cols // r_step)
    for r0 in range(0, a.shape[0], r_step):
        r1 = min(r0 + r_step, a.shape[0])
        for g0 in range(0, n_rings, g_step):
            g1 = min(g0 + g_step, n_rings)
            c = np.matmul(coeff[:, r0:r1], rings.polar[:, :, g0:g1]).reshape(width, -1)
            te = even_t @ c[:rings.n_even]
            to = odd_t @ c[rings.n_even:]
            if values is not None:
                ring = (half, r1 - r0, g1 - g0)
                values[r0:r1, g0:g1, :half] = (te + to).reshape(ring).transpose(1, 2, 0)
                values[r0:r1, g0:g1, half:] = (te - to).reshape(ring).transpose(1, 2, 0)
            # sign(te - to), then sign(te + to) against to negated in place,
            # as int8 views of comparisons: several times cheaper than
            # np.sign on float64, and exact
            s = (te > to).view(np.int8) - (te < to).view(np.int8)
            if rings.centre and g1 == n_rings:
                s.reshape(half, r1 - r0, -1)[:, :, -1] = 0
            np.negative(to, out=to)
            s += (te > to).view(np.int8)
            s -= (te < to).view(np.int8)
            counts[r0:r1, g0:g1] = s.sum(axis=0, dtype=np.int16).reshape(r1 - r0, -1)
    return (counts * rings.pair_weights).sum(axis=1)


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

    def work() -> None:
        # batches from the shared iterator until it runs out or one fails
        while True:
            with lock:
                lo = None if failed else next(pending, None)
            if lo is None:
                return
            try:
                indices = range(start + lo, start + min(lo + _BATCH, n_realizations))
                a = _draws(key, indices, rings.sigma, rings.slot.size)
                defects[lo:lo + _BATCH] = _ring_defects(rings, a)
            except BaseException as exc:  # the caller re-raises the first
                failed.append(exc)

    workers = min(_cores(), len(starts))
    with _one_blas_thread() if workers > 1 else contextlib.nullcontext(False) as limited:
        threads = [threading.Thread(target=work) for _ in range(workers if limited else 1)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        except BaseException as exc:  # an interrupt: no batch starts, running ones end
            failed.insert(0, exc)
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
    _ring_defects(rings, a[None, :], values.reshape(1, -1, grid.n_phi))
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
    u = (np.arange(1, x.size + 1) - 0.5) / x.size
    return float(np.mean(np.abs(x - ndtri(u))))


def _ks_normal(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance sup |F_N - Phi| of a sample to N(0,1).

    The supremum sits at a sorted sample point z_(i), just after the jump
    (i/N - Phi) or just before it (Phi - (i-1)/N).  These are the
    operations of SciPy's two-sided kstest(z, "norm"), and specfun.ndtr is
    scipy.special.ndtr to the bit, so the value is the same to the bit.
    """
    c = ndtr(np.sort(z))
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
