"""The ten acceptance checks, runnable as a batch self-test.

Each criterion function recomputes its quantities from scratch at the
tolerances fixed below and returns a CriterionResult; run_all() executes
all ten, or a chosen subset, in order and reports one line per criterion.
The same functions back `sphdefect selftest` (through run_all) and the
acceptance test module, so there is a single source of truth for what
"passing" means.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .chaos import (c_coefficient, chaos_weights_upto, constant_estimate,
                    defect_constant_lower_bound, exact_variance, facile_check,
                    indicator_l2_sum, weight_tail_estimate)
from .harmonics import (build_basis, circulant_closed, circulant_sum,
                        gaunt_diagonal, gaunt_table, lemcg_check)
from .montecarlo import (CltConfig, _spectral_defects, clt_experiment, defect_estimate,
                         sample_field, stream)
from .specfun import gegenbauer, sphere_surface
from .spherequad import build_grid

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

_SEED = 20260813


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{status}] {self.name}: {self.detail}"


def criterion_1() -> CriterionResult:
    """c_{3;2} closed form and quadrature branch agreement."""
    closed = c_coefficient(2, 1, method="closed")
    target = 2.0 / (math.pi * math.sqrt(3.0))
    quad = c_coefficient(2, 1, method="quadrature")
    ok_closed = abs(closed - target) <= 1e-12
    ok_quad = abs(quad - closed) <= 1e-4
    return CriterionResult(
        1, "c_{3;2} closed form", ok_closed and ok_quad,
        f"closed-target {abs(closed - target):.2e} (<=1e-12), "
        f"quad-closed {abs(quad - closed):.2e} (<=1e-4)")


def criterion_2() -> CriterionResult:
    """C_d route agreement and the closed-form lower bounds."""
    s2 = constant_estimate(2, "series")
    i2 = constant_estimate(2, "integral")
    rel = abs(s2.value - i2.value) / abs(s2.value)
    bound2 = 32.0 / math.sqrt(27.0)
    ok = rel <= 1e-3 and s2.value > bound2 and i2.value > bound2
    details = [f"d=2 rel {rel:.2e} (<=1e-3), series {s2.value:.6f} "
               f"and integral {i2.value:.6f} > {bound2:.6f}"]
    for d in (3, 4, 5):
        lb = defect_constant_lower_bound(d)
        sd = constant_estimate(d, "series").value
        idv = constant_estimate(d, "integral").value
        ok = ok and sd > lb and idv > lb
        details.append(f"d={d} > {lb:.4f}")
    return CriterionResult(2, "C_d two-method agreement + lower bounds", ok,
                           "; ".join(details))


def criterion_3() -> CriterionResult:
    """l^d Var(D_l) approaches C_d at the advertised rates."""
    c2 = constant_estimate(2, "series").value
    devs2 = []
    for l in (100, 200, 400):
        v = exact_variance(2, l, tol=1e-6).value
        devs2.append(abs(l ** 2 * v - c2) / c2)
    c3 = constant_estimate(3, "series").value
    devs3 = []
    for l in (50, 100):
        v = exact_variance(3, l, tol=1e-6).value
        devs3.append(abs(l ** 3 * v - c3) / c3)
    ok = (all(dev <= 0.05 for dev in devs2)
          and devs2[0] > devs2[1] > devs2[2]
          and all(dev <= 0.10 for dev in devs3))
    return CriterionResult(
        3, "variance asymptotics", ok,
        f"d=2 devs {[f'{x:.4f}' for x in devs2]} (<=0.05, decreasing); "
        f"d=3 devs {[f'{x:.4f}' for x in devs3]} (<=0.10)")


def criterion_4() -> CriterionResult:
    """Gaunt double-sum identity residuals for the small-l set."""
    triples = {2: 4.0 / 35.0, 4: 36.0 / 1001.0}
    ok = True
    details = []
    for d, l in ((2, 2), (2, 4), (3, 2)):
        table = gaunt_table(d, l)
        res = lemcg_check(table)
        g = gaunt_diagonal(d, l)
        off = float(np.max(np.abs(res - np.diag(np.diag(res)))))
        diag_rel = float(np.max(np.abs(np.diag(res)))) / g
        ok = ok and off < 1e-9 and diag_rel < 1e-9
        details.append(f"({d},{l}) off {off:.1e} diag {diag_rel:.1e}")
        if d == 2:
            predicted = (2 * l + 1) ** 2 / (8.0 * math.pi) * triples[l]
            ok = ok and abs(g - predicted) <= 1e-9
            details.append(f"diag-vs-3j {abs(g - predicted):.1e}")
    return CriterionResult(4, "Gaunt double-sum identity", ok, "; ".join(details))


def criterion_5() -> CriterionResult:
    """Circulant sum equals its closed form; g_{l;d} growth exponent."""
    ok = True
    details = []
    for d, l in ((2, 2), (2, 4), (3, 2)):
        s = circulant_sum(gaunt_table(d, l))
        c = circulant_closed(d, l).value
        rel = abs(s - c) / c
        ok = ok and rel <= 1e-9
        details.append(f"({d},{l}) rel {rel:.1e}")
    ls = np.arange(2, 41, 2)
    for d in (2, 3):
        g = np.array([circulant_closed(d, int(l)).g for l in ls])
        slope = float(np.polyfit(np.log(ls), np.log(g), 1)[0])
        ok = ok and abs(slope - (d - 2)) <= 0.2
        details.append(f"g slope d={d}: {slope:.3f} (target {d - 2} +-0.2)")
    return CriterionResult(5, "circulant reduction", ok, "; ".join(details))


def criterion_6() -> CriterionResult:
    """Chaos-weight sum identities with tail completion."""
    total = float(np.sum(chaos_weights_upto(100_000))) + weight_tail_estimate(100_000)
    err_sum = abs(total - (1.0 - 2.0 / math.pi))
    err_ind = abs(indicator_l2_sum() - 0.25)
    ok = err_sum <= 1e-10 and err_ind <= 1e-8
    return CriterionResult(
        6, "chaos-weight identities", ok,
        f"sum w_q err {err_sum:.1e} (<=1e-10); indicator L2 err {err_ind:.1e} (<=1e-8)")


def criterion_7() -> CriterionResult:
    """Seeded Monte Carlo against the exact variance and the normal law."""
    diag = clt_experiment(2, 20, 2000, CltConfig(master_seed=_SEED))
    mean_ok = abs(diag.mean) <= 3.0 * diag.mean_se
    var_ok = abs(diag.variance - 1.0) <= 0.10
    w1_ok = diag.w1 < 0.08
    w1_8 = clt_experiment(2, 8, 2000, CltConfig(master_seed=_SEED)).w1
    w1_32 = clt_experiment(2, 32, 2000, CltConfig(master_seed=_SEED)).w1
    trend_ok = w1_32 <= w1_8
    ok = mean_ok and var_ok and w1_ok and trend_ok
    return CriterionResult(
        7, "Monte Carlo consistency", ok,
        f"|mean|/SE {abs(diag.mean) / diag.mean_se:.2f} (<=3); "
        f"|var-1| {abs(diag.variance - 1):.4f} (<=0.10); W1 {diag.w1:.4f} (<0.08); "
        f"W1(32) {w1_32:.4f} <= W1(8) {w1_8:.4f}: {trend_ok}")


def criterion_8() -> CriterionResult:
    """Odd degrees: zero variance and exactly zero sampled defects."""
    ok = True
    details = []
    for d, l in ((2, 7), (3, 9)):
        v = exact_variance(d, l)
        ok = ok and v.value == 0.0
        details.append(f"Var({d},{l}) = {v.value}")
    grid = build_grid(2, 41)
    single, batch = [], []
    for l in (5, 7):
        for i in range(25):
            s = sample_field(2, l, grid, rng=stream(_SEED, i))
            single.append(defect_estimate(s))
        batch.extend(_spectral_defects(2, l, grid, _SEED, 25))
    single_zero = all(z == 0.0 for z in single)
    batch_zero = all(z == 0.0 for z in batch)
    ok = ok and single_zero and batch_zero
    details.append(f"50 sampled defects exactly 0.0: {single_zero}; "
                   f"50 batch defects exactly 0.0: {batch_zero}")
    return CriterionResult(8, "structural zeros at odd degree", ok, "; ".join(details))


def criterion_9() -> CriterionResult:
    """Appendix factorial inequalities over the full (q, p) box."""
    results = [facile_check(q, p) for q in range(1, 7) for p in range(q, 7)]
    ok = all(r.holds for r in results)
    return CriterionResult(
        9, "exact integer inequalities", ok,
        f"{sum(r.holds for r in results)}/{len(results)} (q,p) pairs hold")


def criterion_10() -> CriterionResult:
    """Addition formula and orthonormality of every built basis."""
    rng = np.random.default_rng(_SEED)
    worst_add = 0.0
    worst_gram = 0.0
    for d, lmax in ((2, 8), (3, 4)):
        for l in range(1, lmax + 1):
            basis = build_basis(d, l)
            grid = build_grid(d, max(2 * l, 2))
            # the Gram matrix as a ring sum, as gaunt_table sums triple products
            polar, azimuth, slot = basis.ring_factors(grid.ring_nodes, grid.n_phi)
            m = slot % (2 * l + 1)
            p, az = polar[m, slot // (2 * l + 1)], azimuth[m]
            gram = (az @ az.T) * ((p * grid.ring_weights) @ p.T)
            worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(basis.size)))))
            x = rng.standard_normal((100, d + 1))
            x /= np.linalg.norm(x, axis=1)[:, None]
            y = rng.standard_normal((100, d + 1))
            y /= np.linalg.norm(y, axis=1)[:, None]
            bx, by = basis.evaluate(x), basis.evaluate(y)
            lhs = sphere_surface(d) / basis.size * np.sum(bx * by, axis=0)
            rhs = gegenbauer(d, l, np.clip(np.sum(x * y, axis=1), -1.0, 1.0))
            worst_add = max(worst_add, float(np.max(np.abs(lhs - rhs))))
    ok = worst_add < 1e-10 and worst_gram < 1e-10
    return CriterionResult(
        10, "basis integrity", ok,
        f"addition-formula residual {worst_add:.1e} (<1e-10); "
        f"Gram residual {worst_gram:.1e} (<1e-10)")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(report=print, criteria=None) -> list[CriterionResult]:
    """Run the criteria in order, reporting one line per criterion.

    ``criteria`` is a collection of 1-based criterion numbers (default all
    ten); each reported line ends with the criterion's wall time.
    """
    chosen = CRITERIA
    if criteria is not None:
        bad = set(criteria) - set(range(1, len(CRITERIA) + 1))
        if bad:
            raise ValueError(f"unknown criteria {sorted(bad)}")
        chosen = tuple(fn for i, fn in enumerate(CRITERIA, 1) if i in criteria)
    results = []
    for fn in chosen:
        t0 = time.perf_counter()
        res = fn()
        res = CriterionResult(res.index, res.name, res.passed, res.detail,
                              elapsed=time.perf_counter() - t0)
        results.append(res)
        if report is not None:
            report(f"{res.line()}  [{res.elapsed:.1f}s]")
    return results
