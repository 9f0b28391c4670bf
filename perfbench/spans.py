"""Spans around the calls one sphdefect module makes into another.

Used only by the traced run.  ``Tracer.install`` replaces each hooked name
(a module attribute, or a method on a class) with a wrapper that records a
span: stage, start, end and parent span.  Spans stay in memory; the
per-stage self and busy times and the exact work counts are derived from
them after the pass.

* self time of a span: its duration minus that of its direct children;
  the self times of all spans plus the unattributed remainder add up to
  the pass's wall time.
* busy time of a stage: the summed duration of its spans that have no
  ancestor of the same stage (children of other stages included).
"""

from __future__ import annotations

import time

from sphdefect import chaos, harmonics, montecarlo, specfun, spherequad

# stage -> metric kind; "self" stages report self time, the rest busy time
STAGES = {
    "specfun.gegenbauer_s": "busy",
    "specfun.bessel_kernel_s": "busy",
    "spherequad.moment_table_s": "self",
    "spherequad.rule_build_s": "busy",
    "spherequad.grid_build_s": "busy",
    "chaos.series_s": "self",
    "chaos.closed_form_s": "busy",
    "chaos.lobe_s": "self",
    "harmonics.basis_eval_s": "busy",
    "harmonics.gaunt_s": "busy",
    "montecarlo.sample_s": "self",
    "montecarlo.normalize_s": "busy",
}

COUNTS = ("specfun.recurrence_steps", "spherequad.grid_points",
          "chaos.q_used_sum", "harmonics.basis_bytes")


def _recurrence_steps(args, result):
    # GegenbauerEvaluator._recurrence(self, t): nodes x degree
    ev, t = args[0], args[1]
    return "specfun.recurrence_steps", t.size * ev.degree


def _lambda_steps(args, result):
    # gegenbauer_lambda(lam, n, t)
    return "specfun.recurrence_steps", getattr(result, "size", 1) * args[1]


def _grid_points(args, result):
    return "spherequad.grid_points", result.size


def _q_used(args, result):
    return "chaos.q_used_sum", result.q_used


def _basis_bytes(args, result):
    return "harmonics.basis_bytes", result.size * 8  # float64 n x N matrix


# (stage, owner, attribute, counter).  The same function reached through two
# modules is hooked once per binding, since each module looks up its own.
HOOKS = (
    ("specfun.gegenbauer_s", specfun.GegenbauerEvaluator, "_recurrence", _recurrence_steps),
    ("specfun.gegenbauer_s", harmonics, "gegenbauer_lambda", _lambda_steps),
    ("specfun.bessel_kernel_s", specfun.ScaledBesselKernel, "__call__", None),
    ("spherequad.moment_table_s", spherequad, "gegenbauer_moment_table", None),
    ("spherequad.moment_table_s", chaos, "gegenbauer_moment_table", None),
    ("spherequad.rule_build_s", spherequad, "gauss_legendre", None),
    ("spherequad.rule_build_s", spherequad, "fejer_rule", None),
    ("spherequad.rule_build_s", spherequad, "chebyshev_sqrt_rule", None),
    ("spherequad.rule_build_s", chaos, "gauss_legendre", None),
    ("spherequad.rule_build_s", chaos, "fejer_rule", None),
    ("spherequad.grid_build_s", spherequad, "build_grid", _grid_points),
    ("spherequad.grid_build_s", montecarlo, "build_grid", _grid_points),
    ("spherequad.grid_build_s", harmonics, "build_grid", _grid_points),
    ("chaos.series_s", chaos, "exact_variance", _q_used),
    ("chaos.series_s", montecarlo, "exact_variance", _q_used),
    ("chaos.closed_form_s", chaos, "variance_closed_form", None),
    ("chaos.lobe_s", chaos, "constant_estimate", None),
    ("chaos.lobe_s", chaos, "c_coefficient", None),
    ("harmonics.basis_eval_s", montecarlo, "build_basis", None),
    ("harmonics.basis_eval_s", harmonics.HarmonicBasis, "evaluate", None),
    ("harmonics.basis_eval_s", harmonics.HarmonicBasis, "evaluate_on_grid", _basis_bytes),
    ("harmonics.gaunt_s", harmonics, "gaunt_table", None),
    ("harmonics.gaunt_s", harmonics, "lemcg_check", None),
    ("harmonics.gaunt_s", harmonics, "gaunt_diagonal", None),
    ("harmonics.gaunt_s", harmonics, "circulant_sum", None),
    ("harmonics.gaunt_s", harmonics, "circulant_closed", None),
    ("montecarlo.sample_s", montecarlo, "clt_experiment", None),
    # outermost on montecarlo.exact_variance, so it wraps the series hook
    ("montecarlo.normalize_s", montecarlo, "exact_variance", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []     # [stage, start, end, parent index]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing = []   # hooks whose target no longer exists
        self._stack = []    # indices of open spans
        self._open = dict.fromkeys(STAGES, 0)
        self._restore = []

    def _wrap(self, stage, fn, counter):
        def traced(*args, **kwargs):
            outermost = self._open[stage] == 0
            idx = len(self.spans)
            self.spans.append([stage, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            self._open[stage] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                self._open[stage] -= 1
            # a nested call of the same stage recounts work already counted
            if counter is not None and outermost:
                key, n = counter(args, result)
                self.counts[key] += int(n)
            return result

        return traced

    def install(self):
        for stage, owner, attr, counter in HOOKS:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, self._wrap(stage, fn, counter))
            self._restore.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def summary(self, wall: float) -> dict:
        """Per-stage self/busy time and calls, and the unattributed remainder."""
        child_time = [0.0] * len(self.spans)
        for stage, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_stage = {s: {"self": 0.0, "busy": 0.0, "calls": 0} for s in STAGES}
        for i, (stage, start, end, parent) in enumerate(self.spans):
            row = per_stage[stage]
            row["self"] += (end - start) - child_time[i]
            row["calls"] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != stage:
                p = self.spans[p][3]
            if p < 0:
                row["busy"] += end - start
        attributed = sum(row["self"] for row in per_stage.values())
        return {"wall_s": wall, "stages": per_stage,
                "remainder_s": wall - attributed, "counts": dict(self.counts),
                "missing_hooks": list(self.missing)}


def layer_metrics(summary: dict, realizations: int) -> dict:
    """The per-layer metric values of one traced pass."""
    out = {stage: summary["stages"][stage][kind] for stage, kind in STAGES.items()}
    out.update(summary["counts"])
    sample_s = out["montecarlo.sample_s"]
    out["montecarlo.realizations_per_s"] = realizations / sample_s if sample_s > 0 else 0.0
    return out

