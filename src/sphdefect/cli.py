"""Batch command-line front end.

Every computation in the package is reachable through a subcommand, each
run embeds its full configuration in the output header, and `selftest`
replays the acceptance suite.  Exit codes: 0 success, 1 computational
diagnostic failure (a check the run itself performs, such as two-method
disagreement beyond the combined error estimates), 2 usage error.

Output conventions:

* CSV: `#`-prefixed header lines (package version, optional timestamp,
  the config as one JSON object), then a column-name line, then rows.
  Floats are printed with 17 significant digits so values round-trip.
* JSON: an object with "config", optional "timestamp", and the payload.
  `constant` and `lemcg` return one object rather than a table, so they
  offer JSON only; `--format csv` there is a usage error.
* Same configuration, same package version: byte-identical output once
  the timestamp is suppressed with --no-timestamp.
* A relative --output path is resolved under $SPHDEFECT_OUTPUT_DIR when
  that variable is set; absolute paths and stdout are left alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import math
import os
import sys

from . import __version__
from .chaos import (_c_quadrature, c_coefficient, constant_estimate,
                    defect_constant_lower_bound, exact_variance, facile_check)
from .harmonics import circulant_closed, circulant_sum, gaunt_diagonal, \
    gaunt_table, lemcg_check
from .montecarlo import CltConfig, clt_experiment
from .spherequad import gegenbauer_moment

__all__ = ["main"]

_ENV_OUTPUT_DIR = "SPHDEFECT_OUTPUT_DIR"

# header keys of every run, null where a subcommand has no such flag
_SHARED_KEYS = ("command", "d", "l", "l_range", "q", "q_range", "tol", "seed",
                "n_realizations", "grid_degree", "output", "fmt")


def _run_config(args: argparse.Namespace) -> dict:
    """Every parsed flag of the run under its header key (--n is
    n_realizations); --no-timestamp only shapes the output."""
    config = dict.fromkeys(_SHARED_KEYS)
    for key, value in vars(args).items():
        if key not in ("fn", "no_timestamp"):
            config["n_realizations" if key == "n" else key] = value
    return config


def _parse_range(text: str) -> list[int]:
    """Parse `a:b:step` (or `a:b`, step 1) into an inclusive integer list."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"range must be a:b or a:b:step, got {text!r}")
    a, b = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step <= 0 or b < a:
        raise ValueError(f"range must be increasing with positive step, got {text!r}")
    return list(range(a, b + 1, step))


def _values_from(scalar: int | None, rng: str | None, flag: str) -> list[int]:
    if (scalar is None) == (rng is None):
        raise ValueError(f"exactly one of --{flag} and --{flag}-range is required")
    return [scalar] if scalar is not None else _parse_range(rng)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class _Writer:
    """Collects one run's output and emits it as CSV or JSON."""

    def __init__(self, config: dict, timestamp: bool):
        self.config = config
        self.stamp = (datetime.datetime.now(datetime.timezone.utc).isoformat()
                      if timestamp else None)
        self.columns: list[str] | None = None
        self.rows: list[list] = []
        self.payload = None

    def table(self, columns, rows):
        self.columns = list(columns)
        self.rows = [list(r) for r in rows]

    def render(self) -> str:
        if self.config["fmt"] == "json":
            doc = {"package": f"sphdefect {__version__}", "config": self.config}
            if self.stamp is not None:
                doc["timestamp"] = self.stamp
            if self.payload is not None:
                doc["result"] = self.payload
            else:
                doc["result"] = [dict(zip(self.columns, r)) for r in self.rows]
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
        header = [f"# sphdefect {__version__}"]
        if self.stamp is not None:
            header.append(f"# timestamp: {self.stamp}")
        # sorted keys + compact separators: the header must be reproducible
        config = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        header.append(f"# config: {config}")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([_fmt(x) for x in r] for r in self.rows)
        return "\n".join(header) + "\n" + buf.getvalue()


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(_ENV_OUTPUT_DIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _deliver(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns the process exit code


def _cmd_variance(args, out: _Writer) -> int:
    ls = _values_from(args.l, args.l_range, "l")
    rows = []
    missed = []
    for l in ls:
        r = exact_variance(args.d, l, tol=args.tol, q_max=args.q_max)
        rows.append([l, r.value, l ** args.d * r.value, r.tail_bound,
                     r.q_used, r.tol_achieved])
        if not r.tol_achieved:
            missed.append(l)
    out.table(["l", "variance", "l_pow_d_variance", "tail_bound",
               "q_used", "tol_achieved"], rows)
    if missed:
        print(f"note: tolerance {args.tol:g} not certified at l={missed}; "
              "tail_bound column gives the certified bracket width", file=sys.stderr)
    return 0


def _cmd_constant(args, out: _Writer) -> int:
    lb = defect_constant_lower_bound(args.d)
    methods = ["series", "integral"] if args.method == "both" else [args.method]
    estimates = {m: constant_estimate(args.d, m, q_terms=args.q_terms,
                                      n_lobes=args.n_lobes) for m in methods}
    payload = {m: dataclasses.asdict(e) for m, e in estimates.items()}
    payload["lower_bound"] = lb
    status = 0
    if len(estimates) == 2:
        s, i = estimates["series"], estimates["integral"]
        disagreement = abs(s.value - i.value)
        combined = s.error_estimate + i.error_estimate
        payload["disagreement"] = disagreement
        payload["combined_error_estimate"] = combined
        payload["consistent"] = disagreement <= combined
        if not payload["consistent"]:
            print(f"diagnostic: methods disagree by {disagreement:.3e} "
                  f"> combined error estimate {combined:.3e}", file=sys.stderr)
            status = 1
    for m, e in estimates.items():
        if not e.value > lb:
            print(f"diagnostic: {m} value {e.value!r} does not exceed "
                  f"the lower bound {lb!r}", file=sys.stderr)
            status = 1
    payload["exceeds_lower_bound"] = all(e.value > lb for e in estimates.values())
    out.payload = payload
    return status


def _cmd_ccoef(args, out: _Writer) -> int:
    qs = _values_from(args.q, args.q_range, "q")
    if args.method == "quadrature":
        # one power chain for the increasing orders, values as c_coefficient's
        values, errors = _c_quadrature(args.d, qs)
        rows = [[q, float(v), float(e)] for q, v, e in zip(qs, values, errors)]
    else:
        rows = [[q, *c_coefficient(args.d, q, method=args.method, full_output=True)]
                for q in qs]
    out.table(["q", "c", "error_estimate"], rows)
    return 0


def _cmd_gaunt(args, out: _Writer) -> int:
    table = gaunt_table(args.d, args.l)
    text = table.to_text()
    _deliver(text, _resolve_output(args.output))
    n_triples = text.count("\n") - 1
    print(f"gaunt table d={args.d} l={args.l}: {n_triples} canonical nonzero "
          f"triples, quadrature exactness {table.exactness}", file=sys.stderr)
    return 0


def _cmd_lemcg(args, out: _Writer) -> int:
    import numpy as np
    table = gaunt_table(args.d, args.l)
    res = lemcg_check(table)
    g = gaunt_diagonal(args.d, args.l)
    off = float(np.max(np.abs(res - np.diag(np.diag(res)))))
    diag_rel = float(np.max(np.abs(np.diag(res)))) / g
    passed = off < 1e-9 and diag_rel < 1e-9
    out.payload = {"d": args.d, "l": args.l, "g": g,
                   "max_offdiag_residual": off,
                   "max_diag_relative_error": diag_rel,
                   "threshold": 1e-9, "pass": passed}
    if not passed:
        print(f"diagnostic: identity residuals off={off:.3e} "
              f"diag_rel={diag_rel:.3e} exceed 1e-9", file=sys.stderr)
    return 0 if passed else 1


def _cmd_circulant(args, out: _Writer) -> int:
    ls = _values_from(args.l, args.l_range, "l")
    rows = []
    status = 0
    for l in ls:
        closed = circulant_closed(args.d, l)
        s = circulant_sum(gaunt_table(args.d, l))
        rel = abs(s - closed.value) / abs(closed.value)
        rows.append([l, s, closed.value, rel, closed.g])
        if rel > 1e-9:
            print(f"diagnostic: l={l} sum/closed relative error {rel:.3e} "
                  "> 1e-9", file=sys.stderr)
            status = 1
    out.table(["l", "sum", "closed_form", "rel_err", "g"], rows)
    return status


def _cmd_mc_clt(args, out: _Writer) -> int:
    ls = _values_from(args.l, args.l_range, "l")
    kept = [l for l in ls if l % 2 == 0]
    for l in ls:
        if l % 2:
            print(f"note: skipping odd l={l} (defect is identically zero)",
                  file=sys.stderr)
    if not kept:
        raise ValueError("no even l values to run")
    cfg = CltConfig(master_seed=args.seed, grid_degree=args.grid_degree)
    columns = ["l", "n_realizations", "mean", "mean_se", "variance",
               "variance_se", "exact_variance", "w1", "ks", "grid_degree"]
    rows = []
    for l in kept:
        diag = clt_experiment(args.d, l, args.n, cfg)
        rows.append([l, diag.n_realizations, diag.mean, diag.mean_se,
                     diag.variance, diag.variance_se, diag.exact_var,
                     diag.w1, diag.ks, diag.grid_degree])
        if args.dump_realizations is not None:
            scale = math.sqrt(diag.exact_var)
            dump_cfg = dict(out.config, l=l, l_range=None, output=None,
                            grid_degree=diag.grid_degree, fmt="csv")
            dump = _Writer(dump_cfg, timestamp=out.stamp is not None)
            dump.table(["realization", "defect", "normalized_defect"],
                       [[i, x, x / scale] for i, x in enumerate(diag.defects)])
            path = _resolve_output(args.dump_realizations)
            root, ext = os.path.splitext(path)
            _deliver(dump.render(), f"{root}_l{l}{ext or '.csv'}"
                     if len(kept) > 1 else path)
    out.table(columns, rows)
    return 0


def _cmd_moments(args, out: _Writer) -> int:
    ks = _values_from(args.k, args.k_range, "k")
    rows = [[k, gegenbauer_moment(args.d, args.l, k, range=args.range)]
            for k in ks]
    out.table(["k", "moment"], rows)
    return 0


def _cmd_facile(args, out: _Writer) -> int:
    if args.q is not None:
        pairs = [(args.q, args.p if args.p is not None else args.q)]
    else:
        qmax = args.q_max
        pairs = [(q, p) for q in range(1, qmax + 1) for p in range(q, qmax + 1)]
    rows = []
    status = 0
    for q, p in pairs:
        r = facile_check(q, p)
        rows.append([r.q, r.p, r.lhs_first, r.rhs_first, r.holds_first,
                     r.lhs_second, r.rhs_second, r.holds_second])
        if not r.holds:
            print(f"diagnostic: inequality fails at q={q} p={p}",
                  file=sys.stderr)
            status = 1
    out.table(["q", "p", "lhs_diag", "rhs_diag", "holds_diag",
               "lhs_cross", "rhs_cross", "holds_cross"], rows)
    return status


def _cmd_selftest(args, out: _Writer) -> int:
    from .acceptance import run_all
    wanted = None
    if args.criteria:
        wanted = {int(t) for t in args.criteria.split(",")}
    results = run_all(report=lambda line: print(line, file=sys.stderr),
                      criteria=wanted)
    out.table(["criterion", "name", "passed", "detail"],
              [[r.index, r.name, r.passed, r.detail] for r in results])
    failed = [r.index for r in results if not r.passed]
    if failed:
        print(f"selftest: criteria {failed} FAILED", file=sys.stderr)
        return 1
    print(f"selftest: all {len(results)} criteria passed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphdefect",
        description="Defect variance, constants, Gaunt identities, and "
                    "Monte Carlo diagnostics for random hyperspherical "
                    "harmonics.")
    parser.add_argument("--version", action="version",
                        version=f"sphdefect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("csv", "json")):
        # the first format is the default; a payload (one JSON object, no
        # table) has no CSV form, so those commands offer json only
        p.add_argument("--output", "-o", default=None,
                       help="output file (default stdout); relative paths "
                            f"resolve under ${_ENV_OUTPUT_DIR} when set")
        p.add_argument("--format", dest="fmt", choices=formats,
                       default=formats[0])
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp header line so reruns are "
                            "byte-identical")

    p = sub.add_parser("variance", help="exact defect variance over degrees")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--l-range", help="a:b or a:b:step, inclusive")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--q-max", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_variance)

    p = sub.add_parser("constant", help="asymptotic variance constant C_d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("series", "integral", "both"),
                   default="both")
    p.add_argument("--q-terms", type=int, default=400)
    p.add_argument("--n-lobes", type=int, default=72)
    common(p, formats=("json",))
    p.set_defaults(fn=_cmd_constant)

    p = sub.add_parser("ccoef", help="chaos coefficients c_{2q+1;d}")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--q-range", help="a:b or a:b:step, inclusive")
    p.add_argument("--method", choices=("quadrature", "closed"),
                   default="quadrature")
    common(p)
    p.set_defaults(fn=_cmd_ccoef)

    p = sub.add_parser("gaunt", help="cubic coupling table in text format")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--output", "-o", default=None)
    # accepted like every command's; the table has no timestamp line
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(fn=_cmd_gaunt, fmt="csv", no_timestamp=True)

    p = sub.add_parser("lemcg", help="Gaunt double-sum identity residuals")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    common(p, formats=("json",))
    p.set_defaults(fn=_cmd_lemcg)

    p = sub.add_parser("circulant", help="circulant diagram sum vs closed form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--l-range", help="a:b or a:b:step, inclusive")
    common(p)
    p.set_defaults(fn=_cmd_circulant)

    p = sub.add_parser("mc-clt", help="seeded Monte Carlo CLT diagnostics")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--l-range", help="a:b or a:b:step; odd l are skipped")
    p.add_argument("--n", type=int, default=2000, help="realization count")
    p.add_argument("--seed", type=int, default=20260813)
    p.add_argument("--grid-degree", type=int, default=None,
                   help="override the grid exactness degree")
    p.add_argument("--dump-realizations", default=None, metavar="PATH",
                   help="also write per-realization defects as CSV")
    common(p, formats=("json", "csv"))
    p.set_defaults(fn=_cmd_mc_clt)

    p = sub.add_parser("moments", help="Gegenbauer power moments")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--k-range", help="a:b or a:b:step, inclusive")
    p.add_argument("--range", choices=("half", "full"), default="half")
    common(p)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("facile", help="exact factorial-inequality checks")
    p.add_argument("--q", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q-max", type=int, default=6,
                   help="check all 1 <= q <= p <= q-max when --q is absent")
    common(p)
    p.set_defaults(fn=_cmd_facile)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", default=None,
                   help="comma-separated subset, e.g. 1,6,9")
    common(p)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = _Writer(_run_config(args), timestamp=not args.no_timestamp)
    try:
        status = args.fn(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return 1
    if args.command != "gaunt":
        _deliver(out.render(), _resolve_output(args.output))
    return status


if __name__ == "__main__":
    sys.exit(main())
