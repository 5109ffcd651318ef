"""Command-line front-end.

Every capability is exposed as a subcommand with machine-readable output:
JSON documents carry a top-level ``"schema": "mdpcal/1"`` key, CSV is
RFC-4180 style with a header row.  Reals are printed with 6 significant
digits by default (``--precision`` overrides).  Exit codes: 0 success,
1 usage error, 2 numeric/domain error.  The MDPCAL_SEED environment variable
overrides the seed of any seeded subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import __version__
from .calibrators import (calibrate_chi2, calibrate_contingency,
                          calibrate_fisher, calibrate_ks, calibrate_sign,
                          emit_tables, plugin_threshold, write_tables)
from .errors import DomainError
from .gof_stats import parse_counts, parse_reals
from .risk_core import CalibrationProblem, numeric_minimiser, regime_series
from .sanov_rates import (DecaySpec, bahadur_slopes, distinguishability_radius,
                          half_space_rate, load_half_space,
                          mdp_truncation_level)
from .triangulation import evidence_bundle

SCHEMA = "mdpcal/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _round(value, precision: int):
    """Round floats to the requested significant digits, recursively."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.{precision}g}")
    if isinstance(value, dict):
        return {k: _round(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v, precision) for v in value]
    return value


def _emit_json(payload: dict, args) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(_round(payload, args.precision)))


def _emit_csv(header, rows, args, out=None) -> None:
    out = out or sys.stdout
    out.write(",".join(header) + "\r\n")
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.{args.precision}g}")
            else:
                cells.append(str(v))
        out.write(",".join(cells) + "\r\n")


def _seed_override(seed: int) -> int:
    env = os.environ.get("MDPCAL_SEED")
    if env is None:
        return seed
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"MDPCAL_SEED must be an integer, got {env!r}") from None


def _report_payload(report) -> dict:
    return {
        "setting": report.setting,
        "a_star": report.a_star,
        "t_star": report.t_star,
        "alpha_star": report.alpha_star,
        "risk_star": report.risk_star,
        "params": dict(report.params),
    }


# calibrate setting -> (calibrator, the flags it takes before --n)
_CALIBRATORS = {
    "ks": (calibrate_ks, ("kappa",)),
    "sign": (calibrate_sign, ("lambda",)),
    "chi2": (calibrate_chi2, ("k",)),
    "contingency": (calibrate_contingency, ("r", "c")),
    "fisher": (calibrate_fisher, ("lambda", "d")),
}


def _cmd_calibrate(args) -> int:
    calibrator, flags = _CALIBRATORS[args.setting]
    values = [getattr(args, flag) for flag in flags]
    for flag, value in zip(flags, values):
        if value is None:
            raise UsageError(f"calibrate {args.setting} requires --{flag}")
    report = calibrator(*values, args.n)

    if args.csv:
        flat = _report_payload(report)
        params = flat.pop("params")
        flat.update(params)
        _emit_csv(list(flat.keys()), [list(flat.values())], args)
    else:
        _emit_json(_report_payload(report), args)
    return 0


def _cmd_risk_curve(args) -> int:
    problem = CalibrationProblem(rho=args.rho, kappa=args.kappa, n=args.n)
    curve = numeric_minimiser(problem, args.a_min, args.a_max, points=args.points)
    if args.json:
        _emit_json({
            "rho": args.rho, "kappa": args.kappa, "n": args.n,
            "argmin_a": curve.argmin_a, "min_risk": curve.min_risk,
            "grid": [list(pt) for pt in curve.grid],
        }, args)
    else:
        _emit_csv(["a", "type1", "type2", "total"], [list(pt) for pt in curve.grid], args)
    return 0


def _cmd_regimes(args) -> int:
    n_values = parse_reals(args.n_list)
    problem = CalibrationProblem(rho=args.rho, kappa=args.kappa, n=max(n_values[0], 2))
    series = regime_series(problem, n_values, args.alpha)
    if args.json:
        _emit_json({"rho": args.rho, "kappa": args.kappa, "fixed_alpha": args.alpha,
                    "series": {k: [list(p) for p in v] for k, v in series.items()}}, args)
    else:
        rows = [[regime, n, risk] for regime in ("clt", "mdp", "ldp")
                for n, risk in series[regime]]
        _emit_csv(["regime", "n", "risk"], rows, args)
    return 0


def _cmd_tables(args) -> int:
    written = write_tables(emit_tables(), args.out_dir)
    for path in written:
        print(path)
    return 0


def _cmd_sanov(args) -> int:
    solution = half_space_rate(load_half_space(args.input))
    _emit_json({
        "rate": solution.rate,
        "t_star": solution.t_star,
        "tilted_probs": list(solution.tilted_probs) if solution.tilted_probs else None,
        "status": solution.status,
    }, args)
    return 0


def _cmd_truncation(args) -> int:
    _emit_json({"kappa": args.kappa, "n": args.n,
                "level": mdp_truncation_level(args.kappa, args.n)}, args)
    return 0


def _cmd_radius(args) -> int:
    if args.poly is not None:
        decay = DecaySpec.polynomial(args.poly)
    else:
        decay = DecaySpec.exponential(args.exp)
    _emit_json({"rho": args.rho, "n": args.n, "regime": decay.kind, "c": decay.c,
                "radius": distinguishability_radius(args.rho, decay, args.n)}, args)
    return 0


def _cmd_slopes(args) -> int:
    thetas = parse_reals(args.theta_list)
    rows = []
    for theta in thetas:
        s = bahadur_slopes(theta)
        rows.append({"theta": theta, "c_sign": s.c_sign, "c_lrt": s.c_lrt,
                     "c_med": s.c_med, "c_med_local_approx": s.c_med_local_approx})
    if args.csv:
        _emit_csv(["theta", "c_sign", "c_lrt", "c_med", "c_med_local_approx"],
                  [list(r.values()) for r in rows], args)
    else:
        _emit_json({"slopes": rows}, args)
    return 0


def _cmd_triangulate(args) -> int:
    counts = parse_counts(args.counts)
    theta0 = parse_reals(args.theta0)
    bundle = evidence_bundle(counts, theta0, prior_concentration=args.dirichlet)
    _emit_json({
        "counts": list(counts.counts),
        "theta0": list(bundle.theta0),
        "n": counts.n,
        "k": counts.k,
        "dirichlet": args.dirichlet,
        "d_kl": bundle.d_kl,
        "w_good": bundle.w_good,
        "w_exact": bundle.w_exact,
        "lambda_n": bundle.lambda_n,
        "pearson": bundle.pearson,
        "entropy_deficit": bundle.entropy_deficit,
        "cross_term": bundle.cross_term,
    }, args)
    return 0


def _cmd_mc(args) -> int:
    # mc_engine pulls in numpy; only the Monte-Carlo subcommands import it.
    from .mc_engine import RNG_STREAM, load_mc_config, mc_bayes_risk
    run = load_mc_config(args.config)
    cfg = dataclasses.replace(run.config, seed=_seed_override(run.config.seed))
    result = mc_bayes_risk(run.prior, cfg, run.statistic, w0=run.w0, w1=run.w1)
    if args.json:
        _emit_json({
            "statistic": result.statistic,
            "seed": result.seed,
            "rng_stream": RNG_STREAM,
            "argmin_threshold": result.argmin_threshold,
            "thresholds": list(result.thresholds),
            "alpha_hat": list(result.alpha_hat),
            "se_alpha": list(result.se_alpha),
            "beta_hat": list(result.beta_hat),
            "se_beta": list(result.se_beta),
            "risk_hat": list(result.risk_hat),
        }, args)
        return 0
    rows = list(zip(result.thresholds, result.alpha_hat, result.se_alpha,
                    result.beta_hat, result.se_beta, result.risk_hat))
    header = ["threshold", "alpha_hat", "se_alpha", "beta_hat", "se_beta", "risk_hat"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _emit_csv(header, rows, args, out=fh)
    else:
        _emit_csv(header, rows, args)
    return 0


def _cmd_prior_exponent(args) -> int:
    from .mc_engine import RNG_STREAM, estimate_prior_exponent, load_exponent_config
    run = load_exponent_config(args.config)
    seed = _seed_override(run.seed)
    fit = estimate_prior_exponent(run.prior, run.radii, run.m, seed)
    _emit_json({"kappa_hat": fit.kappa_hat, "intercept": fit.intercept,
                "r2": fit.r2, "m": run.m, "seed": seed, "rng_stream": RNG_STREAM,
                "radii": list(run.radii)}, args)
    return 0


def _cmd_plugin(args) -> int:
    _emit_json({"kappa_hat": args.kappa_hat, "rho": args.rho, "n": args.n,
                "threshold": plugin_threshold(args.kappa_hat, args.rho, args.n)}, args)
    return 0


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--precision", type=int, default=6,
                        help="significant digits for printed reals (default 6)")

    parser = _Parser(prog="mdpcal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mdpcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("calibrate", parents=[common],
                       help="Bayes-optimal threshold for one test setting")
    p.add_argument("setting", choices=list(_CALIBRATORS))
    p.add_argument("--kappa", type=float, help="prior mass exponent (ks)")
    p.add_argument("--lambda", type=float, help="prior density exponent (sign, fisher)")
    p.add_argument("--k", type=int, help="number of categories (chi2)")
    p.add_argument("--r", type=int, help="row categories (contingency)")
    p.add_argument("--c", type=int, help="column categories (contingency)")
    p.add_argument("--d", type=int, help="parameter dimension (fisher)")
    p.add_argument("--n", type=int, required=True, help="sample size")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--csv", action="store_true", default=False)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("risk-curve", parents=[common],
                       help="deterministic risk curve over the threshold parameter a")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a-min", type=float, default=None)
    p.add_argument("--a-max", type=float, default=None)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_risk_curve)

    p = sub.add_parser("regimes", parents=[common],
                       help="CLT/MDP/LDP risk series over sample sizes")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n-list", type=str, required=True,
                   help="comma-separated sample sizes, increasing")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_regimes)

    p = sub.add_parser("tables", parents=[common],
                       help="regenerate every threshold table (CSV + JSON)")
    p.add_argument("--out-dir", type=str, default="tables")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("sanov", parents=[common],
                       help="half-space KL rate by exponential tilting")
    p.add_argument("--input", type=str, required=True,
                   help="JSON file with support/probs/phi")
    p.set_defaults(func=_cmd_sanov)

    p = sub.add_parser("truncation", parents=[common],
                       help="MDP truncation level (kappa/2) ln n / n")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_truncation)

    p = sub.add_parser("radius", parents=[common],
                       help="distinguishability radius for a Type-I decay target")
    p.add_argument("--rho", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", type=float, metavar="C",
                       help="polynomial decay n^-C")
    group.add_argument("--exp", type=float, metavar="C",
                       help="exponential decay exp(-C n)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("slopes", parents=[common],
                       help="Bahadur slopes of the sign/LRT/median tests")
    p.add_argument("--theta-list", type=str, required=True,
                   help="comma-separated alternative locations")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("triangulate", parents=[common],
                       help="all five evidence measures for a count vector")
    p.add_argument("--counts", type=str, required=True,
                   help="comma-separated integer counts, e.g. 7,3")
    p.add_argument("--theta0", type=str, required=True,
                   help="comma-separated null probabilities")
    p.add_argument("--dirichlet", type=float, default=1.0,
                   help="symmetric Dirichlet concentration (default 1)")
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("mc", parents=[common],
                       help="Monte-Carlo Bayes risk over a threshold grid")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None, help="write CSV here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("prior-exponent", parents=[common],
                       help="estimate the local prior mass exponent")
    p.add_argument("--config", type=str, required=True)
    p.set_defaults(func=_cmd_prior_exponent)

    p = sub.add_parser("plugin", parents=[common],
                       help="plug-in threshold sqrt(kappa_hat/(4 rho) ln n)")
    p.add_argument("--kappa-hat", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_plugin)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
