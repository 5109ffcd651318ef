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
from .calibrators import SETTINGS, emit_tables, plugin_threshold, write_tables
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


def _emit_csv(header, rows, precision: int, out) -> None:
    out.write(",".join(header) + "\r\n")
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.{precision}g}")
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


# Each handler only computes: it returns (JSON payload, CSV table or None),
# a table being (header, rows).  main() alone prints.

def _calibrate(args):
    setting = SETTINGS[args.setting]
    values = [getattr(args, flag) for flag in setting.flags]
    for flag, value in zip(setting.flags, values):
        if value is None:
            raise UsageError(f"calibrate {args.setting} requires --{flag}")
    report = setting.calibrator(*values, args.n)
    head = {"setting": report.setting, "a_star": report.a_star, "t_star": report.t_star,
            "alpha_star": report.alpha_star, "risk_star": report.risk_star}
    params = dict(report.params)
    flat = {**head, **params}
    return {**head, "params": params}, (list(flat), [list(flat.values())])


def _risk_curve(args):
    problem = CalibrationProblem(rho=args.rho, kappa=args.kappa, n=args.n)
    curve = numeric_minimiser(problem, args.a_min, args.a_max, points=args.points)
    return ({"rho": args.rho, "kappa": args.kappa, "n": args.n, "argmin_a": curve.argmin_a,
             "min_risk": curve.min_risk, "grid": curve.grid},
            (["a", "type1", "type2", "total"], curve.grid))


def _regimes(args):
    n_values = parse_reals(args.n_list)
    problem = CalibrationProblem(rho=args.rho, kappa=args.kappa, n=max(n_values[0], 2))
    series = regime_series(problem, n_values, args.alpha)
    rows = [[regime, n, risk] for regime in ("clt", "mdp", "ldp") for n, risk in series[regime]]
    return ({"rho": args.rho, "kappa": args.kappa, "fixed_alpha": args.alpha, "series": series},
            (["regime", "n", "risk"], rows))


def _tables(args):
    return write_tables(emit_tables(), args.out_dir), None


def _sanov(args):
    solution = half_space_rate(load_half_space(args.input))
    return {"rate": solution.rate, "t_star": solution.t_star,
            "tilted_probs": solution.tilted_probs or None, "status": solution.status}, None


def _truncation(args):
    return {"kappa": args.kappa, "n": args.n,
            "level": mdp_truncation_level(args.kappa, args.n)}, None


def _radius(args):
    decay = (DecaySpec.polynomial(args.poly) if args.poly is not None
             else DecaySpec.exponential(args.exp))
    return {"rho": args.rho, "n": args.n, "regime": decay.kind, "c": decay.c,
            "radius": distinguishability_radius(args.rho, decay, args.n)}, None


def _slopes(args):
    header = ["theta", "c_sign", "c_lrt", "c_med", "c_med_local_approx"]
    rows = [[theta, *bahadur_slopes(theta)] for theta in parse_reals(args.theta_list)]
    return {"slopes": [dict(zip(header, row)) for row in rows]}, (header, rows)


def _triangulate(args):
    counts = parse_counts(args.counts)
    bundle = evidence_bundle(counts, parse_reals(args.theta0),
                             prior_concentration=args.dirichlet)
    return {"counts": counts.counts, "theta0": bundle.theta0, "n": counts.n, "k": counts.k,
            "dirichlet": args.dirichlet, "d_kl": bundle.d_kl, "w_good": bundle.w_good,
            "w_exact": bundle.w_exact, "lambda_n": bundle.lambda_n, "pearson": bundle.pearson,
            "entropy_deficit": bundle.entropy_deficit, "cross_term": bundle.cross_term}, None


def _mc(args):
    # mc_engine pulls in numpy; only the Monte-Carlo subcommands import it.
    from .mc_engine import RNG_STREAM, load_mc_config, mc_bayes_risk
    run = load_mc_config(args.config)
    cfg = dataclasses.replace(run.config, seed=_seed_override(run.config.seed))
    result = mc_bayes_risk(run.prior, cfg, run.statistic, w0=run.w0, w1=run.w1)
    return ({"statistic": result.statistic, "seed": result.seed, "rng_stream": RNG_STREAM,
             "argmin_threshold": result.argmin_threshold, "thresholds": result.thresholds,
             "alpha_hat": result.alpha_hat, "se_alpha": result.se_alpha,
             "beta_hat": result.beta_hat, "se_beta": result.se_beta,
             "risk_hat": result.risk_hat},
            (["threshold", "alpha_hat", "se_alpha", "beta_hat", "se_beta", "risk_hat"],
             zip(result.thresholds, result.alpha_hat, result.se_alpha, result.beta_hat,
                 result.se_beta, result.risk_hat)))


def _prior_exponent(args):
    from .mc_engine import RNG_STREAM, estimate_prior_exponent, load_exponent_config
    run = load_exponent_config(args.config)
    seed = _seed_override(run.seed)
    fit = estimate_prior_exponent(run.prior, run.radii, run.m, seed)
    return {"kappa_hat": fit.kappa_hat, "intercept": fit.intercept, "r2": fit.r2,
            "m": run.m, "seed": seed, "rng_stream": RNG_STREAM, "radii": run.radii}, None


def _plugin(args):
    return {"kappa_hat": args.kappa_hat, "rho": args.rho, "n": args.n,
            "threshold": plugin_threshold(args.kappa_hat, args.rho, args.n)}, None


# Flags shared by several subcommands, declared once.
_N = ("--n", {"type": int, "required": True, "help": "sample size"})
_RHO = ("--rho", {"type": float, "required": True})
_KAPPA = ("--kappa", {"type": float, "required": True})
_CONFIG = ("--config", {"required": True})

# calibrate flag -> (type, description); the settings that take it come from SETTINGS.
_SETTING_FLAGS = {"kappa": (float, "prior mass exponent"),
                  "lambda": (float, "prior density exponent"),
                  "k": (int, "number of categories"), "r": (int, "row categories"),
                  "c": (int, "column categories"), "d": (int, "parameter dimension")}


def _calibrate_flags():
    # Each flag once, in order of first use in SETTINGS; its help names its settings.
    taken_by = {}
    for name, setting in SETTINGS.items():
        for flag in setting.flags:
            taken_by.setdefault(flag, []).append(name)
    return tuple((f"--{flag}", {"type": _SETTING_FLAGS[flag][0],
                                "help": f"{_SETTING_FLAGS[flag][1]} ({', '.join(settings)})"})
                 for flag, settings in taken_by.items())


# name -> (help, handler, format flag, flags).  The format flag switches to the
# other output form: --csv from the default JSON, --json from the default CSV.
_COMMANDS = {
    "calibrate": ("Bayes-optimal threshold for one test setting", _calibrate, "--csv", (
        ("setting", {"choices": list(SETTINGS)}),
        *_calibrate_flags(), _N)),
    "risk-curve": ("deterministic risk curve over the threshold parameter a", _risk_curve,
                   "--json", (_RHO, _KAPPA, _N, ("--a-min", {"type": float}),
                              ("--a-max", {"type": float}),
                              ("--points", {"type": int, "default": 512}))),
    "regimes": ("CLT/MDP/LDP risk series over sample sizes", _regimes, "--json", (
        _RHO, _KAPPA, ("--alpha", {"type": float, "required": True}),
        ("--n-list", {"required": True, "help": "comma-separated sample sizes, increasing"}))),
    "tables": ("regenerate every threshold table (CSV + JSON)", _tables, None, (
        ("--out-dir", {"default": "tables"}),)),
    "sanov": ("half-space KL rate by exponential tilting", _sanov, None, (
        ("--input", {"required": True, "help": "JSON file with support/probs/phi"}),)),
    "truncation": ("MDP truncation level (kappa/2) ln n / n", _truncation, None,
                   (_KAPPA, _N)),
    "radius": ("distinguishability radius for a Type-I decay target", _radius, None,
               (_RHO, _N)),
    "slopes": ("Bahadur slopes of the sign/LRT/median tests", _slopes, "--csv", (
        ("--theta-list", {"required": True, "help": "comma-separated alternative locations"}),)),
    "triangulate": ("all five evidence measures for a count vector", _triangulate, None, (
        ("--counts", {"required": True, "help": "comma-separated integer counts, e.g. 7,3"}),
        ("--theta0", {"required": True, "help": "comma-separated null probabilities"}),
        ("--dirichlet", {"type": float, "default": 1.0,
                         "help": "symmetric Dirichlet concentration (default 1)"}))),
    "mc": ("Monte-Carlo Bayes risk over a threshold grid", _mc, "--json", (
        _CONFIG, ("--out", {"help": "write CSV here instead of stdout"}))),
    "prior-exponent": ("estimate the local prior mass exponent", _prior_exponent, None,
                       (_CONFIG,)),
    "plugin": ("plug-in threshold sqrt(kappa_hat/(4 rho) ln n)", _plugin, None, (
        ("--kappa-hat", {"type": float, "required": True}), _RHO, _N)),
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--precision", type=int, default=6,
                        help="significant digits for printed reals (default 6)")

    parser = _Parser(prog="mdpcal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mdpcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_, _, fmt, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        if name == "calibrate":
            # --json is accepted as an alias of the default; it excludes --csv.
            group = p.add_mutually_exclusive_group()
            group.add_argument("--json", action="store_true")
            group.add_argument(fmt, action="store_true")
        elif name == "radius":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--poly", type=float, metavar="C", help="polynomial decay n^-C")
            group.add_argument("--exp", type=float, metavar="C",
                               help="exponential decay exp(-C n)")
        elif fmt:
            p.add_argument(fmt, action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _, handler, fmt, _ = _COMMANDS[args.command]
        payload, table = handler(args)
        if table is not None and (args.csv if fmt == "--csv" else not args.json):
            if getattr(args, "out", None):
                with open(args.out, "w", newline="") as fh:
                    _emit_csv(*table, args.precision, fh)
            else:
                _emit_csv(*table, args.precision, sys.stdout)
        elif args.command == "tables":
            print(*payload, sep="\n")
        else:
            print(json.dumps(_round({"schema": SCHEMA, **payload}, args.precision)))
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
