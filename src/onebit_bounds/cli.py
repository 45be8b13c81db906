"""Command-line front end: single bounds, sweeps, figure data, self tests.

Subcommands
-----------
bound        optimized training bound for one parameter point (+ rate curve)
compare      replica vs Bussgang vs known-channel rates over an SNR sweep
figure       data behind the three standard plots (CSV)
exact        enumerable small-system rates, both pipelines side by side
asymptotics  low-SNR closed forms
selftest     run the acceptance checks, one pass/fail line each

Output is CSV (default) or JSON with numbers at 12 significant digits, LF
line endings, and fully deterministic bytes for a fixed configuration.
Exit codes: 0 success, 1 invalid arguments or enumeration budget, 2 solver
non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .exact import (
    ChannelIntegration,
    EnumerationBudgetError,
    SmallSystem,
    c_bound_exact,
    mi_direct,
)
from .numerics import gauss_hermite
from .optimizer import (
    compare_sweep,
    low_snr_asymptotics,
    replica_bound,
    sweep_onebit_alpha,
)
from .replica import SolverError, SystemParams, snr_from_db

_FIGURE_ALPHAS = [float(2 ** k) for k in range(9)]
_FIGURE1_BETAS = (5.0, 10.0, 20.0)
_FIGURE2_BETAS = (4.0, 8.0)


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (1 = bad arguments)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    """Merged defaults < config file < command-line flags."""

    alpha: Optional[float] = None
    beta: Optional[float] = None
    rho: Optional[float] = None
    rho_db: Optional[float] = None
    tx: str = "linear"
    grid_step: float = 0.1
    quad_nodes: int = 128
    tol: float = 1e-10
    seed: int = 0
    out: Optional[str] = None
    format: str = "csv"
    m: Optional[int] = None
    n: Optional[int] = None
    t: Optional[int] = None
    mc_samples: Optional[int] = None
    channel_order: int = 24

    def resolved_rho(self) -> float:
        if (self.rho is None) == (self.rho_db is None):
            raise ValueError("exactly one of --rho / --rho-db must be provided")
        if self.rho is None:
            return snr_from_db(self.rho_db)
        if not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")
        return float(self.rho)


_CONFIG_FIELDS = {
    "alpha": float, "beta": float, "rho": float, "rho_db": float, "tx": str,
    "grid_step": float, "quad_nodes": int, "tol": float, "seed": int,
    "out": str, "format": str, "m": int, "n": int, "t": int, "mc_samples": int,
    "channel_order": int,
}


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _merge_config(args) -> RunConfig:
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()
    for name, cast in _CONFIG_FIELDS.items():
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name)
        if value is not None:
            setattr(cfg, name, cast(value))
    return cfg


# --- output formatting ------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_sections(sections, cfg: RunConfig) -> None:
    """sections: list of (name, header, rows).  CSV stacks the tables with a
    blank line between; JSON maps section name -> list of row objects."""
    if cfg.format == "json":
        payload = {
            name: [dict(zip(header, row)) for row in rows]
            for name, header, rows in sections
        }
        text = json.dumps(_round12(payload), indent=2, sort_keys=False) + "\n"
    else:
        blocks = []
        for _, header, rows in sections:
            lines = [",".join(header)]
            lines.extend(",".join(_fmt(v) for v in row) for row in rows)
            blocks.append("\n".join(lines))
        text = "\n\n".join(blocks) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------

def _system_params(cfg: RunConfig) -> SystemParams:
    if cfg.alpha is None or cfg.beta is None:
        raise ValueError("--alpha and --beta are required")
    return SystemParams(alpha=cfg.alpha, beta=cfg.beta, rho=cfg.resolved_rho(),
                        tx_type="onebit" if cfg.tx == "onebit" else "linear")


def _cmd_bound(args) -> int:
    cfg = _merge_config(args)
    params = _system_params(cfg)
    rule = gauss_hermite(cfg.quad_nodes)
    result, curve = replica_bound(params, cfg.grid_step, rule, cfg.tol,
                                  refine=bool(args.refine))
    sections = [
        ("result",
         ["beta_t_opt", "c_bound", "method", "alpha", "beta", "rho"],
         [[result.beta_t_opt, result.c_bound, result.method,
           params.alpha, params.beta, params.rho]]),
        ("curve",
         ["beta_t", "r_eff", "objective"],
         [list(row) for row in curve.rows()]),
    ]
    _emit_sections(sections, cfg)
    return 0


_COMPARE_HEADER = ["rho_db", "alpha", "beta", "c_bound_replica", "c_bound_bussgang", "r_csir"]


def _compare_table(cfg: RunConfig, alphas, betas, rho_dbs, rule):
    return [[r.rho_db, r.alpha, r.beta, r.c_bound_replica, r.c_bound_bussgang, r.r_csir]
            for b in betas for a in alphas
            for r in compare_sweep(a, b, rho_dbs, cfg.grid_step, rule, cfg.tol)]


def _cmd_compare(args) -> int:
    cfg = _merge_config(args)
    if cfg.alpha is None or cfg.beta is None:
        raise ValueError("--alpha and --beta are required")
    lo, hi, step = args.rho_db_min, args.rho_db_max, args.rho_db_step
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"SNR sweep bounds must be finite: [{lo}, {hi}] step {step}")
    if step <= 0 or hi < lo:
        raise ValueError(f"empty SNR sweep: [{lo}, {hi}] step {step}")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    rho_dbs = [lo + k * step for k in range(n)]
    rule = gauss_hermite(cfg.quad_nodes)
    table = _compare_table(cfg, [cfg.alpha], [cfg.beta], rho_dbs, rule)
    for col in range(3, 6):
        vals = [row[col] for row in table]
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            print(f"warning: column {_COMPARE_HEADER[col]} is not nondecreasing in rho",
                  file=sys.stderr)
    _emit_sections([("compare", _COMPARE_HEADER, table)], cfg)
    return 0


def _cmd_figure(args) -> int:
    cfg = _merge_config(args)
    rule = gauss_hermite(cfg.quad_nodes)
    if args.which == 1:
        rho_dbs = [float(d) for d in range(-10, 21)]
        betas = (cfg.beta,) if cfg.beta is not None else _FIGURE1_BETAS
        table = _compare_table(cfg, [1.0, 2.0], betas, rho_dbs, rule)
        _emit_sections([("figure1", _COMPARE_HEADER, table)], cfg)
        return 0

    # figures 2 and 3 share the one-bit receiver-ratio sweep at SNR 10
    rho = 10.0
    if cfg.rho is not None or cfg.rho_db is not None:
        rho = cfg.resolved_rho()
    betas = (cfg.beta,) if cfg.beta is not None else _FIGURE2_BETAS
    table = []
    for beta in betas:
        results = sweep_onebit_alpha(_FIGURE_ALPHAS, beta, rho, cfg.grid_step,
                                     rule, cfg.tol, refine=True)
        for alpha, (res, _) in zip(_FIGURE_ALPHAS, results):
            table.append([alpha, beta, res.beta_t_opt if args.which == 2 else res.c_bound])
    header = (["alpha", "beta", "beta_t_opt"] if args.which == 2
              else ["alpha", "beta", "c_bound_onebit"])
    _emit_sections([(f"figure{args.which}", header, table)], cfg)
    return 0


def _cmd_exact(args) -> int:
    cfg = _merge_config(args)
    m, n, t = cfg.m, cfg.n, cfg.t
    if m is None or n is None or t is None:
        raise ValueError("--m, --n and --t are required")
    rho = cfg.resolved_rho()
    if cfg.mc_samples is not None:
        integration = ChannelIntegration.monte_carlo(cfg.mc_samples, cfg.seed)
    else:
        integration = ChannelIntegration.quadrature(cfg.channel_order)
    system = SmallSystem(m=m, n=n, t_total=t, rho=rho, integration=integration)
    result, curve = c_bound_exact(system)
    rows = []
    for beta_t, r, obj in curve.rows():
        t_t = round(beta_t * m)
        mi = mi_direct(t_t, system)
        rows.append([t_t, r, mi, abs(r - mi), obj])
    sections = [
        ("rates", ["t_t", "reff_exact", "mi_direct", "abs_diff", "objective"], rows),
        ("result", ["t_t_opt", "c_bound"], [[round(result.beta_t_opt * m), result.c_bound]]),
    ]
    _emit_sections(sections, cfg)
    return 0


def _cmd_asymptotics(args) -> int:
    cfg = _merge_config(args)
    params = _system_params(cfg)
    bt, c = low_snr_asymptotics(params)
    _emit_sections([
        ("asymptotics",
         ["alpha", "beta", "rho", "tx", "beta_t_opt_approx", "c_bound_approx"],
         [[params.alpha, params.beta, params.rho, params.tx_type, bt, c]]),
    ], cfg)
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    failed = 0
    total = 0.0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        total += res.seconds
        print(f"criterion-{res.number} {status} {res.name} [{res.seconds:.1f}s] {res.detail}")
        failed += 0 if res.passed else 1
    print(f"selftest: {len(results) - failed}/{len(results)} criteria passed "
          f"in {total:.1f}s")
    return 0 if failed == 0 else 1


# --- parser -------------------------------------------------------------------

_FLAGS = {
    "alpha": dict(type=float, help="receivers per transmitter"),
    "beta": dict(type=float, help="coherence length per transmitter"),
    "tx": dict(choices=("linear", "onebit"), help="transmitter type (default linear)"),
    "grid_step": dict(type=float, help="training-length grid step (default 0.1)"),
    "quad_nodes": dict(type=int, help="Gauss-Hermite order for expectations (default 128)"),
    "tol": dict(type=float, help="fixed-point tolerance (default 1e-10)"),
    "seed": dict(type=int, help="Monte Carlo seed (default 0)"),
    "out": dict(type=str, help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), help="output format (default csv)"),
    "config": dict(type=str, help="JSON config file; flags override its values"),
}
_SOLVER = ("grid_step", "quad_nodes", "tol")
_OUTPUT = ("out", "format", "config")


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add the named flags of ``_FLAGS``; "rho" adds the pair --rho / --rho-db."""
    for name in names:
        if name == "rho":
            g = sub.add_mutually_exclusive_group()
            g.add_argument("--rho", type=float, help="per-receiver SNR, linear")
            g.add_argument("--rho-db", dest="rho_db", type=float,
                           help="per-receiver SNR in dB (power)")
        else:
            sub.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="onebit-bounds",
                     description="Training-based achievable-rate bounds for one-bit transceivers")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bound", help="optimized training bound at one parameter point")
    _add_flags(p, "alpha", "beta", "rho", "tx", *_SOLVER, *_OUTPUT)
    p.add_argument("--refine", action="store_true", help="golden-section refinement of beta_t_opt")
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("compare", help="replica vs Bussgang vs known-channel sweep")
    _add_flags(p, "alpha", "beta", *_SOLVER, *_OUTPUT)
    p.add_argument("--rho-db-min", dest="rho_db_min", type=float, default=-10.0)
    p.add_argument("--rho-db-max", dest="rho_db_max", type=float, default=20.0)
    p.add_argument("--rho-db-step", dest="rho_db_step", type=float, default=1.0)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("figure", help="emit data behind the standard figures")
    _add_flags(p, "beta", "rho", *_SOLVER, *_OUTPUT)
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.set_defaults(func=_cmd_figure)

    p = subs.add_parser("exact", help="enumerable small-system rates, both pipelines")
    _add_flags(p, "rho", "seed", *_OUTPUT)
    p.add_argument("--m", type=int, help="transmitters (<= 2)")
    p.add_argument("--n", type=int, help="receivers (<= 2)")
    p.add_argument("--t", type=int, help="coherence block length (<= 5)")
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=None,
                   help="Monte Carlo channel samples (default: tensor quadrature)")
    p.add_argument("--channel-order", dest="channel_order", type=int, default=None,
                   help="tensor quadrature order per real dimension (default 24)")
    p.set_defaults(func=_cmd_exact)

    p = subs.add_parser("asymptotics", help="low-SNR closed forms")
    _add_flags(p, "alpha", "beta", "rho", "tx", *_OUTPUT)
    p.set_defaults(func=_cmd_asymptotics)

    p = subs.add_parser("selftest", help="run the acceptance checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBudgetError as exc:
        print(f"onebit-bounds: error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"onebit-bounds: solver error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"onebit-bounds: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
