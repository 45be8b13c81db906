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
import functools
import json
import math
import sys

from .exact import SmallSystem, c_bound_exact, mi_direct
from .optimizer import (
    check_grid_length,
    compare_sweep,
    low_snr_asymptotics,
    replica_bound,
    sweep_onebit_alpha,
)
from .replica import TX_TYPES, SolverError, SystemParams, snr_from_db

_FIGURE_ALPHAS = [float(2 ** k) for k in range(9)]
_FIGURE1_BETAS = (5.0, 10.0, 20.0)
_FIGURE2_BETAS = (4.0, 8.0)


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (1 = bad arguments)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolved_rho(cfg: argparse.Namespace) -> float:
    if (cfg.rho is None) == (cfg.rho_db is None):
        raise ValueError("exactly one of --rho / --rho-db must be provided")
    return snr_from_db(cfg.rho_db) if cfg.rho is None else cfg.rho


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - (_FLAGS.keys() - {"config"})
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _merge_config(args) -> argparse.Namespace:
    """Every entry of ``_FLAGS``: its flag, else the config file, else the
    table default.  A file value goes through the flag's own type as text,
    so it is read exactly as the typed flag would be."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = argparse.Namespace()
    for name, spec in _FLAGS.items():
        value = getattr(args, name, None)
        if value is None and file_cfg.get(name) is not None:
            text = str(file_cfg[name])
            try:
                value = spec["type"](text)
            except ValueError:
                raise ValueError(f"config key {name}: invalid {spec['type'].__name__} "
                                 f"value {text!r}") from None
        if value is None:
            value = spec.get("default")
        if "choices" in spec and value not in spec["choices"]:  # a file bypasses argparse's
            raise ValueError(f"{name} must be one of {spec['choices']}, got {value!r}")
        setattr(cfg, name, value)
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


def _emit_sections(sections, cfg: argparse.Namespace) -> None:
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

def _system_params(cfg: argparse.Namespace) -> SystemParams:
    if cfg.alpha is None or cfg.beta is None:
        raise ValueError("--alpha and --beta are required")
    return SystemParams(alpha=cfg.alpha, beta=cfg.beta, rho=_resolved_rho(cfg), tx_type=cfg.tx)


def _cmd_bound(args) -> int:
    cfg = _merge_config(args)
    params = _system_params(cfg)
    result, curve = replica_bound(params, cfg.grid_step, refine=bool(args.refine))
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


def _compare_table(cfg: argparse.Namespace, alphas, betas, rho_dbs):
    return [[r.rho_db, r.alpha, r.beta, r.c_bound_replica, r.c_bound_bussgang, r.r_csir]
            for b in betas for a in alphas
            for r in compare_sweep(a, b, rho_dbs, cfg.grid_step)]


def _cmd_compare(args) -> int:
    cfg = _merge_config(args)
    if cfg.alpha is None or cfg.beta is None:
        raise ValueError("--alpha and --beta are required")
    lo, hi, step = args.rho_db_min, args.rho_db_max, args.rho_db_step
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"SNR sweep bounds must be finite: [{lo}, {hi}] step {step}")
    if step <= 0 or hi < lo:
        raise ValueError(f"empty SNR sweep: [{lo}, {hi}] step {step}")
    n = (hi - lo) / step + 1e-9
    if not math.isfinite(n):
        raise ValueError(f"SNR sweep length is not finite: [{lo}, {hi}] step {step}")
    check_grid_length("SNR sweep", int(n) + 1, f"[{lo}, {hi}] step {step}")
    rho_dbs = [lo + k * step for k in range(int(n) + 1)]
    table = _compare_table(cfg, [cfg.alpha], [cfg.beta], rho_dbs)
    for col in range(3, 6):
        vals = [row[col] for row in table]
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            print(f"warning: column {_COMPARE_HEADER[col]} is not nondecreasing in rho",
                  file=sys.stderr)
    _emit_sections([("compare", _COMPARE_HEADER, table)], cfg)
    return 0


def _cmd_figure(args) -> int:
    if args.which == 1 and (args.rho, args.rho_db) != (None, None):
        raise ValueError("figure 1 sweeps -10 to 20 dB; --rho/--rho-db set figures 2 and 3")
    cfg = _merge_config(args)
    if args.which == 1:
        rho_dbs = [float(d) for d in range(-10, 21)]
        betas = (cfg.beta,) if cfg.beta is not None else _FIGURE1_BETAS
        table = _compare_table(cfg, [1.0, 2.0], betas, rho_dbs)
        _emit_sections([("figure1", _COMPARE_HEADER, table)], cfg)
        return 0

    # figures 2 and 3 share the one-bit receiver-ratio sweep at SNR 10
    rho = 10.0
    if cfg.rho is not None or cfg.rho_db is not None:
        rho = _resolved_rho(cfg)
    betas = (cfg.beta,) if cfg.beta is not None else _FIGURE2_BETAS
    table = []
    for beta in betas:
        results = sweep_onebit_alpha(_FIGURE_ALPHAS, beta, rho, cfg.grid_step)
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
    rho = _resolved_rho(cfg)
    system = SmallSystem(m=m, n=n, t_total=t, rho=rho, order=cfg.channel_order,
                         samples=cfg.mc_samples, seed=cfg.seed)
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
    for res in results:
        print(res.line())
    passed = sum(res.passed for res in results)
    print(f"selftest: {passed}/{len(results)} criteria passed "
          f"in {sum(res.seconds for res in results):.1f}s")
    return 0 if passed == len(results) else 1


# --- parser -------------------------------------------------------------------

# One entry per setting: every config key, plus the config file itself.  A
# default here is applied by _merge_config, never by argparse, so that an
# absent flag leaves the config file's value in force.
_FLAGS = {
    "alpha": dict(type=float, help="receivers per transmitter"),
    "beta": dict(type=float, help="coherence length per transmitter"),
    "rho": dict(type=float, help="per-receiver SNR, linear"),
    "rho_db": dict(type=float, help="per-receiver SNR in dB (power)"),
    "tx": dict(type=str, default="linear", choices=TX_TYPES, help="transmitter type"),
    "grid_step": dict(type=float, default=0.1, help="training-length grid step"),
    "seed": dict(type=int, default=0, help="Monte Carlo seed"),
    "out": dict(type=str, help="output path (default stdout)"),
    "format": dict(type=str, default="csv", choices=("csv", "json"), help="output format"),
    "m": dict(type=int, help="transmitters (<= 2)"),
    "n": dict(type=int, help="receivers (<= 2)"),
    "t": dict(type=int, help="coherence block length (<= 5)"),
    "mc_samples": dict(type=int, help="Monte Carlo channel samples (default: tensor quadrature)"),
    "channel_order": dict(type=int, default=24,
                          help="tensor quadrature order per real dimension"),
    "config": dict(type=str, help="JSON config file; flags override its values"),
}
_OUTPUT = ("out", "format", "config")


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add the named flags of ``_FLAGS``; "rho" adds the exclusive pair
    --rho / --rho-db."""
    for name in names:
        group = sub.add_mutually_exclusive_group() if name == "rho" else sub
        for flag in ("rho", "rho_db") if name == "rho" else (name,):
            spec = dict(_FLAGS[flag])
            if "default" in spec:
                spec["help"] += f" (default {spec.pop('default')})"
            group.add_argument("--" + flag.replace("_", "-"), dest=flag, **spec)


def build_parser() -> _Parser:
    parser = _Parser(prog="onebit-bounds",
                     description="Training-based achievable-rate bounds for one-bit transceivers")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bound", help="optimized training bound at one parameter point")
    _add_flags(p, "alpha", "beta", "rho", "tx", "grid_step", *_OUTPUT)
    p.add_argument("--refine", action="store_true", help="bounded Brent refinement of beta_t_opt")
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("compare", help="replica vs Bussgang vs known-channel sweep")
    _add_flags(p, "alpha", "beta", "grid_step", *_OUTPUT)
    p.add_argument("--rho-db-min", dest="rho_db_min", type=float, default=-10.0)
    p.add_argument("--rho-db-max", dest="rho_db_max", type=float, default=20.0)
    p.add_argument("--rho-db-step", dest="rho_db_step", type=float, default=1.0)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("figure", help="emit data behind the standard figures")
    _add_flags(p, "beta", "rho", "grid_step", *_OUTPUT)
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.set_defaults(func=_cmd_figure)

    p = subs.add_parser("exact", help="enumerable small-system rates, both pipelines")
    _add_flags(p, "m", "n", "t", "rho", "mc_samples", "channel_order", "seed", *_OUTPUT)
    p.set_defaults(func=_cmd_exact)

    p = subs.add_parser("asymptotics", help="low-SNR closed forms")
    _add_flags(p, "alpha", "beta", "rho", "tx", *_OUTPUT)
    p.set_defaults(func=_cmd_asymptotics)

    p = subs.add_parser("selftest", help="run the acceptance checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> _Parser:
    # built once per process: parse_args fills a fresh namespace on every
    # call, so nothing carries over from one main() to the next
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"onebit-bounds: solver error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"onebit-bounds: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
