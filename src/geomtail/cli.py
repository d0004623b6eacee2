"""Command-line interface.

Six subcommands share one flat key=value configuration file:

* ``tail``      tail probabilities P(S > x) on a grid
* ``delta``     relative error of the first-order approximation on a grid
* ``kernels``   K and J kernels along the cutoff, with closed-form envelopes
* ``bound``     run the full bound construction, emit a certificate
* ``tune``      sweep cutoff scales and splice points
* ``plot-data`` exact error versus certified bound, ready for plotting

On engine panjer, ``tail`` and ``delta`` print the rounded lattice's
estimate (the midpoint rule) and, as ``lo`` and ``hi``, those of the lower
and upper lattices, which bracket it; certificates and ``plot-data`` read
the upper lattice. Each lattice ends at the largest point read, rounded up
to whole cells. On engine mc the ``lo`` and ``hi`` cells are empty.

Exit codes: 0 success, 2 contraction failure (delta >= 1), 3 configuration
error, 4 engine error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .bounder import (
    ProcedureFailed,
    _build_delta_table,
    _kernel_sweep,
    _tail_table,
    build_bound,
    build_spliced_g,
    tune,
)
# the CLI reaches the engines through bounder; mc_tail, panjer_tail and discretize
# stay importable here because perfbench/tracing.py wraps them on this module too
from .compound import delta_from_tails, mc_tail, panjer_tail  # noqa: F401
from .config import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    build_dist,
    build_g,
    build_h,
    build_params,
    parse_kv,
)
from .dist import ParetoDist, WeibullDist, discretize  # noqa: F401
from .kernels import (
    pareto_J_envelope,
    pareto_K_envelope,
    weibull_J_envelope,
    weibull_K_envelope,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _emit(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(*vals) -> str:
    """One CSV row: floats to 12 significant digits, None as an empty cell."""
    return ",".join("" if v is None else f"{v:.12g}" if isinstance(v, float) else str(v)
                    for v in vals)


def _load(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        cfg.values["seed"] = args.seed
    if args.engine is not None:
        cfg.values["engine"] = args.engine
    return cfg


def _configured(cfg: RunConfig, *keys: str) -> dict:
    """The keys the config sets, as keyword arguments; the library's own
    signatures hold the defaults of the rest."""
    return {k: cfg.values[k] for k in keys if k in cfg.values}


# the engine and its inputs, which the library checks (bounder._check_engine)
_ENGINE_KEYS = ("engine", "bandwidth", "mc_samples", "seed")
# run controls that build_bound and tune share; a certificate's table is
# always the upper lattice's, so no key picks a lattice
_RUN_KEYS = (*_ENGINE_KEYS, "x_far", "grid_ratio")


def _model(cfg: RunConfig) -> tuple:
    """(dist, params, h, g, bstar) from the config, built in this order, so
    the first bad key is the one reported."""
    dist, params, h = build_dist(cfg), build_params(cfg), build_h(cfg)
    return (dist, params, h, *build_g(cfg, dist, h))


def _tail_tables_on_grid(cfg: RunConfig):
    """P(S > x) on the config's xgrid, its brackets, and the severity and
    count used. The table is the rounded lattice's on Panjer (the midpoint
    rule), and the brackets the (lower, upper) pair of lattice tables, as
    floor <= round <= ceil of X / bandwidth pathwise; Monte Carlo has no
    brackets (None)."""
    dist = build_dist(cfg)
    params = build_params(cfg)
    xs = _grid_from_config(cfg)
    xmax, engine = float(np.max(xs)), _configured(cfg, *_ENGINE_KEYS)
    table = _tail_table(dist, params, xmax, xs=xs, **engine)
    brackets = None
    if table.engine == "panjer":
        brackets = tuple(_tail_table(dist, params, xmax, xs=xs, mode=mode, **engine)
                         for mode in ("lower", "upper"))
    return table, brackets, dist, params


def _grid_from_config(cfg: RunConfig) -> np.ndarray:
    xs = np.asarray(cfg.require("xgrid"), dtype=float)
    if np.any(np.diff(xs) <= 0.0):
        raise ConfigError("xgrid must be strictly increasing")
    return xs


def cmd_tail(cfg: RunConfig, args) -> str:
    table, brackets, _, _ = _tail_tables_on_grid(cfg)
    lines = ["x,tail,stderr,engine,lo,hi"]
    for i, (x, t, s) in enumerate(zip(table.xs, table.tails, table.stderrs)):
        lo, hi = (float(b.tails[i]) for b in brackets) if brackets else (None, None)
        lines.append(_fmt(float(x), float(t), float(s), table.engine, lo, hi))
    return "\n".join(lines) + "\n"


def cmd_delta(cfg: RunConfig, args) -> str:
    table, brackets, dist, params = _tail_tables_on_grid(cfg)
    table = delta_from_tails(table, dist, params)
    if brackets:
        brackets = [delta_from_tails(b, dist, params) for b in brackets]
    lines = ["x,delta,delta_stderr,lo,hi"]
    for i, (x, d, s) in enumerate(zip(table.xs, table.delta, table.delta_stderr)):
        lo, hi = (float(b.delta[i]) for b in brackets) if brackets else (None, None)
        lines.append(_fmt(float(x), float(d), float(s), lo, hi))
    return "\n".join(lines) + "\n"


def cmd_kernels(cfg: RunConfig, args) -> str:
    dist = build_dist(cfg)
    h = build_h(cfg)
    xs = _grid_from_config(cfg)
    lines = ["x,K,J,envelopeK,envelopeJ"]
    for x in xs.tolist():
        # each row on its own: a failing h or kernel leaves a NaN row
        kv = jv = math.nan
        try:
            sweep = _kernel_sweep(dist, h, np.array([x]))
            if sweep.error is None:
                kv, jv = float(sweep.K[0]), float(sweep.J[0])
        except ConfigError:
            raise  # a severity the kernels refuse (J's series), not a failing row
        except (ValueError, RuntimeError):
            pass
        ek = ej = math.nan
        try:
            r = float(h(x))
            if isinstance(dist, ParetoDist):
                ek = pareto_K_envelope(dist.alpha, x, r)
                ej = pareto_J_envelope(dist.alpha, x, r)
            elif isinstance(dist, WeibullDist):
                ek = weibull_K_envelope(dist.beta, x, r)
                ej = weibull_J_envelope(dist.beta, x, r)
        except ValueError:
            pass
        lines.append(_fmt(x, kv, jv, ek, ej))
    return "\n".join(lines) + "\n"


def cmd_bound(cfg: RunConfig, args) -> str:
    dist, params, h, g, bstar = _model(cfg)
    cert = build_bound(dist, params, h, g, B=cfg.require("B"), bstar=bstar,
                       **_configured(cfg, *_RUN_KEYS))
    return cert.to_text()


def cmd_tune(cfg: RunConfig, args) -> str:
    dist, params, h, g, _ = _model(cfg)
    result = tune(dist, params, h, g, B=cfg.require("B"), s_grid=cfg.require("tune.s"),
                  bstar_grid=cfg.require("tune.bstar"), **_configured(cfg, *_RUN_KEYS))
    lines = [
        f"# best scale = {result.scale:.12g}",
        f"# best bstar = {'none' if result.bstar is None else f'{result.bstar:.12g}'}",
        f"# coefficient = {result.coefficient:.12g}",
        f"# C = {result.C:.12g}",
        "scale,bstar,feasible,C,coefficient,note",
    ]
    for row in result.rows:
        lines.append(_fmt(row.scale, "none" if row.bstar is None else row.bstar,
                          int(row.feasible), row.C, row.coefficient, row.note))
    return "\n".join(lines) + "\n"


def cmd_plot_data(cfg: RunConfig, args) -> str:
    with open(args.certificate, "r", encoding="utf-8") as fh:
        cert_kv = parse_kv(fh.read())
    # the certificate echoes its configuration keys among its results
    cert_cfg = RunConfig.from_text(
        "\n".join(f"{k} = {v}" for k, v in cert_kv.items() if k in CONFIG_KEYS)
    )
    dist, params, h, g, bstar = _model(cert_cfg)
    C = float(cert_kv["C"])
    valid_from = float(cert_kv["valid_from"])
    B = cert_cfg.require("B")

    lo = float(h(B))
    xmax = cfg.get("plot.xmax", B)
    if not (xmax > lo):
        raise ConfigError(f"plot.xmax must exceed h(B) = {lo:.6g}, got {xmax:g}")
    npts = cfg.get("plot.points", 200)
    if npts < 1:
        raise ConfigError(f"plot.points must be at least 1, got {npts}")
    # the upper lattice's table, as the certificate's, for the splice and the curve
    table = _build_delta_table(dist, params, max(xmax, B), lo, points=max(npts, 256),
                               **_configured(cert_cfg, *_ENGINE_KEYS))
    if bstar is not None:
        g_final = build_spliced_g(table, bstar, g)
        stored = cert_kv.get("kappa_splice")
        drift = ""
        if stored is not None:
            rel = abs(g_final.kappa_splice - float(stored)) / max(1e-300, float(stored))
            if rel > 1e-6:
                drift = f" (rebuilt kappa drifts by {rel:.2e} from the certificate)"
        header = f"# spliced test function rebuilt, kappa = {g_final.kappa_splice:.12g}{drift}"
    else:
        g_final = g
        header = f"# test function: {g_final.describe()}"

    from_lo = (table.xs >= lo) & (table.xs > 0)
    sel = from_lo & (table.xs <= xmax)
    if not sel.any():
        raise ConfigError(f"plot.xmax must reach {table.xs[from_lo][0]:.6g}, the first table "
                          f"point above h(B) = {lo:.6g}, got {xmax:g}")
    xs = table.xs[sel]
    dv = table.delta[sel]
    if xs.size > npts:
        idx = np.unique(np.linspace(0, xs.size - 1, npts).round().astype(int))
        xs, dv = xs[idx], dv[idx]

    lines = [header, f"# C = {C:.12g}, valid from {valid_from:.12g}",
             "x,log10_delta_exact,log10_delta_upper"]
    for x, d, u in zip(xs.tolist(), dv.tolist(), (C * g_final.evaluate(xs)).tolist()):
        exact = math.log10(d) if d > 0.0 else math.nan
        lines.append(_fmt(x, exact, math.log10(u)))
    return "\n".join(lines) + "\n"


# every command once: its handler and its help text, which build the parser
# and dispatch its commands
_COMMANDS = {
    "tail": (cmd_tail, "compound tail probabilities on a grid"),
    "delta": (cmd_delta, "relative error of the first-order tail approximation"),
    "kernels": (cmd_kernels, "overshoot kernels along the cutoff"),
    "bound": (cmd_bound, "certified relative-error bound"),
    "tune": (cmd_tune, "sweep cutoff scales and splice points"),
    "plot-data": (cmd_plot_data, "exact error versus certified bound"),
}


# built on first use and kept: parse_args returns a fresh namespace on every
# call, and a run that never parses pays nothing
@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="geomtail", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="key=value configuration file")
        cmd.add_argument("--out", default=None, help="output file (default: stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--engine", choices=("panjer", "mc"), default=None,
                         help="override the config engine")
        if name == "plot-data":
            cmd.add_argument("--certificate", required=True,
                             help="certificate file from the bound command")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _load(args)
        text = _COMMANDS[args.command][0](cfg, args)
        _emit(args.out, text)
        return 0
    except (ConfigError, OSError) as exc:
        # OSError: a --config or --certificate that cannot be read, an --out
        # that cannot be written
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except ProcedureFailed as exc:
        print(f"bound construction failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as exc:
        # MemoryError: a lattice (max(xgrid) / bandwidth cells) too large to allocate
        print(f"engine error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
