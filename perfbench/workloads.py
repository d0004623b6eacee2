"""The benchmark's workloads: reference configurations of the acceptance suite
run as operations through the public API and the CLI.

The configurations are the acceptance suite's, at a coarser resolution so that
every operation is short: the Panjer lattice is ``BANDWIDTH_FACTOR`` times
coarser, the contraction sweep steps by ``GRID_RATIO`` instead of the library
default 1.02, and criterion 5's MC certificate draws ``C5_SUMS`` sums instead
of 5e6. Every acceptance window of ``tests/test_acceptance.py`` still holds at
this resolution, and it is checked on every call. Many rounds of short
operations in a run help keep the benchmark steady on a shared host (see
``README.md``).

Each workload is a list of ``Op``: a call to time, the acceptance check of
its result, and the input size it carries. ``check`` returns the text whose
digest must repeat across runs on the same inputs and raises ``CheckFailed``
when the result is outside its acceptance window. ``verify`` is the slower
independent cross-check run once per invocation outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from geomtail import bounder, cli, compound, config
from geomtail.bounder import ProcedureFailed
from geomtail.dist import (
    GeometricParams,
    ParetoDist,
    PowerMixtureDist,
    WeibullDist,
    discretize,
)
from geomtail.kernels import CutoffFunction, KKernelTestFunction, PowerTestFunction

# the seeds the acceptance suite documents for criteria 1, 5 and 7
DEFAULT_SEED = 0
DOCUMENTED_MC_SEEDS = (123, 20250817, 99)

PARETO22 = ParetoDist(2.2)
PARETO5 = ParetoDist(5.0)
WEIBULL = WeibullDist(0.5)
MIX = PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0)))
P02 = GeometricParams(0.2)
P05 = GeometricParams(0.5)
G_EX1 = PowerTestFunction(1.0, 0.6875)
G_EX3 = PowerTestFunction(1.0, 5.0 / 6.0)
G_EX4 = PowerTestFunction(1.0, 2.0 / 3.0)
BANDWIDTH_FACTOR = 4
GRID_RATIO = 1.2
C1_SUMS = 5_000_000  # criterion 1 is cheap: the acceptance suite's own count
C5_SUMS = 500_000
VERIFY_SUMS = 500_000  # the independent table that criterion 5's certificate must pass


class CheckFailed(AssertionError):
    pass


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str]
    panjer_cells: int = 0
    mc_sums: int = 0


@dataclass
class Workload:
    ops: list[Op]
    verify: Callable[[dict], list[str]]  # results by op name -> problems found


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mc_seeds(seed: int) -> tuple[int, int, int]:
    """MC seeds of criteria 1 and 5 and of the independent check table."""
    if seed == DEFAULT_SEED:
        return DOCUMENTED_MC_SEEDS
    state = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint32)
    return tuple(int(s) for s in state)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _window(label: str, value, center: float, rel: float) -> None:
    _require(value is not None and center * (1 - rel) <= value <= center * (1 + rel),
             f"{label} = {value} outside {center} +- {rel:.0%}")


def _lattice_cells(B: float, bandwidth: float) -> int:
    # panjer_tail returns P(S > j bw) for j = 0 .. floor(B / bw)
    return int(math.floor(B / bandwidth + 1e-9)) + 1


# ---------------------------------------------------------------- builders

def _bound_op(name, dist, params, h, g, B, bandwidth, windows, bstar=None, extra=None):
    """``bandwidth`` is the acceptance suite's; the op runs BANDWIDTH_FACTOR coarser."""
    bandwidth *= BANDWIDTH_FACTOR

    def run():
        return bounder.build_bound(dist, params, h, g, B, engine="panjer",
                                   bandwidth=bandwidth, bstar=bstar, grid_ratio=GRID_RATIO)

    def check(cert):
        _require(not isinstance(cert, BaseException), f"raised {cert!r}")
        for attr, center, rel in windows:
            _window(attr, getattr(cert, attr), center, rel)
        if extra is not None:
            extra(cert)
        return cert.to_text()

    return Op(name, run, check, panjer_cells=_lattice_cells(B, bandwidth))


def _failure_op(name, dist, params, h, g, B, bandwidth, min_b):
    bandwidth *= BANDWIDTH_FACTOR

    def run():
        return bounder.build_bound(dist, params, h, g, B, engine="panjer",
                                   bandwidth=bandwidth, grid_ratio=GRID_RATIO)

    def check(exc):
        _require(isinstance(exc, ProcedureFailed), f"expected ProcedureFailed, got {exc!r}")
        _window("min_b", exc.min_b, min_b, 0.03)
        return str(exc)

    return Op(name, run, check, panjer_cells=_lattice_cells(B, bandwidth))


def _abs_window(attr, center, tol):
    def extra(cert):
        value = getattr(cert, attr)
        _require(abs(value - center) <= tol, f"{attr} = {value} outside {center} +- {tol}")
    return extra


def _weibull_scaled_extra(cert):
    _require("K(x,h(x))" in cert.report, "report does not name the K-kernel shape")
    # the far-tail envelopes do not certify at this scale: caveats must say so
    _require(not cert.delta_tail_certified and len(cert.caveats) > 0,
             "grid-only supremum without a caveat")


def _verify_tables(certs, pairs) -> list[str]:
    """verify_bound each certificate against its independently built table."""
    problems = []
    for names, table in pairs:
        for name in names:
            cert = certs.get(name)
            if isinstance(cert, bounder.BoundCertificate):
                rep = bounder.verify_bound(cert, table)
                if not rep.ok:
                    problems.append(f"verify_bound {name}: {rep.violations[:3]}")
            else:
                problems.append(f"verify_bound {name}: no certificate")
    return problems


def _panjer_table(dist, params, bandwidth, truncation, xmax):
    lattice = discretize(dist, bandwidth, truncation)
    return compound.delta_from_tails(compound.panjer_tail(lattice, params, xmax), dist, params)


# --------------------------------------------------------------- workloads

def certify_panjer(seed: int, workdir: Path) -> Workload:
    h_log = CutoffFunction.logpower(0.179, 2.0)

    def h32(scale):
        return CutoffFunction.power(scale, 1.0 / 3.2)

    def h6(scale):
        return CutoffFunction.power(scale, 1.0 / 6.0)

    ops = [
        _bound_op("c2_pure", PARETO22, P05, h32(1.0), G_EX1, 100.0, 0.005,
                  [("c_hb_b", 14.4, 0.05), ("C", 13.2, 0.05)],
                  extra=_abs_window("delta_b", 0.786, 0.01)),
        _bound_op("c2_scaled", PARETO22, P05, h32(1.7), G_EX1, 100.0, 0.005,
                  [("C", 12.9, 0.05)]),
        _bound_op("c2_spliced", PARETO22, P05, h32(1.14), G_EX1, 100.0, 0.005,
                  [("tail_coefficient", 8.53, 0.05)], bstar=21.3),
        _bound_op("c3_spliced", PARETO22, P02, h32(1.054), G_EX1, 100.0, 0.005,
                  [("kappa_splice", 126.0, 0.10), ("tail_coefficient", 179.85, 0.10)],
                  bstar=27.1),
        _bound_op("c4_pure", PARETO5, P05, h6(1.0), G_EX3, 50.0, 0.002,
                  [("C", 2215.0, 0.10)], extra=_abs_window("delta_b", 0.996, 0.003)),
        _bound_op("c4_scaled", PARETO5, P05, h6(1.46), G_EX3, 50.0, 0.002,
                  [("C", 1662.0, 0.10)]),
        _bound_op("c4_spliced", PARETO5, P05, h6(1.94), G_EX3, 50.0, 0.002,
                  [("tail_coefficient", 93.7, 0.10)], bstar=27.1),
        _bound_op("c6_scaled", WEIBULL, P05, h_log, KKernelTestFunction(WEIBULL, h_log),
                  100.0, 0.002, [("C", 2.952, 0.10)], extra=_weibull_scaled_extra),
    ]

    def verify(results):
        # the independent tables of criterion 7: other bandwidths and ranges
        table1 = _panjer_table(PARETO22, P05, 0.01, 400.0, 200.0)
        table2 = _panjer_table(PARETO22, P02, 0.01, 400.0, 200.0)
        table3 = _panjer_table(PARETO5, P05, 0.005, 200.0, 100.0)
        table5 = _panjer_table(WEIBULL, P05, 0.002, 240.0, 120.0)
        return _verify_tables(results, [
            (("c2_pure", "c2_scaled", "c2_spliced"), table1),
            (("c3_spliced",), table2),
            (("c4_pure", "c4_scaled", "c4_spliced"), table3),
            (("c6_scaled",), table5),
        ])

    return Workload(ops, verify)


def infeasible_minb(seed: int, workdir: Path) -> Workload:
    h32 = CutoffFunction.power(1.0, 1.0 / 3.2)
    h_log = CutoffFunction.logpower(1.0, 2.0)
    g_log = KKernelTestFunction(WEIBULL, h_log)
    cases = (
        ("c3_pure", PARETO22, P02, h32, G_EX1, 100.0, 0.005, 1085),
        ("c6_unscaled", WEIBULL, P05, h_log, g_log, 100.0, 0.002, 1660),
    )
    ops = [_failure_op(*case) for case in cases]

    def verify(results):
        # the reported anchor is the first integer where the public supremum
        # drops below one
        problems = []
        for name, dist, params, h, g, *_ in cases:
            exc = results.get(name)
            if not isinstance(exc, ProcedureFailed) or exc.min_b is None:
                problems.append(f"{name}: no min_b to verify")
                continue
            at = bounder.delta_sup(dist, params, h, g, float(exc.min_b),
                                   grid_ratio=GRID_RATIO).value
            below = bounder.delta_sup(dist, params, h, g, float(exc.min_b - 1),
                                      grid_ratio=GRID_RATIO).value
            if not (at < 1.0 <= below):
                problems.append(f"{name}: delta_sup({exc.min_b}) = {at:.6g}, "
                                f"delta_sup({exc.min_b - 1}) = {below:.6g}")
        return problems

    return Workload(ops, verify)


def mixture_mc(seed: int, workdir: Path) -> Workload:
    seed1, seed5, seed_check = mc_seeds(seed)
    h = CutoffFunction.power(1.0, 1.0 / 3.0)

    def run_c1():
        return compound.mc_tail(PARETO5, P02, C1_SUMS, seed=seed1, xgrid=[30.0])

    def check_c1(table):
        _require(not isinstance(table, BaseException), f"raised {table!r}")
        est, stderr = float(table.tails[0]), float(table.stderrs[0])
        asym = 5.0 * 30.0 ** -5.0  # count mean times severity tail, closed form
        _require(abs(est - 0.00547) <= 4.0 * stderr,
                 f"MC tail {est:.6g} outside 4 se of 0.00547")
        _require(est / asym - 1.0 > 26000.0, "relative error below 26000")
        return f"{est!r} {stderr!r}"

    def run_c5():
        return bounder.build_bound(MIX, P05, h, G_EX4, 80.0, engine="mc",
                                   mc_samples=C5_SUMS, seed=seed5, grid_ratio=GRID_RATIO)

    def check_c5(cert):
        _require(not isinstance(cert, BaseException), f"raised {cert!r}")
        _require(cert.engine == "mc" and cert.seed == seed5, "wrong engine or seed")
        _window("C", cert.C, 13.0, 0.15)
        return cert.to_text()

    ops = [
        Op("c1_pareto_mc", run_c1, check_c1, mc_sums=C1_SUMS),
        Op("c5_mixture_mc", run_c5, check_c5, mc_sums=C5_SUMS),
    ]

    def verify(results):
        # independent draw: another seed than the certificate's own table
        mc = compound.mc_tail(MIX, P05, VERIFY_SUMS, seed=seed_check,
                              xgrid=np.geomspace(80.0, 250.0, 96))
        return _verify_tables(results, [(("c5_mixture_mc",),
                                         compound.delta_from_tails(mc, MIX, P05))])

    return Workload(ops, verify)


TUNE_CONFIG = """\
# criterion 2 inputs with the tuning grid
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = {bandwidth:g}
grid_ratio = {grid_ratio:g}
B = 100
h.family = power
h.scale = 1.0
h.gamma = 0.3125
g.variant = power
g.exponent = 0.6875
tune.s = 1.0, 1.14, 1.4, 1.7, 2.0
tune.bstar = none, 15, 21.3, 27.1
xgrid = {xgrid}
"""
DELTA_XGRID = (5.0, 10.0, 20.0, 35.0, 50.0, 75.0, 100.0)
TUNE_BANDWIDTH = 0.005 * BANDWIDTH_FACTOR


def tune_cli(seed: int, workdir: Path) -> Workload:
    cfg_path = workdir / "criterion2.cfg"
    cfg_path.write_text(TUNE_CONFIG.format(
        bandwidth=TUNE_BANDWIDTH, grid_ratio=GRID_RATIO,
        xgrid=", ".join(f"{x:g}" for x in DELTA_XGRID)))
    config.RunConfig.from_file(str(cfg_path))  # reject a bad input before timing

    def cli_op(command, check_text):
        out_path = workdir / f"{command}.out"

        def run():
            if out_path.exists():
                out_path.unlink()
            return cli.main([command, "--config", str(cfg_path), "--out", str(out_path)])

        def check(code):
            _require(code == 0, f"{command} exit code {code!r}")
            text = out_path.read_text(encoding="utf-8")
            check_text(text)
            return text

        return run, check

    def check_tune(text):
        head = dict(line[2:].split(" = ", 1) for line in text.splitlines()
                    if line.startswith("# "))
        _window("best coefficient", float(head["coefficient"]), 8.53, 0.05)
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        _require(len(rows) == 1 + 5 * 4, f"{len(rows) - 1} tuning rows, expected 20")

    def check_delta(text):
        rows = text.strip().splitlines()[1:]
        xs = [float(r.split(",")[0]) for r in rows]
        _require(xs == list(DELTA_XGRID), "delta rows do not follow xgrid")
        vals = [float(r.split(",")[1]) for r in rows]
        _require(all(math.isfinite(v) and v > -1.0 for v in vals), "delta out of range")

    ops = [
        Op("tune", *cli_op("tune", check_tune),
           panjer_cells=_lattice_cells(100.0, TUNE_BANDWIDTH)),
        Op("delta", *cli_op("delta", check_delta),
           panjer_cells=_lattice_cells(max(DELTA_XGRID), TUNE_BANDWIDTH)),
    ]

    def verify(results):
        # the CLI's lattice sizing must land on the library's table
        code = results.get("delta")
        if code != 0:
            return ["delta: no output to verify"]
        rows = (workdir / "delta.out").read_text().strip().splitlines()[1:]
        got = np.array([float(r.split(",")[1]) for r in rows])
        table = _panjer_table(PARETO22, P05, TUNE_BANDWIDTH, 200.0, 100.0)
        idx = np.rint(np.asarray(DELTA_XGRID) / TUNE_BANDWIDTH).astype(int)
        want = table.delta[idx]
        if not np.allclose(got, want, rtol=1e-9, atol=0.0):
            return [f"delta CLI {got.tolist()} != library {want.tolist()}"]
        return []

    return Workload(ops, verify)


BUILDERS = {
    "certify_panjer": certify_panjer,
    "infeasible_minb": infeasible_minb,
    "mixture_mc": mixture_mc,
    "tune_cli": tune_cli,
}
