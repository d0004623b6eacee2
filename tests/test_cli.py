"""Command-line interface: commands, exit codes, determinism."""

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomtail
from geomtail import bounder, cli, config
from geomtail.bounder import _build_delta_table, build_bound, tune
from geomtail.cli import main
from geomtail.compound import DeltaTable, delta_from_tails, mc_tail, panjer_tail
from geomtail.config import RunConfig, parse_kv
from geomtail.dist import (
    ConfigError,
    GeometricParams,
    LatticeDistribution,
    ParetoDist,
    PowerMixtureDist,
    WeibullDist,
    discretize,
)
from geomtail.kernels import (
    CutoffFunction,
    KKernelTestFunction,
    PowerTestFunction,
    build_spliced_g,
)
from conftest import HoledPareto, panjer_rounding

BASE = """\
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = 0.05
B = 100
h.family = power
h.scale = 1.0
h.gamma = 0.3125
g.variant = power
g.coef = 1.0
g.exponent = 0.6875
x_far = 1e6
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- bound

def test_bound_writes_certificate(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# bound certificate")
    kv = parse_kv(text)
    assert kv["engine"] == "panjer"
    assert 0.0 < float(kv["delta_b"]) < 1.0
    assert float(kv["C"]) > 0.0
    assert "report" in kv


def test_bound_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["bound", "--config", cfg, "--out", str(a)]) == 0
    assert main(["bound", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- exit codes

def test_unknown_key_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "mystery = 1\n")
    assert main(["bound", "--config", cfg]) == 3
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["truncation = 300", "mc_grid_points = 512", "min_b_cap = 150",
                                  "mode = lower"])
def test_derived_sizes_are_not_configuration_keys(tmp_path, capsys, line):
    # the lattice end, the Monte Carlo grid size and the min-b search cap are
    # worked out or fixed, not set; nor is the lattice, as tail and delta
    # print all three and certificates read the upper one
    cfg = write_cfg(tmp_path, BASE + line + "\n")
    assert main(["bound", "--config", cfg]) == 3
    key = line.split(" ")[0]
    assert capsys.readouterr().err == f"configuration error: unknown configuration key {key!r}\n"


def test_missing_required_key_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("p = 0.5\n", ""))
    assert main(["bound", "--config", cfg]) == 3
    assert "configuration error:" in capsys.readouterr().err


TUNE = "\ntune.s = 1.0, 1.5\ntune.bstar = none"


# each range is checked once, where the library uses the value, and a value
# out of range raises ConfigError there
@pytest.mark.parametrize("old, new, message, command", [
    pytest.param("p = 0.5", "p = 1.5", "p must lie in (0, 1)", "bound", id="p = 1.5"),
    pytest.param("bandwidth = 0.05", "bandwidth = -1", "bandwidth must be positive, got -1",
                 "bound", id="bandwidth = -1"),
    pytest.param("bandwidth = 0.05", "bandwidth = inf", "bandwidth must be finite, got inf",
                 "bound", id="bandwidth = inf"),
    pytest.param("alpha = 2.2", "alpha = inf", "alpha must be finite, got inf", "bound",
                 id="alpha = inf"),
    pytest.param("g.exponent = 0.6875", "g.exponent = inf", "exponent must be finite, got inf",
                 "bound", id="g.exponent = inf"),
    pytest.param("g.coef = 1.0", "g.coef = inf", "coef must be finite, got inf", "bound",
                 id="g.coef = inf"),
    pytest.param("engine = panjer", "engine = mc\nmc_samples = 0\nseed = 1",
                 "mc_samples must be at least 1, got 0", "bound", id="mc_samples = 0"),
    pytest.param("engine = panjer", "engine = mc\nmc_samples = 100\nseed = -1",
                 "seed must be non-negative, got -1", "bound", id="seed = -1"),
    pytest.param("x_far = 1e6", "x_far = 0", "x_far must be positive, got 0", "bound",
                 id="x_far = 0"),
    pytest.param("x_far = 1e6", "x_far = 100", "x_far must exceed B = 100, got 100", "bound",
                 id="x_far = 100"),
    pytest.param("x_far = 1e6", "x_far = 1e6\ngrid_ratio = 1", "grid_ratio must exceed 1, got 1",
                 "bound", id="grid_ratio = 1"),
    pytest.param("B = 100", "B = -1", "B must exceed the cutoff domain start 2.7407, got -1",
                 "bound", id="B = -1"),
    pytest.param("x_far = 1e6", "x_far = inf", "x_far must be finite, got inf", "bound",
                 id="x_far = inf"),
    pytest.param("x_far = 1e6", "x_far = 100" + TUNE, "x_far must exceed B = 100, got 100",
                 "tune", id="tune, x_far = 100"),
    pytest.param("B = 100", "B = 100\ntune.s = -1\ntune.bstar = none",
                 "scale must be positive, got -1", "tune", id="tune.s = -1"),
    pytest.param("B = 100", "B = 2" + TUNE, "no candidate scale admits the horizon B = 2",
                 "tune", id="tune, B = 2"),
    pytest.param("g.variant = power", "g.variant = kkernel" + TUNE,
                 "tuning compares power-tail coefficients; g must be a power shape", "tune",
                 id="tune, g.variant = kkernel"),
    pytest.param("g.variant = power", "g.variant = spliced\ng.bstar = 500",
                 "bstar=500 outside the table range [0, 100]", "bound", id="g.bstar = 500"),
    pytest.param("g.variant = power", "g.variant = spliced\ng.bstar = -3",
                 "bstar=-3 outside the table range [0, 100]", "bound", id="g.bstar = -3"),
    pytest.param("B = 100", "B = 100\ntune.s = 1.0\ntune.bstar = 500",
                 "no feasible tuning candidate: bstar=500 outside the table range [0, 100]",
                 "tune", id="tune.bstar = 500"),
    pytest.param("x_far = 1e6", "x_far = 1e6\nxgrid = 10, 5", "xgrid must be strictly increasing",
                 "tail", id="xgrid = 10, 5"),
])
def test_out_of_range_value_exits_3(tmp_path, capsys, old, new, message, command):
    cfg = write_cfg(tmp_path, BASE.replace(old, new))
    assert main([command, "--config", cfg]) == 3
    assert capsys.readouterr().err == f"configuration error: {message}\n"


# the upper lattice's relative error at 2.49872 is -0.0173, though it is
# positive elsewhere below B: no power tail can be anchored there
SPLICE_AT_A_NEGATIVE_ERROR = """\
family = weibull
beta = 0.503908
p = 0.650812
engine = panjer
bandwidth = 0.00438106
B = 19.8359
h.family = power
h.scale = 0.937225
h.gamma = 0.0989514
g.coef = 1.0
g.exponent = 0.454618
grid_ratio = 1.91589
x_far = 1.71765e9
"""


@pytest.mark.parametrize("command, lines", [
    ("bound", "g.variant = spliced\ng.bstar = 2.49872\n"),
    ("tune", "g.variant = power\ntune.s = 0.937225\ntune.bstar = 2.49872\n"),
])
def test_a_splice_point_where_the_error_is_not_positive_exits_3(tmp_path, capsys, command,
                                                                lines):
    cfg = write_cfg(tmp_path, SPLICE_AT_A_NEGATIVE_ERROR + lines)
    assert main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.endswith("relative error at the splice point g.bstar = 2.49872 is -0.017326, "
                        "not positive\n")


def test_contraction_failure_exits_2(tmp_path, capsys):
    text = BASE.replace("p = 0.5", "p = 0.2").replace("x_far = 1e6", "x_far = 151")
    cfg = write_cfg(tmp_path, text)
    assert main(["bound", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "bound construction failed:" in err
    assert "150" in err


# criterion 3 pure: delta(100) = 1.25689 >= 1
INFEASIBLE = BASE.replace("p = 0.5", "p = 0.2")


# a failed contraction builds no error table, but the engine's inputs are still
# checked first: each error exits as it did when the table came first, not 2
@pytest.mark.parametrize("old, new, message", [
    pytest.param("bandwidth = 0.05", "bandwidth = -1", "bandwidth must be positive, got -1",
                 id="bandwidth = -1"),
    pytest.param("engine = panjer", "engine = mc\nmc_samples = 0\nseed = 1",
                 "mc_samples must be at least 1, got 0", id="mc_samples = 0"),
    pytest.param("engine = panjer", "engine = mc\nmc_samples = 100\nseed = -1",
                 "seed must be non-negative, got -1", id="seed = -1"),
    pytest.param("bandwidth = 0.05\n", "", "missing required configuration keys: bandwidth",
                 id="no bandwidth"),
])
@pytest.mark.parametrize("command", ["bound", "tune"])
def test_input_errors_come_before_a_failed_contraction(tmp_path, capsys, old, new, message,
                                                       command):
    assert main([command, "--config", write_cfg(tmp_path, INFEASIBLE + TUNE)]) == 2
    capsys.readouterr()
    cfg = write_cfg(tmp_path, INFEASIBLE.replace(old, new) + TUNE)
    assert main([command, "--config", cfg]) == 3
    assert capsys.readouterr().err == f"configuration error: {message}\n"


# finite but huge: a severity tail that underflows at B overflowed the far-tail
# envelope, and a lattice cell wider than B left the error table no cell in it
@pytest.mark.parametrize("old, new, key, message", [
    pytest.param("alpha = 2.2", "alpha = 1e300", "alpha",
                 "severity tail vanishes at B = 100: ParetoDist(alpha=1e+300)",
                 id="alpha = 1e300"),
    pytest.param("bandwidth = 0.05", "bandwidth = 1e300", "bandwidth",
                 "bandwidth must be below B = 100, got 1e+300", id="bandwidth = 1e300"),
])
@pytest.mark.parametrize("command", ["bound", "tune"])
def test_huge_finite_inputs_exit_3_naming_the_key(tmp_path, capsys, monkeypatch, old, new,
                                                  key, message, command):
    # checked before the sweep and the table: no lattice is discretized
    monkeypatch.setattr(bounder, "discretize", refuse)
    cfg = write_cfg(tmp_path, BASE.replace(old, new) + TUNE)
    assert main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"
    assert key in err and "Traceback" not in err


# a K-kernel g that the error table reads outside its domain or where it is
# 0, at its first point at or above h(B)
@pytest.mark.parametrize("text, message", [
    pytest.param("family = weibull\nbeta = 0.9031\nbandwidth = 0.05\nB = 30.58\n"
                 "h.family = logpower\nh.scale = 0.1344\nh.kappa = 0.7149\n",
                 "test function at 0.35, the first point of the error table (h(B) = 0.323747), "
                 "is undefined (log-power cutoff is defined for x > 1 only); raise B = 30.58 or "
                 "h.scale = 0.1344", id="weibull below the cutoff's domain"),
    pytest.param("family = pareto\nalpha = 6.39\nbandwidth = 0.5\nB = 1536\n"
                 "h.family = power\nh.scale = 0.2583\nh.gamma = 0.051\n",
                 "test function at 0.5, the first point of the error table (h(B) = 0.375518), "
                 "is 0, not positive; raise B = 1536 or h.scale = 0.2583",
                 id="pareto where the tail is 1"),
    # the table's first point, 1.2, passes; h(B) = 0.949 is where the sweep
    # first reads g(h(x)), and g is K(x, h(x)) with h(x) needing x > 1
    pytest.param("family = weibull\nbeta = 0.5\nbandwidth = 0.3\nB = 10\n"
                 "h.family = logpower\nh.scale = 0.179\nh.kappa = 2\n",
                 "test function at 0.94904, h(B), where the sweep first reads g(h(x)), is "
                 "undefined (log-power cutoff is defined for x > 1 only); raise B = 10 or "
                 "h.scale = 0.179", id="weibull, h(B) below the cutoff's domain"),
])
def test_a_kkernel_g_undefined_at_h_of_b_exits_3_before_the_sweep(tmp_path, capsys, monkeypatch,
                                                                   text, message):
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(bounder, "_KernelSweep", no_sweep)
    monkeypatch.setattr(bounder, "discretize", refuse)
    cfg = write_cfg(tmp_path, text + "p = 0.5\nengine = panjer\ng.variant = kkernel\n")
    assert main(["bound", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_a_kkernel_g_positive_from_the_first_table_point_certifies(tmp_path):
    # h(20) = 0.977, where the Pareto tail is 1 and K is 0; the table's first
    # point is 1.2, where K is positive, so the certificate stands
    cfg = write_cfg(tmp_path, "family = pareto\nalpha = 2.2\np = 0.9\nengine = panjer\n"
                              "bandwidth = 0.3\nB = 20\nh.family = power\nh.scale = 0.12\n"
                              "h.gamma = 0.7\ng.variant = kkernel\n")
    out = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert "c_hb_b = 2.09374514794\n" in text and "C = 1.07450941675\n" in text


# Weibull 0.805 with h = 0.305 x^0.949: K(x, h(x)) overflows a double from
# x = 38021.4 on. K is inf there without a numpy warning (an error under
# pytest): a K-kernel g is then inf, an input error, and a power g meets
# f1 + f2 = inf, a failed contraction
@pytest.mark.parametrize("g, code, message", [
    pytest.param("g.variant = kkernel\n", 3,
                 "configuration error: test function overflows: g(38021.4)=inf; "
                 "lower h.scale = 0.305\n", id="kkernel"),
    pytest.param("g.variant = power\ng.coef = 1.0\ng.exponent = 0.5\n", 2,
                 "bound construction failed: delta(50) = inf >= 1; the bound construction "
                 "requires delta < 1 (no b <= 10000 achieves delta(b) < 1)\n", id="power"),
])
def test_an_overflowing_K_kernel_warns_nothing(tmp_path, capsys, g, code, message):
    text = ("family = weibull\nbeta = 0.805\np = 0.5\nengine = panjer\nbandwidth = 0.1\n"
            "B = 50\nh.family = power\nh.scale = 0.305\nh.gamma = 0.949\n")
    assert main(["bound", "--config", write_cfg(tmp_path, text + g)]) == code
    assert capsys.readouterr().err == message


def test_a_subnormal_J_fails_the_contraction_not_the_engine(tmp_path, capsys):
    # J at x = 7.00209e7 is 9e-312, below the smallest normal double, where
    # the quadrature's relative test alone cannot pass (kernels._J_ATOL):
    # the construction fails its contraction, exit 2, and no engine error
    # (exit 4) names a J that did not converge
    text = ("family = weibull\nbeta = 0.490724\np = 0.048392\nengine = panjer\n"
            "bandwidth = 0.151081\nB = 153.121\ngrid_ratio = 1.98566\nx_far = 3.16514e11\n"
            "h.family = power\nh.scale = 0.207028\nh.gamma = 0.83437\ng.variant = spliced\n"
            "g.bstar = 32.436\ng.exponent = 0.0804794\ng.coef = 1\n")
    assert main(["bound", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "bound construction failed: delta(153.121) = 7.64721e+241 >= 1; the bound construction "
        "requires delta < 1 (no b <= 10000 achieves delta(b) < 1)\n")


def test_tune_with_every_candidate_infeasible_fails_as_bound(tmp_path, capsys, monkeypatch):
    # the 1.5 scale has the smaller delta (1.087 against 1.257 at scale 1):
    # tune exits with the line bound prints for it, and builds no table
    monkeypatch.setattr(bounder, "discretize", refuse)
    assert main(["tune", "--config", write_cfg(tmp_path, INFEASIBLE + TUNE)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bound construction failed: delta(100) = 1.08706 >= 1;")
    text = INFEASIBLE.replace("h.scale = 1.0", "h.scale = 1.5")
    assert main(["bound", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err == err


def test_min_b_search_stops_below_x_far(tmp_path, capsys):
    # criterion 3 pure with the default min_b_cap of 10000 above x_far: the
    # search reads the sweep up to x_far, so it is a contraction failure
    text = BASE.replace("p = 0.5", "p = 0.2").replace("x_far = 1e6", "x_far = 5000")
    assert main(["bound", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err.endswith(
        "(smallest integer b with delta(b) < 1 is 1082)\n")
    # below min b, the failure names the last integer below x_far
    text = text.replace("x_far = 5000", "x_far = 1000")
    assert main(["bound", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err.endswith("(no b <= 999 achieves delta(b) < 1)\n")


def test_engine_error_exits_4(tmp_path, capsys):
    # Weibull(0.5)'s tail underflows to zero well before 1e7
    cfg = write_cfg(tmp_path, "family = weibull\nbeta = 0.5\np = 0.5\nengine = mc\n"
                    "mc_samples = 1000\nseed = 1\nxgrid = 10, 1e7\n")
    assert main(["delta", "--config", cfg]) == 4
    assert capsys.readouterr().err == (
        "engine error: severity tail vanishes on the grid; relative error undefined\n")


def test_steep_pareto_tail_warns_nothing_before_it_exits_2(tmp_path, capsys):
    # alpha = 150 at B = 100: K evaluates each of its two branches only at
    # its own points, so no numpy overflow warning (an error under pytest)
    # escapes, and J's series, where a quadrature once failed to converge at
    # x = 131.948, finds the contraction failed
    cfg = write_cfg(tmp_path, BASE.replace("alpha = 2.2", "alpha = 150"))
    assert main(["bound", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "bound construction failed: delta(100) = 330.024 >= 1; the bound construction requires "
        "delta < 1 (smallest integer b with delta(b) < 1 is 2519)\n")


def test_a_tail_too_steep_for_the_series_exits_3_before_any_warning(tmp_path, capsys):
    # at alpha = 1e300, K's plateau branch x^alpha overflows: the sweep asks
    # for J's series first, which refuses the exponent; the kernels command
    # reports it too, not as rows of NaN
    text = (BASE.replace("alpha = 2.2", "alpha = 1e300").replace("B = 100", "B = 0.9")
            .replace("h.scale = 1.0", "h.scale = 0.1"))
    for command in ("bound", "kernels"):
        assert main([command, "--config", write_cfg(tmp_path, text + "xgrid = 1.5, 10\n")]) == 3
        assert capsys.readouterr().err == (
            "configuration error: severity tail too steep for the J kernel's series, which "
            "takes at most 1024 terms per half: ParetoDist(alpha=1e+300)\n")


@pytest.mark.parametrize("case", ["config", "certificate", "out"])
def test_unreadable_or_unwritable_files_exit_3(tmp_path, capsys, case):
    # a --config or --certificate that cannot be read, or an --out that
    # cannot be written, is a configuration error naming the file
    missing = str(tmp_path / "missing" / "file.txt")
    cfg = write_cfg(tmp_path, BASE + "xgrid = 10, 20\n")
    argv = {"config": ["tail", "--config", missing],
            "certificate": ["plot-data", "--config", cfg, "--certificate", missing],
            "out": ["tail", "--config", cfg, "--out", missing]}[case]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"configuration error: [Errno 2] No such file or directory: {missing!r}\n")


def test_nan_error_table_exits_4(tmp_path, capsys, monkeypatch):
    # criterion 2 pure on a severity whose tail is NaN on (50, 50.1), inside
    # the error table: the lattice refuses its NaN tails, where a
    # certificate with c_hb_b = nan once printed
    monkeypatch.setattr(cli, "build_dist", lambda cfg: HoledPareto(cfg.require("alpha")))
    cfg = write_cfg(tmp_path, BASE.replace("bandwidth = 0.05", "bandwidth = 0.02")
                    + "grid_ratio = 1.2\n")
    assert main(["bound", "--config", cfg]) == 4
    assert capsys.readouterr().err == "engine error: lattice tails must be finite\n"


H = CutoffFunction.power(1.0, 0.3125)
TABLE = DeltaTable(np.array([1.0, 2.0, 4.0]), np.array([0.3, 0.2, 0.1]), np.zeros(3),
                   "panjer")


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ParetoDist(1.0),
                 "alpha must exceed 1 (finite mean required)", id="alpha"),
    pytest.param(lambda: WeibullDist(1.0),
                 "beta must lie in (0, 1) for a subexponential tail", id="beta"),
    pytest.param(lambda: PowerMixtureDist(()),
                 "mixture needs at least one term", id="terms empty"),
    pytest.param(lambda: PowerMixtureDist(((0.5, 2.0),)),
                 "mixture weights sum to 0.5, expected 1", id="terms weights"),
    pytest.param(lambda: PowerMixtureDist(((1.5, 2.0), (-0.5, 3.0))),
                 "mixture weights must be positive", id="terms weight"),
    pytest.param(lambda: PowerMixtureDist(((1.0, 1.0),)),
                 "mixture exponents must exceed 1", id="terms exponent"),
    pytest.param(lambda: GeometricParams(0.0),
                 "p must lie in (0, 1)", id="p"),
    pytest.param(lambda: discretize(ParetoDist(2.2), 0.0, 10.0),
                 "bandwidth must be positive, got 0", id="bandwidth"),
    pytest.param(lambda: LatticeDistribution(-1.0, np.zeros(1), 0.0),
                 "bandwidth must be positive, got -1", id="lattice bandwidth"),
    pytest.param(lambda: CutoffFunction("cubic", 1.0),
                 "unknown cutoff family 'cubic'", id="h.family"),
    pytest.param(lambda: CutoffFunction.power(-1.0, 0.5),
                 "scale must be positive, got -1", id="h.scale"),
    pytest.param(lambda: CutoffFunction.power(1.0, 1.0),
                 "power cutoff needs gamma in (0, 1)", id="h.gamma"),
    pytest.param(lambda: CutoffFunction.logpower(1.0, 0.0),
                 "log-power cutoff needs kappa > 0", id="h.kappa"),
    pytest.param(lambda: CutoffFunction.logpower(1e12, 1.0),
                 "cutoff exceeds x/2 beyond the probed range", id="h probed range"),
    pytest.param(lambda: PowerTestFunction(0.0, 1.0),
                 "coef must be positive", id="g.coef"),
    pytest.param(lambda: PowerTestFunction(1.0, 0.0),
                 "exponent must be positive", id="g.exponent"),
    pytest.param(lambda: build_spliced_g(TABLE, 500.0, PowerTestFunction(1.0, 0.5)),
                 "bstar=500 outside the table range [1, 4]", id="g.bstar"),
    pytest.param(lambda: build_spliced_g(TABLE, 1.0, PowerTestFunction(1.0, 0.5)),
                 "table too coarse to build an envelope up to bstar", id="g.bstar at start"),
    pytest.param(lambda: mc_tail(ParetoDist(2.2), GeometricParams(0.5), 0, 1, [5.0]),
                 "mc_samples must be at least 1, got 0", id="mc_samples"),
    pytest.param(lambda: mc_tail(ParetoDist(2.2), GeometricParams(0.5), 10, -1, [5.0]),
                 "seed must be non-negative, got -1", id="seed"),
    pytest.param(lambda: bounder._sup_grid(100.0, 0.0, 1.02),
                 "x_far must be positive, got 0", id="x_far"),
    pytest.param(lambda: bounder._sup_grid(100.0, 100.0, 1.02),
                 "x_far must exceed B = 100, got 100", id="x_far at B"),
    pytest.param(lambda: bounder._sup_grid(100.0, math.inf, 1.02),
                 "x_far must be finite, got inf", id="x_far infinite"),
    pytest.param(lambda: bounder._sup_grid(100.0, 1e6, 1.0),
                 "grid_ratio must exceed 1, got 1", id="grid_ratio"),
    pytest.param(lambda: bounder.delta_sup(ParetoDist(2.2), GeometricParams(0.5), H,
                                           PowerTestFunction(1.0, 0.5), 1.0),
                 "from_x=1 below the cutoff domain start 2.7407", id="from_x"),
    pytest.param(lambda: build_bound(ParetoDist(2.2), GeometricParams(0.5), H,
                                     PowerTestFunction(1.0, 0.5), 2.0, bandwidth=0.05),
                 "B must exceed the cutoff domain start 2.7407, got 2", id="B"),
    pytest.param(lambda: tune(ParetoDist(2.2), GeometricParams(0.5), H,
                              KKernelTestFunction(ParetoDist(2.2), H), 100.0, [1.0], [None],
                              bandwidth=0.05),
                 "tuning compares power-tail coefficients; g must be a power shape", id="tune g"),
    pytest.param(lambda: tune(ParetoDist(2.2), GeometricParams(0.5), H,
                              PowerTestFunction(1.0, 0.5), 2.0, [1.0, 1.5], [None],
                              bandwidth=0.05),
                 "no candidate scale admits the horizon B = 2", id="tune B"),
])
def test_library_range_checks_raise_config_error(build, message):
    # the CLI's exit code 3 is this exception; library callers may still
    # catch it as the ValueError it is
    assert ConfigError is config.ConfigError is geomtail.ConfigError
    with pytest.raises(ConfigError) as exc:
        build()
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == message


def refuse(dist, bandwidth, truncation, mode="rounded"):
    """discretize as it fails for a lattice too large to allocate."""
    cells = round(truncation / bandwidth) + 1
    raise MemoryError(f"Unable to allocate {cells * 8 / 2**30:.1f} GiB for an array")


@pytest.mark.parametrize("command", ["tail", "delta"])
def test_unallocatable_lattice_exits_4(tmp_path, capsys, monkeypatch, command):
    # an xgrid up to 1e8 at bandwidth 0.05 sizes a lattice of 2e9 cells; numpy
    # raises MemoryError for it, stood in for here so nothing large is allocated
    monkeypatch.setattr(bounder, "discretize", refuse)
    cfg = write_cfg(tmp_path, BASE + "xgrid = 10, 1e8\n")
    assert main([command, "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err == "engine error: Unable to allocate 14.9 GiB for an array\n"


@pytest.mark.parametrize("command", ["bound", "tune"])
def test_sweep_controls_fail_before_the_table(tmp_path, capsys, monkeypatch, command):
    # the sweep grid, which checks x_far and grid_ratio, is built before the
    # error table: no lattice is discretized for a run that cannot sweep
    monkeypatch.setattr(bounder, "discretize", refuse)
    cfg = write_cfg(tmp_path, BASE.replace("x_far = 1e6", "x_far = 100") + TUNE)
    assert main([command, "--config", cfg]) == 3
    assert capsys.readouterr().err == "configuration error: x_far must exceed B = 100, got 100\n"


def test_no_command_exits_3(capsys):
    assert main([]) == 3


def test_bad_flag_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["bound", "--config", cfg, "--bogus"]) == 3


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # the parser is built from the command table once per process: building
    # it costs about 25 times what parsing with it does
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cfg = write_cfg(tmp_path, BASE + "xgrid = 5\n")
    for _ in range(2):
        assert main(["tail", "--config", cfg, "--out", str(tmp_path / "tail.csv")]) == 0
    assert built.count("geomtail") <= 1


@pytest.mark.parametrize("flags, out", [
    pytest.param([], "x,tail,stderr,engine,lo,hi\n5,", id="stdout"),
    pytest.param(["--engine", "mc"], ",mc,,\n", id="engine override"),
])
def test_tail_command_writes_stdout_with_the_flagged_engine(tmp_path, capsys, flags, out):
    cfg = write_cfg(tmp_path, BASE + "xgrid = 5\nmc_samples = 1000\nseed = 1\n")
    assert main(["tail", "--config", cfg, *flags]) == 0
    assert out in capsys.readouterr().out


@pytest.mark.parametrize("line, message", [
    ("seed = 1.5", "seed: expected an integer, got '1.5'"),
    ("xgrid = , ,", "xgrid: expected a comma-separated list"),
    ("tune.bstar =", "tune.bstar: expected a comma-separated list"),
    ("tune.bstar = none, x", "tune.bstar: expected a number, got 'x'"),
])
def test_config_value_errors_name_the_key(line, message):
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_text(line)
    assert str(exc.value) == message


# ---------------------------------------------------------------- tables

def test_tail_command_matches_engine(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "xgrid = 5, 10, 20\n")
    out = tmp_path / "tail.csv"
    assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,tail,stderr,engine,lo,hi"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(r[0]) for r in rows] == [5.0, 10.0, 20.0]
    lat = discretize(ParetoDist(2.2), 0.05, 40.0)
    ref = panjer_tail(lat, GeometricParams(0.5), 20.0)
    for r in rows:
        j = int(round(float(r[0]) / 0.05))
        assert float(r[1]) == pytest.approx(ref.tails[j], rel=1e-12)
        assert float(r[2]) == 0.0
        assert r[3] == "panjer"


def test_tail_command_below_the_lattice(tmp_path):
    # S > 0, so P(S > x) = 1 for x < 0 on both engines; the lattice lookup
    # must not read a negative index from the far end of the table
    mc = BASE.replace("engine = panjer", "engine = mc") + "mc_samples = 1000\nseed = 1\n"
    for text in (BASE, mc):
        cfg = write_cfg(tmp_path, text + "xgrid = -1, 5\n")
        out = tmp_path / "tail.csv"
        assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[:2] == ["-1", "1"]


@pytest.mark.parametrize("xgrid", ["-2, -1", "-1, 0"])
@pytest.mark.parametrize("command", ["tail", "delta"])
def test_tables_at_or_below_zero_agree_across_engines(tmp_path, command, xgrid):
    # P(S > x) = 1 for x <= 0 here (S >= 1): Panjer needs a lattice of at
    # least one cell to say so, as Monte Carlo does
    mc = BASE.replace("engine = panjer", "engine = mc") + "mc_samples = 1000\nseed = 1\n"
    outs = []
    for text in (BASE, mc):
        cfg = write_cfg(tmp_path, text + f"xgrid = {xgrid}\n")
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outs.append(out.read_text())
    xs = xgrid.split(", ")
    rows = [out.splitlines()[1:] for out in outs]
    # Monte Carlo leaves the lo and hi cells of the lattice brackets empty
    if command == "tail":
        assert rows == [[f"{x},1,0,panjer,1,1" for x in xs], [f"{x},1,0,mc,," for x in xs]]
    else:
        assert rows == [[f"{x},-0.5,0,-0.5,-0.5" for x in xs], [f"{x},-0.5,0,," for x in xs]]


def test_delta_command_output(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "xgrid = 10, 30\n")
    out = tmp_path / "delta.csv"
    assert main(["delta", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,delta,delta_stderr,lo,hi"
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(v > 0.0 for v in vals)  # approximation underestimates here


BRACKET_SEVERITIES = {
    "pareto 2.2": "family = pareto\nalpha = 2.2\n",
    "pareto 5": "family = pareto\nalpha = 5\n",
    "weibull 0.5": "family = weibull\nbeta = 0.5\n",
    # criterion 5's
    "mixture": f"family = mixture\nterms = [({1 / 3!r}, 2), ({2 / 3!r}, 3)]\n",
}


def _bracketed(lo: float, value: float, hi: float, gamma: float, shift: float) -> bool:
    """lo <= value <= hi for three printed CSV cells, up to their rounding:
    the positive quantities they print, each cell plus shift (a tail, or
    1 + delta), are each within the relative gamma of their exact values,
    and 12 significant digits move a cell by at most 5e-12 of it."""
    def at_most(a, b):
        return ((a + shift) * (1.0 - gamma)
                <= (b + shift) * (1.0 + gamma) + 1e-11 * (abs(a) + abs(b)) + 1e-15)

    return at_most(lo, value) and at_most(value, hi)


@settings(max_examples=30, deadline=None)
@given(severity=st.sampled_from(sorted(BRACKET_SEVERITIES)), p=st.floats(0.05, 0.95),
       bw=st.floats(0.05, 1.0), engine=st.sampled_from(["panjer", "mc"]),
       xgrid=st.lists(st.floats(-3.0, 30.0), min_size=1, max_size=5, unique=True).map(sorted))
def test_tail_and_delta_print_the_rounded_estimate_inside_its_brackets(tmp_path_factory, severity,
                                                                      p, bw, engine, xgrid):
    # floor <= round <= ceil of X / bw pathwise, so the lower and upper
    # lattices' compound tails bracket the rounded one's at every x, off the
    # lattice and at or below 0 too; the bracket is printed beside the
    # estimate, which is the library's rounded table to the last digit
    tmp_path = tmp_path_factory.mktemp("brackets")
    engine_keys = (f"bandwidth = {bw!r}\n" if engine == "panjer"
                   else "mc_samples = 200\nseed = 7\n")
    text = (BRACKET_SEVERITIES[severity] + f"p = {p!r}\nengine = {engine}\n" + engine_keys
            + "xgrid = " + ", ".join(repr(x) for x in xgrid) + "\n")
    cfg = write_cfg(tmp_path, text)
    rows = {}
    for command in ("tail", "delta"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        rows[command] = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    cfg_values = RunConfig.from_text(text)
    dist, params, xs = config.build_dist(cfg_values), GeometricParams(p), np.array(xgrid)
    if engine == "mc":
        assert all(row[-2:] == ["", ""] for rows_ in rows.values() for row in rows_)
        return
    ref = bounder._tail_table(dist, params, float(xs.max()), bandwidth=bw, xs=xs,
                              mode="rounded")
    ref_delta = delta_from_tails(ref, dist, params)
    assert [row[1] for row in rows["tail"]] == [f"{v:.12g}" for v in ref.tails.tolist()]
    assert [row[1] for row in rows["delta"]] == [f"{v:.12g}" for v in ref_delta.delta.tolist()]
    gamma = panjer_rounding(math.floor(max(xs.max(), bw) / bw + 1e-9))
    for row in rows["tail"]:
        assert _bracketed(float(row[4]), float(row[1]), float(row[5]), gamma, 0.0), row
    for row in rows["delta"]:
        assert _bracketed(float(row[3]), float(row[1]), float(row[4]), gamma, 1.0), row


def test_truncation_rounds_up_to_whole_cells(tmp_path):
    """The lattice ends at B rounded up to the next whole cell, and the
    library and the CLI read P(S > x) off it alike."""
    dist, params = ParetoDist(2.2), GeometricParams(0.5)
    build_bound(dist, params, CutoffFunction.power(1, 1 / 3.2), PowerTestFunction(1, 0.6875),
                100.0, bandwidth=0.3)
    table = _build_delta_table(dist, params, 100.0, 4.0, "panjer", 0.3, None, None)
    assert table.xs[-1] == pytest.approx(99.9)
    # the certificate's table is the upper lattice's, which delta's hi column reads
    cfg = write_cfg(tmp_path, BASE.replace("bandwidth = 0.05", "bandwidth = 0.3")
                    + "xgrid = 100\n")
    out = tmp_path / "delta.csv"
    assert main(["delta", "--config", cfg, "--out", str(out)]) == 0
    x, _, _, _, delta = (float(v) for v in out.read_text().splitlines()[1].split(","))
    assert x == 100.0
    # S lives on the lattice, so P(S > 100) = P(S > 99.9): the CLI's delta at
    # 100 and the table's at 99.9 rescale the same compound tail
    compound_tail = (1.0 + delta) * dist.tail(100.0) / params.p
    assert compound_tail == pytest.approx(
        (1.0 + table.delta[-1]) * dist.tail(table.xs[-1]) / params.p, rel=1e-12)


# the largest point each command reads P(S > x) at: B, the last xgrid point,
# or plot.xmax beyond B; none of them on the 0.3 lattice
@pytest.mark.parametrize("command, xmax", [
    ("bound", 100.0), ("tune", 100.0), ("tail", 33.31), ("delta", 33.31), ("plot-data", 120.1),
])
def test_the_lattice_ends_at_xmax_rounded_up_to_whole_cells(tmp_path, monkeypatch, command,
                                                            xmax):
    text = (BASE.replace("bandwidth = 0.05", "bandwidth = 0.3") + TUNE
            + "\nxgrid = 5, 33.31\nplot.xmax = 120.1\n")
    cfg = write_cfg(tmp_path, text)
    cert = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(cert)]) == 0
    ends, real = [], bounder.discretize

    def recording(dist, bandwidth, truncation, mode="rounded"):
        ends.append(truncation)
        return real(dist, bandwidth, truncation, mode)

    monkeypatch.setattr(bounder, "discretize", recording)
    # as a new process: no table kept from the bound above, so each lattice is discretized
    monkeypatch.setattr(bounder, "_panjer_last", {})
    extra = ["--certificate", str(cert)] if command == "plot-data" else []
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *extra]) == 0
    want = math.ceil(xmax / 0.3 - 1e-9) * 0.3
    assert ends and set(ends) == {want}
    assert len(ends) == (3 if command in ("tail", "delta") else 1)


def test_mc_tail_respects_seed_flag(tmp_path):
    text = BASE.replace("engine = panjer", "engine = mc")
    text = text.replace("bandwidth = 0.05", "mc_samples = 50000\nseed = 11")
    cfg = write_cfg(tmp_path, text + "xgrid = 5, 10\n")
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["tail", "--config", cfg, "--out", str(a)]) == 0
    assert main(["tail", "--config", cfg, "--out", str(b)]) == 0
    assert main(["tail", "--config", cfg, "--out", str(c), "--seed", "12"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


WEIBULL_LOGPOWER = """\
family = weibull
beta = 0.5
p = 0.5
engine = panjer
bandwidth = 0.05
B = 100
h.family = logpower
h.scale = 0.179
h.kappa = 2
g.variant = kkernel
"""


def test_a_J_failure_past_a_failed_contractions_stop_is_not_met(tmp_path, capsys, monkeypatch):
    """Criterion 6 unscaled fails its contraction. At grid ratio 1.2 its
    sweep stops after 32 points, where the delta envelope alone takes over
    (the phi envelope once held it to 48): a J failure past that point is not
    met, so the run exits 2 with the line it prints with no failure; a
    failure before it exits 4."""
    text = WEIBULL_LOGPOWER.replace("h.scale = 0.179", "h.scale = 1.0") + "grid_ratio = 1.2\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["bound", "--config", cfg]) == 2
    unfailed = capsys.readouterr().err
    assert unfailed.endswith("(smallest integer b with delta(b) < 1 is 1658)\n")
    grid = bounder._sup_grid(100.0, 1e8, 1.2)
    real = bounder.J_kernel
    fails_from = [grid[32]]

    def failing(dist, x, r, *args, **kwargs):
        beyond = np.ravel(x)[np.ravel(x) >= fails_from[0]]
        if beyond.size:
            raise RuntimeError(f"J kernel quadrature did not converge at x={beyond[0]:g}")
        return real(dist, x, r, *args, **kwargs)

    monkeypatch.setattr(bounder, "J_kernel", failing)
    assert main(["bound", "--config", cfg]) == 2
    assert capsys.readouterr().err == unfailed
    fails_from[0] = grid[31]
    assert main(["bound", "--config", cfg]) == 4
    assert capsys.readouterr().err == (
        f"engine error: J kernel quadrature did not converge at x={grid[31]:g}\n")


def test_kernels_command_output(tmp_path):
    # a log-power cutoff is undefined at x <= 1: that point is a NaN row
    for text in (BASE + "xgrid = 50, 100, 500\n",
                 WEIBULL_LOGPOWER + "xgrid = 0.5, 50, 100, 500\n"):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "kern.csv"
        assert main(["kernels", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,K,J,envelopeK,envelopeJ"
        for ln in lines[1:]:
            x, kv, jv, ek, ej = (float(v) for v in ln.split(","))
            if x <= 1.0:
                assert all(math.isnan(v) for v in (kv, jv, ek, ej))
                continue
            assert 0.0 <= kv <= ek  # envelope dominates
            assert jv <= ej


def test_kernels_command_prints_inf_where_an_envelope_overflows(tmp_path):
    # alpha = 300 with h(1.5) = 0.1135: (2/h)^alpha overflows a double, where
    # it once raised OverflowError out of the command
    cfg = write_cfg(tmp_path, "family = pareto\nalpha = 300\np = 0.5\nh.family = power\n"
                    "h.scale = 0.1\nh.gamma = 0.3125\nxgrid = 1.5, 10\n")
    out = tmp_path / "kern.csv"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert [row[4] for row in rows] == ["inf", "7.24483826845e+296"]


# ---------------------------------------------------------------- tune

def test_tune_command_output(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "tune.s = 1.0, 1.14\ntune.bstar = none, 21.3\n")
    out = tmp_path / "tune.csv"
    assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# best scale")
    assert any(ln.startswith("# coefficient") for ln in lines)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "scale,bstar,feasible,C,coefficient,note"
    assert len(data) == 5  # header + 2 x 2 candidates


# ---------------------------------------------------------------- plot data

def test_plot_data_bounds_exact_curve(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "plot.xmax = 300\nplot.points = 40\n")
    cert_path = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(cert_path)]) == 0
    out = tmp_path / "plot.csv"
    assert main(["plot-data", "--config", cfg, "--certificate", str(cert_path),
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "x,log10_delta_exact,log10_delta_upper"
    rows = [ln.split(",") for ln in lines if not ln.startswith("#") and "," in ln][1:]
    assert len(rows) >= 20
    valid_from = float(parse_kv(cert_path.read_text())["valid_from"])
    checked = 0
    for r in rows:
        x, exact, upper = float(r[0]), float(r[1]), float(r[2])
        # curves start at h(B) for context; domination is claimed beyond
        # the certificate's validity point only
        if x >= valid_from and not math.isnan(exact):
            assert upper >= exact
            checked += 1
    assert checked >= 5


def test_plot_data_rebuilds_the_certificates_kappa_whatever_the_mode(tmp_path):
    # the certificate is built on the upper lattice, whatever lattice the
    # tail and delta estimates read, and so is plot-data's table: it rebuilds
    # the certified splice constant
    text = (BASE.replace("h.scale = 1.0", "h.scale = 1.14")
            .replace("g.variant = power", "g.variant = spliced") + "g.bstar = 21.3\n")
    cert_path = tmp_path / "cert.txt"
    assert main(["bound", "--config", write_cfg(tmp_path, text), "--out", str(cert_path)]) == 0
    kappa = float(parse_kv(cert_path.read_text())["kappa_splice"])
    out = tmp_path / "plot.csv"
    assert main(["plot-data", "--config", write_cfg(tmp_path, text, name="plot.cfg"),
                 "--certificate", str(cert_path), "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == f"# spliced test function rebuilt, kappa = {kappa:.12g}"


def test_plot_data_notes_a_kappa_that_drifts_from_the_certificate(tmp_path):
    text = (BASE.replace("h.scale = 1.0", "h.scale = 1.14")
            .replace("g.variant = power", "g.variant = spliced") + "g.bstar = 21.3\n")
    cfg = write_cfg(tmp_path, text)
    cert_path = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(cert_path)]) == 0
    kappa = float(parse_kv(cert_path.read_text())["kappa_splice"])
    cert_path.write_text("".join(
        f"kappa_splice = {2.0 * kappa!r}\n" if ln.startswith("kappa_splice") else ln
        for ln in cert_path.read_text().splitlines(keepends=True)))
    out = tmp_path / "plot.csv"
    assert main(["plot-data", "--config", cfg, "--certificate", str(cert_path),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == (
        f"# spliced test function rebuilt, kappa = {kappa:.12g}"
        " (rebuilt kappa drifts by 5.00e-01 from the certificate)")


@pytest.mark.parametrize("points", [0, -1])
def test_plot_data_rejects_fewer_than_one_point(tmp_path, capsys, points):
    cfg = write_cfg(tmp_path, BASE)
    cert_path = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(cert_path)]) == 0
    plot_cfg = write_cfg(tmp_path, BASE + f"plot.points = {points}\n", name="plot.cfg")
    assert main(["plot-data", "--config", plot_cfg, "--certificate", str(cert_path)]) == 3
    assert capsys.readouterr().err == (
        f"configuration error: plot.points must be at least 1, got {points}\n")


@pytest.mark.parametrize("xmax", ["-5", "3"])
def test_plot_data_rejects_xmax_at_or_below_the_cutoff(tmp_path, capsys, xmax):
    # the curves start at h(B) = 100^0.3125, so nothing lies below plot.xmax
    cfg = write_cfg(tmp_path, BASE)
    cert_path = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(cert_path)]) == 0
    plot_cfg = write_cfg(tmp_path, BASE + f"plot.xmax = {xmax}\n", name="plot.cfg")
    assert main(["plot-data", "--config", plot_cfg, "--certificate", str(cert_path)]) == 3
    assert capsys.readouterr().err == (
        f"configuration error: plot.xmax must exceed h(B) = 4.21697, got {xmax}\n")


def test_plot_data_rejects_xmax_below_the_first_table_point(tmp_path, capsys):
    # h(B) = 4.217 lies between the table points 4.20 and 4.25
    cfg = write_cfg(tmp_path, BASE)
    cert_path = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(cert_path)]) == 0
    plot_cfg = write_cfg(tmp_path, BASE + "plot.xmax = 4.24\n", name="plot.cfg")
    assert main(["plot-data", "--config", plot_cfg, "--certificate", str(cert_path)]) == 3
    assert capsys.readouterr().err == (
        "configuration error: plot.xmax must reach 4.25, the first table point above "
        "h(B) = 4.21697, got 4.24\n")


# ---------------------------------------------------------------- packaging

def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "xgrid = 5, 10\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "geomtail", "tail", "--config", cfg],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,tail,stderr,engine")


def test_package_imports_no_scipy():
    # the library and its CLI run on numpy alone; only the tests and the
    # benchmark use scipy. Nor does an import load numpy.polynomial
    # (_gauss_legendre computes its own nodes) or concurrent.futures (mc_tail
    # imports its pool when it runs): both would add to every run's start-up
    # time and peak memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import geomtail, geomtail.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m.startswith(('numpy.polynomial', 'concurrent.futures'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_tracing_installs():
    # perfbench/tracing.py wraps package attributes by name; removing one
    # must fail here, not only in a traced benchmark run
    root = Path(__file__).resolve().parents[1]
    code = (
        "import importlib.util, sys\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        "spec = importlib.util.spec_from_file_location("
        f"'tracing', {str(root / 'perfbench' / 'tracing.py')!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracing.install(tracing.Tracer())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
