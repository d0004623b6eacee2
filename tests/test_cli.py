"""Command-line interface: commands, exit codes, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geomtail
from geomtail import bounder, config
from geomtail.bounder import _build_delta_table, build_bound, tune
from geomtail.cli import main
from geomtail.compound import DeltaTable, mc_tail, panjer_tail
from geomtail.config import parse_kv
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


@pytest.mark.parametrize("line", ["truncation = 300", "mc_grid_points = 512", "min_b_cap = 150"])
def test_derived_sizes_are_not_configuration_keys(tmp_path, capsys, line):
    # the lattice end, the Monte Carlo grid size and the min-b search cap are
    # worked out or fixed, not set
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
])
def test_out_of_range_value_exits_3(tmp_path, capsys, old, new, message, command):
    cfg = write_cfg(tmp_path, BASE.replace(old, new))
    assert main([command, "--config", cfg]) == 3
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_contraction_failure_exits_2(tmp_path, capsys):
    text = BASE.replace("p = 0.5", "p = 0.2").replace("x_far = 1e6", "x_far = 151")
    cfg = write_cfg(tmp_path, text)
    assert main(["bound", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "bound construction failed:" in err
    assert "150" in err


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
    pytest.param(lambda: LatticeDistribution(-1.0, np.ones(1), 0.0, 0.0),
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
    # an xgrid up to 1e8 at bandwidth 0.05 sizes a lattice of 4e9 cells; numpy
    # raises MemoryError for it, stood in for here so nothing large is allocated
    monkeypatch.setattr(bounder, "discretize", refuse)
    cfg = write_cfg(tmp_path, BASE + "xgrid = 10, 1e8\n")
    assert main([command, "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err == "engine error: Unable to allocate 29.8 GiB for an array\n"


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


# ---------------------------------------------------------------- tables

def test_tail_command_matches_engine(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "xgrid = 5, 10, 20\n")
    out = tmp_path / "tail.csv"
    assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,tail,stderr,engine"
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
    if command == "tail":
        assert outs[0].splitlines()[1:] == [f"{x},1,0,panjer" for x in xs]
        assert outs[1] == outs[0].replace("panjer", "mc")
    else:
        assert outs[0].splitlines()[1:] == [f"{x},-0.5,0" for x in xs]
        assert outs[1] == outs[0]


def test_delta_command_output(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "xgrid = 10, 30\n")
    out = tmp_path / "delta.csv"
    assert main(["delta", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,delta,delta_stderr"
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(v > 0.0 for v in vals)  # approximation underestimates here


def test_truncation_rounds_up_to_whole_cells(tmp_path):
    """The lattice ends at 2 B rounded up to the next whole cell, and the
    library and the CLI read P(S > x) off it alike."""
    dist, params = ParetoDist(2.2), GeometricParams(0.5)
    cert = build_bound(dist, params, CutoffFunction.power(1, 1 / 3.2),
                       PowerTestFunction(1, 0.6875), 100.0, bandwidth=0.3)
    assert cert.truncation == pytest.approx(667 * 0.3)
    table = _build_delta_table(dist, params, 100.0, 4.0, "panjer", 0.3, None, None)
    assert table.xs[-1] == pytest.approx(99.9)
    cfg = write_cfg(tmp_path, BASE.replace("bandwidth = 0.05", "bandwidth = 0.3")
                    + "xgrid = 100\n")
    out = tmp_path / "delta.csv"
    assert main(["delta", "--config", cfg, "--out", str(out)]) == 0
    x, delta, _ = (float(v) for v in out.read_text().splitlines()[1].split(","))
    assert x == 100.0
    # S lives on the lattice, so P(S > 100) = P(S > 99.9): the CLI's delta at
    # 100 and the table's at 99.9 rescale the same compound tail
    compound_tail = (1.0 + delta) * dist.tail(100.0) / params.p
    assert compound_tail == pytest.approx(
        (1.0 + table.delta[-1]) * dist.tail(table.xs[-1]) / params.p, rel=1e-12)


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


def test_plot_data_rebuilds_with_the_configured_mode(tmp_path):
    # the certificate does not record the discretization mode, so plot-data
    # takes it from the run config and rebuilds the certified splice constant
    text = (BASE.replace("h.scale = 1.0", "h.scale = 1.14")
            .replace("g.variant = power", "g.variant = spliced")
            + "g.bstar = 21.3\nmode = lower\n")
    cfg = write_cfg(tmp_path, text)
    cert_path = tmp_path / "cert.txt"
    assert main(["bound", "--config", cfg, "--out", str(cert_path)]) == 0
    out = tmp_path / "plot.csv"
    assert main(["plot-data", "--config", cfg, "--certificate", str(cert_path),
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    kappa = float(parse_kv(cert_path.read_text())["kappa_splice"])
    assert header == f"# spliced test function rebuilt, kappa = {kappa:.12g}"


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
    # benchmark use scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import geomtail, geomtail.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
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
