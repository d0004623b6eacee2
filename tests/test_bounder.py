"""Bound construction: f-terms, suprema, interval constants, certificates."""

import collections
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomtail import bounder, kernels
from geomtail.bounder import (
    BoundCertificate,
    ProcedureFailed,
    bound_constant,
    build_bound,
    c_interval,
    delta_sup,
    f_terms,
    tune,
    verify_bound,
)
from geomtail.compound import DeltaTable, delta_from_tails, panjer_tail
from geomtail.config import CONFIG_KEYS, RunConfig, build_dist, build_g, build_h, parse_kv
from geomtail.dist import (
    ConfigError,
    GeometricParams,
    ParetoDist,
    PowerMixtureDist,
    WeibullDist,
    discretize,
)
from geomtail.kernels import (
    CutoffFunction,
    KKernelTestFunction,
    MonotoneEnvelope,
    PowerTestFunction,
    SplicedTestFunction,
)
from conftest import HoledPareto

PARETO = ParetoDist(2.2)
HALF = GeometricParams(0.5)
H_PARETO = CutoffFunction.power(1.0, 1.0 / 3.2)
G_PARETO = PowerTestFunction(1.0, 0.6875)


def pareto_delta_table(bw=0.01, xmax=40.0):
    lat = discretize(PARETO, bw, 2 * xmax)
    tt = panjer_tail(lat, HALF, xmax)
    return delta_from_tails(tt, PARETO, HALF)


# ---------------------------------------------------------------- f-terms

def test_one_step_recursion_inequality():
    """The exact relative error must satisfy the one-step domination
    delta(x) <= (f1 + f2) C[h(x), x] g(x)-normalized + f3 g(x), which is the
    inequality the whole construction iterates. Checked against the exact
    Panjer table."""
    table = pareto_delta_table()
    bw = 0.01
    for x in np.linspace(10.0, 40.0, 16):
        j = int(round(x / bw))
        dx = table.delta[j]
        ft = f_terms(PARETO, HALF, H_PARETO, G_PARETO, float(x))
        chx = c_interval(table, G_PARETO, float(H_PARETO(np.array([x]))[0]), float(x))
        rhs = (ft.f1 + ft.f2) * chx * G_PARETO(float(x)) + ft.f3 * G_PARETO(float(x))
        assert dx <= rhs + 1e-9, f"x={x}: {dx} > {rhs}"


def test_f_terms_far_field_limits():
    # K -> 0, F(h) -> 1, g-ratio -> 1: f1 -> q while f2 decays like a small
    # negative power of x, so it shrinks slowly but monotonically
    ft = f_terms(PARETO, HALF, H_PARETO, G_PARETO, 1e8)
    assert ft.f1 == pytest.approx(HALF.q, rel=1e-3)
    nearer = f_terms(PARETO, HALF, H_PARETO, G_PARETO, 1e6)
    assert 0.0 < ft.f2 < nearer.f2 < 0.05
    # at the balanced exponent the J part of f3 cancels against the
    # distribution-function correction, leaving (1 - p^2) * alpha
    assert ft.f3 == pytest.approx((1.0 - 0.25) * 2.2, rel=1e-3)


def test_f_terms_vanish_for_degenerate_count():
    nearly_one = GeometricParams(1.0 - 1e-6)
    ft = f_terms(PARETO, nearly_one, H_PARETO, G_PARETO, 1e4)
    assert abs(ft.f1) < 1e-4
    assert abs(ft.f2) < 1e-4
    assert abs(ft.f3) < 1e-4


def test_f_terms_rejects_bad_cut():
    with pytest.raises(ValueError):
        f_terms(PARETO, HALF, H_PARETO, G_PARETO, 1.0)  # h(x) > x/2 there


def test_f_terms_equals_sweep_at_grid_points():
    """The sweep evaluates the kernels over the whole grid and combines them
    with g's values as arrays; f_terms is the one-point case, and at every
    grid point the two agree bit for bit."""
    spliced = bounder.build_spliced_g(pareto_delta_table(bw=0.05, xmax=100.0), 21.3, G_PARETO)
    sweep = bounder._kernel_sweep(PARETO, H_PARETO, bounder._sup_grid(100.0, 1e5, 1.3))
    assert sweep.error is None and sweep.x.size > 20
    for g in (G_PARETO, spliced, KKernelTestFunction(PARETO, H_PARETO)):
        terms = [f_terms(PARETO, HALF, H_PARETO, g, x) for x in sweep.x.tolist()]
        assert [ft.x for ft in terms] == sweep.x.tolist()
        f1, f2, f3 = bounder._combine(HALF, *bounder._g_values(g, sweep.x, sweep.r),
                                      sweep.K, sweep.J, sweep.tail_r)
        assert [ft.f1 for ft in terms] == f1.tolist()
        assert [ft.f2 for ft in terms] == f2.tolist()
        assert [ft.f3 for ft in terms] == f3.tolist()
        d_res, p_res = bounder._sup_pair(sweep, HALF, g)
        f12 = [ft.f1 + ft.f2 for ft in terms]
        f3 = [ft.f3 for ft in terms]
        assert d_res.grid_max == max(f12)
        assert d_res.grid_argmax == terms[int(np.argmax(f12))].x
        if d_res.value >= 1.0:  # the K-kernel g fails the contraction: no phi
            assert p_res is None
            continue
        assert p_res.grid_max == max(f3)
        assert p_res.grid_argmax == terms[int(np.argmax(f3))].x


# ---------------------------------------------------------------- constant

def test_bound_constant_branches():
    # small interval constant: the fixed-point branch phi/(1-delta) wins
    assert bound_constant(0.5, 1.0, 0.1) == pytest.approx(2.0)
    # large interval constant: the one-step branch phi + delta c wins
    assert bound_constant(0.5, 1.0, 10.0) == pytest.approx(6.0)


def test_bound_constant_rejections():
    for bad in (1.0, 1.5, 0.0, -0.1):
        with pytest.raises(ValueError):
            bound_constant(bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        bound_constant(0.5, -0.2, 1.0)
    with pytest.raises(ValueError):
        bound_constant(0.5, 1.0, -1.0)


@pytest.mark.parametrize("delta_b, phi, c_hb_b", [(math.nan, 1.0, 1.0), (0.5, math.nan, 1.0),
                                                  (0.5, 1.0, math.nan)])
def test_bound_constant_rejects_nan(delta_b, phi, c_hb_b):
    # max(x, nan) is x: a NaN component would otherwise drop out of C
    with pytest.raises(ValueError):
        bound_constant(delta_b, phi, c_hb_b)


@pytest.mark.parametrize("hole, engine, message", [
    pytest.param((50.0, 50.1), dict(engine="panjer", bandwidth=0.02),
                 "lattice tails must be finite", id="panjer"),
    pytest.param((49.9, 50.0), dict(engine="mc", mc_samples=20_000, seed=7),
                 "severity tail is nan at x=49.9499; relative error undefined", id="mc"),
])
def test_a_nan_error_table_certifies_nothing(hole, engine, message):
    # criterion 2 pure with the hole inside its error table [h(100), 100]:
    # on the lattice, the NaN tails fail its constructor; the Monte Carlo
    # error table refuses the NaN tail at its grid point 49.9499, where delta
    # would be NaN. C once dropped it, as max(x, nan) is x
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_bound(HoledPareto(2.2, hole), HALF, H_PARETO, G_PARETO, 100.0, grid_ratio=1.2,
                    **engine)


# ---------------------------------------------------------------- suprema

def test_delta_sup_non_increasing_in_start():
    vals = [float(delta_sup(PARETO, HALF, H_PARETO, G_PARETO, b, x_far=1e6))
            for b in (100.0, 200.0, 400.0)]
    assert vals[0] >= vals[1] - 1e-3 * vals[1]
    assert vals[1] >= vals[2] - 1e-3 * vals[2]


def test_sup_certifies_beyond_grid():
    res = delta_sup(PARETO, HALF, H_PARETO, G_PARETO, 100.0, x_far=1e6)
    assert res.tail_certified
    assert res.tail_bound is not None
    assert res.value >= res.grid_max
    assert 100.0 <= res.grid_argmax <= 1e6
    cert = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                       engine="panjer", bandwidth=0.05, x_far=1e6)
    assert cert.phi_tail_certified
    assert cert.phi >= 0.0


def test_sup_uncertified_for_small_log_cutoff():
    # the regime thresholds for the stretched-exponential envelopes are not
    # reached at this scale, so the sup falls back to the grid maximum
    d = WeibullDist(0.5)
    h = CutoffFunction.logpower(0.179, 2.0)
    g = KKernelTestFunction(dist=d, h=h)
    res = delta_sup(d, HALF, h, g, 100.0, x_far=1e6)
    assert not res.tail_certified
    assert res.note != ""
    assert res.value == res.grid_max


# ---------------------------------------------------------------- the stopped sweep

def full_sup_pair(sweep, params, g):
    """_sup_pair over every point of a sweep with J everywhere: the grid
    maxima closed by the envelope at x_far alone, the reference for the
    sweep that stops where the envelope takes over."""
    f1, f2, f3 = bounder._terms(sweep, params, g)
    env = bounder._tail_envelopes(sweep.dist, params, sweep.h, g, sweep.x_far)
    note = "" if env.certified else (
        f"grid maximum only; tail beyond {sweep.x_far:g} not certified: {env.note}")
    results = []
    for vals, bound in ((f1 + f2, env.f12), (f3, env.f3)):
        i = int(np.argmax(vals))
        value = max(float(vals[i]), bound) if env.certified else float(vals[i])
        results.append(bounder.SupResult(value, float(vals[i]), float(sweep.x[i]), bound,
                                         env.certified, note))
    if results[1].value < 0.0:
        results[1] = dataclasses.replace(results[1], value=0.0, note=(
            note + "; " if note else "") + "negative remainder supremum clamped to 0")
    if not results[0].value < 1.0:
        # the last point at one over every grid point, where the min-b search starts
        at_one = np.flatnonzero(~(f1 + f2 < 1.0))
        results[0] = dataclasses.replace(
            results[0], last_at_one=float(sweep.x[at_one[-1]]) if at_one.size else None)
    return tuple(results)


@st.composite
def sweep_cases(draw):
    """A Pareto or a two-term power mixture, p, a power cutoff, a pure or
    spliced power g within the envelope's exponent rule, and a grid."""
    exponents = draw(st.lists(st.floats(1.5, 6.0), min_size=1, max_size=2))
    if len(exponents) == 1:
        dist = ParetoDist(exponents[0])
    else:
        w = draw(st.floats(0.1, 0.9))
        dist = PowerMixtureDist(((w, exponents[0]), (1.0 - w, exponents[1])))
    params = GeometricParams(draw(st.floats(0.05, 0.95)))
    gamma = draw(st.floats(0.1, 0.6))
    h = CutoffFunction.power(draw(st.floats(0.5, 2.5)), gamma)
    # above the rule (1.2) no envelope is certified and the sweep reads every point
    e = min(min(exponents) * gamma, 1.0 - gamma) * draw(st.sampled_from([1.0, 0.9, 0.5, 1.2]))
    g = PowerTestFunction(1.0, e)
    B = h.domain_start * draw(st.floats(1.05, 40.0))
    if draw(st.booleans()):
        bstar = B * draw(st.floats(0.2, 5.0))
        env = MonotoneEnvelope(np.array([bstar / 2.0, bstar]), np.array([1.0, 0.5]))
        g = SplicedTestFunction(bstar=bstar, envelope=env, kappa_splice=0.5 / g(bstar), tailg=g)
    grid = bounder._sup_grid(B, draw(st.sampled_from([1e5, 1e8])),
                             draw(st.sampled_from([1.02, 1.2, 1.5])))
    return dist, params, h, g, grid


@settings(max_examples=100, deadline=None)
@given(sweep_cases())
def test_stopped_sweep_is_the_full_sweep_bit_for_bit(case):
    """The stopped sweep's delta supremum is the full sweep's, bit for bit,
    and so is its phi whenever delta < 1. A failed contraction stops on the
    delta conditions alone and returns no phi, and its min b is the full
    sweep's."""
    dist, params, h, g, grid = case
    full = bounder._kernel_sweep(dist, h, grid)
    try:
        want = full_sup_pair(full, params, g)
    except ValueError:
        assume(False)  # a kernel failure, which a stopped sweep may not meet
    assume(full.error is None)
    sweep = bounder._KernelSweep(dist, h, grid)
    got = bounder._sup_pair(sweep, params, g)
    assert got[0] == want[0]
    assert sweep.J.tolist() == full.J[:sweep.J.size].tolist()
    if want[0].value < 1.0:
        assert got[1] == want[1]
    else:
        assert got[1] is None
        assert (bounder._search_min_b(sweep, params, g, got[0], 2000)
                == bounder._search_min_b(full, params, g, want[0], 2000))


def test_stop_margin_is_relative_to_the_maximum_of_either_sign():
    below = bounder._below
    assert below(1.0 - 2e-6, 1.0) and not below(1.0 - 5e-7, 1.0)
    assert below(-1.0 - 2e-6, -1.0) and not below(-1.0 - 5e-7, -1.0)
    assert not below(-0.5, -1.0)
    assert not (below(math.nan, 1.0) or below(0.0, math.nan))


def test_sweep_does_not_stop_while_the_envelope_reaches_one(monkeypatch):
    """Criterion 3 pure has f1 + f2 >= 1 at B, so the min-b search reads
    the last grid point at one: an envelope at one never stops its sweep."""
    dist, params, h, g = MINB_ARGS
    grid = bounder._sup_grid(100.0, 1e8, 1.2)
    sweep = bounder._KernelSweep(dist, h, grid)
    d_res = bounder._sup_pair(sweep, params, g)[0]
    assert 0 < sweep.J.size < grid.size
    assert search_min_b(sweep, d_res) == 1082
    real = bounder._tail_envelopes

    def at_one(*args):
        env = real(*args)
        return dataclasses.replace(env, f12s=np.maximum(env.f12s, 1.0))

    monkeypatch.setattr(bounder, "_tail_envelopes", at_one)
    sweep = bounder._KernelSweep(dist, h, grid)
    assert bounder._sup_pair(sweep, params, g)[0] == d_res
    assert sweep.J.size == grid.size
    assert search_min_b(sweep, d_res) == 1082


def test_criterion_2_sweep_stops_where_the_envelope_takes_over(monkeypatch):
    # at the default grid ratio 1.02 the grid from 100 to 1e8 has 699 points
    assert bounder._sup_grid(100.0, 1e8, 1.02).size == 699
    calls = count_J_calls(monkeypatch)
    cert = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, engine="panjer", bandwidth=0.05)
    assert cert.delta_tail_certified and cert.phi_tail_certified
    assert len(calls) < 150


@pytest.mark.parametrize("grid_ratio, points", [(1.2, 32), (1.02, 288)])
def test_a_failed_contraction_stops_on_the_delta_conditions_alone(monkeypatch, grid_ratio,
                                                                   points):
    """Criterion 6 unscaled fails its contraction: once f1 + f2 reaches one,
    its sweep stops where the delta envelope alone takes over, and it
    computes no phi (the phi envelope held it to 48 and 392 points at these
    ratios). build_bound adds the min-b search's 24 J points."""
    dist, params, h, g = C6_ARGS
    sweep = bounder._KernelSweep(dist, h, bounder._sup_grid(100.0, 1e8, grid_ratio))
    d_res, p_res = bounder._sup_pair(sweep, params, g)
    assert d_res.value >= 1.0 and p_res is None
    assert sweep.J.size == points
    calls = count_J_calls(monkeypatch)
    with pytest.raises(ProcedureFailed) as exc:
        build_bound(*C6_ARGS, 100.0, engine="panjer", bandwidth=0.05, grid_ratio=grid_ratio)
    assert exc.value.min_b == 1658
    assert len(calls) == points + 24


def test_J_failures_beyond_the_stop_are_not_met(monkeypatch):
    """Criterion 2 pure at grid ratio 1.2 stops after 16 points, near
    x = 1541: a J failure beyond that leaves the certificate as it is, and a
    failure before it is raised."""
    build = dict(engine="panjer", bandwidth=0.05, grid_ratio=1.2)
    unfailed = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, **build).to_text()
    real = bounder.J_kernel
    fails_from = [2e3]

    def failing(dist, x, r, *args, **kwargs):
        beyond = np.ravel(x)[np.ravel(x) >= fails_from[0]]
        if beyond.size:
            raise RuntimeError(f"J kernel quadrature did not converge at x={beyond[0]:g}")
        return real(dist, x, r, *args, **kwargs)

    monkeypatch.setattr(bounder, "J_kernel", failing)
    assert build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, **build).to_text() == unfailed
    fails_from[0] = 1e3
    grid = bounder._sup_grid(100.0, 1e8, 1.2)
    with pytest.raises(RuntimeError, match=f"did not converge at x={grid[grid >= 1e3][0]:g}$"):
        build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, **build)


# ---------------------------------------------------------------- interval constant

def test_c_interval_clamps_and_margins():
    xs = np.linspace(1.0, 10.0, 10)
    neg = DeltaTable(xs=xs, delta=np.full(10, -0.5),
                     delta_stderr=np.zeros(10), engine="panjer")
    g = PowerTestFunction(1.0, 0.5)
    assert c_interval(neg, g, 2.0, 8.0) == 0.0
    flat = DeltaTable(xs=xs, delta=np.ones(10),
                      delta_stderr=np.full(10, 0.1), engine="mc")
    # the two-stderr margin is added before dividing by g; for a flat table
    # the ratio peaks at the right endpoint where g is smallest
    expect = (1.0 + 0.2) / g(8.0)
    assert c_interval(flat, g, 2.0, 8.0) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        c_interval(flat, g, 3.21, 3.22)  # no table point inside
    with pytest.raises(ValueError):
        c_interval(flat, g, 8.0, 2.0)


def interval_by_pass(table, g, a, b):
    """The interval constant from a pass over [a, b] alone, each end with
    its own tolerance of 1e-9 max(1, |x|): the reference for the running
    maxima of the table that tune shares between its scales."""
    xs = table.xs
    sel = (xs >= a - 1e-9 * max(1.0, abs(a))) & (xs <= b + 1e-9 * max(1.0, abs(b)))
    dv = np.maximum(table.delta[sel] + 2.0 * table.delta_stderr[sel], 0.0)
    return float(np.max(dv / g.evaluate(xs[sel])))


C2_TABLE = pareto_delta_table(bw=0.05, xmax=100.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 60.0), st.sampled_from([None, 15.0, 21.3, 27.1]),
       st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 10**6)),
                min_size=1, max_size=8))
def test_interval_constants_are_c_interval_bit_for_bit(table_lo, bstar, picks):
    """One pass from table_lo gives, for every a in [table_lo, B], the double
    of c_interval over [a, B] and of a pass over [a, B] alone: a drawn
    anywhere, or on a table point at or above table_lo."""
    B = 100.0
    g = G_PARETO if bstar is None else bounder.build_spliced_g(C2_TABLE, bstar, G_PARETO)
    constant = bounder._interval_constants(C2_TABLE, g, table_lo, B)
    on_table = C2_TABLE.xs[(C2_TABLE.xs >= table_lo) & (C2_TABLE.xs < B)]
    for pick in picks:
        a = (table_lo + pick * (B - table_lo) if isinstance(pick, float)
             else on_table[pick % on_table.size])
        assume(a < B)
        want = interval_by_pass(C2_TABLE, g, a, B)
        assert np.float64(constant(a)).tobytes() == np.float64(want).tobytes()
        assert np.float64(c_interval(C2_TABLE, g, a, B)).tobytes() == np.float64(want).tobytes()


def test_interval_constants_check_each_interval_on_its_own():
    """An interval raises for a non-positive g or for no table point only
    when it holds one, or none; a NaN reaches the intervals that hold it."""
    xs = np.arange(1.0, 7.0)
    delta = np.array([0.5, math.nan, 0.25, 0.75, 0.5, 0.25])
    table = DeltaTable(xs=xs, delta=delta, delta_stderr=np.zeros(6), engine="panjer")

    class ZeroAt4(kernels.TestFunction):
        def evaluate(self, x):
            x = np.asarray(x, dtype=float)
            return np.where(x == 4.0, 0.0, G_PARETO.evaluate(x))

    constant = bounder._interval_constants(table, ZeroAt4(), 1.0, 8.0)
    for a in (1.0, 2.5, 4.0):
        with pytest.raises(ValueError, match="^test function must be positive on the interval$"):
            constant(a)
    assert constant(4.5) == 0.5 / G_PARETO(5.0)
    with pytest.raises(ValueError, match=r"^no table points inside \[6.5, 8\]$"):
        constant(6.5)
    with pytest.raises(ValueError, match="^need a < b$"):
        constant(8.0)
    constant = bounder._interval_constants(table, G_PARETO, 1.0, 8.0)
    assert math.isnan(constant(1.5)) and math.isnan(constant(2.0))
    assert constant(2.5) == interval_by_pass(table, G_PARETO, 2.5, 8.0) == 0.75 / G_PARETO(4.0)


class PositiveFrom(kernels.TestFunction):
    """1 at x >= x0 (x > x0 if strict), 0 below: positive from one point on."""

    def __init__(self, x0: float, strict: bool):
        self.x0, self.strict = x0, strict

    def evaluate(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs > self.x0 if self.strict else xs >= self.x0, 1.0, 0.0)


@pytest.mark.parametrize("engine", [dict(engine="panjer", bandwidth=0.3),
                                    dict(engine="panjer", bandwidth=0.05),
                                    dict(engine="mc", bandwidth=None, mc_samples=2000, seed=1)],
                         ids=["panjer-0.3", "panjer-0.05", "mc"])
def test_the_anchor_checks_g_where_the_interval_constants_start(engine):
    # on, just off and between lattice points: _table_start is the first
    # table point that the constant from table_lo reads, so a g positive from
    # it on passes both the anchor's check and the constant, and one positive
    # only above it fails both
    B, bw = 10.0, engine["bandwidth"]
    for table_lo in ([k * 0.3 + d for k in (1, 3, 7) for d in (-1e-9, -1e-12, 0.0, 1e-12, 0.1)]
                     + [0.95, 1.2, 2.0 / 3.0]):
        x0 = bounder._table_start(table_lo, B, engine["engine"], bw)
        table = bounder._build_delta_table(PARETO, HALF, B, table_lo, **engine)
        for strict in (False, True):
            g = PositiveFrom(x0, strict)
            constant = bounder._interval_constants(table, g, table_lo, B)
            if strict:
                with pytest.raises(ConfigError, match=r"^test function at .*, is 0, not positive;"):
                    bounder._check_g_at_table_start(g, x0, table_lo, B, H_PARETO)
                with pytest.raises(ValueError, match="must be positive"):
                    constant(table_lo)
            else:
                bounder._check_g_at_table_start(g, x0, table_lo, B, H_PARETO)
                assert constant(table_lo) >= 0.0


# ---------------------------------------------------------------- build_bound

def test_certificate_fields_and_invariant():
    cert = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                       engine="panjer", bandwidth=0.05)
    assert cert.b == cert.B == cert.valid_from == 100.0
    assert cert.engine == "panjer"
    assert 0.0 < cert.delta_b < 1.0
    assert cert.phi >= 0.0
    expected = max(cert.phi / (1.0 - cert.delta_b),
                   cert.phi + cert.delta_b * cert.c_hb_b)
    assert cert.C == pytest.approx(expected, rel=1e-13)
    assert cert.delta_tail_certified and cert.phi_tail_certified
    assert cert.caveats == ()
    assert cert.report.startswith("Delta(x) <=")
    assert cert.kappa_splice is None
    assert cert.tail_coefficient == pytest.approx(cert.C * G_PARETO.coef, rel=1e-12)


def test_certificate_text_round_trip():
    cert = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                       engine="panjer", bandwidth=0.05)
    kv = parse_kv(cert.to_text())
    assert float(kv["C"]) == pytest.approx(cert.C, rel=1e-10)
    assert float(kv["delta_b"]) == pytest.approx(cert.delta_b, rel=1e-10)
    assert kv["engine"] == "panjer"
    assert kv["family"] == "pareto"
    assert float(kv["alpha"]) == pytest.approx(2.2)


def test_certificate_invariant_enforced():
    cert = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                       engine="panjer", bandwidth=0.05)
    with pytest.raises(ValueError):
        dataclasses.replace(cert, C=cert.C * 0.5)


def test_scaling_g_leaves_bound_invariant():
    lo = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                     engine="panjer", bandwidth=0.05)
    hi = build_bound(PARETO, HALF, H_PARETO, PowerTestFunction(2.0, 0.6875),
                     100.0, engine="panjer", bandwidth=0.05)
    # C scales inversely with the coefficient of g; the bound C g(x) does not
    assert hi.C == pytest.approx(lo.C / 2.0, rel=1e-9)
    assert hi.tail_coefficient == pytest.approx(lo.tail_coefficient, rel=1e-9)


def test_spliced_certificate_structure():
    cert = build_bound(PARETO, HALF, CutoffFunction.power(1.14, 1.0 / 3.2),
                       G_PARETO, 100.0, engine="panjer", bandwidth=0.05,
                       bstar=21.3)
    assert cert.kappa_splice is not None and cert.kappa_splice > 0.0
    # beyond the splice the test function is a bare power tail, so the
    # interval constant over [h(B), B] is exactly 1
    assert cert.c_hb_b == 1.0
    assert cert.tail_coefficient == pytest.approx(cert.C * cert.kappa_splice, rel=1e-12)


class TwoPower(kernels.TestFunction):
    """A test function from outside the package: 2 x^-0.6875 through the
    documented extension point alone."""

    def evaluate(self, xs):
        return 2.0 * np.asarray(xs, dtype=float) ** -0.6875

    def describe(self):
        return "2 * x^-0.6875"


class DeclaredTwoPower(TwoPower):
    power_tail = (0.0, 2.0, 0.6875)


def test_declared_power_tail_certifies_like_the_power_test_function():
    args = dict(engine="panjer", bandwidth=0.05)
    ref = build_bound(PARETO, HALF, H_PARETO, PowerTestFunction(2.0, 0.6875), 100.0, **args)
    cert = build_bound(PARETO, HALF, H_PARETO, DeclaredTwoPower(), 100.0, **args)
    fields = ("C", "delta_b", "phi", "c_hb_b", "delta_tail_certified", "phi_tail_certified",
              "tail_coefficient", "report")
    assert ref.delta_tail_certified and ref.phi_tail_certified
    assert [getattr(cert, f) for f in fields] == [getattr(ref, f) for f in fields]
    # the text names no g.* keys for a test function it cannot rebuild
    assert not [k for k in parse_kv(cert.to_text()) if k.startswith("g.")]

    bare = build_bound(PARETO, HALF, H_PARETO, TwoPower(), 100.0, **args)
    assert bare.C == cert.C
    assert not (bare.delta_tail_certified or bare.phi_tail_certified)
    assert bare.tail_coefficient is None
    assert "no tail envelope for this test function" in bare.caveats[0]
    assert bare.report == f"Delta(x) <= {bare.C:.6g} * g(x) for x >= 100, g(x) = 2 * x^-0.6875"
    assert parse_kv(bare.to_text())["report"] == bare.report


@settings(max_examples=8, deadline=None)
@given(st.integers(36, 100), st.integers(6, 16), st.integers(14, 28), st.integers(10, 30),
       st.integers(1, 16), st.integers(40, 120), st.sampled_from([0.05, 0.1]),
       st.one_of(st.none(), st.integers(10, 40)))
def test_certificate_text_rebuilds_the_certificate(a20, p20, g64, s20, c4, B, bw, bstar):
    """Every input drawn prints exactly at 12 significant digits, so the
    certificate's config keys rebuild the same certificate, byte for byte,
    at the default sweep controls."""
    alpha, p, gamma, scale, coef = a20 / 20, p20 / 20, g64 / 64, s20 / 20, c4 / 4
    e = math.floor(64 * min(alpha * gamma, 1.0 - gamma)) / 64
    assume(e > 0.0)
    try:
        cert = build_bound(ParetoDist(alpha), GeometricParams(p),
                           CutoffFunction.power(scale, gamma), PowerTestFunction(coef, e),
                           float(B), engine="panjer", bandwidth=bw, bstar=bstar)
    except ProcedureFailed:
        assume(False)
    text = cert.to_text()
    cfg = RunConfig.from_text("\n".join(
        f"{k} = {v}" for k, v in parse_kv(text).items() if k in CONFIG_KEYS))
    dist, h = build_dist(cfg), build_h(cfg)
    g, g_bstar = build_g(cfg, dist, h)
    rebuilt = build_bound(dist, GeometricParams(cfg.require("p")), h, g, cfg.require("B"),
                          engine=cfg.require("engine"), bandwidth=cfg.require("bandwidth"),
                          bstar=g_bstar)
    assert rebuilt.to_text() == text


def test_contraction_failure_is_reported():
    with pytest.raises(ProcedureFailed) as exc:
        build_bound(PARETO, GeometricParams(0.2), H_PARETO, G_PARETO, 100.0,
                    engine="panjer", bandwidth=0.05, x_far=151)
    err = exc.value
    assert err.from_b == 100.0
    assert err.delta_value >= 1.0
    assert err.min_b is None
    assert "no b <= 150" in str(err)


# ---------------------------------------------------------------- min-b search

# criterion 3 pure on a coarse sweep: delta(100) >= 1, and the smallest
# workable integer anchor is 1082
MINB_ARGS = (PARETO, GeometricParams(0.2), H_PARETO, G_PARETO)
MINB_SWEEP = dict(x_far=1e6, grid_ratio=1.5)
# criterion 6 unscaled: delta(100) >= 1, and min b is 1658
WEIBULL = WeibullDist(0.5)
H_LOG = CutoffFunction.logpower(1.0, 2.0)
C6_ARGS = (WEIBULL, HALF, H_LOG, KKernelTestFunction(WEIBULL, H_LOG))


def bisect_min_b(lo, cap, below_one):
    """A bisection for the smallest n in (lo, cap] with below_one(n), the
    oracle of the min-b scan."""
    if not below_one(cap):
        return None
    hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below_one(mid):
            hi = mid
        else:
            lo = mid
    return hi


def count_J_calls(monkeypatch, per_call=False):
    """The x of every point J is evaluated at, over array calls; with
    per_call, one list of them per call."""
    calls = []
    real = bounder.J_kernel

    def counting(dist, x, r, *args, **kwargs):
        xs = np.ravel(x).tolist()
        calls.append(xs) if per_call else calls.extend(xs)
        return real(dist, x, r, *args, **kwargs)

    monkeypatch.setattr(bounder, "J_kernel", counting)
    return calls


def anchor_sweep(args=MINB_ARGS, x_far=MINB_SWEEP["x_far"], grid_ratio=MINB_SWEEP["grid_ratio"]):
    """The kernel sweep from B = 100 and the delta supremum it gives."""
    dist, params, h, g = args
    sweep = bounder._kernel_sweep(dist, h, bounder._sup_grid(100.0, x_far, grid_ratio))
    return sweep, bounder._sup_pair(sweep, params, g)[0]


def search_min_b(sweep, d_res, args=MINB_ARGS, cap=10_000):
    dist, params, h, g = args
    return bounder._search_min_b(sweep, params, g, d_res, cap)


def test_min_b_is_the_bisection_over_delta_sup():
    """The scan over the anchor's sweep names the anchor that a bisection
    over the public delta_sup finds, and build_bound reports it."""
    for args, expect in ((MINB_ARGS, 1082), (C6_ARGS, 1658)):
        for grid_ratio in (1.2, 1.5):
            sweep = dict(x_far=1e6, grid_ratio=grid_ratio)
            with pytest.raises(ProcedureFailed) as exc:
                build_bound(*args, 100.0, engine="panjer", bandwidth=0.05, **sweep)
            assert exc.value.min_b == search_min_b(*anchor_sweep(args, **sweep), args) == expect
            assert expect == bisect_min_b(
                100, 10_000, lambda n: delta_sup(*args, float(n), **sweep).value < 1.0)


# ---------------------------------------------------------------- lazy error table

ENGINES = [pytest.param(dict(engine="panjer", bandwidth=0.05), id="panjer"),
           pytest.param(dict(engine="mc", mc_samples=5_000_000, seed=1), id="mc")]
COARSE = dict(x_far=1e6, grid_ratio=1.2)


def record_engine(monkeypatch, events, fail=None):
    """Log "table" at each call of a tail engine and "sweep" at each K call;
    with ``fail``, an engine call raises it instead."""
    for name in ("discretize", "panjer_tail", "mc_tail"):
        real = getattr(bounder, name)

        def engine(*args, _real=real, _name=name, **kwargs):
            if fail is not None:
                raise fail
            if _name != "discretize":
                events.append("table")
            return _real(*args, **kwargs)

        monkeypatch.setattr(bounder, name, engine)
    real_K = bounder.K_kernel

    def K(*args, **kwargs):
        events.append("sweep")
        return real_K(*args, **kwargs)

    monkeypatch.setattr(bounder, "K_kernel", K)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("args, min_b", [pytest.param(MINB_ARGS, 1082, id="c3 pure"),
                                         pytest.param(C6_ARGS, 1658, id="c6 unscaled")])
def test_failed_contraction_calls_no_tail_engine(monkeypatch, engine, args, min_b):
    # AssertionError is no engine error: neither build_bound nor tune would catch it
    record_engine(monkeypatch, [], fail=AssertionError("a tail engine was called"))
    with pytest.raises(ProcedureFailed) as exc:
        build_bound(*args, 100.0, **engine, **COARSE)
    assert exc.value.min_b == min_b
    if isinstance(args[3], PowerTestFunction):
        with pytest.raises(ProcedureFailed) as tuned:
            tune(*args, 100.0, [1.0], [None], **engine, **COARSE)
        assert str(tuned.value) == str(exc.value)


@pytest.mark.parametrize("engine", ENGINES)
def test_feasible_build_calls_the_engine_once_after_the_sweep(monkeypatch, engine):
    engine = dict(engine, mc_samples=20_000) if engine["engine"] == "mc" else engine
    events = []
    record_engine(monkeypatch, events)
    # each build starts with no Panjer table kept, so each one recurses
    monkeypatch.setattr(bounder, "_panjer_last", {})
    build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, **engine, **COARSE)
    assert events.count("table") == 1
    assert events.index("sweep") < events.index("table")
    # a splice needs the table for its test function: it comes before the sweep
    events.clear()
    bounder._panjer_last.clear()
    build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, bstar=21.3, **engine, **COARSE)
    assert events.count("table") == 1
    assert events[0] == "table" and "sweep" in events
    # a tune builds it once for all its candidates
    events.clear()
    bounder._panjer_last.clear()
    res = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0, 1.14], [None, 21.3],
               **engine, **COARSE)
    assert all(row.feasible for row in res.rows)
    assert events.count("table") == 1


@pytest.mark.parametrize("engine, inputs, missing", [
    ("panjer", {}, "bandwidth"),
    ("mc", {}, "mc_samples, seed"),
    ("mc", {"seed": 1}, "mc_samples"),
    ("mc", {"mc_samples": 100}, "seed"),
])
def test_check_engine_names_exactly_the_missing_keys(engine, inputs, missing):
    controls = {"bandwidth": None, "mc_samples": None, "seed": None, **inputs}
    with pytest.raises(ConfigError) as exc:
        bounder._check_engine(engine, **controls)
    assert str(exc.value) == f"missing required configuration keys: {missing}"


def test_tune_ends_at_an_engine_error(monkeypatch):
    # the engine fails for every candidate alike, so it is no candidate's
    # note: tune raises its error at the first candidate that builds the table
    events = []
    record_engine(monkeypatch, events, fail=RuntimeError("engine failed"))
    with pytest.raises(RuntimeError, match="^engine failed$"):
        tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0, 1.14], [None, 21.3],
             bandwidth=0.05, **COARSE)
    assert events == ["sweep"]


@pytest.mark.parametrize("controls, error, message", [
    (dict(engine="panjer"), ConfigError, "missing required configuration keys: bandwidth"),
    (dict(bandwidth=-1.0), ConfigError, "bandwidth must be positive, got -1"),
    # a None engine is refused, not read as the default
    (dict(engine=None, bandwidth=0.05), ValueError, "unknown engine None"),
    (dict(engine="mc", mc_samples=100), ConfigError, "missing required configuration keys: seed"),
    (dict(engine="mc", mc_samples=0, seed=1), ConfigError, "mc_samples must be at least 1, got 0"),
    (dict(engine="mc", mc_samples=100, seed=-1), ConfigError, "seed must be non-negative, got -1"),
    (dict(engine="fft", bandwidth=0.05), ValueError, "unknown engine 'fft'"),
    # the anchor's other refusals: the sweep grid, the lattice and the severity at B
    (dict(bandwidth=0.05, x_far=100.0), ConfigError, "x_far must exceed B = 100, got 100"),
    (dict(bandwidth=0.05, x_far=50.0), ConfigError, "x_far must exceed B = 100, got 50"),
    (dict(bandwidth=0.05, grid_ratio=1.0), ConfigError, "grid_ratio must exceed 1, got 1"),
    (dict(bandwidth=100.0), ConfigError, "bandwidth must be below B = 100, got 100"),
    (dict(bandwidth=150.0), ConfigError, "bandwidth must be below B = 100, got 150"),
    (dict(bandwidth=0.05, dist=ParetoDist(1e300)), ConfigError,
     "severity tail vanishes at B = 100: ParetoDist(alpha=1e+300)"),
])
def test_engine_inputs_are_checked_before_a_failed_contraction(controls, error, message):
    # criterion 3 pure fails its contraction, which needs no table; the
    # checks of the table's inputs still come first, alike in build_bound and tune
    controls = {**COARSE, **controls}
    args = (controls.pop("dist", MINB_ARGS[0]), *MINB_ARGS[1:])
    for run in (lambda: build_bound(*args, 100.0, **controls),
                lambda: tune(*args, 100.0, [1.0], [None], **controls)):
        with pytest.raises(error) as exc:
            run()
        assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("args, grid_ratio, expect, most", [
    pytest.param(MINB_ARGS, 1.2, 1082, 16, id="c3-1082-16"),
    pytest.param(C6_ARGS, 1.2, 1658, 24, id="c6-1658-24"),
    pytest.param(C6_ARGS, 1.5, 1658, 24, id="c6-ratio1.5-1658-24"),
])
def test_min_b_scans_only_the_integers_after_the_last_point_at_one(monkeypatch, args, grid_ratio,
                                                                    expect, most):
    """On sweeps up to 1e8, the search evaluates J only at those integers
    after the last grid point at one where f1 alone is below one: in
    increasing order, in whole chunks, up to the chunk that holds min b. f1
    is near 0.81 at every integer for criterion 3 pure, and below one only
    from 1637 on for criterion 6 unscaled."""
    sweep, d_res = anchor_sweep(args, x_far=1e8, grid_ratio=grid_ratio)
    f1, f2, _ = bounder._terms(sweep, args[1], args[3])
    x_k = sweep.x[np.flatnonzero(~(f1 + f2 < 1.0))[-1]]
    assert d_res.last_at_one == x_k
    chunk = bounder._J_CHUNK
    # f1 from the public f_terms, one integer at a time
    wanted = [n for n in range(math.floor(x_k) + 1, expect + 8 * chunk)
              if f_terms(*args, float(n)).f1 < 1.0]
    wanted = wanted[: chunk * (wanted.index(expect) // chunk + 1)]
    calls = count_J_calls(monkeypatch, per_call=True)
    monkeypatch.setattr(bounder, "_tail_envelopes", None)  # the search needs no envelope
    # nor the terms over the anchor's sweep: x_k comes with the verdict
    monkeypatch.setattr(bounder, "_terms", None)
    assert search_min_b(sweep, d_res, args) == expect
    assert [len(call) for call in calls] == [chunk] * len(calls)
    assert sum(calls, []) == wanted and len(wanted) <= most
    assert not set(wanted) & set(sweep.x.tolist())


def scan_every_integer(sweep, params, g, d_res, cap):
    """The min-b search with J at every integer after the last grid point at
    one, in order, _J_CHUNK integers at a time: the reference for the search
    that computes J only where f1 < 1."""
    if d_res.tail_certified and not (d_res.tail_bound < 1.0):
        return None
    f1, f2, _ = bounder._terms(sweep, params, g)
    x_k = sweep.x[np.flatnonzero(~(f1 + f2 < 1.0))[-1]]
    for lo in range(math.floor(x_k) + 1, cap + 1, bounder._J_CHUNK):
        scan = bounder._kernel_sweep(sweep.dist, sweep.h,
                                     np.arange(lo, min(lo + bounder._J_CHUNK, cap + 1), dtype=float))
        f1, f2, _ = bounder._terms(scan, params, g)
        below = np.flatnonzero(f1 + f2 < 1.0)
        if below.size:
            return int(scan.x[below[0]])
        if scan.error is not None:
            raise scan.error
    return None


@st.composite
def failing_contractions(draw):
    """A Pareto or a two-term power mixture with a power cutoff and a power
    g, or a Weibull with a log-power cutoff and its K-kernel g; p, a grid
    from B to 1e6 and a cap, small ones too, so that some searches find no
    anchor."""
    if draw(st.booleans()):
        exponents = draw(st.lists(st.floats(1.5, 4.0), min_size=1, max_size=2))
        if len(exponents) == 1:
            dist = ParetoDist(exponents[0])
        else:
            w = draw(st.floats(0.1, 0.9))
            dist = PowerMixtureDist(((w, exponents[0]), (1.0 - w, exponents[1])))
        gamma = draw(st.floats(0.2, 0.5))
        h = CutoffFunction.power(draw(st.floats(0.5, 2.0)), gamma)
        e = min(min(exponents) * gamma, 1.0 - gamma) * draw(st.sampled_from([1.0, 0.5]))
        g = PowerTestFunction(1.0, e)
        params = GeometricParams(draw(st.floats(0.1, 0.6)))
    else:
        dist = WeibullDist(draw(st.floats(0.4, 0.6)))
        h = CutoffFunction.logpower(draw(st.floats(0.8, 1.5)), draw(st.floats(1.8, 2.5)))
        g = KKernelTestFunction(dist, h)
        params = GeometricParams(draw(st.floats(0.3, 0.6)))
    B = max(100.0, 1.05 * h.domain_start)
    grid = bounder._sup_grid(B, 1e6, draw(st.sampled_from([1.02, 1.2, 1.5])))
    return dist, params, h, g, grid, draw(st.integers(150, 4000))


@settings(max_examples=100, deadline=None)
@given(failing_contractions())
def test_min_b_is_the_scan_of_every_integer(case):
    dist, params, h, g, grid, cap = case
    sweep = bounder._KernelSweep(dist, h, grid)
    try:
        d_res = bounder._sup_pair(sweep, params, g)[0]
        assume(d_res.value >= 1.0)
        want = scan_every_integer(sweep, params, g, d_res, cap)
    except (ValueError, RuntimeError):
        assume(False)  # a kernel failure, which the search need not meet
    assert bounder._search_min_b(sweep, params, g, d_res, cap) == want


def test_min_b_counts_nan_as_not_below_one(monkeypatch):
    real = bounder.J_kernel
    nan_below = [3000.0]

    def nan_J(dist, x, r, *args, **kwargs):
        return np.where(np.asarray(x) < nan_below[0], math.nan, real(dist, x, r, *args, **kwargs))

    monkeypatch.setattr(bounder, "J_kernel", nan_J)
    # the last NaN grid point is the last below 3000, and so are the
    # integers after it up to 3000
    assert search_min_b(*anchor_sweep()) == 3000
    # NaN everywhere, x_far too: no anchor qualifies
    nan_below[0] = math.inf
    assert search_min_b(*anchor_sweep()) is None


def test_nan_delta_supremum_names_its_grid_point(monkeypatch):
    real = bounder.J_kernel

    # NaN from the fourth grid point on, inside the first J chunk: no sweep
    # stops before it
    def nan_J(dist, x, r, *args, **kwargs):
        return np.where(np.asarray(x) > 300.0, math.nan, real(dist, x, r, *args, **kwargs))

    monkeypatch.setattr(bounder, "J_kernel", nan_J)
    grid = bounder._sup_grid(100.0, MINB_SWEEP["x_far"], MINB_SWEEP["grid_ratio"])
    first_nan = float(grid[grid > 300.0][0])
    assert np.flatnonzero(grid == first_nan)[0] < bounder._J_CHUNK
    # criterion 2 pure: delta(100) < 1 but for the NaN, which must not pass
    # as a delta below one
    with pytest.raises(ValueError, match=f"NaN at x={first_nan:g}$"):
        build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                    engine="panjer", bandwidth=0.05, **MINB_SWEEP)


def test_min_b_kernel_errors_after_a_deciding_point_are_not_met(monkeypatch):
    sweep, d_res = anchor_sweep()
    real = bounder.J_kernel
    fails_from = [1083.0]

    def failing(dist, x, r, *args, **kwargs):
        beyond = np.ravel(x)[np.ravel(x) >= fails_from[0]]
        if beyond.size:
            raise RuntimeError(f"J kernel quadrature did not converge at x={beyond[0]:g}")
        return real(dist, x, r, *args, **kwargs)

    monkeypatch.setattr(bounder, "J_kernel", failing)
    # 1082 is decided inside the chunk 1080..1087, before its failing points
    assert search_min_b(sweep, d_res) == 1082
    # a failure at the deciding integer or before it is raised
    fails_from[0] = 1082.0
    with pytest.raises(RuntimeError, match="did not converge at x=1082$"):
        search_min_b(sweep, d_res)
    # a sweep keeps J at every point before the first failing one, which
    # sits inside a chunk of points
    fails_from[0] = 1e5
    sweep = bounder._kernel_sweep(PARETO, H_PARETO, bounder._sup_grid(100.0, **MINB_SWEEP))
    grid = bounder._sup_grid(100.0, MINB_SWEEP["x_far"], MINB_SWEEP["grid_ratio"])
    assert sweep.x.tolist() == grid[grid < 1e5].tolist()
    assert sweep.J.tolist() == real(PARETO, sweep.x, sweep.r).tolist()
    assert str(sweep.error).endswith(f"did not converge at x={grid[grid > 1e5][0]:g}")


def breaks_between(kind, lo, hi):
    """Criterion 3 pure with K NaN, the cutoff jumping to h(x) = x, or g
    zero, for lo < x < hi: its (dist, h, g) and the failure that a sweep or
    a supremum through there meets. The zero g has no power tail, so no
    envelope stops a supremum before it."""

    class NanK(ParetoDist):
        def k_value(self, x, r):
            return np.where((x > lo) & (x < hi), math.nan, super().k_value(x, r))

    class Jumps(CutoffFunction):
        def __call__(self, x):
            x = np.asarray(x)
            return np.where((x > lo) & (x < hi), x, super().__call__(x))

    class Vanishes(kernels.TestFunction):
        def evaluate(self, xs):
            xs = np.asarray(xs, dtype=float)
            return np.where((xs > lo) & (xs < hi), 0.0, G_PARETO.evaluate(xs))

    if kind == "K":
        return NanK(2.2), H_PARETO, G_PARETO, "K kernel is NaN at x={x:g}, r="
    if kind == "g":
        return PARETO, H_PARETO, Vanishes(), "test function must be positive; g({x:g})=0"
    return (PARETO, Jumps("power", 1.0, 1.0 / 3.2), G_PARETO,
            "cutoff h(x)={x:g} outside (0, x/2] at x={x:g}")


@pytest.mark.parametrize("kind", ["K", "cutoff", "g"])
def test_min_b_K_and_cutoff_errors_after_a_deciding_point_are_not_met(kind):
    """K, h and g are evaluated over a span of integers at once, and K and h
    over a sweep's whole grid; a point where one fails cuts the span or the
    sweep there, and its error is raised only by a reader that gets that
    far. The search checks g up to the deciding integer."""
    params = MINB_ARGS[1]
    # the anchor grid has no point in (1000, 1100): only the search meets them
    for lo, found in ((1082.5, 1082), (1081.5, None)):
        dist, h, g, message = breaks_between(kind, lo, 1100.0)
        args = (dist, params, h, g)
        if found is not None:
            assert search_min_b(*anchor_sweep(args), args) == found
        else:
            with pytest.raises(ValueError, match=re.escape(message.format(x=1082))):
                search_min_b(*anchor_sweep(args), args)
    # the anchor sweep stops before the first failing grid point
    first = float(next(x for x in bounder._sup_grid(100.0, 1e6, 1.5) if x > 1e5))
    dist, h, g, message = breaks_between(kind, 1e5, math.inf)
    sweep = bounder._kernel_sweep(dist, h, bounder._sup_grid(100.0, 1e6, 1.5))
    if kind == "g":
        assert sweep.error is None  # the kernels do not depend on g
    else:
        assert sweep.x.size > 5 and sweep.x[-1] < 1e5
        assert str(sweep.error).startswith(message.format(x=first))
        assert sweep.x.size == sweep.r.size == sweep.K.size == sweep.J.size == sweep.tail_r.size
        g = KKernelTestFunction(PARETO, H_PARETO)
    # a supremum with no envelope to stop at reads every point and meets it
    with pytest.raises(ValueError, match=re.escape(message.format(x=first))):
        bounder._sup_pair(sweep, HALF, g)


def test_a_K_failure_is_found_chunk_by_chunk(monkeypatch):
    """K is NaN from x = 42 on: the sweep finds the first failing point as
    J's is found, by the whole grid, then _J_CHUNK parts up to the failing
    one, then that part point by point, not by one call per dropped point.
    The points and values it keeps and the error it names are those of K
    at each point on its own; a sweep where K passes makes one call."""
    dist, h, _, message = breaks_between("K", 42.0, math.inf)
    grid = bounder._sup_grid(30.0, 1e8, 1.02)
    first = int(np.argmax(grid > 42.0))
    assert (grid.size, first) == (760, 17)
    real, sizes = bounder.K_kernel, []

    def counted(dist, x, r):
        sizes.append(x.size)
        return real(dist, x, r)

    monkeypatch.setattr(bounder, "K_kernel", counted)
    sweep = bounder._KernelSweep(dist, h, grid)
    assert sizes == [760, 8, 8, 8, 1, 1]
    assert sweep.x.tolist() == grid[:first].tolist()
    assert sweep.K.tolist() == [real(dist, x, h(x)) for x in grid[:first]]
    assert str(sweep.error).startswith(message.format(x=grid[first]))
    sizes.clear()
    bounder._KernelSweep(PARETO, h, grid)
    assert sizes == [760]


def test_a_negative_remainder_supremum_is_clamped_to_zero(monkeypatch):
    """f3 = (q J + (1 - p^2) K - q (K + 1) tail(h)) / g is negative where K
    and J vanish. No real severity is known to get there: J >= tail(h) -
    tail(x - h), and the K terms are positive. With no tail envelope, phi
    is the grid maximum, clamped to 0 with a note."""

    class NoEnvelope(ParetoDist):
        tail_power_terms = None

    def vanishing(dist, x, r):
        return np.zeros_like(x)

    monkeypatch.setattr(bounder, "K_kernel", vanishing)
    monkeypatch.setattr(bounder, "J_kernel", vanishing)
    sweep = bounder._KernelSweep(NoEnvelope(2.2), H_PARETO, bounder._sup_grid(100.0, 1e4, 1.2))
    d_res, p_res = bounder._sup_pair(sweep, HALF, G_PARETO)
    assert d_res.value < 1.0
    assert p_res.grid_max < 0.0 and p_res.value == 0.0
    assert p_res.note.endswith("; negative remainder supremum clamped to 0")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: build_bound(PARETO, HALF, H_PARETO, KKernelTestFunction(PARETO, H_PARETO),
                                     100.0, bstar=21.3, bandwidth=0.05),
                 "splicing requires a power test function for the tail piece", id="splice"),
    pytest.param(lambda: tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [], [None], bandwidth=0.05),
                 "empty tuning grid", id="no scales"),
    pytest.param(lambda: tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0], [], bandwidth=0.05),
                 "empty tuning grid", id="no splice points"),
])
def test_unusable_arguments_raise_before_any_table(monkeypatch, call, message):
    record_engine(monkeypatch, [], fail=AssertionError("a tail engine was called"))
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("error", [RuntimeError("J kernel quadrature did not converge at x={x:g}"),
                                   ValueError("J kernel is NaN at x={x:g}")],
                         ids=["no convergence", "NaN"])
def test_min_b_J_failures_where_f1_reaches_one_are_not_met(monkeypatch, error):
    """Criterion 6 unscaled at grid ratio 1.2: after the last grid point at
    one, f1 alone is at or above one at the integers 1541 to 1636, so the
    search computes no J there, and a J failure there is not met. One at an
    integer where f1 < 1, before min b, is raised."""
    sweep, d_res = anchor_sweep(C6_ARGS, grid_ratio=1.2)
    f1, f2, _ = bounder._terms(sweep, C6_ARGS[1], C6_ARGS[3])
    assert d_res.last_at_one == sweep.x[np.flatnonzero(~(f1 + f2 < 1.0))[-1]]
    assert math.floor(d_res.last_at_one) == 1540
    f1 = [f_terms(*C6_ARGS, float(n)).f1 for n in range(1541, 1638)]
    assert min(f1[:-1]) >= 1.0 > f1[-1]
    real = bounder.J_kernel
    fails = set(range(1541, 1637))  # integers only: the anchor grid has none

    def failing(dist, x, r, *args, **kwargs):
        hit = [v for v in np.ravel(x).tolist() if v in fails]
        if hit:
            raise type(error)(str(error).format(x=hit[0]))
        return real(dist, x, r, *args, **kwargs)

    monkeypatch.setattr(bounder, "J_kernel", failing)
    assert search_min_b(sweep, d_res, C6_ARGS) == 1658
    fails = {1640}
    with pytest.raises(type(error), match=re.escape(str(error).format(x=1640)) + "$"):
        search_min_b(sweep, d_res, C6_ARGS)


def test_min_b_skips_sweeps_when_the_envelope_reaches_one(monkeypatch):
    sweep, d_res = anchor_sweep()
    assert d_res.tail_certified and d_res.tail_bound < 1.0
    calls = count_J_calls(monkeypatch)
    monkeypatch.setattr(bounder, "_tail_envelopes", None)  # the search needs no envelope
    assert search_min_b(sweep, dataclasses.replace(d_res, tail_bound=1.0)) is None
    assert calls == []


def test_b_must_exceed_cutoff_domain():
    with pytest.raises(ValueError):
        build_bound(PARETO, HALF, CutoffFunction.power(1.7, 1.0 / 3.2),
                    G_PARETO, 2.0, engine="panjer", bandwidth=0.05)


# ---------------------------------------------------------------- verification

def test_verify_bound_accepts_real_certificate():
    cert = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                       engine="panjer", bandwidth=0.05)
    lat = discretize(PARETO, 0.05, 400.0)
    table = delta_from_tails(panjer_tail(lat, HALF, 200.0), PARETO, HALF)
    rep = verify_bound(cert, table)
    assert rep.ok and bool(rep)
    assert rep.checked > 1000
    assert rep.violations == ()


def test_verify_bound_flags_undersized_constant():
    table = pareto_delta_table(bw=0.05, xmax=60.0)
    tiny = BoundCertificate(
        params=HALF, dist=PARETO, h=H_PARETO, g=G_PARETO,
        engine="panjer", bandwidth=0.05, mc_samples=None,
        seed=None, B=20.0, delta_b=0.5, phi=1e-6, c_hb_b=0.0,
        C=2e-6, delta_tail_certified=True, phi_tail_certified=True, caveats=())
    rep = verify_bound(tiny, table)
    assert not rep.ok
    assert len(rep.violations) > 0
    assert rep.max_excess > 0.0


def test_verify_bound_counts_a_nan_delta_as_a_violation():
    # an error table that delta_from_tails refuses: the severity tail, and so
    # delta, is NaN on (150, 150.1). No bound covers a NaN, though
    # NaN > allowed is false
    cert = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                       engine="panjer", bandwidth=0.05)
    tails = panjer_tail(discretize(PARETO, 0.05, 400.0), HALF, 200.0)
    holed = HoledPareto(2.2, (150.0, 150.1))
    with pytest.raises(ValueError, match="^severity tail is nan at x=150.05; "):
        delta_from_tails(tails, holed, HALF)
    delta = HALF.p * tails.tails / holed.tail(tails.xs) - 1.0
    table = DeltaTable(xs=tails.xs, delta=delta, delta_stderr=np.zeros(delta.size),
                       engine="panjer")
    holes = tails.xs[np.isnan(delta)].tolist()
    assert len(holes) == 1
    rep = verify_bound(cert, table)
    assert not rep.ok
    assert [v[0] for v in rep.violations] == holes
    assert math.isnan(rep.max_excess)
    table = dataclasses.replace(table, delta=np.nan_to_num(delta, nan=-1.0))
    assert verify_bound(cert, table).ok


def verify_by_loop(certificate, delta_table):
    """verify_bound's earlier per-point loop, the reference for its arrays."""
    xs = delta_table.xs
    tol = 1e-9 * max(1.0, certificate.valid_from)
    sel = xs >= certificate.valid_from - tol
    violations = []
    max_excess = 0.0
    checked = 0
    gx = certificate.g.evaluate(xs[sel])
    for x, gv, d, s in zip(xs[sel], gx, delta_table.delta[sel], delta_table.delta_stderr[sel]):
        checked += 1
        allowed = certificate.C * gv + 2.0 * s
        slack = 1e-9 * max(1.0, abs(allowed))
        if not d <= allowed + slack:
            violations.append((float(x), float(d), float(allowed)))
            max_excess = max(max_excess, float(d - allowed))
    return checked, tuple(violations), max_excess


def test_verify_bound_matches_the_per_point_loop():
    cert = build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0,
                       engine="panjer", bandwidth=0.05, x_far=1e6)
    table = pareto_delta_table(bw=0.05, xmax=200.0)
    # with a standard error, so the margin term takes part
    mc_like = DeltaTable(xs=table.xs, delta=table.delta,
                         delta_stderr=np.abs(table.delta) * 1e-3, engine="mc")
    undersized = dataclasses.replace(cert, phi=0.0, c_hb_b=0.0, C=0.0)
    for certificate in (cert, undersized):
        for tab in (table, mc_like):
            rep = verify_bound(certificate, tab)
            checked, violations, max_excess = verify_by_loop(certificate, tab)
            assert (rep.checked, rep.violations, rep.max_excess) == (
                checked, violations, max_excess)
            assert rep.ok == (violations == ())
    assert verify_bound(cert, table).ok
    assert len(verify_bound(undersized, table).violations) > 100


@settings(max_examples=10, deadline=None)
@given(st.floats(1.8, 5.0), st.floats(0.2, 0.8), st.floats(0.2, 0.45), st.floats(0.5, 1.0),
       st.integers(40, 120), st.sampled_from([0.05, 0.1]), st.sampled_from([0.01, 0.02, 0.025]))
def test_verify_bound_passes_on_random_feasible_pareto_configurations(
        alpha, p, gamma, e_frac, B, bw, check_bw):
    # the exponent stays within the power envelopes' rule e <= min(alpha
    # gamma, 1 - gamma); the check table is a Panjer run of its own, at a
    # bandwidth the certificate did not use, on [B, 2B]
    d, params = ParetoDist(alpha), GeometricParams(p)
    g = PowerTestFunction(1.0, e_frac * min(alpha * gamma, 1.0 - gamma))
    try:
        cert = build_bound(d, params, CutoffFunction.power(1.0, gamma), g, float(B),
                           engine="panjer", bandwidth=bw)
    except ProcedureFailed:
        assume(False)
    table = delta_from_tails(panjer_tail(discretize(d, check_bw, 4.0 * B), params, 2.0 * B),
                             d, params)
    rep = verify_bound(cert, table)
    assert rep.ok, (cert.report, rep.violations[:3])
    assert rep.checked > 1000


# ---------------------------------------------------------------- tuning

@pytest.mark.parametrize("bstar", [None, 21.3])
@pytest.mark.parametrize("scale", [1.0, 1.14, 1.7])
def test_tune_single_candidate_matches_build(scale, bstar):
    # tune and build_bound share one certify core, so a one-candidate tune
    # reproduces the certificate exactly
    res = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [scale], [bstar],
               engine="panjer", bandwidth=0.05)
    direct = build_bound(PARETO, HALF, H_PARETO.with_scale(scale), G_PARETO, 100.0,
                         engine="panjer", bandwidth=0.05, bstar=bstar)
    assert res.scale == scale and res.bstar == bstar
    assert res.C == direct.C
    assert res.coefficient == direct.tail_coefficient


def build_row(scale, bstar):
    """The tune row of one candidate from an independent build_bound: its C,
    coefficient and note."""
    h = H_PARETO.with_scale(scale)
    if not 100.0 > h.domain_start:
        return None, None, "horizon below cutoff domain"
    try:
        cert = build_bound(PARETO, HALF, h, G_PARETO, 100.0, engine="panjer", bandwidth=0.05,
                           bstar=bstar, **COARSE)
    except ProcedureFailed as exc:
        return None, None, f"delta = {exc.delta_value:.4g} >= 1"
    except ValueError as exc:
        return None, None, str(exc)
    return cert.C, cert.tail_coefficient, ""


# scales whose h(100) is a table point, a multiple of the bandwidth 0.05
ON_TABLE_SCALES = st.integers(40, 140).map(lambda k: k * 0.05 / 100.0 ** H_PARETO.gamma)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.5, 0.7, 1.0, 1.14, 1.7, 1e6]), ON_TABLE_SCALES),
                min_size=1, max_size=3, unique=True),
       st.lists(st.one_of(st.sampled_from([None, 15.0, 21.3, 150.0]), st.floats(5.0, 99.0),
                          st.floats(100.5, 1e4)), min_size=1, max_size=4, unique=True))
def test_tune_rows_are_the_certificates_bit_for_bit(s_grid, b_grid):
    """Every tune row holds the C, coefficient and note of an independent
    build_bound: infeasible and unusable scales, scales whose h(B) is a table
    point, splice points whose power start lies above some of the sweep's
    chunk ends (so the splices of one scale read the far-tail envelope at
    different points) and out-of-range splice points (150 and above, whose
    note is the same at every scale) among them. When no row is feasible,
    tune raises."""
    want = [(s, b, *build_row(s, b)) for s in s_grid for b in b_grid]
    try:
        rows = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, s_grid, b_grid,
                    engine="panjer", bandwidth=0.05, **COARSE).rows
    except (ValueError, ProcedureFailed):
        assert all(C is None for _, _, C, _, _ in want)
        return
    assert [(r.scale, r.bstar, r.C, r.coefficient, r.note) for r in rows] == want
    assert [r.feasible for r in rows] == [C is not None for _, _, C, _, _ in want]


def test_tune_reads_each_scales_own_interval_constant(monkeypatch):
    """An error table that peaks at x = 4.5, inside [h(100), 100] at scale 1
    (h(100) = 4.22) but not at scale 1.14 (4.81): every scale reads its own
    interval constant off the one table of running maxima, so each row is
    still an independent build_bound's, and only scale 1 meets the peak."""
    real = bounder._build_delta_table

    def peaked(*args, **kwargs):
        table = real(*args, **kwargs)
        delta = np.where(np.abs(table.xs - 4.5) < 0.01, 50.0, table.delta)
        return DeltaTable(xs=table.xs, delta=delta, delta_stderr=table.delta_stderr,
                          engine=table.engine)

    monkeypatch.setattr(bounder, "_build_delta_table", peaked)
    s_grid, b_grid = [1.0, 1.14], [None, 21.3]
    rows = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, s_grid, b_grid, engine="panjer",
                bandwidth=0.05, **COARSE).rows
    assert [(r.scale, r.bstar, r.C, r.coefficient, r.note) for r in rows] == [
        (s, b, *build_row(s, b)) for s in s_grid for b in b_grid]
    assert rows[0].C > 5.0 * rows[2].C  # the pure rows: scale 1 reads the peak


def test_tune_sweeps_kernels_once_per_scale(monkeypatch):
    """The candidates of one scale share its sweep, which computes J at a
    point once, however far each candidate reads it."""
    calls, sweeps = [], []
    real_J, real_sweep = bounder.J_kernel, bounder._KernelSweep

    def counting(dist, x, r, *args, **kwargs):
        calls.extend(zip(np.ravel(x).tolist(), np.ravel(r).tolist()))
        return real_J(dist, x, r, *args, **kwargs)

    def recording(*args):
        sweeps.append(real_sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(bounder, "J_kernel", counting)
    monkeypatch.setattr(bounder, "_KernelSweep", recording)
    res = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0, 1.14, 1e6],
               [None, 15.0, 21.3], engine="panjer", bandwidth=0.05,
               x_far=1e5, grid_ratio=1.2)
    assert sum(r.feasible for r in res.rows) == 6  # the 1e6 scale is unusable
    assert len(sweeps) == 2
    # (x, h(x)) differs between the scales, so a repeated pair is a point
    # evaluated twice on one scale
    assert len(set(calls)) == len(calls) == sum(sweep.J.size for sweep in sweeps)
    assert all(0 < sweep.J.size < sweep.grid.size for sweep in sweeps)


def test_tune_computes_what_its_candidates_share_once(monkeypatch):
    """On criterion 2's grid of 5 scales and 4 splice points (none and three
    spliced), tune builds each spliced g once, not once per scale, computes
    the far-tail envelope's terms that do not read g once per scale, not
    once per candidate, and forms one table of interval constants per test
    function, which every scale reads, where each candidate computed its own
    interval constant."""
    calls = collections.Counter()
    for name in ("build_spliced_g", "_power_bounds", "_interval_constants", "c_interval"):
        real = getattr(bounder, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(bounder, name, counting)
    res = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0, 1.14, 1.4, 1.7, 2.0],
               [None, 15.0, 21.3, 27.1], engine="panjer", bandwidth=0.05, grid_ratio=1.2)
    assert len(res.rows) == 20 and {r.bstar for r in res.rows if r.feasible} == {
        None, 15.0, 21.3, 27.1}
    assert calls == {"build_spliced_g": 3, "_power_bounds": 5, "_interval_constants": 4}


def test_tune_on_a_power_tail_runs_no_quadrature(monkeypatch):
    """On criterion 2's grid every J is the series' enclosure: the
    quadrature, which Weibull keeps, is never called."""
    calls = collections.Counter()
    for name in ("_j_series", "_j_quadrature"):
        real = getattr(kernels, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kernels, name, counting)
    res = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0, 1.14, 1.4, 1.7, 2.0],
               [None, 15.0, 21.3, 27.1], engine="panjer", bandwidth=0.05, grid_ratio=1.2)
    assert len(res.rows) == 20
    assert calls["_j_series"] > 0 and calls["_j_quadrature"] == 0


def test_tune_notes_when_kernel_sweep_raises(monkeypatch):
    """A kernel failure inside a scale's sweep lands in every candidate row
    of that scale, after any failure of the candidate's own splice."""
    real = bounder.J_kernel

    def failing(dist, x, r, *args, **kwargs):
        beyond = np.ravel(x)[np.ravel(x) > 1e3]
        if beyond.size:
            raise RuntimeError(f"J kernel quadrature did not converge at x={beyond[0]:g}")
        return real(dist, x, r, *args, **kwargs)

    monkeypatch.setattr(bounder, "J_kernel", failing)
    with pytest.raises(ValueError, match="no feasible tuning candidate") as exc:
        tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0], [None, 21.3, 150.0],
             engine="panjer", bandwidth=0.05, x_far=1e4, grid_ratio=1.5)
    assert "bstar=150 outside the table range" in str(exc.value)
    # a kernel failure among the rows keeps it an engine error, not a ConfigError
    assert type(exc.value) is ValueError
    first = bounder._sup_grid(100.0, 1e4, 1.5)
    x_fail = float(first[first > 1e3][0])
    # inside the first J chunk, so before any row's sweep can stop
    assert np.flatnonzero(first == x_fail)[0] < bounder._J_CHUNK
    assert f"did not converge at x={x_fail:g}" in str(exc.value)
    with pytest.raises(RuntimeError, match="did not converge"):
        build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, engine="panjer",
                    bandwidth=0.05, x_far=1e4, grid_ratio=1.5)


def test_tune_prefers_smaller_coefficient():
    res = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.14], [None, 21.3],
               engine="panjer", bandwidth=0.05)
    assert res.bstar == 21.3
    assert len(res.rows) == 2
    assert all(r.feasible for r in res.rows)
    coefs = {r.bstar: r.coefficient for r in res.rows}
    assert coefs[21.3] < coefs[None]


def test_tune_all_infeasible_raises():
    with pytest.raises(ValueError):
        tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1e6], [None],
             engine="panjer", bandwidth=0.05)
