"""Bound construction: f-terms, suprema, interval constants, certificates."""

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
    dist, params, h, g, grid = case
    full = bounder._kernel_sweep(dist, h, grid)
    try:
        want = full_sup_pair(full, params, g)
    except ValueError:
        assume(False)  # a kernel failure, which a stopped sweep may not meet
    assume(full.error is None)
    sweep = bounder._KernelSweep(dist, h, grid)
    got = bounder._sup_pair(sweep, params, g)
    assert got == want
    assert sweep.J.tolist() == full.J[:sweep.J.size].tolist()
    if got[0].value >= 1.0:
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


def count_J_calls(monkeypatch):
    """The x of every point J is evaluated at, over array calls."""
    calls = []
    real = bounder.J_kernel

    def counting(dist, x, r, *args, **kwargs):
        calls.extend(np.ravel(x).tolist())
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
    build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, **engine, **COARSE)
    assert events.count("table") == 1
    assert events.index("sweep") < events.index("table")
    # a splice needs the table for its test function: it comes before the sweep
    events.clear()
    build_bound(PARETO, HALF, H_PARETO, G_PARETO, 100.0, bstar=21.3, **engine, **COARSE)
    assert events.count("table") == 1
    assert events[0] == "table" and "sweep" in events
    # a tune builds it once for all its candidates
    events.clear()
    res = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0, 1.14], [None, 21.3],
               **engine, **COARSE)
    assert all(row.feasible for row in res.rows)
    assert events.count("table") == 1


def test_tune_ends_at_an_engine_error(monkeypatch):
    # the engine fails for every candidate alike, so it is no candidate's
    # note: tune raises its error at the first candidate that builds the table
    events = []
    record_engine(monkeypatch, events, fail=RuntimeError("mass conservation violated"))
    with pytest.raises(RuntimeError, match="^mass conservation violated$"):
        tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0, 1.14], [None, 21.3],
             bandwidth=0.05, **COARSE)
    assert events == ["sweep"]


@pytest.mark.parametrize("controls, error, message", [
    (dict(engine="panjer"), ValueError, "the recursion engine requires a bandwidth"),
    (dict(bandwidth=-1.0), ConfigError, "bandwidth must be positive, got -1"),
    (dict(bandwidth=0.05, mode="bogus"), ValueError, "unknown discretization mode 'bogus'"),
    (dict(engine="mc", mc_samples=100), ValueError,
     "the Monte Carlo engine requires mc_samples and a seed"),
    (dict(engine="mc", mc_samples=0, seed=1), ConfigError, "mc_samples must be at least 1, got 0"),
    (dict(engine="mc", mc_samples=100, seed=-1), ConfigError, "seed must be non-negative, got -1"),
    (dict(engine="fft", bandwidth=0.05), ValueError, "unknown engine 'fft'"),
])
def test_engine_inputs_are_checked_before_a_failed_contraction(controls, error, message):
    # criterion 3 pure fails its contraction, which needs no table; the
    # checks of the table's inputs still come first
    for run in (lambda: build_bound(*MINB_ARGS, 100.0, **controls, **COARSE),
                lambda: tune(*MINB_ARGS, 100.0, [1.0], [None], **controls, **COARSE)):
        with pytest.raises(error) as exc:
            run()
        assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("case, expect, most", [("c3", 1082, 16), ("c6", 1658, 120)])
def test_min_b_scans_only_the_integers_after_the_last_point_at_one(monkeypatch, case, expect,
                                                                    most):
    """On the benchmark's sweeps (ratio 1.2 up to 1e8) the search evaluates
    J only at the consecutive integers after the last grid point where
    f1 + f2 is not below one, whole chunks of them up to min b."""
    args = MINB_ARGS if case == "c3" else C6_ARGS
    sweep, d_res = anchor_sweep(args, x_far=1e8, grid_ratio=1.2)
    f1, f2, _ = bounder._terms(sweep, args[1], args[3])
    x_k = sweep.x[np.flatnonzero(~(f1 + f2 < 1.0))[-1]]
    calls = count_J_calls(monkeypatch)
    monkeypatch.setattr(bounder, "_tail_envelopes", None)  # the search needs no envelope
    assert search_min_b(sweep, d_res, args) == expect
    first = math.floor(x_k) + 1
    assert calls == list(range(first, first + len(calls)))
    assert not set(calls) & set(sweep.x.tolist())
    assert expect in calls and len(calls) == 8 * math.ceil((expect - first + 1) / 8) <= most


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
    """Criterion 3 pure with K NaN, or the cutoff jumping to h(x) = x, for
    lo < x < hi; the failure that a sweep through there meets."""

    class NanK(ParetoDist):
        def k_value(self, x, r):
            return np.where((x > lo) & (x < hi), math.nan, super().k_value(x, r))

    class Jumps(CutoffFunction):
        def __call__(self, x):
            x = np.asarray(x)
            return np.where((x > lo) & (x < hi), x, super().__call__(x))

    if kind == "K":
        return NanK(2.2), H_PARETO, "K kernel is NaN at x={x:g}, r="
    return PARETO, Jumps("power", 1.0, 1.0 / 3.2), "cutoff h(x)={x:g} outside (0, x/2] at x={x:g}"


@pytest.mark.parametrize("kind", ["K", "cutoff"])
def test_min_b_K_and_cutoff_errors_after_a_deciding_point_are_not_met(kind):
    """K and h are evaluated over a sweep's whole grid at once; a point
    where either fails cuts the sweep there, and its error is raised only
    by a reader that gets that far."""
    params, g = MINB_ARGS[1], MINB_ARGS[3]
    # the anchor grid has no point in (1000, 1100): only the scan meets them
    for lo, found in ((1082.5, 1082), (1081.5, None)):
        dist, h, message = breaks_between(kind, lo, 1100.0)
        args = (dist, params, h, g)
        if found is not None:
            assert search_min_b(*anchor_sweep(args), args) == found
        else:
            with pytest.raises(ValueError, match=re.escape(message.format(x=1082))):
                search_min_b(*anchor_sweep(args), args)
    # the anchor sweep stops before the first failing grid point
    first = float(next(x for x in bounder._sup_grid(100.0, 1e6, 1.5) if x > 1e5))
    dist, h, message = breaks_between(kind, 1e5, math.inf)
    sweep = bounder._kernel_sweep(dist, h, bounder._sup_grid(100.0, 1e6, 1.5))
    assert sweep.x.size > 5 and sweep.x[-1] < 1e5
    assert str(sweep.error).startswith(message.format(x=first))
    assert sweep.x.size == sweep.r.size == sweep.K.size == sweep.J.size == sweep.tail_r.size
    # a supremum with no envelope to stop at reads every point and meets it
    with pytest.raises(ValueError, match=re.escape(message.format(x=first))):
        bounder._sup_pair(sweep, HALF, KKernelTestFunction(PARETO, H_PARETO))


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
        if d > allowed + slack:
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
