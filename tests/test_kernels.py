"""Kernels, cutoff functions, envelopes, and test functions."""

import math

import numpy as np
import pytest

from geomtail.dist import ParetoDist, PowerMixtureDist, WeibullDist
from geomtail.kernels import (
    CutoffFunction,
    J_kernel,
    K_kernel,
    KKernelTestFunction,
    MonotoneEnvelope,
    PowerTestFunction,
    build_spliced_g,
    optimal_pareto_g,
    pareto_J_envelope,
    pareto_K_envelope,
    validate_h,
    weibull_J_envelope,
    weibull_K_envelope,
)
from geomtail.compound import DeltaTable


def midpoint_J(dist, x, r, n=100_000):
    """Independent Riemann-midpoint evaluation of the J integral."""
    ys = np.linspace(r, x - r, n + 1)
    mids = 0.5 * (ys[:-1] + ys[1:])
    dy = ys[1] - ys[0]
    integrand = dist.j_integrand(x)
    vals = [integrand(float(y)) for y in mids]
    return math.fsum(vals) * dy


# ---------------------------------------------------------------- K kernel

def test_K_at_zero_shift():
    assert K_kernel(ParetoDist(2.2), 100.0, 0.0) == 0.0


def test_K_pareto_matches_tail_ratio():
    d = ParetoDist(2.2)
    got = K_kernel(d, 100.0, 5.0)
    expect = float(d.tail(95.0)) / float(d.tail(100.0)) - 1.0
    assert got == pytest.approx(expect, rel=1e-12)


def test_K_weibull_closed_form():
    d = WeibullDist(0.5)
    got = K_kernel(d, 100.0, 5.0)
    expect = math.exp(100.0 ** 0.5 - 95.0 ** 0.5) - 1.0
    assert got == pytest.approx(expect, rel=1e-12)


def test_K_monotone_in_shift():
    d = ParetoDist(2.2)
    vals = [K_kernel(d, 100.0, r) for r in (1.0, 5.0, 20.0, 45.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_K_rejections():
    d = ParetoDist(2.2)
    with pytest.raises(ValueError):
        K_kernel(d, 100.0, 100.0)
    with pytest.raises(ValueError):
        K_kernel(d, 100.0, 150.0)
    with pytest.raises(ValueError):
        K_kernel(d, 100.0, -1.0)


# ---------------------------------------------------------------- J kernel

def test_J_against_midpoint_rule(rng):
    cases = []
    for _ in range(4):
        cases.append(ParetoDist(float(rng.uniform(1.5, 6.0))))
        cases.append(WeibullDist(float(rng.uniform(0.3, 0.8))))
        w = float(rng.uniform(0.2, 0.8))
        a = float(rng.uniform(1.5, 3.0))
        cases.append(PowerMixtureDist(((w, a), (1.0 - w, a + rng.uniform(0.5, 2.0)))))
    for d in cases:
        x = float(rng.uniform(20.0, 500.0))
        r = float(rng.uniform(0.05, 0.4)) * x
        got = J_kernel(d, x, r)
        oracle = midpoint_J(d, x, r)
        assert got == pytest.approx(oracle, rel=1e-5), (d, x, r)


def test_J_converges_to_tail_at_cutoff():
    # for fixed r, J(x, r) -> tail(r) as x grows
    d = ParetoDist(2.2)
    r = 5.0
    devs = [abs(J_kernel(d, x, r) - float(d.tail(r))) for x in (1e2, 1e4, 1e6)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.01 * float(d.tail(r))


def test_J_vanishes_at_half():
    assert J_kernel(ParetoDist(2.2), 100.0, 50.0) == 0.0


def test_J_decreasing_in_r():
    d = ParetoDist(2.2)
    vals = [J_kernel(d, 200.0, r) for r in (2.0, 10.0, 40.0, 90.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_J_rejections():
    d = ParetoDist(2.2)
    with pytest.raises(ValueError):
        J_kernel(d, 100.0, 0.0)
    with pytest.raises(ValueError):
        J_kernel(d, 100.0, 60.0)


class NanPareto(ParetoDist):
    """A family whose kernel hooks fail by returning NaN."""

    def k_value(self, x, r):
        return math.nan

    def j_integrand(self, x):
        return lambda y: math.nan


def test_kernels_refuse_nan():
    # clamping a NaN at zero would give K = J = 0, which lowers f1 to f3
    d = NanPareto(2.2)
    with pytest.raises(ValueError, match=r"K kernel is NaN at x=100, r=10"):
        K_kernel(d, 100.0, 10.0)
    with pytest.raises(ValueError, match=r"J kernel is NaN at x=100, r=10"):
        J_kernel(d, 100.0, 10.0)


# ---------------------------------------------------------------- envelopes

def test_pareto_envelopes_dominate(rng):
    for _ in range(50):
        alpha = float(rng.uniform(1.3, 5.0))
        x = float(rng.uniform(50.0, 1e5))
        h = float(rng.uniform(2.0, 0.45 * x))
        d = ParetoDist(alpha)
        assert pareto_K_envelope(alpha, x, h) >= K_kernel(d, x, h) * (1.0 - 1e-9)
        assert pareto_J_envelope(alpha, x, h) >= J_kernel(d, x, h) * (1.0 - 1e-9)


def test_pareto_K_envelope_value():
    # alpha=2, x=10, h=2: 2 * 2 * 10^2 / 8^3 = 0.78125
    assert pareto_K_envelope(2.0, 10.0, 2.0) == pytest.approx(0.78125, rel=1e-12)


def test_weibull_envelopes_dominate(rng):
    for _ in range(30):
        beta = float(rng.uniform(0.3, 0.8))
        x = float(rng.uniform(50.0, 5e3))
        h = float(rng.uniform(1.0, 0.45 * x))
        d = WeibullDist(beta)
        assert weibull_K_envelope(beta, x, h) >= K_kernel(d, x, h) * (1.0 - 1e-9)
        assert weibull_J_envelope(beta, x, h) >= J_kernel(d, x, h) * (1.0 - 1e-9)


def test_envelope_domain_rejections():
    with pytest.raises(ValueError):
        pareto_K_envelope(2.2, 10.0, 5.0)
    with pytest.raises(ValueError):
        weibull_J_envelope(0.5, 10.0, 0.0)


# ---------------------------------------------------------------- cutoffs

def test_power_cutoff_domain_start():
    h = CutoffFunction.power(1.0, 0.5)
    assert h.domain_start == pytest.approx(4.0, rel=1e-12)  # (2s)^(1/(1-gamma))
    assert float(h(np.array([16.0]))[0]) == pytest.approx(4.0)
    h2 = CutoffFunction.power(1.7, 0.3125)
    assert h2.domain_start == pytest.approx((2 * 1.7) ** (1.0 / (1.0 - 0.3125)), rel=1e-12)


def test_logpower_cutoff_domain_start():
    # small scale: h < x/2 everywhere past e^(kappa-1), no crossing
    h = CutoffFunction.logpower(0.179, 2.0)
    assert h.domain_start == pytest.approx(math.e, rel=1e-6)
    # unit scale: crossing with x/2 exists and is found
    h2 = CutoffFunction.logpower(1.0, 2.0)
    ds = h2.domain_start
    assert float(h2(np.array([ds]))[0]) <= ds / 2.0 + 1e-9 * ds
    assert float(h2(np.array([0.98 * ds]))[0]) > 0.98 * ds / 2.0 - 1e-6 * ds


def test_cutoff_with_scale():
    h = CutoffFunction.power(1.0, 0.5).with_scale(2.0)
    assert float(h(np.array([9.0]))[0]) == pytest.approx(6.0)


def test_validate_h_geometric_pass():
    d = ParetoDist(2.2)
    h = CutoffFunction.power(1.0, 1.0 / 3.2)
    grid = np.geomspace(h.domain_start * 1.01, 1e4, 40)
    rep = validate_h(d, h, grid)
    assert rep.geometric_ok
    assert rep.conditions["increasing"].passed
    assert rep.conditions["concave"].passed
    assert rep.conditions["half"].passed


def test_validate_h_half_violation():
    d = ParetoDist(2.2)
    h = CutoffFunction.power(0.6, 0.99)
    rep = validate_h(d, h, np.geomspace(10.0, 1000.0, 30))
    assert not rep.geometric_ok
    assert not rep.conditions["half"].passed
    assert rep.conditions["half"].first_violation_x == pytest.approx(10.0)


def test_validate_h_kernel_violation():
    # steep cutoff for a Weibull severity: K(x, h(x)) blows up
    d = WeibullDist(0.5)
    h = CutoffFunction.power(1.0, 0.9)
    grid = np.geomspace(1100.0, 5000.0, 12)
    rep = validate_h(d, h, grid)
    assert rep.geometric_ok
    assert not rep.kernel_ok
    assert not rep.conditions["K_small"].passed


# ---------------------------------------------------------------- test functions

def test_optimal_power_exponent():
    g = optimal_pareto_g(2.2, 1.0 / 3.2)
    assert g.exponent == pytest.approx(0.6875, rel=1e-12)
    assert optimal_pareto_g(5.0, 1.0 / 6.0).exponent == pytest.approx(5.0 / 6.0, rel=1e-12)
    # below the balance point alpha*gamma binds, above it 1-gamma binds
    assert optimal_pareto_g(5.0, 0.05).exponent == pytest.approx(0.25, rel=1e-12)
    assert optimal_pareto_g(5.0, 0.5).exponent == pytest.approx(0.5, rel=1e-12)


def test_power_test_function_ratio_tends_to_one():
    g = PowerTestFunction(1.0, 0.6875)
    h = CutoffFunction.power(1.0, 0.3125)
    ratios = []
    for x in (1e3, 1e4, 1e6):
        hv = float(h(np.array([x]))[0])
        ratios.append(g(x - hv) / g(x))
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] - 1.0 < 1e-3


def test_kkernel_test_function_matches_kernel():
    d = WeibullDist(0.5)
    h = CutoffFunction.logpower(0.179, 2.0)
    g = KKernelTestFunction(dist=d, h=h)
    x = 500.0
    hv = float(h(np.array([x]))[0])
    assert g(x) == pytest.approx(K_kernel(d, x, hv), rel=1e-12)


@pytest.mark.parametrize("g", [
    KKernelTestFunction(WeibullDist(0.5), CutoffFunction.logpower(0.179, 2.0)),
    KKernelTestFunction(WeibullDist(0.5), CutoffFunction.logpower(1.0, 2.0)),
    KKernelTestFunction(ParetoDist(2.2), CutoffFunction.power(1.0, 1.0 / 3.2)),
    PowerTestFunction(1.0, 0.6875),
], ids=["kkernel-log-0.179", "kkernel-log-1", "kkernel-power", "power"])
def test_evaluate_equals_the_scalar_calls(g):
    # c_interval and verify_bound read g through evaluate, which must not move
    # a digit of a certificate: a Panjer table's points, a strided view of
    # them, and random points up to x_far
    table_xs = np.arange(380, 12501) * 0.008
    far = np.sort(np.random.default_rng(5).uniform(3.0, 1e8, 2000))
    for xs in (table_xs, table_xs[1::3], far):
        assert np.array_equal(g.evaluate(xs), [g(float(x)) for x in xs])


def test_monotone_envelope_properties(rng):
    xs = np.linspace(1.0, 50.0, 200)
    vals = np.abs(np.sin(xs)) / xs + 0.01 * rng.random(200)
    env = MonotoneEnvelope.from_table(xs, vals)
    on_grid = np.array([env(x) for x in xs])
    assert np.all(on_grid >= vals - 1e-15)
    assert np.all(np.diff(on_grid) <= 1e-15)
    # beyond the table it stays at the last level
    assert env(60.0) == pytest.approx(on_grid[-1])
    with pytest.raises(ValueError):
        env(0.5)


def test_spliced_continuity_and_tail():
    xs = np.linspace(1.0, 30.0, 401)
    deltas = 5.0 * np.exp(-0.5 * (xs - 8.0) ** 2 / 9.0) + 2.0 / xs
    table = DeltaTable(xs=xs, delta=deltas, delta_stderr=np.zeros_like(xs), engine="panjer")
    tailg = PowerTestFunction(1.0, 0.6875)
    g = build_spliced_g(table, 20.0, tailg)
    assert abs(g(20.0 - 1e-9) - g(20.0)) <= 1e-8 * g(20.0)
    # beyond the splice point it is the scaled power tail
    assert g(25.0) == pytest.approx(g.kappa_splice * tailg(25.0), rel=1e-12)
    dense = np.linspace(1.0, 60.0, 2000)
    gv = np.array([g(x) for x in dense])
    assert np.all(np.diff(gv) <= 1e-12)


def test_spliced_constant_table_kappa():
    xs = np.linspace(2.0, 40.0, 50)
    table = DeltaTable(xs=xs, delta=np.full(50, 0.7),
                       delta_stderr=np.zeros(50), engine="panjer")
    tailg = PowerTestFunction(1.0, 0.5)
    g = build_spliced_g(table, 10.0, tailg)
    # running max of a constant table is the constant itself
    assert g.kappa_splice == pytest.approx(0.7 * 10.0 ** 0.5, rel=1e-12)
    assert g.tail_coef == pytest.approx(0.7 * 10.0 ** 0.5, rel=1e-12)


def test_spliced_rejections():
    xs = np.linspace(1.0, 30.0, 100)
    table = DeltaTable(xs=xs, delta=np.ones(100),
                       delta_stderr=np.zeros(100), engine="panjer")
    tailg = PowerTestFunction(1.0, 0.5)
    with pytest.raises(ValueError):
        build_spliced_g(table, 50.0, tailg)  # splice point beyond table
    neg = DeltaTable(xs=xs, delta=np.full(100, -0.5),
                     delta_stderr=np.zeros(100), engine="panjer")
    with pytest.raises(ValueError):
        build_spliced_g(neg, 10.0, tailg)  # no positive anchor


def test_power_test_function_validation():
    with pytest.raises(ValueError):
        PowerTestFunction(0.0, 0.5)
    with pytest.raises(ValueError):
        PowerTestFunction(1.0, -0.1)
