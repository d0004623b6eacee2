"""Bound construction: f-terms, suprema, interval constants, certificates."""

import dataclasses
import math

import numpy as np
import pytest

from geomtail import bounder
from geomtail.bounder import (
    BoundCertificate,
    ProcedureFailed,
    bound_constant,
    build_bound,
    c_interval,
    delta_sup,
    f_terms,
    phi_sup,
    tune,
    verify_bound,
)
from geomtail.compound import DeltaTable, delta_from_tails, panjer_tail
from geomtail.config import parse_kv
from geomtail.dist import GeometricParams, ParetoDist, WeibullDist, discretize
from geomtail.kernels import (
    CutoffFunction,
    KKernelTestFunction,
    PowerTestFunction,
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
    """The sweep splits f_terms into a g-free kernel step and a combination
    step; at every grid point the two give f_terms bit for bit."""
    spliced = bounder.build_spliced_g(pareto_delta_table(bw=0.05, xmax=100.0), 21.3, G_PARETO)
    sweep = bounder._kernel_sweep(PARETO, H_PARETO, 100.0, 1e5, 1.3)
    assert sweep.error is None and len(sweep.points) > 20
    for g in (G_PARETO, spliced):
        terms = [f_terms(PARETO, HALF, H_PARETO, g, point[0]) for point in sweep.points]
        for point, ft in zip(sweep.points, terms):
            assert bounder._combine(HALF, g, point) == ft
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
    phi = phi_sup(PARETO, HALF, H_PARETO, G_PARETO, 100.0, x_far=1e6)
    assert phi.tail_certified
    assert float(phi) >= 0.0


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


def test_contraction_failure_is_reported():
    with pytest.raises(ProcedureFailed) as exc:
        build_bound(PARETO, GeometricParams(0.2), H_PARETO, G_PARETO, 100.0,
                    engine="panjer", bandwidth=0.05, x_far=1e6, min_b_cap=150)
    err = exc.value
    assert err.from_b == 100.0
    assert err.delta_value >= 1.0
    assert err.min_b is None
    assert "no b <= 150" in str(err)


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
        engine="panjer", bandwidth=0.05, truncation=None, mc_samples=None,
        seed=None, B=20.0, delta_b=0.5, phi=1e-6, c_hb_b=0.0,
        C=2e-6, kappa_splice=None, tail_coefficient=None,
        delta_tail_certified=True, phi_tail_certified=True,
        caveats=(), report="")
    rep = verify_bound(tiny, table)
    assert not rep.ok
    assert len(rep.violations) > 0
    assert rep.max_excess > 0.0


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
    calls = []
    real = bounder.J_kernel

    def counting(dist, x, r, *args, **kwargs):
        calls.append(x)
        return real(dist, x, r, *args, **kwargs)

    monkeypatch.setattr(bounder, "J_kernel", counting)
    res = tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0, 1.14, 1e6],
               [None, 15.0, 21.3], engine="panjer", bandwidth=0.05,
               x_far=1e5, grid_ratio=1.2)
    assert sum(r.feasible for r in res.rows) == 6  # the 1e6 scale is unusable
    points = len(bounder._sup_grid(100.0, 1e5, 1.2))
    assert len(calls) == 2 * points


def test_tune_notes_when_kernel_sweep_raises(monkeypatch):
    """A kernel failure inside a scale's sweep lands in every candidate row
    of that scale, after any failure of the candidate's own splice."""
    real = bounder.J_kernel

    def failing(dist, x, r, *args, **kwargs):
        if x > 1e3:
            raise RuntimeError(f"J kernel quadrature did not converge at x={x:g}")
        return real(dist, x, r, *args, **kwargs)

    monkeypatch.setattr(bounder, "J_kernel", failing)
    with pytest.raises(ValueError, match="no feasible tuning candidate") as exc:
        tune(PARETO, HALF, H_PARETO, G_PARETO, 100.0, [1.0], [None, 21.3, 150.0],
             engine="panjer", bandwidth=0.05, x_far=1e4, grid_ratio=1.5)
    assert "bstar=150 outside the table range" in str(exc.value)
    first = bounder._sup_grid(100.0, 1e4, 1.5)
    x_fail = float(first[first > 1e3][0])
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
