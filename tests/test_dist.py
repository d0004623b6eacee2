"""Distribution layer: tails, sampling, discretization."""

import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomtail import dist as dist_module
from geomtail.dist import (
    GeometricParams,
    LatticeDistribution,
    ParetoDist,
    PowerMixtureDist,
    WeibullDist,
    build_overshoot_upper,
    discretize,
)
from conftest import PointMass


def bisect_quantile(tail, target, lo, hi, iters=200):
    """Independent quantile oracle: solve tail(x) = target by bisection."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if tail(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- tails

def test_pareto_tail_values():
    d = ParetoDist(2.2)
    assert d.tail(1.0) == 1.0
    assert d.tail(0.5) == 1.0
    assert d.tail(2.0) == pytest.approx(2.0 ** -2.2, rel=1e-14)
    assert d.tail(10.0) == pytest.approx(10.0 ** -2.2, rel=1e-14)


def test_pareto_density_matches_tail_derivative():
    d = ParetoDist(3.0)
    for x in (1.5, 4.0, 20.0):
        eps = 1e-6 * x
        numeric = (d.tail(x - eps) - d.tail(x + eps)) / (2 * eps)
        assert d.density(x) == pytest.approx(numeric, rel=1e-7)


def test_weibull_tail_values():
    d = WeibullDist(0.5)
    assert d.tail(0.0) == 1.0
    assert d.tail(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert d.tail(4.0) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_mixture_tail_is_weighted_sum():
    d = PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0)))
    assert d.tail(1.0) == 1.0
    assert d.tail(2.0) == pytest.approx(1.0 / 12.0 + 2.0 / 3.0 / 8.0, rel=1e-14)
    xs = np.geomspace(1.0, 1e6, 50)
    expect = (1.0 / 3.0) * xs ** -2.0 + (2.0 / 3.0) * xs ** -3.0
    assert np.allclose(d.tail(xs), expect, rtol=1e-13)


def test_tails_monotone_and_bounded(rng):
    dists = [ParetoDist(2.2), WeibullDist(0.5),
             PowerMixtureDist(((0.4, 2.0), (0.6, 3.5)))]
    xs = np.geomspace(0.5, 1e5, 300)
    for d in dists:
        t = d.tail(xs)
        assert np.all(t[1:] <= t[:-1] + 1e-15)
        assert np.all((t >= 0.0) & (t <= 1.0))


def test_parameter_validation():
    with pytest.raises(ValueError):
        ParetoDist(1.0)
    with pytest.raises(ValueError):
        ParetoDist(0.5)
    with pytest.raises(ValueError):
        WeibullDist(0.0)
    with pytest.raises(ValueError):
        WeibullDist(1.0)
    with pytest.raises(ValueError):
        PowerMixtureDist(((0.5, 2.0), (0.4, 3.0)))  # weights do not sum to 1
    with pytest.raises(ValueError):
        PowerMixtureDist(((1.0, 1.0),))  # exponent must exceed 1
    with pytest.raises(ValueError):
        PowerMixtureDist(((-0.5, 2.0), (1.5, 3.0)))


# ---------------------------------------------------------------- sampling

def test_pareto_sample_round_trip():
    d = ParetoDist(2.2)
    u = (np.arange(1000) + 0.5) / 1000.0
    x = d.sample(u)
    back = 1.0 - d.tail(x)
    assert np.max(np.abs(back - u)) < 1e-10


def test_pareto_quantile_against_bisection():
    d = ParetoDist(2.2)
    # closed form: tail(x) = 0.25 at x = 4^(1/2.2)
    oracle = bisect_quantile(lambda x: float(d.tail(x)), 0.25, 1.0, 100.0)
    got = float(d.sample(np.array([0.75]))[0])
    assert got == pytest.approx(oracle, rel=1e-10)
    assert got == pytest.approx(0.25 ** (-1.0 / 2.2), rel=1e-12)


def test_weibull_sample_round_trip():
    d = WeibullDist(0.5)
    assert float(d.sample(np.array([1.0 - math.exp(-1.0)]))[0]) == pytest.approx(1.0, rel=1e-12)
    u = (np.arange(1000) + 0.5) / 1000.0
    x = d.sample(u)
    back = 1.0 - d.tail(x)
    assert np.max(np.abs(back - u)) < 1e-10


def test_mixture_sample_round_trip_and_oracle(rng):
    d = PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0)))
    # tail(2) = 1/6 exactly, so u = 5/6 must invert to 2
    assert float(d.sample(np.array([5.0 / 6.0]))[0]) == pytest.approx(2.0, rel=1e-9)
    u = rng.random(500) * 0.998 + 0.001
    x = d.sample(u)
    back = 1.0 - d.tail(x)
    assert np.max(np.abs(back - u)) < 1e-10
    # spot check against an independent bisection solve
    for ui in (0.1, 0.5, 0.9, 0.999):
        oracle = bisect_quantile(lambda t: float(d.tail(t)), 1.0 - ui, 1.0, 1e6)
        assert float(d.sample(np.array([ui]))[0]) == pytest.approx(oracle, rel=1e-9)


def bisection_sample(terms, u):
    """The 60-round bisection the mixture sampler used before Newton, kept as
    the oracle. It sizes one bracket for the whole batch."""
    def tail(x):
        x = np.asarray(x, dtype=float)
        t = sum(c * np.power(np.maximum(x, 1.0), -a) for c, a in terms)
        return np.where(x <= 1.0, 1.0, t)

    target = 1.0 - u
    a_min = min(a for _, a in terms)
    t_hi = max(5.0, (-np.log(np.min(target)) + 5.0) / a_min)
    for _ in range(200):
        if tail(math.exp(t_hi)) < np.min(target):
            break
        t_hi *= 2.0
    lo = np.zeros_like(u)
    hi = np.full_like(u, t_hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        too_high = tail(np.exp(mid)) > target
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
    return np.exp(0.5 * (lo + hi))


def newton_walk_sample(d, u):
    """The mixture sampler before its start table, kept as the oracle: for
    each u, safeguarded Newton on log tail(e^t) = log(1 - u) from the lower
    bound of t, finished by bisection when it has not settled after 12 steps,
    then a walk of x = e^t one ulp at a time against ``d.tail`` to the
    smallest double x >= 1 with tail(x) <= 1 - u."""
    target = 1.0 - np.asarray(u, dtype=float).reshape(-1)

    def log_tail(t):
        f = np.zeros_like(t)
        df = np.zeros_like(t)
        for c, a in d.terms:
            term = c * np.exp(-a * t)
            f += term
            df += a * term
        return f, df

    log_target = np.log(target)
    lo = np.zeros_like(target)
    for c, a in d.terms:
        lo = np.maximum(lo, (math.log(c) - log_target) / a)
    c_sum = math.fsum(c for c, _ in d.terms)
    a_min = min(a for _, a in d.terms)
    hi = np.maximum(lo, (math.log(c_sum) - log_target) / a_min)
    t = lo.copy()
    live = np.arange(t.size)
    for _ in range(12):
        t_old = t[live]
        f, df = log_tail(t_old)
        t_new = np.clip(t_old + f * (np.log(f) - log_target[live]) / df, lo[live], hi[live])
        t[live] = t_new
        live = live[np.abs(t_new - t_old) > 4.0 * np.spacing(np.maximum(t_old, 1.0))]
    b_lo, b_hi = t[live], hi[live]
    for _ in range(60):
        mid = 0.5 * (b_lo + b_hi)
        above = log_tail(mid)[0] > target[live]
        b_lo = np.where(above, mid, b_lo)
        b_hi = np.where(above, b_hi, mid)
    t[live] = b_hi

    s = np.exp(t)
    high = d.tail(s) > target
    live = np.flatnonzero(high)
    while live.size:
        s[live] = np.nextafter(s[live], np.inf)
        live = live[d.tail(s[live]) > target[live]]
    live = np.flatnonzero(~high & (s > 1.0))
    while live.size:
        prev = np.nextafter(s[live], 0.0)
        down = d.tail(prev) <= target[live]
        live = live[down]
        s[live] = prev[down]
        live = live[s[live] > 1.0]
    return s


def log_grid_ulps(x):
    """Spacing of the draws exp(t) for a double t near log x: the resolution
    of samplers that solve for t = log x, such as the bisection oracle and
    the closed-form Pareto sampler. Near t = 35 it is 32 ulps of x."""
    return x * np.spacing(np.log(x))


@st.composite
def mixtures(draw):
    m = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))
    exponents = draw(st.lists(st.floats(1.05, 10.0), min_size=m, max_size=m))
    total = math.fsum(raw)
    return PowerMixtureDist(tuple((w / total, a) for w, a in zip(raw, exponents)))


UNIFORMS = hnp.arrays(float, st.integers(1, 40),
                      elements=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=150, deadline=None)
@given(mixtures(), hnp.arrays(float, st.integers(0, 40), elements=st.floats(width=64)),
       st.floats(-10.0, 1e12))
def test_mixture_tail_is_the_term_sum_bit_for_bit(d, x, scalar):
    # tail forms the sum in place; these are the array expressions it replaces
    xs = np.maximum(x, 1.0)
    t = np.zeros_like(xs)
    for c, a in d.terms:
        t += c * np.power(xs, -a)
    assert d.tail(x).tobytes() == np.where(x <= 1.0, 1.0, t).tobytes()
    assert type(d.tail(scalar)) is float
    assert d.tail(scalar) == d.tail(np.array([scalar]))[0]


@settings(max_examples=150, deadline=None)
@given(mixtures(), UNIFORMS)
def test_mixture_sample_is_the_quantile_of_tail(d, u):
    x = d.sample(u)
    target = 1.0 - u
    # the smallest double x >= 1 with tail(x) <= 1 - u
    assert np.all(x >= 1.0)
    assert np.all(d.tail(x) <= target)
    assert np.all((x == 1.0) | (d.tail(np.nextafter(x, 0.0)) > target))
    assert np.all(np.abs(d.tail(x) - target) <= 1e-13 * target)
    # draws agree with the bisection oracle to 8 ulps beyond its own resolution
    old = bisection_sample(d.terms, u)
    assert np.all(np.abs(x - old) <= 8.0 * np.spacing(old) + log_grid_ulps(old))


@settings(max_examples=100, deadline=None)
@given(mixtures(), UNIFORMS, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_mixture_sample_is_monotone_and_batch_independent(d, u, base):
    # sorted draws, plus a run of consecutive doubles where rounding could
    # reorder draws that are not an exact function of the tail
    run = base + np.arange(-32, 32) * np.spacing(base)
    u = np.sort(np.concatenate([u, run[(run > 0.0) & (run < 1.0)]]))
    x = d.sample(u)
    assert np.all(np.diff(x) >= 0.0)
    for i in range(u.size):
        assert d.sample(u[i:i + 1])[0] == x[i]
    assert d.sample(float(u[-1])) == x[-1]


@settings(max_examples=100, deadline=None)
@given(st.floats(1.05, 10.0), UNIFORMS)
def test_one_term_mixture_matches_pareto_sampler(alpha, u):
    x = PowerMixtureDist(((1.0, alpha),)).sample(u)
    ref = ParetoDist(alpha).sample(u)
    # the Pareto sampler rounds t = -log1p(-u)/alpha twice before exp(t)
    assert np.all(np.abs(x - ref) <= 8.0 * np.spacing(ref) + 2.0 * log_grid_ulps(ref))


# uniforms at the ends of the double range: the smallest subnormal, one
# whose 1 - u rounds to 1, and the largest double below 1
EDGE_UNIFORMS = np.array([5e-324, 2.0**-54, 1.0 - 2.0**-53])


@settings(max_examples=150, deadline=None)
@given(mixtures(), UNIFORMS, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_mixture_sample_equals_the_newton_walk_oracle(d, u, base):
    # plus a run of consecutive doubles, where a start a few ulps off shows
    run = base + np.arange(-32, 32) * np.spacing(base)
    u = np.concatenate([u, EDGE_UNIFORMS, run[(run > 0.0) & (run < 1.0)]])
    assert d.sample(u).tobytes() == newton_walk_sample(d, u).tobytes()


@pytest.mark.parametrize("table, chunk", [
    # the start table, built by bisection
    pytest.param(True, dist_module._SAMPLE_CHUNK, id="bisection-table"),
    # many small chunks
    pytest.param(True, 7, id="_SAMPLE_CHUNK-7"),
    # no table: every start from the bisection itself
    pytest.param(False, dist_module._SAMPLE_CHUNK, id="no-table"),
])
def test_mixture_draws_do_not_depend_on_the_solver_path(monkeypatch, table, chunk):
    terms = ((0.2, 1.2), (0.3, 2.5), (0.5, 6.0))
    u = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001), EDGE_UNIFORMS])
    d = PowerMixtureDist(terms)
    if not table:
        monkeypatch.setattr(PowerMixtureDist, "_log_start", PowerMixtureDist._log_quantile)
    monkeypatch.setattr(dist_module, "_SAMPLE_CHUNK", chunk)
    assert d.sample(u).tobytes() == newton_walk_sample(d, u).tobytes()


@settings(max_examples=30, deadline=None)
@given(mixtures())
def test_start_table_is_bisected_to_the_last_bit(d):
    t, _ = d._start_table
    target = np.exp(-np.linspace(0.0, dist_module._START_Y_MAX, dist_module._START_NODES))
    lo, hi = d._bracket(np.log(target))
    prev = np.nextafter(t, 0.0)
    # inside the bracket, at most target, and the double below is above it
    assert np.all((lo <= t) & (t <= hi))
    assert np.all((t == hi) | (d._log_tail(t)[0] <= target))
    assert np.all((prev <= lo) | (d._log_tail(prev)[0] > target))


@settings(max_examples=100, deadline=None)
@given(st.floats(1.05, 10.0), st.floats(0.05, 0.95), UNIFORMS)
def test_closed_form_samplers_are_their_formulas_bit_for_bit(alpha, beta, u):
    cases = ((ParetoDist(alpha), lambda v: np.exp(-np.log1p(-v) / alpha)),
             (WeibullDist(beta), lambda v: np.power(-np.log1p(-v), 1.0 / beta)))
    # the drawn array, and a 2-d one of an MC group's size
    arrays = (u, np.resize(u, (256, 256)))
    for d, formula in cases:
        for v in arrays:
            kept = v.copy()
            x = d.sample(v)
            assert np.array_equal(v, kept)  # the caller's uniforms are not written
            assert x.shape == v.shape and x.tobytes() == formula(v).tobytes()
        y = d.sample(float(u[0]))
        assert type(y) is float and y == formula(u[:1])[0]


def test_sample_rejects_boundary_uniforms():
    for d in (ParetoDist(2.2), WeibullDist(0.5), PowerMixtureDist(((1.0, 3.0),)),
              PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0)))):
        for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                d.sample(np.array([0.5, bad]))


def test_single_term_mixture_matches_pareto():
    mix = PowerMixtureDist(((1.0, 2.2),))
    par = ParetoDist(2.2)
    xs = np.geomspace(1.0, 1e6, 100)
    assert np.allclose(mix.tail(xs), par.tail(xs), rtol=1e-13)
    assert mix.k_value(100.0, 7.0) == pytest.approx(par.k_value(100.0, 7.0), rel=1e-12)
    ys = np.linspace(0.5, 99.5, 199)
    assert np.allclose(mix.j_integrand(100.0)(ys), par.j_integrand(100.0)(ys), rtol=1e-12, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(1.05, 10.0), st.floats(0.0, 1e8))
def test_pareto_tail_mean_from_its_power_term(alpha, r):
    # the power-type default sums c a / (a - 1) r^(1 - a) over the terms; for
    # Pareto's one term (1, alpha) that is the closed form bit for bit
    d = ParetoDist(alpha)
    rr = max(r, 1.0)
    assert d.tail_mean_above(r) == alpha / (alpha - 1.0) * rr ** (1.0 - alpha)
    assert d.integrand_breakpoints(50.0) == [1.0, 49.0]
    assert WeibullDist(0.5).integrand_breakpoints(50.0) == []


@st.composite
def severity_and_points(draw):
    """A severity with 1 <= x and an array of points 0 < y < x, inside the
    range where its tails do not underflow (the Weibull exponent x^beta stays
    below 300)."""
    kind = draw(st.sampled_from(["pareto", "weibull", "mixture"]))
    if kind == "pareto":
        d, x_max = ParetoDist(draw(st.floats(1.05, 10.0))), 1e8
    elif kind == "weibull":
        d = WeibullDist(draw(st.floats(0.1, 0.95)))
        x_max = min(1e8, 300.0 ** (1.0 / d.beta))
    else:
        d, x_max = draw(mixtures()), 1e8
    x = x_max ** draw(st.floats(0.0, 1.0))
    fracs = draw(hnp.arrays(float, st.integers(1, 20),
                            elements=st.floats(1e-12, 1.0, exclude_max=True)))
    return d, x, x * fracs


@settings(max_examples=300, deadline=None)
@given(severity_and_points())
def test_j_integrand_is_the_tail_ratio_times_the_density(case):
    # Weibull's exponent is formed from the nearer end of (0, x), so its y
    # runs up to x too: x - y is exact there, and nothing cancels
    d, x, ys = case
    integrand = d.j_integrand(x)
    got = integrand(ys)
    want = d.tail(x - ys) / float(d.tail(x)) * d.density(ys)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    # x - y passed as u is what the integrand forms from y by default
    assert np.array_equal(integrand(ys, x - ys), got)


def test_weibull_exponent_difference_stability():
    # K = expm1(x^beta - (x-r)^beta), so log1p(K) is the exponent difference
    d = WeibullDist(0.5)
    # moderate arguments: direct subtraction is safe, must agree
    direct = 100.0 ** 0.5 - 90.0 ** 0.5
    assert np.log1p(d.k_value(100.0, 10.0)) == pytest.approx(direct, rel=1e-12)
    # huge arguments: concavity brackets beta*r*x^(b-1) <= diff <= beta*r*(x-r)^(b-1)
    x, r = 1e8, 60.0
    val = np.log1p(d.k_value(x, r))
    assert 0.5 * r * x ** -0.5 <= val <= 0.5 * r * (x - r) ** -0.5


# ---------------------------------------------------------------- discretization

def test_discretize_cell_mass_tracks_density():
    d = ParetoDist(2.2)
    x0 = 10.0
    errs = []
    for bw in (0.1, 0.05):
        lat = discretize(d, bw, 40.0)
        j = int(round(x0 / bw))
        errs.append(abs(lat.masses[j] / bw - d.density(x0)))
    assert errs[0] <= 2.0 * 0.1 * d.density(x0)
    assert errs[1] <= 2.0 * 0.05 * d.density(x0)


def test_discretize_point_mass_lands_on_cell():
    d = PointMass(1.0)
    for mode in ("rounded", "lower", "upper"):
        lat = discretize(d, 0.5, 3.0, mode=mode)
        assert lat.masses[2] == pytest.approx(1.0, abs=1e-12)
        assert abs(sum(lat.masses) - 1.0) < 1e-12


def test_discretize_mass_conservation():
    d = ParetoDist(2.2)
    lat = discretize(d, 0.5, 2000.0)
    total = math.fsum(lat.masses) + lat.truncated_mass
    assert abs(total - 1.0) < 1e-12
    # the exactly rounded sum over numpy scalars, one at a time
    assert lat.truncated_mass == max(0.0, 1.0 - math.fsum(list(lat.masses)))
    # rounded mode cuts at the half-cell edge beyond the truncation point
    assert lat.truncated_mass == pytest.approx(float(d.tail(2000.25)), rel=1e-12)


def test_discretize_modes_bracket_rounded():
    d = ParetoDist(2.2)
    lo = discretize(d, 0.25, 50.0, mode="lower")
    mid = discretize(d, 0.25, 50.0, mode="rounded")
    up = discretize(d, 0.25, 50.0, mode="upper")
    cl = np.cumsum(lo.masses)
    cm = np.cumsum(mid.masses)
    cu = np.cumsum(up.masses)
    # lower mode shifts mass down, upper mode shifts it up
    assert np.all(cl >= cm - 1e-12)
    assert np.all(cm >= cu - 1e-12)


LOWER_MODE_FAMILIES = {
    "pareto-2.2": ParetoDist(2.2),
    "pareto-5": ParetoDist(5.0),
    "weibull-0.5": WeibullDist(0.5),
    "mixture-2-3": PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0))),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LOWER_MODE_FAMILIES)),
       st.sampled_from([0.002, 0.005, 0.01, 0.02, 0.25, 1.0]),
       st.integers(1, 5000))
def test_discretize_lower_is_the_per_point_tail_ge_bit_for_bit(name, bw, n):
    # lower mode reads tail_ge over the whole lattice in one array call; the
    # masses are those of one scalar call per lattice point
    d = LOWER_MODE_FAMILIES[name]
    lat = discretize(d, bw, n * bw, mode="lower")
    tg = np.array([d.tail_ge(v) for v in np.arange(n + 2) * bw], dtype=float)
    assert lat.masses.tobytes() == np.maximum(tg[:-1] - tg[1:], 0.0).tobytes()


def test_discretize_rejections():
    d = ParetoDist(2.2)
    with pytest.raises(ValueError):
        discretize(d, 0.0, 10.0)
    with pytest.raises(ValueError):
        discretize(d, 0.3, 10.0)  # truncation not on the lattice
    with pytest.raises(ValueError):
        discretize(d, 0.5, 10.0, mode="nearest")


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeDistribution(bandwidth=0.5, masses=np.array([0.5, -0.1, 0.6]),
                            truncation_point=1.0, truncated_mass=0.0)
    with pytest.raises(ValueError):
        LatticeDistribution(bandwidth=0.5, masses=np.array([0.5, 0.4]),
                            truncation_point=0.5, truncated_mass=0.0)
    lat = LatticeDistribution(bandwidth=0.5, masses=np.array([0.25, 0.25, 0.5]),
                              truncation_point=1.0, truncated_mass=0.0)
    assert np.allclose(lat.grid, [0.0, 0.5, 1.0])


# ---------------------------------------------------------------- helpers

def test_overshoot_upper_weights():
    d = build_overshoot_upper(1.0, 1.0, 3.0)
    assert d.terms == ((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0))
    pure = build_overshoot_upper(1.0, 0.0, 3.0)
    assert pure.terms == ((1.0, 2.0),)
    tail_only = build_overshoot_upper(0.0, 1.0, 3.0)
    assert tail_only.terms == ((1.0, 3.0),)
    with pytest.raises(ValueError):
        build_overshoot_upper(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_overshoot_upper(1.0, 1.0, 2.0)  # integrated part needs a > 2
    with pytest.raises(ValueError):
        build_overshoot_upper(0.0, 0.0, 3.0)


def test_geometric_params():
    gp = GeometricParams(0.5)
    assert gp.q == 0.5
    assert gp.mean == 2.0
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            GeometricParams(bad)
