"""Distribution layer: tails, sampling, discretization."""

import math

import numpy as np
import pytest

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


def test_sample_rejects_boundary_uniforms():
    for d in (ParetoDist(2.2), WeibullDist(0.5),
              PowerMixtureDist(((1.0, 3.0),))):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                d.sample(np.array([0.5, bad]))


def test_single_term_mixture_matches_pareto():
    mix = PowerMixtureDist(((1.0, 2.2),))
    par = ParetoDist(2.2)
    xs = np.geomspace(1.0, 1e6, 100)
    assert np.allclose(mix.tail(xs), par.tail(xs), rtol=1e-13)
    assert mix.k_value(100.0, 7.0) == pytest.approx(par.k_value(100.0, 7.0), rel=1e-12)
    assert mix.j_integrand(100.0, 30.0) == pytest.approx(par.j_integrand(100.0, 30.0), rel=1e-12)


def test_weibull_exponent_difference_stability():
    d = WeibullDist(0.5)
    # moderate arguments: direct subtraction is safe, must agree
    direct = 100.0 ** 0.5 - 90.0 ** 0.5
    assert d.diff_pow(100.0, 10.0) == pytest.approx(direct, rel=1e-12)
    # huge arguments: concavity brackets beta*r*x^(b-1) <= diff <= beta*r*(x-r)^(b-1)
    x, r = 1e8, 60.0
    val = d.diff_pow(x, r)
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
