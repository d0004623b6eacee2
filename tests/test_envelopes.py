"""Far-tail envelopes: the stated conditions, domination of the contraction
terms, decrease on [x_far, infinity) and one note per failing condition."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PointMass
from geomtail import bounder
from geomtail.dist import GeometricParams, ParetoDist, PowerMixtureDist, WeibullDist
from geomtail.kernels import (
    CutoffFunction,
    KKernelTestFunction,
    MonotoneEnvelope,
    PowerTestFunction,
    SplicedTestFunction,
)

HALF = GeometricParams(0.5)
PARETO22 = ParetoDist(2.2)
WEIBULL = WeibullDist(0.5)
H_LOG2 = CutoffFunction.logpower(1.0, 2.0)
G_LOG2 = KKernelTestFunction(dist=WEIBULL, h=H_LOG2)


def power_envelope(dist, params, h, g, xs):
    """The power envelope's bounds on f1 + f2 and f3 at each point of xs: the
    terms of bounder._power_bounds, the f3 numerator divided by g."""
    f12, numerator = bounder._power_bounds(dist, params, g.power_tail[2], xs, h(xs))
    return f12, numerator / g.evaluate(xs)


# the reference shapes: Pareto 2.2 (criterion 2), Pareto 5 with the
# 1.94 x^(1/6) cutoff (criterion 4), the two-term mixture (criterion 5) and
# criterion 6 unscaled (Weibull 0.5, (log x)^2, scale 1)
SHAPES = {
    "pareto22": (PARETO22, CutoffFunction.power(1.0, 1.0 / 3.2),
                 PowerTestFunction(1.0, 0.6875), power_envelope),
    "pareto5": (ParetoDist(5.0), CutoffFunction.power(1.94, 1.0 / 6.0),
                PowerTestFunction(1.0, 5.0 / 6.0), power_envelope),
    "mixture": (PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0))),
                CutoffFunction.power(1.0, 1.0 / 3.0), PowerTestFunction(1.0, 2.0 / 3.0),
                power_envelope),
    "weibull": (WEIBULL, H_LOG2, G_LOG2, bounder._weibull_envelope),
}


def _nonincreasing(vals: np.ndarray) -> bool:
    return bool(np.all(np.diff(vals) <= 1e-9 * np.maximum(np.abs(vals[:-1]), 1e-300)))


@pytest.mark.parametrize("x_far", [1e6, 1e8])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_envelopes_dominate_the_terms(shape, x_far):
    dist, h, g, envelope = SHAPES[shape]
    env = bounder._tail_envelopes(dist, HALF, h, g, x_far)
    assert env.certified, env.note
    xs = np.geomspace(x_far, 1e6 * x_far, 25)
    sweep = bounder._kernel_sweep(dist, h, xs)
    assert sweep.error is None and sweep.x.size == xs.size
    f1, f2, f3 = bounder._terms(sweep, HALF, g)
    f12_env, f3_env = envelope(dist, HALF, h, g, xs)
    # pointwise, and below the certified suprema taken at x_far
    assert np.all(f1 + f2 <= f12_env * (1.0 + 1e-9))
    assert np.all(f3 <= f3_env * (1.0 + 1e-9))
    assert np.all(f1 + f2 <= env.f12 * (1.0 + 1e-9))
    assert np.all(f3 <= env.f3 * (1.0 + 1e-9))


def _check_decrease_and_maximum(envelope, dist, params, h, g, x_far):
    """The array formula on 40 points of [x_far, 1e12 x_far] does not
    increase, and its maximum is the production value at x_far."""
    env = bounder._tail_envelopes(dist, params, h, g, x_far)
    assert env.certified, env.note
    f12, f3 = envelope(dist, params, h, g, np.geomspace(x_far, x_far * 1e12, 40))
    assert _nonincreasing(f12) and _nonincreasing(f3)
    assert np.max(f12) == pytest.approx(env.f12, rel=1e-12, abs=0.0)
    assert np.max(f3) == pytest.approx(env.f3, rel=1e-12, abs=0.0)


@st.composite
def power_cases(draw):
    """A Pareto or a 2-3-term mixture, gamma, e <= min(a_min gamma,
    1 - gamma), and a scale that puts h(x_far) in [1, x_far/2)."""
    n = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.floats(1.1, 8.0), min_size=n, max_size=n))
    if n == 1:
        dist = ParetoDist(exponents[0])
    else:
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        dist = PowerMixtureDist(tuple((w / math.fsum(raw), a) for w, a in zip(raw, exponents)))
    gamma = draw(st.floats(0.05, 0.9))
    e_max = min(min(exponents) * gamma, 1.0 - gamma)
    e = e_max * draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    x_far = 10.0 ** draw(st.floats(4.0, 10.0))
    hf = (x_far / 2.0) ** draw(st.floats(0.001, 0.999))
    h = CutoffFunction.power(hf / x_far**gamma, gamma)
    params = GeometricParams(draw(st.floats(0.05, 0.95)))
    return dist, params, h, PowerTestFunction(draw(st.floats(0.1, 10.0)), e), x_far


@settings(max_examples=150, deadline=None)
@given(power_cases())
def test_power_envelope_decreases_beyond_x_far(case):
    _check_decrease_and_maximum(power_envelope, *case)


def one_piece_power_envelope(dist, params, h, g, xs):
    """The power envelope's bounds on f1 + f2 and f3 at each point of xs in
    one formula, g's division inside: the reference for the split into
    bounder._power_bounds, computed once per scale, and a division by each
    test function's g."""
    terms = dist.tail_power_terms
    a_min = min(a for _, a in terms)
    a_max = max(a for _, a in terms)
    e = g.power_tail[2]
    q = params.q
    r = np.asarray(h(xs), dtype=float)
    u = r / xs
    m = 16.0
    kappa_m = m * bounder._inf_on_overflow(math.expm1, -a_max * math.log1p(-1.0 / m))
    pow2_m1 = bounder._inf_on_overflow(math.expm1, a_max * math.log(2.0))
    pow2 = bounder._inf_on_overflow(pow, 2.0, a_max)
    mean_above = np.array([dist.tail_mean_above(v) for v in r.tolist()], dtype=float)
    tail = dist.tail
    i1 = kappa_m * mean_above / xs + pow2_m1 * np.asarray(tail(xs / m), dtype=float)
    j_excess = (pow2 - 2.0) * np.asarray(tail(xs / 2.0), dtype=float) + 2.0 * i1
    j_env = np.asarray(tail(r), dtype=float) + j_excess
    f1 = q * np.exp(-(e + a_max) * np.log1p(-u))
    f2 = q * np.exp(-e * np.log(u)) * j_env
    c_min = next(c for c, a in terms if a == a_min)
    k_bound = (
        sum(c * np.power(xs, a_min - a) * np.expm1(-a * np.log1p(-u)) for c, a in terms)
        / c_min
    )
    gx = g.evaluate(xs)
    f3 = (q * j_excess + (1.0 - params.p**2) * k_bound) / gx
    return f1 + f2, f3


@settings(max_examples=100, deadline=None)
@given(power_cases(), st.floats(1e-6, 1.0), st.booleans())
def test_split_power_envelope_is_the_one_piece_formula_bit_for_bit(case, start_at, spliced_first):
    """Over points from x_far / 1e4 to x_far, a power g and a spliced g with
    the same exponent, whose power start lies anywhere up to h(x_far), read
    the envelope through one kept store of the terms that do not read g, in
    either order, and then a power g of half that exponent: each gets, bit
    for bit, the one-piece formula at the points where its conditions hold
    and NaN elsewhere, though the first two hold at different points."""
    dist, params, h, g, x_far = case
    xs = np.append(x_far * np.geomspace(1e-4, 1.0, 12)[:-1], x_far)
    r = np.asarray(h(xs), dtype=float)
    start = start_at * float(r[-1])
    below = MonotoneEnvelope(np.array([start / 2.0, start]), np.array([1.0, 0.5]))
    spliced = SplicedTestFunction(bstar=start, envelope=below, kappa_splice=0.5 / g(start),
                                  tailg=g)
    kept = {}
    half = PowerTestFunction(g.coef, g.exponent / 2.0)
    for test_g in ((spliced, g) if spliced_first else (g, spliced)) + (half,):
        env = bounder._tail_envelopes(dist, params, h, test_g, xs, kept)
        begin = test_g.power_tail[0]
        holds = (r >= begin) & (xs - r >= begin) & (r < xs / 2.0) & (r >= 1.0) & (xs >= 16.0)
        want12, want3 = np.full(xs.size, np.nan), np.full(xs.size, np.nan)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want12[holds], want3[holds] = one_piece_power_envelope(dist, params, h, test_g,
                                                                   xs[holds])
        if not (math.isfinite(want12[-1]) and math.isfinite(want3[-1])):
            assert not env.certified
            continue
        assert env.certified, env.note
        assert env.f12s.tobytes() == want12.tobytes() and env.f3s.tobytes() == want3.tobytes()
    assert list(kept) == ["cutoff", (params, g.exponent), (params, half.exponent)]


@st.composite
def weibull_cases(draw):
    """beta, kappa with kappa beta >= 1 (scale >= 1 at kappa beta = 1), and
    an x_far the regime conditions may accept."""
    beta = draw(st.floats(0.3, 0.8))
    kb = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0)))
    scale = draw(st.floats(1.0, 5.0) if kb == 1.0 else st.floats(0.1, 10.0))
    h = CutoffFunction.logpower(scale, kb / beta)
    dist = WeibullDist(beta)
    params = GeometricParams(draw(st.floats(0.05, 0.95)))
    return dist, params, h, KKernelTestFunction(dist=dist, h=h), 10.0 ** draw(st.floats(2.0, 80.0))


@settings(max_examples=150, deadline=None)
@given(weibull_cases())
def test_weibull_envelope_decreases_beyond_x_far(case):
    dist, params, h, g, x_far = case
    assume(bounder._tail_envelopes(dist, params, h, g, x_far).certified)
    # the far term's condition follows from the checked ones
    beta = dist.beta
    assert (2.0 ** (1.0 - beta) - 1.0) * beta * x_far**beta >= 1.0 - beta
    _check_decrease_and_maximum(bounder._weibull_envelope, dist, params, h, g, x_far)


def _spliced(bstar):
    tailg = PowerTestFunction(1.0, 0.6875)
    env = MonotoneEnvelope(np.array([1.0, bstar]), np.array([1.0, 0.5]))
    return SplicedTestFunction(bstar=bstar, envelope=env, kappa_splice=0.5 / tailg(bstar),
                               tailg=tailg)


H32 = CutoffFunction.power(1.0, 1.0 / 3.2)
G32 = PowerTestFunction(1.0, 0.6875)

# one configuration per condition, each the first condition to fail
FAILING = [
    (PointMass(3.0), H32, G32, 1e6, "no closed-form tail envelope for this severity"),
    (PARETO22, H_LOG2, G32, 1e6, "tail envelopes need a power cutoff"),
    (PARETO22, H32, KKernelTestFunction(dist=PARETO22, h=H32), 1e6,
     "no tail envelope for this test function"),
    (PARETO22, H32, _spliced(100.0), 1e6,
     "test function not in its power regime at x_far"),
    (PARETO22, H32, PowerTestFunction(1.0, 0.69), 1e6,
     "test-function exponent exceeds min(a_min*gamma, 1-gamma); "
     "envelope terms need not decrease"),
    (PARETO22, CutoffFunction.power(100.0, 0.5), PowerTestFunction(1.0, 0.5), 1e4,
     "cutoff reaches x/2 beyond x_far"),
    (PARETO22, CutoffFunction.power(0.01, 1.0 / 3.2), G32, 1e4,
     "cutoff below 1 or x_far below 16; envelope tails not in their power form"),
    (PARETO22, H32, G32, 10.0,
     "cutoff below 1 or x_far below 16; envelope tails not in their power form"),
    (WEIBULL, H32, G32, 1e8, "Weibull envelopes need a log-power cutoff"),
    (WEIBULL, H_LOG2, KKernelTestFunction(dist=WEIBULL, h=CutoffFunction.logpower(1.1, 2.0)),
     1e8, "Weibull envelopes need the matching K-kernel test function"),
    (WEIBULL, CutoffFunction.logpower(0.179, 2.0), None, 1e8,
     "f2 = q g(h) J / g(x) grows without bound for kappa*beta < 1 "
     "(or = 1 with scale < 1); the supremum diverges"),
    (WEIBULL, CutoffFunction.logpower(1.0 - 1e-6, 2.0), None, 1e8,
     "f2 = q g(h) J / g(x) grows without bound for kappa*beta < 1 "
     "(or = 1 with scale < 1); the supremum diverges"),
    (WEIBULL, H_LOG2, G_LOG2, 1e3, "x_far too small for the Weibull envelope regime"),
    (WEIBULL, CutoffFunction.logpower(0.005, 3.0), None, 1e20,
     "kappa*beta*scale^beta*(log x_far)^(kappa*beta-1) < 1; "
     "the J envelope's head term still rises at x_far"),
    (WeibullDist(0.6859), CutoffFunction.logpower(9.38644, 3.72575), None, 6.17e8,
     "envelope terms not finite at x_far"),
    # 1e-10 relative above min(a_min*gamma, 1-gamma) = 1 - 0.2444, where the
    # envelope rises with x beyond x_far
    (ParetoDist(7.44), CutoffFunction.power(0.0574, 0.2444),
     PowerTestFunction(1.0, (1.0 - 0.2444) * (1.0 + 1e-10)), 4.6e11,
     "test-function exponent exceeds min(a_min*gamma, 1-gamma); "
     "envelope terms need not decrease"),
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dist, h, g, x_far, note", FAILING)
def test_each_failing_condition_has_its_own_note(dist, h, g, x_far, note):
    g = KKernelTestFunction(dist=dist, h=h) if g is None else g
    env = bounder._tail_envelopes(dist, HALF, h, g, x_far)
    assert (env.f12, env.f3, env.certified, env.note) == (None, None, False, note)



def test_power_exponent_may_exceed_its_bound_by_four_ulps_alone():
    dist, h = ParetoDist(7.44), CutoffFunction.power(0.0574, 0.2444)
    e_max = 1.0 - 0.2444
    top = e_max + 4.0 * np.spacing(e_max)
    for e, certified in ((top, True), (np.nextafter(top, 1.0), False)):
        env = bounder._tail_envelopes(dist, HALF, h, PowerTestFunction(1.0, e), 4.6e11)
        assert env.certified is certified, env.note


@pytest.mark.parametrize("alpha", [2000.0, 1e300], ids=["2^alpha", "kappa_16"])
def test_an_envelope_that_overflows_certifies_nothing(alpha):
    # 2^a_max overflows a double from a_max = 1024 on, and kappa_16 from about
    # 1.1e4; either makes the envelope not finite at x_far, not an error
    h, g = CutoffFunction.power(0.1, 0.3125), PowerTestFunction(1.0, 0.6875)
    env = bounder._tail_envelopes(ParetoDist(alpha), HALF, h, g, 1e6)
    assert (env.f12, env.f3, env.certified, env.note) == (
        None, None, False, "envelope terms not finite at x_far")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([PARETO22, SHAPES["mixture"][0]]),
       st.lists(st.floats(-3.0, 9.0), min_size=1, max_size=40))
def test_tail_means_above_are_the_scalar_doubles(dist, log_r):
    """_power_bounds calls tail_mean_above once per point on Python
    floats (r.tolist()), where np.vectorize passed numpy scalars: both give
    the same doubles, cutoffs r < 1 included."""
    r = 10.0 ** np.array(log_r)
    scalar = [dist.tail_mean_above(v) for v in r.tolist()]
    vectorized = np.vectorize(dist.tail_mean_above, otypes=[float])(r)
    assert np.array(scalar).view(np.uint64).tolist() == vectorized.view(np.uint64).tolist()
