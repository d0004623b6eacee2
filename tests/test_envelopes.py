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

# the reference shapes: Pareto 2.2 (criterion 2), Pareto 5 with the
# 1.94 x^(1/6) cutoff (criterion 4), the two-term mixture (criterion 5) and
# criterion 6 unscaled (Weibull 0.5, (log x)^2, scale 1)
SHAPES = {
    "pareto22": (PARETO22, CutoffFunction.power(1.0, 1.0 / 3.2),
                 PowerTestFunction(1.0, 0.6875), bounder._power_envelope),
    "pareto5": (ParetoDist(5.0), CutoffFunction.power(1.94, 1.0 / 6.0),
                PowerTestFunction(1.0, 5.0 / 6.0), bounder._power_envelope),
    "mixture": (PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0))),
                CutoffFunction.power(1.0, 1.0 / 3.0), PowerTestFunction(1.0, 2.0 / 3.0),
                bounder._power_envelope),
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
    _check_decrease_and_maximum(bounder._power_envelope, *case)


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
     "spliced test function not in its power regime at x_far"),
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
     "remainder term does not vanish for kappa*beta < 1 "
     "(or = 1 with scale < 1); the supremum diverges"),
    (WEIBULL, CutoffFunction.logpower(1.0 - 1e-6, 2.0), None, 1e8,
     "remainder term does not vanish for kappa*beta < 1 "
     "(or = 1 with scale < 1); the supremum diverges"),
    (WEIBULL, H_LOG2, G_LOG2, 1e3, "x_far too small for the Weibull envelope regime"),
    (WEIBULL, CutoffFunction.logpower(0.005, 3.0), None, 1e20,
     "kappa*beta*scale^beta*(log x_far)^(kappa*beta-1) < 1; "
     "the J envelope's head term still rises at x_far"),
    (WeibullDist(0.6859), CutoffFunction.logpower(9.38644, 3.72575), None, 6.17e8,
     "envelope terms not finite at x_far"),
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dist, h, g, x_far, note", FAILING)
def test_each_failing_condition_has_its_own_note(dist, h, g, x_far, note):
    g = KKernelTestFunction(dist=dist, h=h) if g is None else g
    env = bounder._tail_envelopes(dist, HALF, h, g, x_far)
    assert (env.f12, env.f3, env.certified, env.note) == (None, None, False, note)

