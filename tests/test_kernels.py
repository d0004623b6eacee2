"""Kernels, cutoff functions, envelopes, and test functions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geomtail import kernels
from geomtail.dist import ParetoDist, PowerMixtureDist, WeibullDist
from geomtail.kernels import (
    CutoffFunction,
    J_kernel,
    K_kernel,
    KKernelTestFunction,
    MonotoneEnvelope,
    PowerTestFunction,
    SplicedTestFunction,
    build_spliced_g,
    optimal_pareto_g,
    pareto_J_envelope,
    pareto_K_envelope,
    weibull_J_envelope,
    weibull_K_envelope,
)
from geomtail.compound import DeltaTable


def midpoint_J(dist, x, r, n=100_000):
    """Independent Riemann-midpoint evaluation of the J integral, from the
    tail and the density themselves."""
    ys = np.linspace(r, x - r, n + 1)
    mids = 0.5 * (ys[:-1] + ys[1:])
    dy = ys[1] - ys[0]
    return math.fsum(dist.tail(x - mids) / dist.tail(x) * dist.density(mids)) * dy


def mpmath_J(dist, x, r):
    """J at 25 digits by mpmath's tanh-sinh quadrature, an oracle independent
    of the Gauss-Legendre panels: the pieces are split at r * 2^k below x/2,
    at x/2, at x - r * 2^k and, on a power tail, at the unit threshold in y
    and in x - y, where the integrand has kinks. The Weibull exponent loses
    up to 8 of the digits to cancellation at x = 1e8."""
    with mpmath.workdps(25):
        X, R = mpmath.mpf(x), mpmath.mpf(r)
        if isinstance(dist, WeibullDist):
            b = mpmath.mpf(dist.beta)

            def f(y):
                return b * y ** (b - 1) * mpmath.exp(X**b - (X - y) ** b - y**b)
        else:
            terms = [(mpmath.mpf(c), mpmath.mpf(a)) for c, a in dist.tail_power_terms]

            def tail(u):
                return 1 if u <= 1 else mpmath.fsum(c * u**-a for c, a in terms)

            def f(y):
                if y < 1:
                    return 0
                return tail(X - y) / tail(X) * mpmath.fsum(c * a * y ** (-a - 1) for c, a in terms)

        steps = []
        while R * 2 ** (len(steps) + 1) < X / 2:
            steps.append(R * 2 ** (len(steps) + 1))
        kinks = [] if isinstance(dist, WeibullDist) else [1.0, x - 1.0]
        cuts = [mpmath.mpf(p) for p in kinks if r < p < x - r]
        pts = sorted({R, X / 2, X - R, *steps, *(X - s for s in steps), *cuts})
        # quad's tolerance is absolute: integrate in units of m * f(m)
        m = max(R, 1)
        unit = m * f(m)
        return float(mpmath.quad(lambda y: f(y) / unit, pts) * unit)


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


@st.composite
def severities(draw, kinds=("pareto", "weibull", "mixture")):
    """A Pareto, a Weibull or a power mixture of 1 to 4 terms."""
    kind = draw(st.sampled_from(kinds))
    if kind == "pareto":
        return ParetoDist(draw(st.floats(1.05, 10.0)))
    if kind == "weibull":
        return WeibullDist(draw(st.floats(0.1, 0.95)))
    m = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))
    exponents = draw(st.lists(st.floats(1.05, 10.0), min_size=m, max_size=m))
    return PowerMixtureDist(tuple((w / math.fsum(raw), a) for w, a in zip(raw, exponents)))


def mpmath_K(dist, x, r):
    """K at 50 digits from the tails themselves, tail(x - r)/tail(x) - 1."""
    with mpmath.workdps(50):
        X, R = mpmath.mpf(x), mpmath.mpf(r)
        if isinstance(dist, WeibullDist):
            b = mpmath.mpf(dist.beta)
            return float(mpmath.expm1(X**b - (X - R) ** b))
        terms = [(mpmath.mpf(c), mpmath.mpf(a)) for c, a in dist.tail_power_terms]

        def tail(u):
            return 1 if u <= 1 else mpmath.fsum(c * u**-a for c, a in terms)

        return float(tail(X - R) / tail(X) - 1)


@st.composite
def k_cases(draw):
    """A severity and arrays 1.5 <= x <= 1e8 and 0 < r <= x/2; a Weibull x
    keeps x^beta, which bounds the exponent of K, below 60."""
    d = draw(severities())
    x_max = min(1e8, 60.0 ** (1.0 / d.beta)) if isinstance(d, WeibullDist) else 1e8
    n = draw(st.integers(1, 8))
    spans = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    fracs = draw(st.lists(st.floats(1e-12, 0.5), min_size=n, max_size=n))
    xs = 1.5 * (x_max / 1.5) ** np.array(spans)
    return d, xs, xs * np.array(fracs)


@settings(max_examples=200, deadline=None)
@given(k_cases())
def test_K_matches_mpmath(case):
    # every family forms K without cancellation: the Pareto and mixture
    # power terms by expm1(-a log1p(-r/x)), the Weibull exponent by
    # x^beta expm1(beta log1p(-r/x))
    d, xs, rs = case
    got = K_kernel(d, xs, rs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    for x, r, k in zip(xs.tolist(), rs.tolist(), got.tolist()):
        assert math.isclose(k, mpmath_K(d, x, r), rel_tol=1e-13, abs_tol=0.0), (x, r)
        # a scalar call is a float and the array element bit for bit
        one = K_kernel(d, x, r)
        assert type(one) is float and one == k


def test_steep_one_term_mixture_K_is_pareto_K():
    # the mixture's K reads the weights c x^-a / tail(x) from a log-sum-exp:
    # dividing by the raw tail, 42^-200 underflowed to 0 and K divided by it
    mix, par = PowerMixtureDist(((1.0, 200.0),)), ParetoDist(200.0)
    x, r = np.array([42.0072, 1.5, 300.0]), np.array([3.2158, 0.6, 149.0])
    assert float(mix.tail(42.0072)) == 0.0
    for got, want in ((K_kernel(mix, x, r), par.k_value(x, r)),
                      (K_kernel(mix, 42.0072, 3.2158), float(par.k_value(42.0072, 3.2158)))):
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert type(K_kernel(mix, 42.0072, 3.2158)) is float


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


@st.composite
def j_points(draw, size, kinds=("pareto", "weibull", "mixture")):
    """A severity, a power or log-power cutoff h, and ``size`` points x in
    [h's domain, 1e8], as fractions of that range on a log scale."""
    d = draw(severities(kinds))
    if draw(st.booleans()):
        h = CutoffFunction.power(draw(st.floats(0.2, 2.0)), draw(st.floats(0.1, 0.6)))
    else:
        h = CutoffFunction.logpower(draw(st.floats(0.1, 1.5)), draw(st.floats(1.0, 3.0)))
    x_min = max(1.01 * h.domain_start, 3.0)
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=size[0], max_size=size[1]))
    return d, h, [x_min * (1e8 / x_min) ** f for f in fracs]


@st.composite
def j_cases(draw, kinds=("pareto", "weibull", "mixture")):
    """A severity, a cutoff h and x in [h's domain, 1e8] where tail(h(x)),
    about the size of J, is a normal double; (d, x, h(x))."""
    d, h, (x,) = draw(j_points((1, 1), kinds))
    r = float(h(x))
    assume(float(d.tail(r)) > 1e-250)
    return d, x, r


@settings(max_examples=30, deadline=None)
@given(j_cases())
def test_J_matches_mpmath(case):
    d, x, r = case
    assert math.isclose(J_kernel(d, x, r), mpmath_J(d, x, r), rel_tol=1e-12, abs_tol=0.0)


def mpmath_series_J(dist, x, r):
    """J on a power tail at 25 digits by mpmath's tanh-sinh quadrature in
    log coordinates, independent of the series: with rr = max(r, 1), the
    halves [rr, x/2] and [x/2, x - rr] as y = rr e^s and x - y = rr e^s,
    split at s = 2^k / a_max, the scales on which the steepest term decays,
    and [max(x - 1, 1), x - r], where tail(x - y) = 1."""
    with mpmath.workdps(25):
        X, R = mpmath.mpf(x), mpmath.mpf(r)
        terms = [(mpmath.mpf(c), mpmath.mpf(a)) for c, a in dist.tail_power_terms]

        def tail(u):
            return 1 if u <= 1 else mpmath.fsum(c * u**-a for c, a in terms)

        def density(y):
            return 0 if y < 1 else mpmath.fsum(c * a * y ** (-a - 1) for c, a in terms)

        # quad's tolerance is absolute: each piece is integrated in units of
        # its integrand's value at its start times the scale it decays on
        total = mpmath.mpf(0)
        rr = max(R, 1)
        if rr < X / 2:
            end = mpmath.log1p((X - 2 * rr) / (2 * rr))  # without cancellation near x/2
            step = 1 / max(a for _, a in terms)
            pts = [mpmath.mpf(0)]
            while pts[-1] < end:
                pts.append(min(end, step * 2 ** (len(pts) - 1)))
            unit = tail(X - rr) * density(rr) * rr * min(end, step)
            halves = (lambda y: tail(X - y) * density(y), lambda y: tail(y) * density(X - y))
            total += sum(mpmath.quad(lambda s: f(rr * mpmath.exp(s)) * rr * mpmath.exp(s) / unit,
                                     pts) for f in halves) * unit
        lo = max(X - 1, 1)
        if X - R > lo:
            unit = density(lo) * (X - R - lo)
            total += mpmath.quad(lambda y: density(y) / unit, [lo, X - R]) * unit
        return float(total / tail(X))


@st.composite
def series_cases(draw):
    """A Pareto with alpha in (1, 150] or a power mixture of two or three
    terms, and a point 0 < r < x/2 where J, about tail(r), is a normal
    double: anywhere, with r < 1, with 1 < x < 2, or with r within a
    relative 1e-9 of x/2."""
    if draw(st.booleans()):
        d = ParetoDist(draw(st.floats(1.0, 150.0, exclude_min=True)))
    else:
        m = draw(st.integers(2, 3))
        raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))
        exponents = draw(st.lists(st.floats(1.05, 30.0), min_size=m, max_size=m))
        d = PowerMixtureDist(tuple((w / math.fsum(raw), a) for w, a in zip(raw, exponents)))
    x_max = min(1e8, 10.0 ** (250.0 / min(a for _, a in d.tail_power_terms)))
    where = draw(st.sampled_from(["any", "r < 1", "1 < x < 2", "near x/2"]))
    if where == "1 < x < 2":
        x = draw(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
    else:
        x = 2.0 * (x_max / 2.0) ** draw(st.floats(0.0, 1.0))
    if where == "near x/2":
        r = x / 2.0 * (1.0 - draw(st.floats(1e-15, 1e-9)))
    elif where == "any":
        r = x / 2.0 * 10.0 ** -draw(st.floats(0.0, 8.0))
    else:
        r = min(x / 2.0, 1.0) * draw(st.floats(1e-6, 1.0, exclude_max=True))
    assume(r < x / 2.0)
    return d, x, r


@settings(max_examples=25, deadline=None)
@given(series_cases())
@example((ParetoDist(150.0), 131.948, 4.5986))  # a quadrature did not settle here
@example((PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0))), 80.0, 4.30886938006))
def test_J_series_encloses_mpmath(case):
    d, x, r = case
    S, E = (float(v[0]) for v in kernels._j_series(kernels._power_series(d), np.array([x]),
                                                     np.array([r])))
    want = mpmath_series_J(d, x, r)
    assert S - E <= want <= S + E, (S, E, want)
    if want == 0.0:  # no density where tail(x - y) is a power: J is 0 exactly
        assert S == 0.0 and E < 1e-250
    else:
        assert E <= 1e-13 * S
    assert J_kernel(d, x, r) == S + E


def one_point_loop_J(dist, x, r):
    """J by the one-point loop the quadrature once was: the panels from sets
    of Python floats, every panel evaluated again in every round, and the
    panel sums as matrix products."""
    half = x / 2.0
    steps, step = [], 2.0 * r
    while step < half:
        steps.append(step)
        step *= 2.0
    left = right = sorted({r, half, *steps})
    lo, hi = np.array(left[:-1] + right[:-1]), np.array(left[1:] + right[1:])
    side = (np.arange(lo.size) >= len(left) - 1)[:, None]
    integrand = dist.j_integrand(x)
    for _ in range(kernels._J_HALVINGS + 1):
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        d = mid[:, None] + rad[:, None] * kernels._GL_NODES
        vals = integrand(np.where(side, x - d, d), np.where(side, d, x - d))
        i24 = rad * (vals[:, :24] @ kernels._GL24[1])
        i16 = rad * (vals[:, 24:] @ kernels._GL16[1])
        bad = np.abs(i24 - i16) > kernels._J_RTOL * abs(i24.sum())
        if not bad.any():
            return float(i24.sum())
        lo = np.concatenate((lo, mid[bad]))
        hi = np.concatenate((np.where(bad, mid, hi), hi[bad]))
        side = np.concatenate((side, side[bad]))
    raise RuntimeError("did not converge")


@st.composite
def j_batches(draw):
    """A severity and a batch of points (x, r = h(x)) of j_points: x
    unsorted, some x repeated, and some rows at r = x/2."""
    d, h, x = draw(j_points((1, 12)))
    x += draw(st.lists(st.sampled_from(x), max_size=3))
    x = np.array(draw(st.permutations(x)))
    r = np.asarray(h(x), dtype=float)
    half = np.array(draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
    r = np.where(half, x / 2.0, r)
    keep = np.asarray(d.tail(r), dtype=float) > 1e-250
    assume(keep.any())
    return d, x[keep], r[keep]


@settings(max_examples=40, deadline=None)
@given(j_batches())
def test_J_over_a_batch_is_the_one_point_J_bit_for_bit(case):
    # the quadrature sums each panel, and the series each row, from its own
    # values alone
    d, x, r = case
    got = J_kernel(d, x, r)
    one = [J_kernel(d, xi, ri) for xi, ri in zip(x.tolist(), r.tolist())]
    assert all(type(v) is float for v in one)
    assert got.shape == x.shape and got.tobytes() == np.array(one).tobytes()
    assert np.all(got[r == x / 2.0] == 0.0)


@settings(max_examples=40, deadline=None)
@given(j_cases(kinds=("weibull",)))
def test_J_is_the_one_point_loop_to_1e_14(case):
    # row-by-row panel sums and per-point sums of the panels move J by a few
    # ulps from the one-point loop's matrix products; the families J
    # integrates by quadrature
    d, x, r = case
    assert math.isclose(J_kernel(d, x, r), one_point_loop_J(d, x, r), rel_tol=1e-14, abs_tol=0.0)


@pytest.mark.parametrize("dist, h, x, want", [
    (WeibullDist(0.5), CutoffFunction.logpower(0.179, 2.0), 1.86e6, 2.2800276e-3),
    (ParetoDist(5.0), CutoffFunction.power(1.0, 1.0 / 3.2), 1.36e7, 7.1430889e-12),
], ids=["weibull-log", "pareto5-power"])
def test_J_keeps_the_right_end_spike(dist, h, x, want):
    # the integrand has a spike of width about r at y -> x - r; adaptive
    # quadrature over scalar calls never sampled it and returned 2.268192e-3
    # (-0.52%) and 7.142978e-12 (-1.56e-5) here
    r = float(h(x))
    got = J_kernel(dist, x, r)
    assert math.isclose(got, mpmath_J(dist, x, r), rel_tol=1e-12, abs_tol=0.0)
    assert got == pytest.approx(want, rel=1e-7)


class NarrowBump(WeibullDist):
    """A J integrand with a Gaussian bump of width x/1000 inside one panel,
    which the first panel rules do not resolve; it records the panels of
    each call."""

    rows: list = []

    def j_integrand(self, x):
        center, width = 0.37 * x, 1e-3 * x

        def integrand(y, u=None):
            NarrowBump.rows.append(len(y))
            return np.exp(-(((y - center) / width) ** 2))

        return integrand


def test_J_halves_the_panels_whose_rules_disagree():
    x, r = 1000.0, 10.0
    NarrowBump.rows = []
    got = J_kernel(NarrowBump(0.5), x, r)
    assert got == pytest.approx(1e-3 * x * math.sqrt(math.pi), rel=1e-12)
    first, *rounds = NarrowBump.rows
    assert 1 <= len(rounds) <= 8  # one call per round, at most 8 halvings
    # the first call takes every panel; a halving round only the two halves
    # of each failing panel
    assert first == kernels._j_panels(np.array([x]), np.array([r]))[0].size
    assert all(n % 2 == 0 and n < first for n in rounds)


class JumpAtOne(WeibullDist):
    """A family J integrates by quadrature, with Pareto 2.2's integrand: for
    r < 1 it jumps from 0 at y = 1, inside a panel, and no number of
    halvings settles it."""

    def j_integrand(self, x):
        pareto = ParetoDist(2.2)
        return lambda y, u=None: (pareto.tail(x - y if u is None else u) / pareto.tail(x)
                                  * pareto.density(y))


def test_J_reports_panels_that_do_not_settle():
    with pytest.raises(RuntimeError, match=r"J kernel quadrature did not converge at x=100, "
                                            r"r=0\.3: value 1\.07\d*e\+00, error estimate"):
        J_kernel(JumpAtOne(0.5), 100.0, 0.3)
    # Pareto's series takes the jump in closed form
    d = ParetoDist(2.2)
    assert math.isclose(J_kernel(d, 100.0, 0.3), mpmath_J(d, 100.0, 0.3), rel_tol=1e-12)


def test_a_subnormal_J_converges():
    # Weibull 0.490724 at the sweep point x = 7.00209e7 of h = 0.207028 x^0.83437:
    # J is about 9e-312, below the smallest normal double, where a panel's
    # 24/16-node gap cannot reach _J_RTOL of J. A gap of at most _J_ATOL =
    # 2^-1022 passes, which leaves J 0.7% off mpmath's here, an absolute
    # error of 6.5e-314 that moves no contraction term
    x, r = 70020888.13950413, 727531.2487576086
    d = WeibullDist(0.490724)
    J = J_kernel(d, x, r)
    assert 0.0 < J < 2.0**-1022 == kernels._J_ATOL
    assert math.isclose(J, mpmath_J(d, x, r), rel_tol=0.01)


class NanAt70(JumpAtOne):
    """JumpAtOne whose J integrand is NaN at x = 70."""

    def j_integrand(self, x):
        integrand = super().j_integrand(x)
        return lambda y, u=None: np.where(x == 70.0, math.nan, integrand(y, u))


def test_a_failing_J_batch_names_its_first_failing_point():
    # with the jump at y = 1, (100, 0.3) and (50, 0.35) never settle
    d = NanAt70(0.5)
    x, r = np.array([100.0, 100.0, 50.0]), np.array([10.0, 0.3, 0.35])
    with pytest.raises(RuntimeError, match=r"did not converge at x=100, r=0\.3: "):
        J_kernel(d, x, r)
    with pytest.raises(RuntimeError, match=r"did not converge at x=50, r=0\.35: "):
        J_kernel(d, x[::-1], r[::-1])
    # a NaN point fails where it stands in the batch, before or after one
    # that does not converge
    with pytest.raises(ValueError, match=r"J kernel is NaN at x=70, r=10$"):
        J_kernel(d, [100.0, 70.0, 100.0], [10.0, 10.0, 0.3])
    with pytest.raises(RuntimeError, match=r"did not converge at x=100, r=0\.3: "):
        J_kernel(d, [100.0, 100.0, 70.0], [10.0, 0.3, 10.0])


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


class NanWeibull(WeibullDist):
    """A family whose kernel hooks fail by returning NaN."""

    def k_value(self, x, r):
        return math.nan

    def j_integrand(self, x):
        return lambda y, u=None: np.full(np.shape(y), math.nan)


def test_kernels_refuse_nan():
    # clamping a NaN at zero would give K = J = 0, which lowers f1 to f3
    d = NanWeibull(0.5)
    with pytest.raises(ValueError, match=r"K kernel is NaN at x=100, r=10"):
        K_kernel(d, 100.0, 10.0)
    with pytest.raises(ValueError, match=r"J kernel is NaN at x=100, r=10"):
        J_kernel(d, 100.0, 10.0)
    # the series is NaN only where an input is
    with pytest.raises(ValueError, match=r"J kernel is NaN at x=nan, r=10"):
        J_kernel(ParetoDist(2.2), [100.0, math.nan], 10.0)


# ---------------------------------------------------------------- envelopes

def test_pareto_envelopes_dominate(rng):
    for _ in range(50):
        alpha = float(rng.uniform(1.3, 5.0))
        x = float(rng.uniform(50.0, 1e5))
        h = float(rng.uniform(2.0, 0.45 * x))
        d = ParetoDist(alpha)
        assert pareto_K_envelope(alpha, x, h) >= K_kernel(d, x, h) * (1.0 - 1e-9)
        assert pareto_J_envelope(alpha, x, h) >= J_kernel(d, x, h) * (1.0 - 1e-9)


def test_pareto_envelopes_are_inf_where_they_overflow():
    # still dominators; an envelope built on them certifies nothing
    assert pareto_K_envelope(2000.0, 10.0, 4.9) == math.inf
    assert pareto_J_envelope(300.0, 1.5, 0.1) == math.inf
    assert math.isfinite(pareto_J_envelope(300.0, 10.0, 0.1 * 10.0**0.3125))


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


TABLE_XS = np.linspace(0.0, 100.0, 2001)
SPLICED_G = build_spliced_g(
    DeltaTable(xs=TABLE_XS, delta=3.0 / (1.0 + TABLE_XS), delta_stderr=np.zeros(2001),
               engine="panjer"),
    21.3, PowerTestFunction(1.0, 0.6875))


@pytest.mark.parametrize("g", [
    KKernelTestFunction(WeibullDist(0.5), CutoffFunction.logpower(0.179, 2.0)),
    KKernelTestFunction(WeibullDist(0.5), CutoffFunction.logpower(1.0, 2.0)),
    KKernelTestFunction(ParetoDist(2.2), CutoffFunction.power(1.0, 1.0 / 3.2)),
    PowerTestFunction(1.0, 0.6875),
    SPLICED_G,
], ids=["kkernel-log-0.179", "kkernel-log-1", "kkernel-power", "power", "spliced"])
def test_evaluate_equals_the_scalar_calls(g):
    # a sweep reads g over its whole grid and f_terms at one point, so
    # evaluate must give every element as a one-point call does: on a Panjer
    # table's points, a strided view of them, and random points up to x_far
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
    assert np.array_equal(g.evaluate(dense), gv)
    # below the table the envelope is undefined, wherever the point sits
    with pytest.raises(ValueError, match=r"x=0\.5 below the envelope range start 1$"):
        g.evaluate(np.array([25.0, 0.5, 0.7]))


def test_spliced_constant_table_kappa():
    xs = np.linspace(2.0, 40.0, 50)
    table = DeltaTable(xs=xs, delta=np.full(50, 0.7),
                       delta_stderr=np.zeros(50), engine="panjer")
    tailg = PowerTestFunction(1.0, 0.5)
    g = build_spliced_g(table, 10.0, tailg)
    # running max of a constant table is the constant itself
    assert g.kappa_splice == pytest.approx(0.7 * 10.0 ** 0.5, rel=1e-12)
    assert g.power_tail[1] == pytest.approx(0.7 * 10.0 ** 0.5, rel=1e-12)


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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: pareto_J_envelope(2.2, 100.0, 50.0), "requires 0 < h < x/2",
                 id="pareto J envelope"),
    pytest.param(lambda: weibull_K_envelope(0.5, 100.0, 50.0), "requires 0 < h < x/2",
                 id="weibull K envelope"),
    pytest.param(lambda: MonotoneEnvelope([1.0], [1.0]),
                 "envelope needs matching 1-d grid and values, length >= 2", id="one point"),
    pytest.param(lambda: MonotoneEnvelope([2.0, 1.0], [1.0, 0.0]),
                 "envelope grid must be strictly increasing", id="grid decreasing"),
    pytest.param(lambda: MonotoneEnvelope([1.0, 2.0], [0.0, 1.0]),
                 "envelope values must be non-increasing", id="values increasing"),
    pytest.param(lambda: optimal_pareto_g(1.0, 0.3), "alpha must exceed 1", id="alpha = 1"),
    pytest.param(lambda: optimal_pareto_g(2.2, 1.0), "gamma must lie in (0, 1)", id="gamma = 1"),
])
def test_envelope_and_optimal_g_validation(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_log_power_rescaling_and_descriptions():
    h = CutoffFunction.logpower(0.179, 2.0)
    assert h.with_scale(0.5) == CutoffFunction.logpower(0.5, 2.0)
    assert KKernelTestFunction(WeibullDist(0.5), h).describe() == (
        f"K(x, h(x)) with h(x) = {h.describe()}")
    spliced = SplicedTestFunction(bstar=20.0, envelope=MonotoneEnvelope([5.0, 20.0], [0.4, 0.1]),
                                  kappa_splice=2.0, tailg=PowerTestFunction(1.5, 0.5))
    assert spliced.describe() == "running max of the error table on [5, 20], then 3 * x^-0.5"


def test_power_test_function_validation():
    with pytest.raises(ValueError):
        PowerTestFunction(0.0, 0.5)
    with pytest.raises(ValueError):
        PowerTestFunction(1.0, -0.1)
