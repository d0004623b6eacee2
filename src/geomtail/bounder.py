"""Certified upper bounds on the relative error of the geometric-sum tail
approximation P(S > x) ~ tail(x) / p.

The construction takes an exact relative-error table on an interval, three
kernel-based contraction terms f1, f2, f3, and produces a constant C with

    delta(x) <= C * g(x)   for all x >= b,

where g is the chosen test function. The suprema of the contraction terms
over [b, infinity) are evaluated on a geometric grid up to a far point and,
for supported family combinations, closed over the remaining tail by
monotone closed-form envelopes. When no envelope applies the certificate
carries an explicit grid-only caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .compound import DeltaTable, TailTable, _check_mc, delta_from_tails, mc_tail, panjer_tail
from .dist import (
    ConfigError,
    GeometricParams,
    ParetoDist,
    PowerMixtureDist,
    SummandDistribution,
    WeibullDist,
    _check_bandwidth,
    discretize,
)
from .kernels import (
    CutoffFunction,
    J_kernel,
    K_kernel,
    KKernelTestFunction,
    PowerTestFunction,
    SplicedTestFunction,
    TestFunction,
    _inf_on_overflow,
    _power_series,
    build_spliced_g,
    weibull_J_envelope,
    weibull_K_envelope,
)

__all__ = [
    "FTerms",
    "f_terms",
    "SupResult",
    "delta_sup",
    "c_interval",
    "bound_constant",
    "ProcedureFailed",
    "BoundCertificate",
    "build_bound",
    "TuneRow",
    "TuneResult",
    "tune",
    "VerifyReport",
    "verify_bound",
]


@dataclass(frozen=True)
class FTerms:
    """The three contraction terms at one point."""

    x: float
    f1: float
    f2: float
    f3: float


def _g_values(g: TestFunction, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """g(x), g(x - h(x)) and g(h(x)), the test-function values the
    contraction terms need, as the rows of one array from one evaluation of
    g. Every test function here is elementwise, so each value is the double
    that an evaluation at its own row gives, and a failing point raises as
    it would there, in this order."""
    return g.evaluate(np.concatenate((x, x - r, r))).reshape(3, -1)


def _check_g(x: np.ndarray, gx: np.ndarray, h: CutoffFunction) -> tuple[int, Exception | None]:
    """The one test-function rule: g must be positive and finite at the
    points x, where it is gx. The index of the first point where it is not
    (x.size if none), and the exception that names it (None if none); a g
    that overflows there, as the K kernel does when h(x) is too large a
    share of x, is an input error."""
    ok = (gx > 0.0) & (gx < math.inf)
    if ok.all():
        return x.size, None
    i = int(np.argmin(ok))
    if gx[i] == math.inf:
        return i, ConfigError(f"test function overflows: g({x[i]:g})=inf; lower h.scale = "
                              f"{h.scale:g}")
    return i, ValueError(f"test function must be positive; g({x[i]:g})={gx[i]:g}")


def _kernel_factors(params: GeometricParams, K, tail_r) -> tuple:
    """The factors of the contraction terms that read neither g nor J, at
    the points where K and tail(h(x)) are given: K + 1, 1 - tail(h), and
    f3's K terms (1 - p^2) K and q (K + 1) tail(h). Each is the double that
    the terms' own formulas form, so a sweep computes them once."""
    k1 = K + 1.0
    return k1, 1.0 - tail_r, (1.0 - params.p**2) * K, params.q * k1 * tail_r


def _f1(params: GeometricParams, gx, g_xr, factors):
    """The contraction term f1, the one that needs no J, from g at x and
    x - h(x) and the kernel factors at x."""
    return params.q * g_xr * factors[0] * factors[1] / gx


def _combine(params: GeometricParams, gx, g_xr, g_r, J, factors) -> tuple:
    """The contraction terms (f1, f2, f3) from the values of g at x, x - h(x)
    and h(x), J and the kernel factors at x (_kernel_factors), as arrays or
    numpy scalars: f1 = q g(x - h) (K + 1)(1 - tail(h)) / g(x), f2 = q g(h)
    J / g(x) and f3 = (q J + (1 - p^2) K - q (K + 1) tail(h)) / g(x)."""
    q = params.q
    f1 = _f1(params, gx, g_xr, factors)
    f2 = q * g_r * J / gx
    f3 = (q * J + factors[2] - factors[3]) / gx
    return f1, f2, f3


def f_terms(
    dist: SummandDistribution,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    x: float,
) -> FTerms:
    """Evaluate the contraction terms at x.

    f1 + f2 multiplies the running supremum of delta/g in the recursive
    step, and f3 is the inhomogeneous remainder. All three divide by g(x).
    """
    x = float(x)
    sweep = _kernel_sweep(dist, h, np.array([x]))
    if sweep.error is not None:
        raise sweep.error
    f1, f2, f3 = _terms(sweep, params, g)
    return FTerms(x, float(f1[0]), float(f2[0]), float(f3[0]))


@dataclass(frozen=True)
class SupResult:
    """Supremum of a contraction expression over [from_x, infinity).

    ``grid_max`` is the maximum over the evaluation grid reaching x_far;
    ``tail_bound`` is the closed-form envelope over [x_far, infinity) when
    one is available. ``value`` combines the two when the tail is certified
    and falls back to the grid maximum (with a caveat) otherwise. For the
    f1 + f2 supremum of a failed contraction (``value`` not below one),
    ``last_at_one`` is the last grid point read where f1 + f2 is not below
    one (a NaN is not), or None if there is none; the min-b search starts
    after it.
    """

    value: float
    grid_max: float
    grid_argmax: float
    tail_bound: float | None
    tail_certified: bool
    note: str = ""
    last_at_one: float | None = None

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class _TailEnvelopes:
    """Envelope bounds on f1 + f2 and f3 over [x, infinity) at x = x_far
    (``f12``, ``f3``) and at each increasing point x asked for, up to x_far
    (``f12s``, ``f3s``; NaN where the family's conditions fail). ``note``
    names the first condition failing at x_far, where nothing is certified."""

    f12: float | None
    f3: float | None
    certified: bool
    note: str
    f12s: np.ndarray | None = None
    f3s: np.ndarray | None = None


def _uncertified(note: str) -> _TailEnvelopes:
    return _TailEnvelopes(None, None, False, note)


def _where_conditions_hold(envelope, xs, conditions) -> _TailEnvelopes:
    """The envelope's bounds at the points of xs where all conditions hold,
    envelope(holds) being those at xs[holds]; each condition is a
    (holds, note) pair with holds a boolean or a boolean array over xs that,
    once true, stays true for larger x; certified when they all hold at
    x_far = xs[-1]. An envelope that overflows at x_far bounds nothing."""
    holds = np.ones(xs.size, dtype=bool)
    for ok, note in conditions:
        if not (ok[-1] if isinstance(ok, np.ndarray) else ok):
            return _uncertified(note)
        holds &= ok
    f12s, f3s = np.full(xs.size, np.nan), np.full(xs.size, np.nan)
    f12s[holds], f3s[holds] = envelope(holds)
    f12, f3 = float(f12s[-1]), float(f3s[-1])
    if not (math.isfinite(f12) and math.isfinite(f3)):
        return _uncertified("envelope terms not finite at x_far")
    return _TailEnvelopes(f12, f3, True, "", f12s, f3s)


def _power_bounds(dist, params, e: float, xs: np.ndarray, r: np.ndarray) -> tuple:
    """The parts of the bounds on f1 + f2 and on f3 that do not read g, at
    each point of the array xs, where a power cutoff h = s x^gamma is r, for
    a power tail sum c_i x^(-a_i) and a test function whose declared power
    tail x^(-e) covers x, h(x) and x - h(x): the bound on f1 + f2, and the
    numerator of the bound on f3, which divides it by g(x).

    With u = h(x)/x, the bounds are

        f1 <= q (1 - u)^(-(e + a_max))
        f2 <= q u^(-e) J_env,  J_env = tail(h) + (2^a_max - 2) tail(x/2) + 2 I1
        f3 <= (q (J_env - tail(h)) + (1 - p^2) K_env) / g(x)

    with I1 = kappa_16 E[X; X > h] / x + (2^a_max - 1) tail(x/16) and
    K_env = sum_i (c_i / c_min) x^(a_min - a_i) ((1 - u)^(-a_i) - 1), where
    c_min goes with a_min. Every step is elementwise, so a point's doubles
    do not depend on the other points of xs, whichever cutoff each point's r
    comes from.
    """
    terms = dist.tail_power_terms
    a_min = min(a for _, a in terms)
    a_max = max(a for _, a in terms)
    q = params.q
    u = r / xs

    # K(x, y) <= kappa_m * y / x for y <= x/m, by convexity of the pure
    # power kernel with the largest exponent
    m = 16.0
    kappa_m = m * _inf_on_overflow(math.expm1, -a_max * math.log1p(-1.0 / m))
    # 2^a_max - 1 and 2^a_max
    pow2_m1 = _inf_on_overflow(math.expm1, a_max * math.log(2.0))
    pow2 = _inf_on_overflow(pow, 2.0, a_max)
    mean_above = np.array([dist.tail_mean_above(v) for v in r.tolist()], dtype=float)
    # the tail is elementwise: one call gives tail(x/16), tail(x/2) and tail(r)
    tail_m, tail_2, tail_r = _unstack(
        np.asarray(dist.tail(np.concatenate((xs / m, xs / 2.0, r))), dtype=float), (xs, xs, r))
    i1 = kappa_m * mean_above / xs + pow2_m1 * tail_m
    # from the symmetric splitting of the J integral:
    # J <= tail(r) + (2^a_max - 2) tail(x/2) + 2 I1
    j_excess = (pow2 - 2.0) * tail_2 + 2.0 * i1
    j_env = tail_r + j_excess

    f1 = q * np.exp(-(e + a_max) * np.log1p(-u))
    f2 = q * np.exp(-e * np.log(u)) * j_env
    # sharp per-term bound on K / tail(x), as tail(x) >= c_min x^(-a_min)
    c_min = next(c for c, a in terms if a == a_min)
    k_bound = (
        sum(c * np.power(xs, a_min - a) * np.expm1(-a * np.log1p(-u)) for c, a in terms)
        / c_min
    )
    return f1 + f2, q * j_excess + (1.0 - params.p**2) * k_bound


def _power_tail_envelopes(
    dist: SummandDistribution,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    xs: np.ndarray,
    kept: dict,
    g_xs: np.ndarray | None,
) -> _TailEnvelopes:
    """Bounds on f1 + f2 and on f3 over [x, infinity) at the points x of xs,
    for power tails with a power cutoff and a power-decaying test function:
    the bounds of _power_bounds at x, its f3 numerator divided by g(x), are
    their maxima over [x, infinity) once these conditions hold at x, here
    written for x = x_far:

    1. g is in its power regime: its declared power tail starts at or below
       both h(x_far) and x_far - h(x_far);
    2. e <= e_max = min(a_min gamma, 1 - gamma), up to 4 ulps of e_max for
       the rounding of a computed exponent;
    3. h(x_far) < x_far/2;
    4. h(x_far) >= 1 and x_far >= 16, so that tail(h), tail(x/2), tail(x/16)
       and E[X; X > h] are sums of powers of their arguments.

    u = h(x)/x = s x^(gamma - 1) decreases while h and x - h = x (1 - u)
    increase, so 1, 3 and 4 then hold for every x >= x_far. With every
    a_i > 1 and e < 1, each envelope is a sum of products of non-negative
    factors, each non-increasing on [x_far, infinity):

    - f1: (1 - u)^(-(e + a_max)), as u decreases;
    - f2: u^(-e) times a term of J_env is a multiple of x to the power
      e (1 - gamma) - a_i gamma (not positive by 2), e (1 - gamma) - a_i or
      (1 - gamma)(e - 1) - a_i gamma;
    - f3: x^e times a term of J_env - tail(h) is a multiple of x to the
      power e - a_i or e - 1 - gamma (a_i - 1), both negative; x^e times a
      K_env term is x^(a_min - a_i) x^(e + gamma - 1) s ((1 - u)^(-a_i) - 1)/u,
      the first two factors non-increasing by 2 and the last the chord slope
      of a convex function of u, so increasing in u.

    An exponent e above e_max by d, at most 4.5 ulps of e_max < 1 with the
    rounding of e_max itself and so below 2^-50, raises each of these powers
    of x by at most d: on [x_far, infinity) the envelopes then grow by a
    factor at most (x / x_far)^d < exp(2^-50 log(DBL_MAX)) < 1 + 1e-12 over
    all doubles x.

    Only condition 1 reads more of g than e. Conditions 2 to 4 (bar e) and
    the terms of _power_bounds where 3 and 4 hold are computed once in
    ``kept``, a dict that the caller keeps with dist and xs (one _sup_pair
    call keeps one, which all its rows share): the conditions of every power
    cutoff in ``kept["cutoffs"]`` (h alone if unset) at the first call, and
    the terms once per (params, e), from one _power_bounds call over the
    points of every one of those cutoffs whose conditions 3 and 4 hold at
    x_far. Each g adds condition 1 and divides by g where all four hold,
    reading g at xs off ``g_xs`` when given.
    """
    if h.family != "power":
        return _uncertified("tail envelopes need a power cutoff")
    if g.power_tail is None:
        return _uncertified("no tail envelope for this test function")
    start, _, e = g.power_tail
    if "cutoff" not in kept:
        # each power cutoff's conditions, and its slice of the points where
        # 3 and 4 hold for the cutoffs where they hold at x_far
        a_min = min(a for _, a in dist.tail_power_terms)
        conditions, free, end = {}, [], 0
        for hc in kept.get("cutoffs", [h]):
            if hc.family == "power" and hc not in conditions:
                r = np.asarray(hc(xs), dtype=float)
                below_half, power_form = r < xs / 2.0, (r >= 1.0) & (xs >= 16.0)
                ok = below_half & power_form
                size = int(np.count_nonzero(ok)) if ok[-1] else 0
                conditions[hc] = (
                    np.minimum(r, xs - r), min(a_min * hc.gamma, 1.0 - hc.gamma), ok,
                    "cutoff below 1 or x_far below 16; envelope tails not in their power form"
                    if below_half[-1] else "cutoff reaches x/2 beyond x_far",
                    slice(end, end + size))
                free += [(xs[ok], r[ok])] if size else []
                end += size
        kept["cutoff"] = conditions, free
    nearer, e_max, g_free, g_free_note, own = kept["cutoff"][0][h]

    def envelope(holds):
        if (params, e) not in kept:
            points, rs = zip(*kept["cutoff"][1])
            kept[params, e] = _power_bounds(dist, params, e, _stack(points), _stack(rs))
        at = holds[g_free]
        f12, numerator = (terms[own][at] for terms in kept[params, e])
        return f12, numerator / (g.evaluate(xs[holds]) if g_xs is None else g_xs[holds])

    return _where_conditions_hold(envelope, xs, (
        (nearer >= start, "test function not in its power regime at x_far"),
        (not e > e_max + 4.0 * np.spacing(e_max),
         "test-function exponent exceeds min(a_min*gamma, 1-gamma); "
         "envelope terms need not decrease"),
        (g_free, g_free_note),  # 3 and 4, and the note of the first to fail
    ))


def _weibull_envelope(dist, params, h, g, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on f1 + f2 and on f3 at each point of the array xs, for the
    Weibull tail exp(-x^beta), the cutoff h = s (log x)^kappa and the K-kernel
    test function. With u = h(x)/x and K(x, h(x)) >= k_low = beta h x^(beta-1)
    by concavity of x^beta,

        f1 <= q (1 - 2u)^(beta-1) exp(beta h (x - 2h)^(beta-1)) (1 + K_env(x, h))
        f2 <= q K_env(h, h(h)) J_env(x, h) / k_low
        f3 <= q J_env(x, h) / k_low + 1 - p^2

    where K_env and J_env are weibull_K_envelope and weibull_J_envelope.
    """
    beta = dist.beta
    q = params.q
    r = np.asarray(h(xs), dtype=float)
    u = r / xs
    k_low = beta * r * np.power(xs, beta - 1.0)
    j_env = weibull_J_envelope(beta, xs, r)
    # K(y, h(y)) is below its closed-form envelope by concavity
    k_x = weibull_K_envelope(beta, xs, r)

    # g(x - h(x)) / g(x) <= (1 - 2u)^(beta-1) * exp(A2) with
    # A2 = beta h(x) (x - 2 h(x))^(beta-1)
    a2 = beta * r * np.power(xs - 2.0 * r, beta - 1.0)
    f1 = q * np.power(1.0 - 2.0 * u, beta - 1.0) * np.exp(a2) * (1.0 + k_x)
    f2 = q * weibull_K_envelope(beta, r, h(r)) * j_env / k_low
    f3 = q * j_env / k_low + (1.0 - params.p**2)
    return f1 + f2, f3


def _weibull_tail_envelopes(
    dist: WeibullDist,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    xs: np.ndarray,
) -> _TailEnvelopes:
    """Bounds on f1 + f2 and on f3 over [x, infinity) at the points x of xs,
    for the Weibull tail with a log-power cutoff and the matching K-kernel
    test function: _weibull_envelope at x, its maximum over [x, infinity)
    once these conditions hold at x, here written for x = x_far, with
    y0 = exp(kappa / (1 - beta)) and L = log x_far:

    1. kappa beta >= 1; at kappa beta = 1 (within 1e-9), s >= 1. Otherwise
       f2, the J term, grows without bound (criterion 6 scaled: 0.013 at
       1e12, 0.51 at 1e53, 415 at 1e100, while f1 and f3 stay at 0.5 and
       0.75) and no envelope exists;
    2. x_far - 2 h(x_far) >= y0 and h(x_far) >= max(y0, 2 x_h), where x_h is
       the cutoff's domain start;
    3. kappa beta s^beta L^(kappa beta - 1) >= 1 when kappa beta > 1.

    h and x - h increase, so 2 and 3 then hold for every x >= x_far, and so
    does

    4. (2^(1-beta) - 1) beta x^beta >= 1 - beta,

    which needs no check of its own: h^beta >= L/(kappa beta) by 1 and 3,
    h < x/2 and L >= kappa/(1 - beta) by 2, so
    x^beta > 2^beta h^beta >= 2^beta / (beta (1 - beta)), and
    (2^(1-beta) - 1) beta x^beta > (2 - 2^beta)/(1 - beta) >= 1 - beta, as
    2 - 2^beta - (1 - beta)^2 is concave and zero at beta = 0 and 1.

    Each envelope is then a sum of products of non-negative factors, each
    non-increasing on [x_far, infinity):

    - (1 - 2u)^(beta-1), as u decreases from x = e^kappa on;
    - beta h(y) (y - c h(y))^(beta-1) for c = 1, 2 and y = x or h(x) >= y0:
      its log-derivative kappa/(y log y) - (1 - beta)(1 - c h')/(y - c h) is
      at most (kappa/log y - (1 - beta))/y <= 0, as
      (1 - c h')/(y - c h) >= 1/y once log y >= kappa. So are
      1 + K_env(x, h), exp(A2) and K_env(h, h(h)), with h(h) < h/2 by 2;
    - the head term of J_env / k_low,
      exp((1 - beta)(L - s^beta L^(kappa beta))) / ((1 - beta) beta h) in
      L = log x, whose exponent has L-derivative
      (1 - beta)(1 - kappa beta s^beta L^(kappa beta - 1)) <= 0 by 1 and 3;
    - its far term exp(-(2^(1-beta) - 1) x^beta) x^(1-beta) / (beta h), of
      log-derivative at most ((1 - beta) - (2^(1-beta) - 1) beta x^beta)/x
      <= 0 by 4.
    """
    if h.family != "logpower":
        return _uncertified("Weibull envelopes need a log-power cutoff")
    if not (isinstance(g, KKernelTestFunction) and g.dist == dist and g.h == h):
        return _uncertified("Weibull envelopes need the matching K-kernel test function")
    beta = dist.beta
    kb = h.kappa * beta
    if not (kb > 1.0 + 1e-9 or (abs(kb - 1.0) <= 1e-9 and h.scale >= 1.0 - 1e-12)):
        return _uncertified(
            "f2 = q g(h) J / g(x) grows without bound for kappa*beta < 1 "
            "(or = 1 with scale < 1); the supremum diverges"
        )

    y0 = math.exp(h.kappa / (1.0 - beta))
    r = np.asarray(h(xs), dtype=float)
    head = abs(kb - 1.0) <= 1e-9 or kb * h.scale**beta * np.log(xs) ** (kb - 1.0) >= 1.0
    return _where_conditions_hold(
        lambda holds: _weibull_envelope(dist, params, h, g, xs[holds]), xs, (
        ((xs - 2.0 * r >= y0) & (r >= max(y0, 2.0 * h.domain_start)),
         "x_far too small for the Weibull envelope regime"),
        (head, "kappa*beta*scale^beta*(log x_far)^(kappa*beta-1) < 1; "
               "the J envelope's head term still rises at x_far"),
    ))


def _tail_envelopes(dist, params, h, g, xs, kept=None, g_xs=None) -> _TailEnvelopes:
    """The family's envelope bounds at the increasing points xs (or the one
    point x_far), which end at x_far; see _TailEnvelopes. ``kept`` keeps the
    power envelope's parts that do not read g across calls on the same dist,
    h and xs, and ``g_xs``, when given, is g at xs (_power_tail_envelopes)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    # an overflow inside the envelope is a non-finite bound, and bounds nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(dist, WeibullDist):
            return _weibull_tail_envelopes(dist, params, h, g, xs)
        if dist.tail_power_terms is not None:
            return _power_tail_envelopes(dist, params, h, g, xs, {} if kept is None else kept,
                                         g_xs)
    return _TailEnvelopes(None, None, False, "no closed-form tail envelope for this severity")


def _sup_grid(from_x: float, x_far: float, grid_ratio: float) -> np.ndarray:
    """The geometric sweep grid from from_x > 0 (B, or delta_sup's from_x)
    to x_far."""
    if not (x_far > 0.0):
        raise ConfigError(f"x_far must be positive, got {x_far:g}")
    if not (x_far > from_x):
        raise ConfigError(f"x_far must exceed B = {from_x:g}, got {x_far:g}")
    if not math.isfinite(x_far):
        raise ConfigError(f"x_far must be finite, got {x_far:g}")
    if not (grid_ratio > 1.0):
        raise ConfigError(f"grid_ratio must exceed 1, got {grid_ratio:g}")
    n = int(math.ceil(math.log(x_far / from_x) / math.log(grid_ratio)))
    grid = from_x * grid_ratio ** np.arange(n + 1)
    grid = grid[grid < x_far * (1.0 - 1e-12)]
    return np.append(grid, x_far)


class _KernelSweep:
    """One cutoff's kernel values at the increasing points ``grid`` up to
    x_far, the last one; they do not depend on g, so one sweep serves every
    test function on the cutoff, and one _sup_pair call serves the sweeps of
    every cutoff stacked on one grid (tune's scales).

    ``kernels`` is the cutoff's share of a _cutoff_kernels call over the
    cutoffs stacked with it, computed for h alone when None: ``x``, ``r``,
    ``K`` and ``tail_r`` stop at the first point where h(x) leaves (0, x/2]
    or K raises, and ``error`` is that point's exception (None if none). J
    comes _J_CHUNK points at a time (_next_J, which stacks the chunks of
    several sweeps into calls of at most _J_STACK points), only as far as a
    reader asks, and is kept (``J``), so no point's J is computed twice; a
    point where J raises, once met, ends x, r, K and tail_r and is the
    error, final once J is evaluated at every point. _sup_pair gives it for
    each test function whose g is checked on the points before it, as
    f_terms would raise it, unless that g's row stopped before it.

    ``ends``, each J chunk's last grid point and x_far, are where _sup_pair
    reads the far-tail envelope."""

    def __init__(self, dist: SummandDistribution, h: CutoffFunction, grid: np.ndarray,
                 kernels: tuple | None = None):
        self.dist, self.h, self.grid, self.x_far = dist, h, grid, float(grid[-1])
        self.ends = np.append(grid[_J_CHUNK - 1 : -1 : _J_CHUNK], self.x_far)
        self.x, self.r, self.K, self.tail_r, self.error = (
            _cutoff_kernels(dist, [h], grid)[0] if kernels is None else kernels)
        self.J = np.empty(0)


# sweep points per J call in a sweep of one cutoff, and per K call in search
# of a failing point: fewer leave more per-call cost, more let J's
# temporaries (about 10 KB a point) leave the cache
_J_CHUNK = 8
# sweep points per J call at most when _next_J stacks the chunks of several
# cutoffs, as tune does for its scales: 8 chunks of _J_CHUNK, so J's
# temporaries stay under about 640 KB however many scales are stacked
_J_STACK = 8 * _J_CHUNK
# the stop tests' relative margin, far above J's quadrature tolerance of
# 1e-10: the terms computed beyond the stop stay below the maxima before it
_STOP_MARGIN = 1e-6


def _cutoff_kernels(dist, cutoffs, grid: np.ndarray) -> list[tuple]:
    """The kernel values of each cutoff h of cutoffs at the increasing points
    grid, as (x, r, K, tail_r, error): the points x of grid before the first
    where h(x) leaves (0, x/2] or K raises, h(x), K(x, h(x)) and tail(h(x))
    there, and the exception of that point (None if none). K and tail(h)
    each come from one call over every cutoff's points (_kernel_parts); both
    are elementwise, so each value is the double a call on its own cutoff
    gives."""
    _power_series(dist)  # J's series refuses a tail too steep for it before K meets it
    rs = [np.asarray(h(grid), dtype=float) for h in cutoffs]
    ns = [int(np.argmin(np.append((0.0 < r) & (r <= grid / 2.0), False))) for r in rs]
    Ks = _kernel_parts(K_kernel, dist, [(grid[:n], r[:n]) for r, n in zip(rs, ns)])
    heads = [r[: K.size] for r, (K, _) in zip(rs, Ks)]
    tails = _unstack(np.asarray(dist.tail(_stack(heads)), dtype=float), heads)
    kernels = []
    for r, n, (K, error), tail_r in zip(rs, ns, Ks, tails):
        if error is None and n < grid.size:
            error = ValueError(f"cutoff h(x)={r[n]:g} outside (0, x/2] at x={grid[n]:g}")
        kernels.append((grid[: K.size], r[: K.size], K, tail_r, error))
    return kernels


def _stack(arrays) -> np.ndarray:
    """The 1-D arrays end to end, as one call over the points of several
    takes them (the one array itself when alone)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _unstack(values: np.ndarray, arrays) -> list:
    """The values of one call over _stack(arrays), cut back into one piece
    per array."""
    if len(arrays) == 1:
        return [values]
    pieces, lo = [], 0
    for a in arrays:
        pieces.append(values[lo : lo + a.size])
        lo += a.size
    return pieces


def _kernel_parts(kernel, dist, parts: list) -> list[tuple]:
    """K or J at the points (xs, rs) of each part of parts, from one call
    over all of them: per part, its values up to its first failing point and
    that point's exception (None if none). A call that raises is redone part
    by part, a part in _J_CHUNK pieces and a piece of at most _J_CHUNK
    points point by point, so a failing point costs a few calls, not one per
    point. Each value is the same double in any batch, so a part's values
    and exception are those of a call on it alone."""
    xs, rs = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    if not xs.size:
        return [(x, None) for x, _ in parts]
    try:
        values = kernel(dist, xs, rs)
        return [(values, None)] if len(parts) == 1 else [
            (v, None) for v in _unstack(values, [x for x, _ in parts])]
    except (ValueError, RuntimeError) as exc:
        if xs.size == 1:
            return [(xs[:0], exc)]
    if len(parts) > 1:
        return [_kernel_parts(kernel, dist, [part])[0] for part in parts]
    step, found = _J_CHUNK if xs.size > _J_CHUNK else 1, []
    for lo in range(0, xs.size, step):
        piece = (xs[lo : lo + step], rs[lo : lo + step])
        ((values, error),) = _kernel_parts(kernel, dist, [piece])
        found.append(values)
        if error is not None:
            break
    return [(np.concatenate(found), error)]


def _next_J(sweeps: list, upto: int) -> None:
    """J at the next _J_CHUNK points before point ``upto`` of each sweep of
    sweeps that has any left, the chunks of up to _J_STACK / _J_CHUNK sweeps
    in one call (_kernel_parts). A sweep whose J raises at a point keeps J
    up to it, and its x, r, K and tail_r end there, with that point's
    exception as its error."""
    todo, parts = [], []
    for s in sweeps:
        lo = s.J.size
        hi = min(lo + _J_CHUNK, upto, s.x.size)
        if lo < hi:
            todo.append(s)
            parts.append((s.x[lo:hi], s.r[lo:hi]))
    per_call = _J_STACK // _J_CHUNK
    for c in range(0, len(todo), per_call):
        found = _kernel_parts(J_kernel, todo[c].dist, parts[c : c + per_call])
        for s, (J, error) in zip(todo[c : c + per_call], found):
            s.J = np.concatenate((s.J, J))
            if error is not None:
                s.error = error
                s.x, s.r, s.K, s.tail_r = (a[: s.J.size] for a in (s.x, s.r, s.K, s.tail_r))


def _kernel_sweep(dist, h, xs: np.ndarray) -> _KernelSweep:
    """The kernel sweep of the increasing points xs with J at every point,
    for f_terms and the CLI ``kernels`` command."""
    sweep = _KernelSweep(dist, h, xs)
    while sweep.J.size < sweep.x.size:
        _next_J([sweep], sweep.x.size)
    return sweep


def _terms(sweep: _KernelSweep, params, g) -> tuple:
    """The contraction terms (f1, f2, f3) at the points of a sweep that have J."""
    n = sweep.J.size
    gx, g_xr, g_r = _g_values(g, sweep.x[:n], sweep.r[:n])
    _, bad = _check_g(sweep.x[:n], gx, sweep.h)
    if bad is not None:
        raise bad
    with np.errstate(over="ignore", invalid="ignore"):
        return _combine(params, gx, g_xr, g_r, sweep.J,
                        _kernel_factors(params, sweep.K[:n], sweep.tail_r[:n]))


def _below(a: float, b: float) -> bool:
    """a < b by the relative margin _STOP_MARGIN of b, of either sign;
    false when either is NaN."""
    return a < b - _STOP_MARGIN * abs(b)


def _sup_pair(sweeps: list, params, gs) -> list:
    """The f1+f2 supremum and the f3 supremum (phi) over [from_x, infinity)
    together, for each row: a kernel sweep of sweeps, which stack their
    cutoffs on one grid, with a test function of gs. Per row, in scale-major
    order (row k len(gs) + j is sweeps[k] with gs[j]), the pair (d_res,
    p_res), or the exception its candidate raises. phi is None when the
    contraction fails (delta >= 1, or NaN), as no reader needs it then.

    Each g is evaluated once, over every sweep's x, x - h(x) and h(x) and,
    for the power envelope, the grid's ``ends`` (per sweep if that raises,
    so each row meets its own sweep's exception). The rows still live are
    checked and combined together, a round at a time, and each round pulls
    J at the next _J_CHUNK points of every sweep with a live row, in calls
    of at most _J_STACK points, which bound J's temporaries (_next_J).
    A row stops after the round whose last point x_i has envelope bounds
    below its running maxima, f1 + f2's also below one, by the margin
    _STOP_MARGIN: they bound the terms on [x_i, infinity), so the grid
    maxima are those of the whole grid, and f1 + f2 is below one past the
    prefix the min-b search reads. Once its maximum of f1 + f2 is at least
    one, delta >= 1, and the row stops on the two f1 + f2 conditions alone.
    A NaN maximum never stops, nor does a row with no envelope. The envelope
    is evaluated at the chunks' last points and at x_far, where it closes
    the grid maxima; its parts that do not read g are computed once for all
    rows (_power_tail_envelopes). A kernel failure or a g not positive and
    finite (_check_g) beyond a row's stop is never met; one before it is
    the row's exception, and the row reads no J past that point's chunk.
    Each sweep pulls J as far as its furthest row reads it, and each row
    is, bit for bit, the call with its sweep and g alone: the terms are
    elementwise and the maxima exact. An inf K, which overflows the terms,
    warns nothing."""
    # row i = k len(gs) + j; axes (quantity, row, point): g at x, x - h(x)
    # and h(x), the kernels, and the terms f1 + f2 and f3, NaN past each
    # sweep's points; their running maxima
    n_g, size, ends = len(gs), sweeps[0].grid.size, sweeps[0].ends
    ns = [sweep.x.size for sweep in sweeps]
    results, envs = [None] * (len(sweeps) * n_g), [None] * (len(sweeps) * n_g)
    arrays = np.full((8, len(results), size), np.nan)
    G, factors, J = arrays[:3], arrays[3:7], arrays[7]
    F, top = np.empty((2, len(results), size)), np.full((2, len(results)), -math.inf)
    kept, points = {"cutoffs": [sweep.h for sweep in sweeps]}, {}
    for j, g in enumerate(gs):
        # the power envelope alone reads g at the ends
        with_ends = g.power_tail is not None
        if with_ends not in points:
            read = (ends,) if with_ends else ()
            points[with_ends] = [np.concatenate((s.x, s.x - s.r, s.r, *read)) for s in sweeps]
        parts = points[with_ends]
        try:
            vs = _unstack(g.evaluate(_stack(parts)), parts)
        except (ValueError, RuntimeError):
            vs = [_attempt(g.evaluate, part) for part in parts]
        for k, (sweep, v, n) in enumerate(zip(sweeps, vs, ns)):
            env = v if isinstance(v, Exception) else _attempt(
                _tail_envelopes, sweep.dist, params, sweep.h, g, ends, kept, v[3 * n :])
            if isinstance(env, Exception):
                results[k * n_g + j] = env
            else:
                G[:, k * n_g + j, :n], envs[k * n_g + j] = v[: 3 * n].reshape(3, n), env
    live = [i for i, env in enumerate(envs) if env is not None]
    # each row's g check, the points it reads once it is no longer
    # combined, and the sweeps that still have a live row
    bad = {i: _check_g(sweeps[i // n_g].x, G[0, i, : ns[i // n_g]], sweeps[i // n_g].h)
           for i in live}
    stops, got, pulled = [0] * len(results), [0] * len(sweeps), sorted({i // n_g for i in live})
    # an inf K overflows the terms silently; the terms of a row no longer
    # combined, or past its sweep's points, are formed but never read
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, sweep in enumerate(sweeps):
            for rows, values in zip(factors, _kernel_factors(params, sweep.K, sweep.tail_r)):
                rows[k * n_g : (k + 1) * n_g, : ns[k]] = values
        for lo in range(0, size if live else 0, _J_CHUNK):
            hi, combined = min(lo + _J_CHUNK, size), len(live)
            _next_J([sweeps[k] for k in pulled], hi)
            for k in pulled:
                got[k] = min(sweeps[k].J.size, hi)
                J[k * n_g : (k + 1) * n_g, lo : got[k]] = sweeps[k].J[lo : got[k]]
            for i in [i for i in live if bad[i][0] < got[i // n_g]]:
                results[i] = bad[i][1]
                live.remove(i)
            f1, f2, f3 = _combine(params, *G[:, :, lo:hi], J[:, lo:hi], factors[:, :, lo:hi])
            F[0, :, lo:hi], F[1, :, lo:hi] = f1 + f2, f3
            top = np.maximum(top, F[:, :, lo:hi].max(axis=2))
            tops, still = top.T.tolist(), []
            for i in live:
                k, env = i // n_g, envs[i]
                if not got[k] == min(hi, ns[k]) < ns[k]:
                    # past a failing J point no more J comes, nor past the sweep's last
                    stops[i], results[i] = got[k], sweeps[k].error
                    continue
                if env.certified:
                    (top12, top3), at = tops[i], lo // _J_CHUNK
                    e12, e3 = env.f12s[at], env.f3s[at]
                    # top12 >= 1 makes delta >= 1, which reads no phi: f3 no longer counts
                    if (_below(e12, top12) and _below(e12, 1.0)
                            and (top12 >= 1.0 or _below(e3, top3))):
                        stops[i] = got[k]
                        continue
                still.append(i)
            if len(still) < combined:
                pulled = sorted({i // n_g for i in still})
            live = still
            if not live:
                break
    for i, env in enumerate(envs):
        if env is not None and results[i] is None:
            results[i] = _sups(sweeps[i // n_g], env, *F[:, i, : stops[i]])
    return results


def _sups(sweep: _KernelSweep, env: _TailEnvelopes, f12: np.ndarray, f3: np.ndarray) -> tuple:
    """_sup_pair's (d_res, p_res) of one test function, from its terms f1 + f2
    and f3 at the sweep's points up to its stop and its envelope."""
    note = "" if env.certified else (
        f"grid maximum only; tail beyond {sweep.x_far:g} not certified: {env.note}"
    )

    def sup(vals: np.ndarray, bound: float | None, failed: bool = False) -> SupResult:
        i = int(np.argmax(vals))
        value = max(float(vals[i]), bound) if env.certified else float(vals[i])
        last = None
        if failed and not value < 1.0:
            at_one = np.flatnonzero(~(vals < 1.0))
            last = float(sweep.x[at_one[-1]]) if at_one.size else None
        return SupResult(value, float(vals[i]), float(sweep.x[i]), bound, env.certified, note,
                         last)

    d_res = sup(f12, env.f12, failed=True)
    if not (d_res.value < 1.0):
        return d_res, None
    p_res = sup(f3, env.f3)
    if p_res.value < 0.0:
        p_note = (note + "; " if note else "") + "negative remainder supremum clamped to 0"
        p_res = replace(p_res, value=0.0, note=p_note)
    return d_res, p_res


def delta_sup(
    dist: SummandDistribution,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    from_x: float,
    x_far: float = 1e8,
    grid_ratio: float = 1.02,
) -> SupResult:
    """Supremum of f1 + f2 over [from_x, infinity): the maximum over the
    geometric grid from from_x to x_far (samples, not a bound between them),
    raised to the far-tail envelope beyond x_far when one is certified. The
    grid is sampled up to the point where the envelope takes over, below the
    maximum so far and below one; the maximum is the one over the whole
    grid. The sweep is _sup_pair's: f3's envelope also holds it back until
    the maximum so far reaches one."""
    if not (from_x >= h.domain_start * (1.0 - 1e-12)):
        raise ConfigError(f"from_x={from_x:g} below the cutoff domain start {h.domain_start:g}")
    (res,) = _sup_pair([_KernelSweep(dist, h, _sup_grid(from_x, x_far, grid_ratio))], params, [g])
    if isinstance(res, Exception):
        raise res
    return res[0]


# the Monte Carlo margin in standard errors of the error table, which c_interval's
# docstring and certify's caveat spell out; the exact engines have no stderr
_MC_MARGIN = 2.0


def _tolerance(x: float) -> float:
    """How far an interval of the error table reaches beyond its end x."""
    return 1e-9 * max(1.0, abs(x))


def _interval_constants(delta_table: DeltaTable, g: TestFunction, lo: float, b: float):
    """The interval constant C[a, b] of c_interval for every a >= lo, as a
    function of a, from one pass over the (upper lattice's) table points of
    [lo, b]: the running maxima of max(0, delta + _MC_MARGIN stderr) / g
    from b down, each a lookup away. A maximum is exact, so C[a, b] is the double that a
    pass over [a, b] alone gives. An interval reaches 1e-9 max(1, |x|)
    beyond each of its ends x; one that holds no table point, or a point
    where g is not positive, raises."""
    xs = delta_table.xs
    lo_i = np.searchsorted(xs, lo - _tolerance(lo))
    hi_i = np.searchsorted(xs, b + _tolerance(b), side="right")
    x = xs[lo_i:hi_i]
    dv = delta_table.delta[lo_i:hi_i] + _MC_MARGIN * delta_table.delta_stderr[lo_i:hi_i]
    dv = np.maximum(dv, 0.0)
    gx = g.evaluate(x)
    bad = np.flatnonzero(gx <= 0.0)
    last_bad = bad[-1] if bad.size else -1
    # no interval through a point where g is not positive is read: it raises
    highs = np.maximum.accumulate((dv / np.where(gx > 0.0, gx, np.nan))[::-1])[::-1]

    def constant(a: float) -> float:
        if not (a < b):
            raise ValueError("need a < b")
        i = int(np.searchsorted(x, a - _tolerance(a)))
        if i == x.size:
            raise ValueError(f"no table points inside [{a:g}, {b:g}]")
        if i <= last_bad:
            raise ValueError("test function must be positive on the interval")
        return float(highs[i])

    return constant


def c_interval(delta_table: DeltaTable, g: TestFunction, a: float, b: float) -> float:
    """Interval constant: max over table points x in [a, b] of
    max(0, delta(x) + 2 stderr(x)) / g(x).

    On the upper lattice's table, which certificates read, it bounds delta/g
    at the table points, not between them. The two-standard-error margin,
    _MC_MARGIN, makes it conservative under a Monte Carlo table; it vanishes
    for the exact engines. The certify core reads the constants of many a at
    once from one pass (_interval_constants).
    """
    return _interval_constants(delta_table, g, a, b)(a)


def bound_constant(delta_b: float, phi: float, c_hb_b: float) -> float:
    """The certified constant max(phi / (1 - delta), phi + delta * C[h(b), b])."""
    if not (0.0 < delta_b < 1.0):
        raise ValueError(f"delta must lie in (0, 1); got {delta_b:g}")
    # written so that a NaN, which fails every comparison, is rejected too
    if not (phi >= 0.0):
        raise ValueError("phi must be non-negative")
    if not (c_hb_b >= 0.0):
        raise ValueError("interval constant must be non-negative")
    return max(phi / (1.0 - delta_b), phi + delta_b * c_hb_b)


class ProcedureFailed(RuntimeError):
    """The contraction condition delta < 1 fails at the requested horizon."""

    def __init__(self, from_b: float, delta_value: float, min_b: int | None, cap: int):
        self.from_b = from_b
        self.delta_value = delta_value
        self.min_b = min_b
        if min_b is not None:
            hint = f"smallest integer b with delta(b) < 1 is {min_b}"
        else:
            hint = f"no b <= {cap} achieves delta(b) < 1"
        super().__init__(
            f"delta({from_b:g}) = {delta_value:.6g} >= 1; the bound construction "
            f"requires delta < 1 ({hint})"
        )


@dataclass(frozen=True)
class BoundCertificate:
    """A certified relative-error bound delta(x) <= C * g(x) for x >= b.

    Carries the runtime objects used to build it alongside a flat textual
    echo of the inputs, so it can be serialized and reloaded.
    """

    params: GeometricParams
    dist: SummandDistribution
    h: CutoffFunction
    g: TestFunction
    engine: str
    bandwidth: float | None
    mc_samples: int | None
    seed: int | None
    B: float
    delta_b: float
    phi: float
    c_hb_b: float
    C: float
    delta_tail_certified: bool
    phi_tail_certified: bool
    caveats: tuple[str, ...]

    def __post_init__(self):
        expected = bound_constant(self.delta_b, self.phi, self.c_hb_b)
        if abs(self.C - expected) > 1e-12 * max(1.0, abs(expected)):
            raise ValueError("certificate constant does not match its components")

    # the contraction starts at the anchor B and the bound holds from there on
    @property
    def b(self) -> float:
        return self.B

    valid_from = b

    @property
    def kappa_splice(self) -> float | None:
        """The splice constant of a spliced test function, else None."""
        return self.g.kappa_splice if isinstance(self.g, SplicedTestFunction) else None

    @property
    def tail_coefficient(self) -> float | None:
        """The M of Delta(x) <= M * x^-e when g declares a power tail, else None."""
        return None if self.g.power_tail is None else self.C * self.g.power_tail[1]

    @property
    def report(self) -> str:
        """The certified statement as one human-readable line."""
        g, coef = self.g, self.tail_coefficient
        if coef is not None:
            start, _, e = g.power_tail
            return f"Delta(x) <= {coef:.6g} * x^-{e:.6g} for x >= {max(self.B, start):g}"
        if isinstance(g, KKernelTestFunction):
            return (f"Delta(x) <= {self.C:.6g} * K(x,h(x)) for x >= {self.B:g}, "
                    f"h(x) = {g.h.describe()}")
        return f"Delta(x) <= {self.C:.6g} * g(x) for x >= {self.B:g}, g(x) = {g.describe()}"

    def to_text(self) -> str:
        lines = ["# bound certificate"]

        def put(key: str, val) -> None:
            if val is None:
                return
            if isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = f"{val:.12g}"
            lines.append(f"{key} = {val}")

        d = self.dist
        if isinstance(d, ParetoDist):
            put("family", "pareto")
            put("alpha", d.alpha)
        elif isinstance(d, WeibullDist):
            put("family", "weibull")
            put("beta", d.beta)
        elif isinstance(d, PowerMixtureDist):
            put("family", "mixture")
            put("terms", "[" + ", ".join(f"({c:.12g}, {a:.12g})" for c, a in d.terms) + "]")
        put("p", self.params.p)
        put("engine", self.engine)
        put("bandwidth", self.bandwidth)
        put("mc_samples", self.mc_samples)
        put("seed", self.seed)
        put("h.family", self.h.family)
        put("h.scale", self.h.scale)
        if self.h.family == "power":
            put("h.gamma", self.h.gamma)
        else:
            put("h.kappa", self.h.kappa)
        g = self.g
        if isinstance(g, SplicedTestFunction):
            put("g.variant", "spliced")
            put("g.bstar", g.bstar)
            put("g.coef", g.tailg.coef)
            put("g.exponent", g.tailg.exponent)
        elif isinstance(g, PowerTestFunction):
            put("g.variant", "power")
            put("g.coef", g.coef)
            put("g.exponent", g.exponent)
        elif isinstance(g, KKernelTestFunction):
            put("g.variant", "kkernel")
        put("B", self.B)
        put("b", self.b)
        put("delta_b", self.delta_b)
        put("phi", self.phi)
        put("c_hb_b", self.c_hb_b)
        put("C", self.C)
        put("valid_from", self.valid_from)
        put("kappa_splice", self.kappa_splice)
        put("tail_coefficient", self.tail_coefficient)
        put("delta_tail_certified", self.delta_tail_certified)
        put("phi_tail_certified", self.phi_tail_certified)
        if self.caveats:
            put("caveats", " | ".join(self.caveats))
        put("report", self.report)
        return "\n".join(lines) + "\n"


# points of a Monte Carlo error table, geometric over [h(B), B]
_MC_GRID_POINTS = 512
# the min-b search of a failed construction tries no integer anchor above this
_MIN_B_CAP = 10_000
# integers per span of the min-b search: h, K and g over a span of them cost
# about what one J chunk does, so a span reaching past min b wastes little
_MIN_B_SPAN = 1024


def _check_engine(engine, bandwidth, mc_samples, seed) -> None:
    """The one rule for which inputs each engine needs, and their checks in
    the table build's order; _Anchor runs them before the sweep, so they
    fail ahead of the contraction."""
    needs = {"panjer": {"bandwidth": bandwidth}, "mc": {"mc_samples": mc_samples, "seed": seed}}
    if engine not in needs:
        raise ValueError(f"unknown engine {engine!r}")
    missing = [key for key, value in needs[engine].items() if value is None]
    if missing:
        raise ConfigError(f"missing required configuration keys: {', '.join(missing)}")
    if engine == "panjer":
        _check_bandwidth(bandwidth)  # before it sizes the lattice
    else:
        _check_mc(mc_samples, seed)


def _table_start(table_lo: float, B: float, engine: str, bandwidth) -> float:
    """The first point of the error table over [table_lo, B], the one that
    _interval_constants reads first: the least at or above table_lo minus
    its tolerance, a lattice point j bandwidth on Panjer and a point of the
    geometric grid on Monte Carlo."""
    at = table_lo - _tolerance(table_lo)
    if engine == "mc":
        xs = _mc_table_xs(table_lo, B)
        return float(xs[np.searchsorted(xs, at)])
    # the rounded quotient can put ceil one cell high: step up from below it
    j = max(math.ceil(at / bandwidth) - 1, 0)
    while j * bandwidth < at:
        j += 1
    return j * bandwidth


def _check_g_at(g: TestFunction, x: float, where: str, B: float, h: CutoffFunction,
                positive: bool = True) -> None:
    """g must be defined at x, and positive there when ``positive``. _Anchor
    checks it before the sweep at the error table's first point, which the
    interval constants divide by g (_interval_constants still checks every
    table point), and, defined only, at each cutoff's h(B), where the sweep
    first reads g(h(x))."""
    try:
        value = float(g.evaluate(np.array([x]))[0])
    except ValueError as exc:
        what = f"undefined ({exc})"
    else:
        if value > 0.0 or not positive:
            return
        what = f"{value:g}, not positive"
    raise ConfigError(f"test function at {x:g}, {where}, is {what}; "
                      f"raise B = {B:g} or h.scale = {h.scale:g}")


# _tail_table's last Panjer table of each lattice, under discretize's name for
# it, with its key: (dist, p, bandwidth, n, table)
_panjer_last: dict[str, tuple[SummandDistribution, float, float, int, TailTable]] = {}


def _tail_table(dist, params, xmax, engine="panjer", bandwidth=None, mc_samples=None,
                seed=None, xs=None, mode="rounded") -> TailTable:
    """Compound tails P(S > x) at the points xs up to xmax. Panjer with xs
    None gives the tails at every lattice point up to xmax; Monte Carlo
    needs xs. ``mode`` is discretize's: upper for certificates
    (_build_delta_table); the tail and delta estimates read rounded, the
    midpoint rule, and bracket it by lower and upper, as floor <= round <=
    ceil of X / bandwidth pathwise.

    The one path to the engines: it checks their inputs (_check_engine),
    sizes the Panjer lattice and keeps the last Panjer table of each mode.
    The lattice ends at xmax rounded up to whole cells: panjer_tail reads
    the lattice tails F_0 .. F_n alone, for n = floor(xmax / bandwidth),
    and discretize fixes them from dist, the bandwidth and the mode, each
    one a tail of dist at its own point. The kept table is keyed on all of
    that: dist, compared by == (a dataclass's also compares the class), p,
    the bandwidth and n. A call with the same key reuses the table without
    a discretization or a recursion, so certificates that differ only in
    their cutoff, test function or splice run one recursion between them,
    and the estimates keep a table per lattice. The entry is dropped before
    a recursion and replaced, whole, only once panjer_tail has returned: a
    failed call keeps nothing, and threads read a consistent entry. Kept
    arrays are read-only.

    S is lattice-valued and non-negative, so P(S > x) is its value at the
    last lattice point at or below x, and 1 for x < 0. The lattice reaches
    at least one cell, so points all at or below 0 read it as well.
    """
    _check_engine(engine, bandwidth, mc_samples, seed)
    if engine == "mc":
        return mc_tail(dist, params, mc_samples, seed, xs)
    xmax = max(xmax, bandwidth)
    n = math.floor(xmax / bandwidth + 1e-9)
    key = (dist, params.p, bandwidth, n)
    last = _panjer_last.get(mode)
    if last is not None and last[:4] == key:
        table = last[4]
    else:
        _panjer_last.pop(mode, None)
        end = math.ceil(xmax / bandwidth - 1e-9) * bandwidth
        table = panjer_tail(discretize(dist, bandwidth, end, mode=mode), params, xmax)
        for values in (table.xs, table.tails, table.stderrs):
            values.flags.writeable = False
        _panjer_last[mode] = (*key, table)
    if xs is not None:
        idx = np.floor(xs / bandwidth + 1e-9).astype(int)
        tails = np.where(idx < 0, 1.0, table.tails[np.clip(idx, 0, len(table) - 1)])
        table = TailTable(xs=xs, tails=tails, stderrs=np.zeros(xs.size), engine="panjer")
    return table


def _mc_table_xs(table_lo, B, points=_MC_GRID_POINTS) -> np.ndarray:
    """The points of a Monte Carlo error table: geometric over [table_lo, B],
    starting a little below table_lo."""
    return np.geomspace(0.999 * table_lo, B, points)


def _build_delta_table(dist, params, B, table_lo, engine="panjer", bandwidth=None,
                       mc_samples=None, seed=None, points=_MC_GRID_POINTS) -> DeltaTable:
    """The exact-error table up to B, on the upper lattice; Monte Carlo
    estimates it at ``points`` geometric points of [table_lo, B]."""
    xs = _mc_table_xs(table_lo, B, points) if engine == "mc" else None
    tails = _tail_table(dist, params, B, engine, bandwidth, mc_samples, seed, xs, "upper")
    return delta_from_tails(tails, dist, params)


def _search_min_b(sweep: _KernelSweep, params, g, d_res: SupResult, cap: int) -> int | None:
    """Smallest integer n <= cap with delta(n) < 1, read off the anchor's
    sweep, where the certify core found d_res >= 1.

    delta(n) samples f1 + f2 at n and at the grid points above n and is
    closed by the far-tail envelope, which does not depend on n (at or above
    one, no n qualifies). So with x_k the last grid point where f1 + f2 is
    not below one (a NaN is not), min b is the first integer after x_k where
    f1 + f2 < 1. x_k is d_res.last_at_one, which _sup_pair read off the
    points it combined: a sweep that it stopped early holds x_k, as the stop
    needs f1 + f2 below one beyond.

    The integers after x_k are taken _MIN_B_SPAN at a time: h, K, tail(h)
    and g over the span at once give f1, and J is computed, _J_CHUNK points
    at a time in increasing order, only at the integers where f1 < 1. With
    q > 0, J >= 0, g(x) > 0 and g(h(x)) >= 0, as every test function here
    has, f2 >= 0, so fl(f1 + f2) is not below one at the other integers
    either, and min b is the same integer as with J at every integer. g is
    checked up to the deciding integer: a g not positive and finite, a cutoff outside
    (0, x/2] or a K or J failure at a later integer is never met, nor is a
    J failure where f1 >= 1 (an exception that g itself raises is met
    anywhere in the span). At grid ratios 1.2 and 1.5 criterion 3 pure
    needs 16 and 328 J points, as f1 is near 0.81 at every integer, and
    criterion 6 unscaled 24 at both, as f1 is below one only from 1637 on.
    """
    if d_res.tail_certified and not (d_res.tail_bound < 1.0):
        return None
    for lo in range(math.floor(d_res.last_at_one) + 1, cap + 1, _MIN_B_SPAN):
        ((x, r, K, tail_r, failed),) = _cutoff_kernels(
            sweep.dist, [sweep.h], np.arange(lo, min(lo + _MIN_B_SPAN, cap + 1), dtype=float))
        gx, g_xr, g_r = _g_values(g, x, r)
        n, bad = _check_g(x, gx, sweep.h)
        with np.errstate(over="ignore", invalid="ignore"):
            factors = _kernel_factors(params, K[:n], tail_r[:n])
            at = np.flatnonzero(_f1(params, gx[:n], g_xr[:n], factors) < 1.0)
            for first in range(0, at.size, _J_CHUNK):
                i = at[first : first + _J_CHUNK]
                ((J, error),) = _kernel_parts(J_kernel, sweep.dist, [(x[i], r[i])])
                i = i[: J.size]
                f1, f2, _ = _combine(params, gx[i], g_xr[i], g_r[i], J, [f[i] for f in factors])
                below = np.flatnonzero(f1 + f2 < 1.0)
                if below.size:
                    return int(x[i[below[0]]])
                if error is not None:
                    raise error
        if bad or failed:
            raise bad or failed
    return None


def _attempt(step, *args):
    """step(*args), or the ValueError or RuntimeError it raises, which is
    the candidate's own: certify reads the error table, where an engine
    failure raises, before any step can."""
    try:
        return step(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


class _Anchor:
    """What every certificate at the anchor B shares: the checked inputs, the
    sweep grid, the exact-error table over [table_lo, B], table_lo the least
    h(B) of the cutoffs served, built when first read, and, per splice point
    (a SplicedTestFunction holds arrays, so it keys no cache), the spliced g
    and its interval constants, which each cutoff reads at its own h(B)."""

    def __init__(self, dist, params, g, B, cutoffs, engine, bandwidth, mc_samples, seed,
                 x_far, grid_ratio):
        self.grid = _sup_grid(B, x_far, grid_ratio)
        _check_engine(engine, bandwidth, mc_samples, seed)
        # the kernels and the table divide by the severity tail at B, and the
        # table needs lattice cells below B
        if not dist.tail(B) > 0.0:
            raise ConfigError(f"severity tail vanishes at B = {B:g}: {dist!r}")
        if engine == "panjer" and not bandwidth < B:
            raise ConfigError(f"bandwidth must be below B = {B:g}, got {bandwidth:g}")
        self.dist, self.params, self.B, self.x_far = dist, params, B, x_far
        low = min(cutoffs, key=lambda hc: float(hc(B)))
        self.table_lo = float(low(B))
        _check_g_at(g, _table_start(self.table_lo, B, engine, bandwidth),
                    f"the first point of the error table (h(B) = {self.table_lo:g})", B, low)
        for hc in cutoffs:
            _check_g_at(g, float(hc(B)), "h(B), where the sweep first reads g(h(x))", B, hc,
                        positive=False)
        # the engine inputs that the certificate echoes: those its engine reads
        mc = engine == "mc"
        self.inputs = dict(engine=engine, bandwidth=None if mc else bandwidth,
                           mc_samples=mc_samples if mc else None, seed=seed if mc else None)
        self._spliced, self._constants = {None: g}, {}

    @cached_property
    def table(self) -> DeltaTable:
        """The error table, built when first read; an engine failure raises here."""
        return _build_delta_table(self.dist, self.params, self.B, self.table_lo, **self.inputs)

    def spliced(self, bstar) -> TestFunction:
        """g itself for bstar None, else g spliced onto the table at bstar."""
        key = None if bstar is None else float(bstar)
        if key not in self._spliced:
            self._spliced[key] = build_spliced_g(self.table, key, self._spliced[None])
        return self._spliced[key]

    def certify(self, sweeps: list, bstars) -> list:
        """The certificates for each sweep's cutoff and the g at each splice
        point of bstars (None for g itself), from one _sup_pair call: per
        sweep, a list with per splice point a BoundCertificate; when delta
        >= 1, the contraction failing at its verdict, the delta SupResult,
        with no phi, no interval constant and, unspliced, no table; or the
        exception its candidate raises, which a NaN delta (not below one to
        the min-b search too) is. An engine failure, which ends every
        candidate, raises: the table is read before any candidate reads it,
        ahead of the splices when there are any and after the sweep when a
        delta is below one."""
        if any(bstar is not None for bstar in bstars):
            self.table
        gs = [_attempt(self.spliced, bstar) for bstar in bstars]
        pairs = _sup_pair(sweeps, self.params, [g for g in gs if not isinstance(g, Exception)])
        if any(not isinstance(pair, Exception) and pair[0].value < 1.0 for pair in pairs):
            self.table
        pairs = iter(pairs)
        return [[g if isinstance(g, Exception)
                 else _attempt(self._certificate, sweep, bstar, g, next(pairs))
                 for bstar, g in zip(bstars, gs)] for sweep in sweeps]

    def _certificate(self, sweep: _KernelSweep, bstar, g: TestFunction, pair):
        """certify's result for one splice point, from its _sup_pair result."""
        if isinstance(pair, Exception):
            return pair
        d_res, p_res = pair
        if not (d_res.value < 1.0):
            if math.isnan(d_res.value):
                raise ValueError(f"delta supremum is NaN: f1 + f2 is NaN at x={d_res.grid_argmax:g}")
            return d_res
        key = None if bstar is None else float(bstar)
        if key not in self._constants:
            self._constants[key] = _interval_constants(self.table, g, self.table_lo, self.B)
        chb = self._constants[key](float(sweep.h(self.B)))
        caveats = tuple(text for holds, text in (
            (not d_res.tail_certified, f"delta sup: {d_res.note}"),
            (p_res.note, f"phi sup: {p_res.note}"),
            (self.inputs["engine"] == "mc",
             "interval constant from a Monte Carlo table with a two-standard-error margin"),
        ) if holds)
        return BoundCertificate(
            params=self.params, dist=self.dist, h=sweep.h, g=g, **self.inputs, B=float(self.B),
            delta_b=d_res.value, phi=p_res.value, c_hb_b=chb,
            C=bound_constant(d_res.value, p_res.value, chb),
            delta_tail_certified=d_res.tail_certified, phi_tail_certified=p_res.tail_certified,
            caveats=caveats)

    def failure(self, sweep: _KernelSweep, bstar, d_res: SupResult) -> ProcedureFailed:
        """ProcedureFailed at B, naming the smallest workable integer anchor;
        it reads delta alone (d_res and the sweep's prefix up to the stop),
        as a failed contraction computes no phi."""
        cap = min(_MIN_B_CAP, math.ceil(self.x_far) - 1)  # the search reads the sweep to x_far
        min_b = _search_min_b(sweep, self.params, self.spliced(bstar), d_res, cap)
        return ProcedureFailed(self.B, d_res.value, min_b, cap)


def build_bound(
    dist: SummandDistribution,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    B: float,
    engine: str = "panjer",
    bandwidth: float | None = None,
    mc_samples: int | None = None,
    seed: int | None = None,
    bstar: float | None = None,
    x_far: float = 1e8,
    grid_ratio: float = 1.02,
) -> BoundCertificate:
    """Run the full bound construction at horizon B.

    Evaluates the contraction suprema from B, then builds the exact
    relative-error table on [0, B] (or a Monte Carlo grid; first, for a
    splice at bstar) and assembles the certificate. The Panjer table is the
    upper lattice's, bw ceil(X / bw) >= X, whose compound tail dominates S's
    at every table point. Raises ProcedureFailed, with the smallest
    workable integer anchor up to _MIN_B_CAP and below x_far when one
    exists, if delta < 1 fails at B; unspliced, that failure builds no
    table: no Panjer recursion, no Monte Carlo sums.
    """
    if not (B > h.domain_start):
        raise ConfigError(f"B must exceed the cutoff domain start {h.domain_start:g}, got {B:g}")
    anchor = _Anchor(dist, params, g, B, [h], engine, bandwidth, mc_samples, seed,
                     x_far, grid_ratio)
    if bstar is not None and not isinstance(g, PowerTestFunction):
        raise ValueError("splicing requires a power test function for the tail piece")
    anchor.spliced(bstar)  # a splice reads the error table: it is built before the sweep
    sweep = _KernelSweep(dist, h, anchor.grid)
    ((cert,),) = anchor.certify([sweep], [bstar])
    if isinstance(cert, Exception):
        raise cert
    if isinstance(cert, SupResult):
        raise anchor.failure(sweep, bstar, cert)
    return cert


@dataclass(frozen=True)
class TuneRow:
    """One candidate from a tuning sweep."""

    scale: float
    bstar: float | None
    feasible: bool
    C: float | None
    coefficient: float | None
    note: str = ""


@dataclass(frozen=True)
class TuneResult:
    """Best cutoff scale and splice point over a candidate grid, judged by
    the coefficient of the power tail of the final bound."""

    scale: float
    bstar: float | None
    coefficient: float
    C: float
    rows: tuple[TuneRow, ...]


def tune(
    dist: SummandDistribution,
    params: GeometricParams,
    h: CutoffFunction,
    g: PowerTestFunction,
    B: float,
    s_grid,
    bstar_grid,
    engine: str = "panjer",
    bandwidth: float | None = None,
    mc_samples: int | None = None,
    seed: int | None = None,
    x_far: float = 1e8,
    grid_ratio: float = 1.02,
) -> TuneResult:
    """Sweep cutoff scales and splice points, minimizing the bound's tail
    coefficient C * kappa (spliced) or C * coef (pure power).

    The exact-error table, on the upper lattice as build_bound's, does not
    depend on the cutoff or the splice, so it is built once: before the
    sweep when there is a splice point, or, with none, after it when some
    candidate's delta is below one; an engine error ends the tune. Every
    candidate is certified by build_bound's core (_Anchor.certify), a
    feasible row's C and coefficient read off its certificate, and what
    candidates share is computed once:

    - one _sup_pair call for every (usable scale, splice point) row: one
      kernel sweep per scale (_KernelSweep), their h, K and tail(h) from one
      call each over all scales' points (_cutoff_kernels), J in rounds of
      one call on the next chunk of every scale with a live row, up to
      _J_STACK points a call (_next_J), each g evaluated once over all
      scales' points, the far-tail envelope's parts that do not read g from
      one _power_bounds call per exponent, and one combine and stop loop
      over all rows;
    - per splice point, the spliced g, whose failure to splice is every
      scale's row note, and one table of interval constants over
      [min h(B), B], which each scale reads at its own h(B)
      (_interval_constants), built at the splice point's first feasible
      candidate.

    Each row is, bit for bit, the one-cutoff call of build_bound at its
    scale and splice point. Ties prefer the smaller scale, then the smaller
    splice point, with the pure (unspliced) candidate ordered last. When
    every usable candidate fails the contraction alone, tune raises
    build_bound's ProcedureFailed for the smallest delta (first row on ties),
    and unspliced candidates alone build no table.
    """
    if not isinstance(g, PowerTestFunction):
        raise ConfigError("tuning compares power-tail coefficients; g must be a power shape")
    s_list = [float(s) for s in s_grid]
    b_list = list(bstar_grid)
    if not s_list or not b_list:
        raise ValueError("empty tuning grid")

    scales = [h.with_scale(s) for s in s_list]
    usable = [hs for hs in scales if B > hs.domain_start]
    if not usable:
        raise ConfigError(f"no candidate scale admits the horizon B = {B:g}")
    anchor = _Anchor(dist, params, g, B, usable, engine, bandwidth, mc_samples, seed,
                     x_far, grid_ratio)

    sweeps = [_KernelSweep(dist, hs, anchor.grid, kernels)
              for hs, kernels in zip(usable, _cutoff_kernels(dist, usable, anchor.grid))]
    certs = iter(zip(sweeps, anchor.certify(sweeps, b_list)))
    rows: list[TuneRow] = []
    errors: list[Exception] = []
    refused: list[tuple] = []  # (sweep, bstar, d_res) of each candidate with delta >= 1
    for s, hs in zip(s_list, scales):
        if B <= hs.domain_start:
            rows += [TuneRow(s, bst, False, None, None, "horizon below cutoff domain")
                     for bst in b_list]
            continue
        sweep, scale_certs = next(certs)
        for bst, cert in zip(b_list, scale_certs):
            if isinstance(cert, Exception):
                errors.append(cert)
                rows.append(TuneRow(s, bst, False, None, None, str(cert)))
            elif isinstance(cert, SupResult):
                refused.append((sweep, bst, cert))
                rows.append(TuneRow(s, bst, False, None, None, f"delta = {cert.value:.4g} >= 1"))
            else:
                rows.append(TuneRow(s, bst, True, cert.C, cert.tail_coefficient))

    feasible = [r for r in rows if r.feasible]
    if not feasible and not errors:  # min picks the first row on ties
        raise anchor.failure(*min(refused, key=lambda c: c[2].value))
    if not feasible:
        notes = "; ".join(sorted({r.note for r in rows if r.note}))
        # candidates refused only for out-of-range inputs: the inputs are at fault
        config = errors and all(isinstance(exc, ConfigError) for exc in errors)
        raise (ConfigError if config else ValueError)(f"no feasible tuning candidate: {notes}")
    best = min(
        feasible,
        key=lambda r: (r.coefficient, r.scale, math.inf if r.bstar is None else r.bstar),
    )
    return TuneResult(
        scale=best.scale,
        bstar=best.bstar,
        coefficient=best.coefficient,
        C=best.C,
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a certificate against a relative-error table."""

    ok: bool
    checked: int
    violations: tuple[tuple[float, float, float], ...]
    max_excess: float

    def __bool__(self) -> bool:
        return self.ok


def verify_bound(certificate: BoundCertificate, delta_table: DeltaTable) -> VerifyReport:
    """Check delta(x) <= C g(x) plus the engine uncertainty for every table
    point at or beyond the certificate's validity start; a NaN delta, which
    no bound covers, is a violation."""
    xs = delta_table.xs
    sel = xs >= certificate.valid_from - _tolerance(certificate.valid_from)
    x, d, s = xs[sel], delta_table.delta[sel], delta_table.delta_stderr[sel]
    allowed = certificate.C * certificate.g.evaluate(x) + _MC_MARGIN * s
    bad = ~(d <= allowed + 1e-9 * np.maximum(1.0, np.abs(allowed)))
    excess = d[bad] - allowed[bad]
    return VerifyReport(
        ok=not excess.size,
        checked=int(x.size),
        violations=tuple(zip(x[bad].tolist(), d[bad].tolist(), allowed[bad].tolist())),
        max_excess=float(np.max(excess)) if excess.size else 0.0,
    )
