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


def _g_values(g: TestFunction, x: np.ndarray, r: np.ndarray) -> tuple:
    """g(x), g(x - h(x)) and g(h(x)), the test-function values the
    contraction terms need."""
    return g.evaluate(x), g.evaluate(x - r), g.evaluate(r)


def _check_g(x: np.ndarray, gx: np.ndarray) -> None:
    """g must be positive at the points x, where it is gx."""
    bad = np.flatnonzero(~(gx > 0.0))
    if bad.size:
        i = bad[0]
        raise ValueError(f"test function must be positive; g({x[i]:g})={gx[i]:g}")


def _f1(params: GeometricParams, gx, g_xr, K, tail_r):
    """The contraction term f1, the one that needs no J, from g at x and
    x - h(x) and the kernel values at x."""
    return params.q * g_xr * (K + 1.0) * (1.0 - tail_r) / gx


def _combine(params: GeometricParams, gx, g_xr, g_r, K, J, tail_r) -> tuple:
    """The contraction terms (f1, f2, f3) from the values of g at x, x - h(x)
    and h(x) and the kernel values at x, as arrays or numpy scalars."""
    q = params.q
    f1 = _f1(params, gx, g_xr, K, tail_r)
    f2 = q * g_r * J / gx
    f3 = (q * J + (1.0 - params.p**2) * K - q * (K + 1.0) * tail_r) / gx
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
        ok = np.broadcast_to(ok, xs.shape)
        if not ok[-1]:
            return _uncertified(note)
        holds &= ok
    f12s, f3s = np.full(xs.size, np.nan), np.full(xs.size, np.nan)
    f12s[holds], f3s[holds] = envelope(holds)
    f12, f3 = float(f12s[-1]), float(f3s[-1])
    if not (math.isfinite(f12) and math.isfinite(f3)):
        return _uncertified("envelope terms not finite at x_far")
    return _TailEnvelopes(f12, f3, True, "", f12s, f3s)


def _power_bounds(dist, params, h, e: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts of the bounds on f1 + f2 and on f3 that do not read g, at
    each point of the array xs, for a power tail sum c_i x^(-a_i), the cutoff
    h = s x^gamma and a test function whose declared power tail x^(-e)
    covers x, h(x) and x - h(x): the bound on f1 + f2, and the numerator of
    the bound on f3, which divides it by g(x).

    With u = h(x)/x, the bounds are

        f1 <= q (1 - u)^(-(e + a_max))
        f2 <= q u^(-e) J_env,  J_env = tail(h) + (2^a_max - 2) tail(x/2) + 2 I1
        f3 <= (q (J_env - tail(h)) + (1 - p^2) K_env) / g(x)

    with I1 = kappa_16 E[X; X > h] / x + (2^a_max - 1) tail(x/16) and
    K_env = sum_i (c_i / c_min) x^(a_min - a_i) ((1 - u)^(-a_i) - 1), where
    c_min goes with a_min. Every step is elementwise, so a point's doubles
    do not depend on the other points of xs.
    """
    terms = dist.tail_power_terms
    a_min = min(a for _, a in terms)
    a_max = max(a for _, a in terms)
    q = params.q
    r = np.asarray(h(xs), dtype=float)
    u = r / xs

    # K(x, y) <= kappa_m * y / x for y <= x/m, by convexity of the pure
    # power kernel with the largest exponent
    m = 16.0
    kappa_m = m * _inf_on_overflow(math.expm1, -a_max * math.log1p(-1.0 / m))
    # 2^a_max - 1 and 2^a_max
    pow2_m1 = _inf_on_overflow(math.expm1, a_max * math.log(2.0))
    pow2 = _inf_on_overflow(pow, 2.0, a_max)
    mean_above = np.array([dist.tail_mean_above(v) for v in r.tolist()], dtype=float)
    tail = dist.tail
    i1 = kappa_m * mean_above / xs + pow2_m1 * np.asarray(tail(xs / m), dtype=float)
    # from the symmetric splitting of the J integral:
    # J <= tail(r) + (2^a_max - 2) tail(x/2) + 2 I1
    j_excess = (pow2 - 2.0) * np.asarray(tail(xs / 2.0), dtype=float) + 2.0 * i1
    j_env = np.asarray(tail(r), dtype=float) + j_excess

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

    Only condition 1 reads more of g than e. The terms of _power_bounds are
    computed where 3 and 4 hold, once per (params, e) in ``kept``, a dict
    that the caller keeps with dist, h and xs (a sweep keeps one, so the
    test functions of one scale share them); each g takes its points where
    1 also holds and divides by g there.
    """
    if h.family != "power":
        return _uncertified("tail envelopes need a power cutoff")
    if g.power_tail is None:
        return _uncertified("no tail envelope for this test function")
    start, _, e = g.power_tail
    r = np.asarray(h(xs), dtype=float)
    a_min = min(a for _, a in dist.tail_power_terms)
    e_max = min(a_min * h.gamma, 1.0 - h.gamma)
    below_half, power_form = r < xs / 2.0, (r >= 1.0) & (xs >= 16.0)
    g_free = below_half & power_form

    def envelope(holds):
        if (params, e) not in kept:
            kept[params, e] = _power_bounds(dist, params, h, e, xs[g_free])
        f12, numerator = (terms[holds[g_free]] for terms in kept[params, e])
        return f12, numerator / g.evaluate(xs[holds])

    return _where_conditions_hold(envelope, xs, (
        ((r >= start) & (xs - r >= start), "test function not in its power regime at x_far"),
        (not e > e_max + 4.0 * np.spacing(e_max),
         "test-function exponent exceeds min(a_min*gamma, 1-gamma); "
         "envelope terms need not decrease"),
        (below_half, "cutoff reaches x/2 beyond x_far"),
        (power_form, "cutoff below 1 or x_far below 16; envelope tails not in their power form"),
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


def _tail_envelopes(dist, params, h, g, xs, kept=None) -> _TailEnvelopes:
    """The family's envelope bounds at the increasing points xs (or the one
    point x_far), which end at x_far; see _TailEnvelopes. ``kept`` keeps the
    power envelope's terms that do not read g across calls on the same dist,
    h and xs (_power_tail_envelopes)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    # an overflow inside the envelope is a non-finite bound, and bounds nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(dist, WeibullDist):
            return _weibull_tail_envelopes(dist, params, h, g, xs)
        if dist.tail_power_terms is not None:
            return _power_tail_envelopes(dist, params, h, g, xs, {} if kept is None else kept)
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
    """The kernel values at the increasing points ``grid`` up to x_far, the
    last one; they do not depend on g, so one sweep serves every test
    function on the cutoff.

    h, K and tail(h(x)) are computed over the whole grid at once; J, by
    ``evaluate``, in _J_CHUNK chunks only as far as a reader asks, and kept
    (``J``), so no point's J is computed twice. ``x``, ``r``, ``K`` and
    ``tail_r`` stop at the first point where h(x) leaves (0, x/2] or K
    raises, or, once met, J raises. ``error`` is that point's exception
    (None if none), final once J is evaluated at every point; _sup_pair
    raises it once g is checked on the points before it, as f_terms would,
    unless it stopped before it.

    ``ends``, each J chunk's last grid point and x_far, are where _sup_pair
    reads the far-tail envelope. The power envelope's terms that do not read
    g are kept there too (``kept``, by (params, e); _power_tail_envelopes),
    so the test functions of one scale, which share the exponent e, compute
    them once per scale, not once per test function."""

    def __init__(self, dist: SummandDistribution, h: CutoffFunction, grid: np.ndarray):
        self.dist, self.h, self.grid, self.x_far = dist, h, grid, float(grid[-1])
        self.ends = np.append(grid[_J_CHUNK - 1 : -1 : _J_CHUNK], self.x_far)
        self.kept: dict = {}
        _power_series(dist)  # J's series refuses a tail too steep for it before K meets it
        rs = np.asarray(h(grid), dtype=float)
        n = int(np.argmin(np.append((0.0 < rs) & (rs <= grid / 2.0), False)))
        self.error = None if n == grid.size else ValueError(
            f"cutoff h(x)={rs[n]:g} outside (0, x/2] at x={grid[n]:g}")
        K = [np.empty(0)]
        try:
            if n:
                K.append(K_kernel(dist, grid[:n], rs[:n]))
        except ValueError:
            # K is elementwise: keep it up to its first failing point, found as J's is
            try:
                for part in _kernel_chunks(K_kernel, dist, grid[:n], rs[:n]):
                    K.append(part)
            except ValueError as exc:
                self.error = exc
        self.K = np.concatenate(K)
        self.x, self.r = grid[: self.K.size], rs[: self.K.size]
        self.tail_r = np.asarray(dist.tail(self.r), dtype=float)
        self.J = np.empty(0)
        self._chunks = _kernel_chunks(J_kernel, dist, self.x, self.r)

    def evaluate(self, n: int | None = None) -> int:
        """Compute J in whole chunks up to point n (every point if None), or
        up to its first failing point; the number of points up to n with J."""
        n = self.x.size if n is None else min(n, self.x.size)
        parts = [self.J]
        done = self.J.size
        try:
            while done < n:
                parts.append(next(self._chunks))
                done += parts[-1].size
        except (ValueError, RuntimeError) as exc:
            self.error = exc
            self.x, self.r, self.K, self.tail_r = (
                a[:done] for a in (self.x, self.r, self.K, self.tail_r))
        self.J = np.concatenate(parts)
        return min(n, done)


# sweep points per J call, and per K call in search of a failing point: fewer
# leave more per-call cost, more let J's temporaries (about 10 KB a point) leave the cache
_J_CHUNK = 8
# the stop tests' relative margin, far above J's quadrature tolerance of
# 1e-10: the terms computed beyond the stop stay below the maxima before it
_STOP_MARGIN = 1e-6


def _kernel_chunks(kernel, dist, xs: np.ndarray, rs: np.ndarray):
    """K or J at the points (xs, rs) in order, as arrays of _J_CHUNK points (the
    last one shorter); each is the same double in any batch. A chunk where the
    kernel raises is redone one point at a time, so the values before its
    first failing point come out before that point's error is raised."""
    for lo in range(0, xs.size, _J_CHUNK):
        hi = min(lo + _J_CHUNK, xs.size)
        try:
            yield kernel(dist, xs[lo:hi], rs[lo:hi])
        except (ValueError, RuntimeError):
            for i in range(lo, hi):
                yield kernel(dist, xs[i : i + 1], rs[i : i + 1])


def _kernel_sweep(dist, h, xs: np.ndarray) -> _KernelSweep:
    """The kernel sweep of the increasing points xs with J at every point,
    for f_terms and the CLI ``kernels`` command."""
    sweep = _KernelSweep(dist, h, xs)
    sweep.evaluate()
    return sweep


def _terms(sweep: _KernelSweep, params, g) -> tuple:
    """The contraction terms (f1, f2, f3) at the points of a sweep that have J."""
    n = sweep.J.size
    gx, g_xr, g_r = _g_values(g, sweep.x[:n], sweep.r[:n])
    _check_g(sweep.x[:n], gx)
    return _combine(params, gx, g_xr, g_r, sweep.K[:n], sweep.J, sweep.tail_r[:n])


def _below(a: float, b: float) -> bool:
    """a < b by the relative margin _STOP_MARGIN of b, of either sign;
    false when either is NaN."""
    return a < b - _STOP_MARGIN * abs(b)


def _sup_pair(sweep: _KernelSweep, params, g) -> tuple[SupResult, SupResult | None]:
    """The f1+f2 supremum and the f3 supremum (phi) over [from_x, infinity)
    together, from one kernel sweep and the test function g. phi is None
    when the contraction fails (delta >= 1, or NaN), as no reader needs it
    then.

    J is pulled _J_CHUNK points at a time, and the sweep stops after the
    first chunk whose last point x_i has envelope bounds below the running
    maxima, f1 + f2's also below one, by the margin _STOP_MARGIN. They bound
    the terms on [x_i, infinity), so the grid maxima are those of the whole
    grid, and f1 + f2 is below one past the prefix the min-b search reads.
    Once the running maximum of f1 + f2 is at least one, delta >= 1 is
    certain, and from that chunk on the sweep stops on the two f1 + f2
    conditions alone. A NaN maximum never stops. The envelope is evaluated
    at the chunks' last points and at x_far, where it closes the grid
    maxima. A kernel failure or a non-positive g beyond the stop is never
    met; one before it is raised."""
    n = sweep.x.size
    env = _tail_envelopes(sweep.dist, params, sweep.h, g, sweep.ends, sweep.kept)
    note = "" if env.certified else (
        f"grid maximum only; tail beyond {sweep.x_far:g} not certified: {env.note}"
    )

    gvals = _g_values(g, sweep.x, sweep.r)
    f12, f3 = [], []
    top12 = top3 = -math.inf
    lo = 0
    # past a failing J point, got stays there: the loop runs out and raises
    for hi in [*range(_J_CHUNK, n, _J_CHUNK), n] if env.certified else [n]:
        got = sweep.evaluate(hi)
        _check_g(sweep.x[lo:got], gvals[0][lo:got])
        f1, f2, f3c = _combine(params, *(v[lo:got] for v in (*gvals, sweep.K, sweep.J,
                                                              sweep.tail_r)))
        f12.append(f1 + f2)
        f3.append(f3c)
        lo = got
        if got == hi < n:
            top12, top3 = np.maximum(top12, f12[-1].max()), np.maximum(top3, f3c.max())
            e12, e3 = env.f12s[hi // _J_CHUNK - 1], env.f3s[hi // _J_CHUNK - 1]
            # top12 >= 1 makes delta >= 1, which reads no phi: f3 no longer counts
            if _below(e12, top12) and _below(e12, 1.0) and (top12 >= 1.0 or _below(e3, top3)):
                break
    else:
        if sweep.error is not None:
            raise sweep.error
    f12, f3 = np.concatenate(f12), np.concatenate(f3)

    def sup(vals: np.ndarray, bound: float | None) -> SupResult:
        i = int(np.argmax(vals))
        value = max(float(vals[i]), bound) if env.certified else float(vals[i])
        return SupResult(value, float(vals[i]), float(sweep.x[i]), bound, env.certified, note)

    d_res = sup(f12, env.f12)
    if not (d_res.value < 1.0):
        at_one = np.flatnonzero(~(f12 < 1.0))
        last = float(sweep.x[at_one[-1]]) if at_one.size else None
        return replace(d_res, last_at_one=last), None
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
    return _sup_pair(_KernelSweep(dist, h, _sup_grid(from_x, x_far, grid_ratio)), params, g)[0]


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


def _check_g_at_table_start(g: TestFunction, x: float, table_lo: float, B: float,
                            h: CutoffFunction) -> None:
    """g must be defined and positive at x, the first point of the error
    table that the interval constants divide by g; _Anchor checks it before
    the sweep, and _interval_constants still checks every table point."""
    try:
        value = float(g.evaluate(np.array([x]))[0])
    except ValueError as exc:
        what = f"undefined ({exc})"
    else:
        if value > 0.0:
            return
        what = f"{value:g}, not positive"
    raise ConfigError(f"test function at {x:g}, the first point of the error table "
                      f"(h(B) = {table_lo:g}), is {what}; raise B = {B:g} or h.scale = {h.scale:g}")


# _tail_table's last Panjer table of each lattice, under discretize's name for
# it, with its key: (p, bandwidth, n, the tails F_0 .. F_n, table)
_panjer_last: dict[str, tuple[float, float, int, np.ndarray, TailTable]] = {}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float arrays hold the same doubles, bit for bit."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
    and they fix f_1 .. f_n too. The kept table is keyed on all of that: p,
    the bandwidth, n and F_0 .. F_n, compared bit for bit. A call with the
    same key reuses the table without a recursion, so certificates that
    differ only in their cutoff, test function or splice run one recursion
    between them, and the estimates keep a table per lattice. The entry is
    dropped before a recursion and replaced, whole, only once panjer_tail
    has returned: a failed call keeps nothing, and threads read a
    consistent entry. Kept arrays are read-only.

    S is lattice-valued and non-negative, so P(S > x) is its value at the
    last lattice point at or below x, and 1 for x < 0. The lattice reaches
    at least one cell, so points all at or below 0 read it as well.
    """
    _check_engine(engine, bandwidth, mc_samples, seed)
    if engine == "mc":
        return mc_tail(dist, params, mc_samples, seed, xs)
    xmax = max(xmax, bandwidth)
    end = math.ceil(xmax / bandwidth - 1e-9) * bandwidth
    lattice = discretize(dist, bandwidth, end, mode=mode)
    n = math.floor(xmax / bandwidth + 1e-9)
    tails = lattice.tails[: n + 1]
    last = _panjer_last.get(mode)
    if last is not None and last[:3] == (params.p, bandwidth, n) and _same_bits(last[3], tails):
        table = last[4]
    else:
        _panjer_last.pop(mode, None)
        table = panjer_tail(lattice, params, xmax)
        for values in (table.xs, table.tails, table.stderrs):
            values.flags.writeable = False
        _panjer_last[mode] = (params.p, bandwidth, n, tails.copy(), table)
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
    checked up to the deciding integer: a non-positive g, a cutoff outside
    (0, x/2] or a K or J failure at a later integer is never met, nor is a
    J failure where f1 >= 1 (an exception that g itself raises is met
    anywhere in the span). At grid ratios 1.2 and 1.5 criterion 3 pure
    needs 16 and 328 J points, as f1 is near 0.81 at every integer, and
    criterion 6 unscaled 24 at both, as f1 is below one only from 1637 on.
    """
    if d_res.tail_certified and not (d_res.tail_bound < 1.0):
        return None
    for lo in range(math.floor(d_res.last_at_one) + 1, cap + 1, _MIN_B_SPAN):
        span = _KernelSweep(sweep.dist, sweep.h,
                            np.arange(lo, min(lo + _MIN_B_SPAN, cap + 1), dtype=float))
        gx, g_xr, g_r = _g_values(g, span.x, span.r)
        n = int(np.argmin(np.append(gx > 0.0, False)))  # the first non-positive g
        at = np.flatnonzero(_f1(params, gx[:n], g_xr[:n], span.K[:n], span.tail_r[:n]) < 1.0)
        done = 0
        for J in _kernel_chunks(J_kernel, span.dist, span.x[at], span.r[at]):
            i = at[done : done + J.size]
            done += J.size
            f1, f2, _ = _combine(params, gx[i], g_xr[i], g_r[i], span.K[i], J, span.tail_r[i])
            below = np.flatnonzero(f1 + f2 < 1.0)
            if below.size:
                return int(span.x[i[below[0]]])
        _check_g(span.x, gx)
        if span.error is not None:
            raise span.error
    return None


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
        _check_g_at_table_start(g, _table_start(self.table_lo, B, engine, bandwidth),
                                self.table_lo, B, low)
        # the engine inputs that the certificate echoes: those its engine reads
        mc = engine == "mc"
        self.inputs = dict(engine=engine, bandwidth=None if mc else bandwidth,
                           mc_samples=mc_samples if mc else None, seed=seed if mc else None)
        self._table, self._table_raised = None, False
        self._spliced, self._constants = {None: g}, {}

    def table(self) -> DeltaTable:
        if self._table is None:
            self._table_raised = True  # until the engine returns
            self._table = _build_delta_table(self.dist, self.params, self.B, self.table_lo,
                                             **self.inputs)
            self._table_raised = False
        return self._table

    def table_failed(self) -> bool:
        """Whether building the error table raised: the engine failed."""
        return self._table_raised

    def spliced(self, bstar) -> TestFunction:
        """g itself for bstar None, else g spliced onto the table at bstar."""
        key = None if bstar is None else float(bstar)
        if key not in self._spliced:
            self._spliced[key] = build_spliced_g(self.table(), key, self._spliced[None])
        return self._spliced[key]

    def certify(self, sweep: _KernelSweep, bstar) -> BoundCertificate | SupResult:
        """The certificate for the sweep's cutoff and the g at bstar; when
        delta >= 1 the contraction fails at its verdict, the delta SupResult,
        with no phi, no interval constant and, unspliced, no table. A NaN
        delta, which the min-b search counts as not below one too, raises."""
        g = self.spliced(bstar)
        d_res, p_res = _sup_pair(sweep, self.params, g)
        if not (d_res.value < 1.0):
            if math.isnan(d_res.value):
                raise ValueError(f"delta supremum is NaN: f1 + f2 is NaN at x={d_res.grid_argmax:g}")
            return d_res
        key = None if bstar is None else float(bstar)
        if key not in self._constants:
            self._constants[key] = _interval_constants(self.table(), g, self.table_lo, self.B)
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
    cert = anchor.certify(sweep, bstar)
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
    depend on the cutoff or the splice, so it is built once, at the first
    spliced or feasible candidate; an engine error ends the tune. Every candidate is certified by build_bound's core
    (_Anchor.certify), a feasible row's C and coefficient read off its
    certificate, and what candidates share is computed once:

    - per scale, the kernel sweep and the far-tail envelope's terms that do
      not read g (_KernelSweep);
    - per splice point, the spliced g, and one table of interval constants
      over [min h(B), B], which each scale reads at its own h(B)
      (_interval_constants), built at the splice point's first feasible
      candidate.

    A splice point that fails to splice is retried at every scale, so each
    row carries its note. Ties prefer the smaller scale, then the smaller
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

    rows: list[TuneRow] = []
    errors: list[Exception] = []
    refused: list[tuple] = []  # (sweep, bstar, d_res) of each candidate with delta >= 1
    for s, hs in zip(s_list, scales):
        if B <= hs.domain_start:
            rows += [TuneRow(s, bst, False, None, None, "horizon below cutoff domain")
                     for bst in b_list]
            continue
        sweep = _KernelSweep(dist, hs, anchor.grid)
        for bst in b_list:
            try:
                cert = anchor.certify(sweep, bst)
            except (ValueError, RuntimeError) as exc:
                if anchor.table_failed():
                    raise
                errors.append(exc)
                rows.append(TuneRow(s, bst, False, None, None, str(exc)))
                continue
            if isinstance(cert, SupResult):
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
