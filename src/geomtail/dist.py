"""Severity distributions, geometric counts, and lattice discretization.

Everything downstream works with a heavy-tailed positive severity X and a
geometric claim count. This module provides the continuous families (Pareto,
Weibull with shape below one, finite mixtures of power tails), the geometric
parameters, and the machinery to turn a continuous severity into a lattice
distribution suitable for the recursion engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "SummandDistribution",
    "ParetoDist",
    "WeibullDist",
    "PowerMixtureDist",
    "GeometricParams",
    "LatticeDistribution",
    "discretize",
    "build_overshoot_upper",
]


class ConfigError(ValueError):
    """An input out of range, or a malformed or incomplete run configuration.

    Each check on a value the caller supplies (the severity, p, the cutoff,
    the test function, the anchor B and the run controls) raises it where the
    value is first used; the CLI reports it with exit code 3.
    """


def _check_bandwidth(bandwidth: float) -> None:
    if not (bandwidth > 0.0):
        raise ConfigError(f"bandwidth must be positive, got {bandwidth:g}")
    if not math.isfinite(bandwidth):
        raise ConfigError(f"bandwidth must be finite, got {bandwidth:g}")


class SummandDistribution:
    """Base class for positive severity distributions.

    Subclasses must provide ``tail``, ``density`` and ``sample``; the kernels
    also need ``k_value(x, r)`` = tail(x - r)/tail(x) - 1 and
    ``j_integrand(x)``, each family in its own numerically safe form.
    ``k_value`` is an array hook: one numpy expression over arrays x and r
    with 0 <= r < x. ``j_integrand(x)`` returns the array function (y, u=None) ->
    tail(x - y)/tail(x) * density(y) for 0 < y < x, one numpy expression over
    arrays of y; x is an array that broadcasts against y (J_kernel passes one
    x per row of nodes), and the per-x constants are arrays computed once.
    ``u``, when given, is x - y to full relative accuracy, which a y near x
    does not carry. ``J_kernel`` integrates it with the 24-node
    Gauss-Legendre rule on panels that grow geometrically from both ends
    (cut at r * 2^k and x - r * 2^k), taking the gap to the 16-node rule as
    each panel's error estimate. ``tail_ge`` and ``tail_power_terms`` have
    defaults that a family may override; a power-type family, one that sets
    ``tail_power_terms``, gets ``integrand_breakpoints`` and
    ``tail_mean_above`` from its terms.
    """

    def tail(self, x):
        """P(X > x), vectorized over ``x``."""
        raise NotImplementedError

    def density(self, x):
        """Lebesgue density of X at ``x``, vectorized."""
        raise NotImplementedError

    def sample(self, u):
        """Map uniforms in the open interval (0, 1) to severity draws.

        Implemented as the quantile transform, so equal inputs give equal
        outputs across engines and platforms. ``mc_tail`` calls it from
        several threads at once, so it must not change shared state.

        ``mc_tail`` samples only the sums that can reach its grid, and for
        that it needs sample(u) <= c whenever tail(c) <= 1 - u, up to a
        relative 1e-10: the draw is the smallest x with tail(x) <= 1 - u, to
        a few ulps. The power mixture meets it by definition; the Pareto and
        Weibull closed forms meet it to a few ulps of their exact quantile.
        """
        raise NotImplementedError

    def tail_ge(self, x):
        """P(X >= x). Coincides with ``tail`` for continuous distributions."""
        return self.tail(x)

    @property
    def tail_power_terms(self):
        """Mixture representation sum_i c_i x^(-a_i) of the tail beyond the
        unit support threshold, or None when the tail is not of power type."""
        return None

    def integrand_breakpoints(self, x) -> list:
        """Interior points where the J integrand has kinks: the unit threshold
        of a power-type tail, in y and in x - y. ``x`` is an array, and each
        point is a float or an array like it."""
        return [] if self.tail_power_terms is None else [1.0, x - 1.0]

    def tail_mean_above(self, r: float) -> float:
        """E[X; X > r] in closed form, for a power-type tail."""
        rr = max(r, 1.0)
        return math.fsum(c * a / (a - 1.0) * rr ** (1.0 - a) for c, a in self.tail_power_terms)


# uniforms a power mixture inverts at a time: on criterion 5's Monte Carlo
# table on two threads, 2^13 ran faster than 2^12 or 2^14, and took a tenth
# of the minor page faults of 2^14, whose temporaries (twice a chunk in the
# tail check) went to fresh pages on every call
_SAMPLE_CHUNK = 1 << 13
# a power mixture's start table holds t = log x at _START_NODES equally
# spaced y = -log(1 - u) in [0, _START_Y_MAX]; every double u in (0, 1) has
# 1 - u >= 2^-53, so y <= 53 log 2 < 36.8
_START_NODES = 4097
_START_Y_MAX = 37.0


def _check_uniforms(u: np.ndarray) -> None:
    # written so that a NaN, which fails every comparison, is rejected too
    if u.size and not (np.min(u) > 0.0 and np.max(u) < 1.0):
        raise ValueError("uniform inputs must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class ParetoDist(SummandDistribution):
    """Pareto severity with unit threshold: P(X > x) = x^(-alpha) for x >= 1."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 1.0):
            raise ConfigError("alpha must exceed 1 (finite mean required)")
        if not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha:g}")

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            t = np.where(x <= 1.0, 1.0, np.power(np.maximum(x, 1.0), -self.alpha))
        return t if t.ndim else float(t)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        d = np.where(x < 1.0, 0.0, self.alpha * np.power(np.maximum(x, 1.0), -self.alpha - 1.0))
        return d if d.ndim else float(d)

    def sample(self, u):
        u = np.asarray(u, dtype=float)
        _check_uniforms(u)
        # exp(-log1p(-u) / alpha) on one array; x / (-a) is -(x / a) exactly
        s = np.negative(u, out=np.empty_like(u))
        np.log1p(s, out=s)
        np.divide(s, -self.alpha, out=s)
        np.exp(s, out=s)
        return s if s.ndim else float(s)

    def k_value(self, x, r):
        # exact on the power region; below the threshold the tail plateaus at 1
        return np.where(x - r <= 1.0, np.power(x, self.alpha) - 1.0,
                        np.expm1(-self.alpha * np.log1p(-r / x)))

    def j_integrand(self, x):
        alpha = self.alpha
        dens_exp = -alpha - 1.0
        log_x = np.log(x)

        def integrand(y, u=None):
            u = x - y if u is None else u
            # where x - y <= 1 the tail ratio is x^alpha, this log form at x - y = 1
            ratio = np.exp(-alpha * (np.log(np.maximum(u, 1.0)) - log_x))
            return np.where(y < 1.0, 0.0, ratio * alpha * np.maximum(y, 1.0) ** dens_exp)

        return integrand

    @property
    def tail_power_terms(self):
        return ((1.0, self.alpha),)


@dataclass(frozen=True)
class WeibullDist(SummandDistribution):
    """Heavy-tailed Weibull: P(X > x) = exp(-x^beta) with 0 < beta < 1."""

    beta: float

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ConfigError("beta must lie in (0, 1) for a subexponential tail")

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.exp(-np.power(np.maximum(x, 0.0), self.beta))
        t = np.where(x <= 0.0, 1.0, t)
        return t if t.ndim else float(t)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 1e-300)
        d = self.beta * np.power(xp, self.beta - 1.0) * np.exp(-np.power(xp, self.beta))
        d = np.where(x <= 0.0, 0.0, d)
        return d if d.ndim else float(d)

    def sample(self, u):
        u = np.asarray(u, dtype=float)
        _check_uniforms(u)
        # (-log1p(-u))^(1 / beta) on one array
        s = np.negative(u, out=np.empty_like(u))
        np.log1p(s, out=s)
        np.negative(s, out=s)
        np.power(s, 1.0 / self.beta, out=s)
        return s if s.ndim else float(s)

    def k_value(self, x, r):
        # the exponent x^beta - (x - r)^beta, formed without cancellation
        return np.expm1(-np.power(x, self.beta) * np.expm1(self.beta * np.log1p(-r / x)))

    def j_integrand(self, x):
        beta = self.beta
        dens_exp = beta - 1.0
        x_beta = np.power(x, beta)

        def integrand(y, u=None):
            u = x - y if u is None else u
            # combine exponents before exponentiating; the ratio alone
            # overflows. The exponent x^beta - (x - y)^beta - y^beta is
            # symmetric in y and x - y: formed from the nearer end v, as in
            # k_value, nothing in it cancels
            v = np.minimum(y, u)
            e = -x_beta * np.expm1(beta * np.log1p(-v / x)) - v**beta
            return beta * y**dens_exp * np.exp(e)

        return integrand


@dataclass(frozen=True)
class PowerMixtureDist(SummandDistribution):
    """Finite mixture of power tails beyond a unit threshold.

    P(X > x) = sum_i c_i x^(-a_i) for x >= 1, with c_i > 0 summing to one and
    every exponent a_i > 1.

    ``sample`` maps u to the smallest double x >= 1 with tail(x) <= 1 - u.
    It reads a start t = log x off a table of t against y = -log(1 - u),
    built once per distribution on first use by bisection, takes one Newton
    step on the log of the tail, and keeps x = exp(t) when one ``tail`` call
    on x and the double below it confirms it. On criterion 5's mixture about
    63% of draws are confirmed; the rest start a few ulps off and step one ulp
    at a time against ``tail`` to it. A draw is thus the same double whatever
    the start: the table and the chunking change how fast a draw is found,
    never the draw.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        terms = tuple((float(c), float(a)) for c, a in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ConfigError("mixture needs at least one term")
        csum = math.fsum(c for c, _ in terms)
        if abs(csum - 1.0) > 1e-9:
            raise ConfigError(f"mixture weights sum to {csum}, expected 1")
        for c, a in terms:
            if c <= 0.0:
                raise ConfigError("mixture weights must be positive")
            if a <= 1.0:
                raise ConfigError("mixture exponents must exceed 1")

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        # the sum of c * xs^-a from zero, term by term, formed in place
        xs = np.maximum(x, 1.0, out=np.empty_like(x))
        t = np.zeros_like(xs)
        term = np.empty_like(xs)
        for c, a in self.terms:
            np.power(xs, -a, out=term)
            term *= c
            t += term
        np.copyto(t, 1.0, where=x <= 1.0)
        return t if t.ndim else float(t)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.maximum(x, 1.0)
        d = np.zeros_like(xs)
        for c, a in self.terms:
            d += c * a * np.power(xs, -a - 1.0)
        d = np.where(x < 1.0, 0.0, d)
        return d if d.ndim else float(d)

    def sample(self, u):
        u = np.asarray(u, dtype=float)
        _check_uniforms(u)
        flat = u.reshape(-1)
        s = np.empty_like(flat)
        # chunks small enough for the solver's temporaries to stay in cache
        for i in range(0, s.size, _SAMPLE_CHUNK):
            s[i : i + _SAMPLE_CHUNK] = self._quantile(1.0 - flat[i : i + _SAMPLE_CHUNK])
        return s.reshape(u.shape) if u.ndim else float(s[0])

    def _quantile(self, target):
        """The smallest double x >= 1 with tail(x) <= target, elementwise.

        Each draw is thus a function of its own uniform alone, and monotone in
        it, whatever start the search takes. ``_log_start`` lands within a few
        ulps of it. One ``tail`` call on the start s and the double below it
        accepts s when tail(s) <= target < tail(prev(s)), or s is 1; a draw
        it rejects steps one ulp at a time against ``tail`` to that double.
        """
        s = np.exp(self._log_start(target))
        n = s.size
        pair = self.tail(np.concatenate([s, np.nextafter(s, 0.0)]))
        high = pair[:n] > target
        live = np.flatnonzero(high)
        while live.size:
            s[live] = np.nextafter(s[live], np.inf)
            live = live[self.tail(s[live]) > target[live]]
        # the double below s qualifies too: step down while that holds
        live = np.flatnonzero(~high & (pair[n:] <= target) & (s > 1.0))
        while live.size:
            s[live] = np.nextafter(s[live], 0.0)
            live = live[s[live] > 1.0]
            live = live[self.tail(np.nextafter(s[live], 0.0)) <= target[live]]
        return s

    def _log_tail_value(self, t):
        """The tail at x = exp(t): ``_log_tail``'s first sum, term for term."""
        f = np.zeros_like(t)
        for c, a in self.terms:
            f += c * np.exp(-a * t)
        return f

    def _log_tail(self, t):
        """The tail at x = exp(t) and minus its derivative in t."""
        f = np.zeros_like(t)
        df = np.zeros_like(t)
        for c, a in self.terms:
            term = c * np.exp(-a * t)
            f += term
            df += a * term
        return f, df

    def _bracket(self, log_target):
        """Bounds on t = log x where sum_i c_i exp(-a_i t) = exp(log_target).

        Each term alone is below the tail, so its own root bounds t from
        below; c_sum exp(-a_min t) is above the tail and bounds t from above.
        """
        lo = np.zeros_like(log_target)
        for c, a in self.terms:
            np.maximum(lo, (math.log(c) - log_target) / a, out=lo)
        c_sum = math.fsum(c for c, _ in self.terms)
        a_min = min(a for _, a in self.terms)
        return lo, np.maximum(lo, (math.log(c_sum) - log_target) / a_min)

    @cached_property
    def _start_table(self):
        """t = log x and dt/dy at the nodes y of [0, _START_Y_MAX], where the
        tail at x is exp(-y), solved by bisection in ``_log_quantile``. Built
        on first use, 64 KiB; threads that race to build it build the same
        table."""
        t = self._log_quantile(np.exp(-np.linspace(0.0, _START_Y_MAX, _START_NODES)))
        f, df = self._log_tail(t)
        return t, f / df

    def _log_start(self, target):
        """t = log x with tail(exp(t)) = target, to a few ulps.

        The cubic Hermite interpolant of ``_start_table`` at y = -log(target)
        is within about 1e-10 of the root; one Newton step on the log of the
        tail squares that error, and the result is clamped into the bracket.
        """
        nodes, slopes = self._start_table
        log_target = np.log(target)
        step = _START_Y_MAX / (_START_NODES - 1)
        pos = log_target * (-1.0 / step)
        k = np.minimum(pos.astype(np.intp), _START_NODES - 2)
        w = pos - k
        t0, t1 = nodes[k], nodes[k + 1]
        m0, m1 = step * slopes[k], step * slopes[k + 1]
        d = t1 - t0
        t = t0 + w * (m0 + w * ((3.0 * d - 2.0 * m0 - m1) + w * (m0 + m1 - 2.0 * d)))
        f, df = self._log_tail(t)
        t += f * (np.log(f) - log_target) / df
        lo, hi = self._bracket(log_target)
        return np.clip(t, lo, hi, out=t)

    def _log_quantile(self, target):
        """Solve sum_i c_i exp(-a_i t) = target for t >= 0 by bisection on
        ``_bracket`` to the last bit: of the two adjacent doubles around the
        root, the one whose tail is at most target. Each step halves the count
        of doubles between the bounds, not their gap, so it ends within 63
        steps even at a root of 0, where halving the gap takes about 1,000."""
        # the int64 view of a double t >= 0 counts the doubles below t
        lo, hi = (b.view(np.int64) for b in self._bracket(np.log(target)))
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            above = self._log_tail_value(mid.view(np.float64)) > target
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return hi.view(np.float64)

    def k_value(self, x, r):
        # term by term, c x^-a ((1 - r/x)^-a - 1) does not cancel as
        # tail(x - r) / tail(x) - 1 does; below the threshold tail(x - r) is 1
        tail_x = self.tail(x)
        log_shift = np.log1p(-r / x)
        excess = sum(c * np.power(x, -a) * np.expm1(-a * log_shift) for c, a in self.terms)
        return np.where(x - r <= 1.0, 1.0 / tail_x - 1.0, excess / tail_x)

    def j_integrand(self, x):
        tail_x = self.tail(x)

        def integrand(y, u=None):
            return self.tail(x - y if u is None else u) / tail_x * self.density(y)

        return integrand

    @property
    def tail_power_terms(self):
        return self.terms


@dataclass(frozen=True)
class GeometricParams:
    """Geometric claim count on {1, 2, ...}: P(nu = k) = p (1-p)^(k-1)."""

    p: float

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ConfigError("p must lie in (0, 1)")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def mean(self) -> float:
        return 1.0 / self.p


@dataclass(frozen=True)
class LatticeDistribution:
    """Severity mass function on the lattice {0, h, 2h, ..., nh}."""

    bandwidth: float
    masses: np.ndarray
    truncation_point: float
    truncated_mass: float

    def __post_init__(self):
        _check_bandwidth(self.bandwidth)
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a non-empty 1-d array")
        if np.min(m) < -1e-12:
            raise ValueError("negative lattice mass")
        m = np.maximum(m, 0.0)
        object.__setattr__(self, "masses", m)
        # a memoryview yields Python floats, one at a time: the same exactly
        # rounded sum as over numpy scalars, at a third of the cost
        total = math.fsum(memoryview(m)) + self.truncated_mass
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"lattice masses plus truncated mass total {total}, expected 1")

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.masses.size) * self.bandwidth


def discretize(
    dist: SummandDistribution,
    bandwidth: float,
    truncation: float,
    mode: str = "rounded",
) -> LatticeDistribution:
    """Project a severity distribution onto a lattice of step ``bandwidth``.

    Modes assign the mass of X near each lattice point j*bw as follows:

    * ``rounded``: mass of [ (j-1/2) bw, (j+1/2) bw ), the midpoint rule;
    * ``lower``:   mass of [ j bw, (j+1) bw ), shifting mass down;
    * ``upper``:   mass of ( (j-1) bw, j bw ], shifting mass up.

    ``lower`` keeps atoms sitting exactly on the lattice at their own index,
    which is why it queries P(X >= x) rather than P(X > x).
    """
    _check_bandwidth(bandwidth)
    if not (truncation > 0.0):
        raise ValueError("truncation must be positive")
    ratio = truncation / bandwidth
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, n):
        raise ValueError("truncation must be a positive integer multiple of bandwidth")
    if mode not in ("rounded", "lower", "upper"):
        raise ValueError(f"unknown discretization mode {mode!r}")

    j = np.arange(n + 1, dtype=float)
    if mode == "rounded":
        cdf = 1.0 - np.asarray(dist.tail((j + 0.5) * bandwidth), dtype=float)
        masses = np.empty(n + 1)
        masses[0] = cdf[0]
        masses[1:] = np.diff(cdf)
    elif mode == "lower":
        tg = np.asarray(dist.tail_ge(np.arange(n + 2) * bandwidth), dtype=float)
        masses = tg[:-1] - tg[1:]
    else:
        t = np.asarray(dist.tail(np.arange(-1, n + 1) * bandwidth), dtype=float)
        masses = t[:-1] - t[1:]

    masses = np.maximum(masses, 0.0)
    truncated = max(0.0, 1.0 - math.fsum(memoryview(masses)))
    return LatticeDistribution(
        bandwidth=bandwidth,
        masses=masses,
        truncation_point=float(truncation),
        truncated_mass=truncated,
    )


def build_overshoot_upper(c1: float, c2: float, base_exponent: float) -> PowerMixtureDist:
    """Mixture of a power tail G and its integrated tail, renormalized.

    Given a base tail G(x) = x^(-a) beyond the unit threshold, the integrated
    tail has the shape x^(-(a-1))/(a-1). The returned severity is the
    normalization of c1 * integrated + c2 * G, i.e. a two-term power mixture
    whose weights are proportional to (c1/(a-1), c2).
    """
    a = float(base_exponent)
    if not (a > 1.0):
        raise ValueError("base exponent must exceed 1")
    if c1 < 0.0 or c2 < 0.0 or c1 + c2 <= 0.0:
        raise ValueError("component weights must be non-negative with a positive sum")
    if c1 > 0.0 and a <= 2.0:
        raise ValueError(
            "integrated-tail exponent is base_exponent - 1 and must exceed 1; "
            "use base_exponent > 2 or drop the integrated component"
        )
    raw = []
    if c1 > 0.0:
        raw.append((c1 / (a - 1.0), a - 1.0))
    if c2 > 0.0:
        raw.append((c2, a))
    z = math.fsum(w for w, _ in raw)
    return PowerMixtureDist(terms=tuple((w / z, e) for w, e in raw))
