"""Overshoot kernels, cutoff functions, and test functions.

The two kernels measure how much heavier the tail of X is near x than at x:

    K(x, r) = tail(x - r) / tail(x) - 1
    J(x, r) = integral_r^{x-r} tail(x - y)/tail(x) * density(y) dy

K is in closed form for every family. J is in closed form on a power tail,
as the upper end of a series enclosure, an incomplete beta integral with
negative parameters expanded in binomial series (``_j_series``); on any
other family it is a Gauss-Legendre quadrature of the family's integrand
(``_j_quadrature``).

A cutoff function h splits the integration range, and a test function g is
the shape the final relative-error bound is expressed against. The spliced
test function follows a monotone envelope of the exact relative error up to a
splice point and a pure power beyond it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dist import ConfigError, SummandDistribution, _log_power_weights

__all__ = [
    "CutoffFunction",
    "K_kernel",
    "J_kernel",
    "pareto_K_envelope",
    "pareto_J_envelope",
    "weibull_K_envelope",
    "weibull_J_envelope",
    "TestFunction",
    "PowerTestFunction",
    "KKernelTestFunction",
    "SplicedTestFunction",
    "MonotoneEnvelope",
    "build_spliced_g",
    "optimal_pareto_g",
]


@dataclass(frozen=True)
class CutoffFunction:
    """Cutoff h(x), either s * x^gamma or s * (log x)^kappa.

    ``domain_start`` is the smallest x from which the function is usable as a
    cutoff: beyond it h is concave, increasing, and satisfies h(x) <= x/2.
    """

    family: str
    scale: float
    gamma: float = 0.0
    kappa: float = 0.0
    domain_start: float = field(init=False)

    @staticmethod
    def power(scale: float, gamma: float) -> "CutoffFunction":
        return CutoffFunction(family="power", scale=scale, gamma=gamma)

    @staticmethod
    def logpower(scale: float, kappa: float) -> "CutoffFunction":
        return CutoffFunction(family="logpower", scale=scale, kappa=kappa)

    def __post_init__(self):
        if self.family not in ("power", "logpower"):
            raise ConfigError(f"unknown cutoff family {self.family!r}")
        if not (self.scale > 0.0):
            raise ConfigError(f"scale must be positive, got {self.scale:g}")
        if self.family == "power":
            if not (0.0 < self.gamma < 1.0):
                raise ConfigError("power cutoff needs gamma in (0, 1)")
            # solve s x^gamma = x/2
            start = (2.0 * self.scale) ** (1.0 / (1.0 - self.gamma))
            object.__setattr__(self, "domain_start", start)
        else:
            if not (self.kappa > 0.0):
                raise ConfigError("log-power cutoff needs kappa > 0")
            object.__setattr__(self, "domain_start", self._logpower_start())

    def _logpower_start(self) -> float:
        # concavity of s (log x)^kappa holds from x = e^(kappa - 1); beyond
        # that, locate the last crossing of h(x) = x/2 by a scan plus bisection
        concave_from = math.exp(max(self.kappa - 1.0, 0.0))
        grid = np.geomspace(1.0 + 1e-9, 1e12, 4001)
        vals = 0.5 * grid - self(grid)
        below = np.nonzero(vals <= 0.0)[0]
        if below.size == 0:
            return max(concave_from, 1.0 + 1e-9)
        i = below[-1]
        if i + 1 >= grid.size:
            raise ConfigError("cutoff exceeds x/2 beyond the probed range")
        lo, hi = grid[i], grid[i + 1]
        for _ in range(100):
            mid = math.sqrt(lo * hi)
            if 0.5 * mid - self(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        return max(hi, concave_from)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "power":
            v = self.scale * np.power(x, self.gamma)
        else:
            if np.any(x <= 1.0):
                raise ValueError("log-power cutoff is defined for x > 1 only")
            v = self.scale * np.power(np.log(x), self.kappa)
        return v if v.ndim else float(v)

    def with_scale(self, scale: float) -> "CutoffFunction":
        if self.family == "power":
            return CutoffFunction.power(scale, self.gamma)
        return CutoffFunction.logpower(scale, self.kappa)

    def describe(self) -> str:
        if self.family == "power":
            return f"{self.scale:g} * x^{self.gamma:g}"
        return f"{self.scale:g} * (log x)^{self.kappa:g}"


def _clamp_at_zero(name: str, value, x, r):
    # max(0.0, nan) is 0.0, which would hide a failed family hook inside the
    # contraction terms as a kernel that vanishes
    nan = np.isnan(value)
    if np.count_nonzero(nan):
        i = np.flatnonzero(nan)[0]
        raise ValueError(f"{name} kernel is NaN at x={np.ravel(x)[i]:g}, r={np.ravel(r)[i]:g}")
    return np.maximum(value, 0.0)


def K_kernel(dist: SummandDistribution, x, r):
    """Relative overshoot of the tail over a shift r: tail(x-r)/tail(x) - 1,
    0 at r = 0. Vectorized over ``x`` and ``r``; a float for scalar input.
    inf where it overflows, without a warning, as _inf_on_overflow gives
    the envelopes: the contraction terms read an inf K as no contraction,
    and _sup_pair refuses a test function that is inf."""
    x, r = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(r, dtype=float))
    if np.any(r < 0.0):
        raise ValueError("r must be non-negative")
    shift = r > 0.0
    if np.any(shift & (r >= x)):
        raise ValueError("requires r < x")
    # stability beyond floating-point tail underflow is the distribution's
    # job: k_value works on ratios, never on the raw tails
    with np.errstate(over="ignore"):
        k = np.where(shift, dist.k_value(x, r), 0.0)
    k = _clamp_at_zero("K", k, x, r)
    return k if k.ndim else float(k)


def _legendre(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(t) and P_n'(t) by the three-term recurrence, for |t| < 1."""
    p0, p1 = np.ones_like(t), t
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
    return p1, n * (t * p1 - p0) / (t * t - 1.0)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1]: the
    roots of P_n by Newton's method from -cos(pi (i - 1/4) / (n + 1/2)),
    which converges quadratically from there, and the weights
    2 / ((1 - t^2) P_n'(t)^2). numpy.polynomial's leggauss gives the same
    nodes, but importing that package adds 0.8 MB to peak resident memory."""
    t = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p, dp = _legendre(n, t)
        t = t - p / dp
    t = 0.5 * (t - t[::-1])
    dp = _legendre(n, t)[1]
    return t, 2.0 / ((1.0 - t * t) * dp * dp)


# J takes the 24-node rule on each panel, and the gap to the 16-node rule is
# the panel's error estimate
_GL24 = _gauss_legendre(24)
_GL16 = _gauss_legendre(16)
_GL_NODES = np.concatenate((_GL24[0], _GL16[0]))
# a panel whose error estimate exceeds this share of |J| is halved, for at
# most _J_HALVINGS rounds
_J_RTOL = 1e-10
_J_HALVINGS = 8
# an estimate at most the smallest normal double passes: below it a J of
# subnormal size cannot meet _J_RTOL, and an error that small moves no term
_J_ATOL = 2.0**-1022


def _j_panels(x: np.ndarray, r: np.ndarray) -> tuple:
    """Panels (owner, lo, hi, right) covering [r, x - r] at every point
    (x, r) with r < x/2, split at x/2: panel i of point owner[i] spans y in
    [lo, hi] if it is a left panel, x - y in [lo, hi] if ``right``. Both
    halves cut at r * 2^k below x/2, so the panels grow geometrically from
    both ends: the integrand is steep near y = r and has a spike of width
    about r at y -> x - r. A point's panels are adjacent, its left ones
    first, each half in increasing order."""
    half = x / 2.0
    # r * 2^k from k = 0 until every point has passed x/2, clipped to x/2,
    # where every step beyond it leaves an empty panel; both halves take the
    # same cuts
    k = np.arange(int(math.log2(half.max()) - math.log2(r.min())) + 3)
    ends = np.minimum(np.ldexp(r[:, None], k), half[:, None])
    ends = np.repeat(ends[:, None], 2, axis=1)
    lo, hi = ends[..., :-1], ends[..., 1:]
    keep = hi > lo
    owner, side, _ = keep.nonzero()
    return owner, lo[keep], hi[keep], side == 1


def _gauss_panels(dist: SummandDistribution, x: np.ndarray, lo, hi, right) -> tuple:
    """The 24-node value and |24-node - 16-node| on each panel, panel i at
    the point x[i], from one call of the family's array integrand. A right
    panel's nodes are placed in x - y, which the integrand receives as u:
    the double nearest a node y near x is up to ulp(x)/2 away, a visible
    shift on a spike of width about r. Each panel's sums are formed from its
    own row alone (a matrix product gives a row a last bit that depends on
    the rows around it), so a panel's value is the same double in any batch."""
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    y = mid[:, None] + rad[:, None] * _GL_NODES
    x = x[:, None]
    u = x - y
    # the rows of right panels hold their nodes in u
    y[right], u[right] = u[right], y[right]
    vals = dist.j_integrand(x)(y, u)
    i24 = rad * (vals[:, :24] * _GL24[1]).sum(axis=1)
    i16 = rad * (vals[:, 24:] * _GL16[1]).sum(axis=1)
    return i24, np.abs(i24 - i16)


def J_kernel(dist: SummandDistribution, x, r):
    """Integral of tail(x-y)/tail(x) against the severity density over [r, x-r].

    Vectorized over ``x`` and ``r``; a float for scalar input. Empty for
    r >= x/2 (0 at equality, rejected beyond). The family decides the
    method, here alone: on a power tail (``tail_power_terms``) J is the upper
    end S + E of the series enclosure of ``_j_series``, an upper bound on J,
    which is what f2 and f3 need, as q J enters both with a plus sign. Any
    other family integrates its ``j_integrand`` by ``_j_quadrature``. Either
    way J at a point is the same double in any batch, and a NaN value is
    reported rather than silently returned, naming the first failing point
    in array order.
    """
    x, r = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(r, dtype=float))
    if not (r > 0.0).all():
        raise ValueError("r must be positive")
    half = x / 2.0
    if (r > half).any():
        raise ValueError("requires r <= x/2")
    series = _power_series(dist)
    if series is not None:
        # at r = x/2 the series is 0 up to E's underflow allowance
        S, E = _j_series(series, x.ravel(), r.ravel())
        J = _clamp_at_zero("J", np.where(r == half, 0.0, (S + E).reshape(x.shape)), x, r)
    else:
        J = np.zeros(x.shape)
        live = np.flatnonzero(r != half)
        if live.size:
            J.flat[live] = _j_quadrature(dist, x.ravel()[live], r.ravel()[live])
    return J if J.ndim else float(J)


# the unit roundoff of a double
_U = 2.0**-53
# J's series takes each binomial series until the terms it drops sum to at
# most _J_SERIES_TAIL of the whole series, and refuses a tail whose steepest
# exponent needs more than _J_TERMS_MAX terms: Pareto 2.2 takes 71 and 75
# terms in its two halves, Pareto 150 takes 351 and 352, and exponents up to
# about 650 fit
_J_SERIES_TAIL = 2.0**-64
_J_TERMS_MAX = 1024


@functools.lru_cache(maxsize=64)
def _binomial_series(b: float) -> np.ndarray | None:
    """The terms c_k = (b)_k / k! / 2^k of the binomial series of (1 - t)^-b
    at t = 1/2, which sum to 2^b, for k < N: N the least count whose
    dropped terms sum to at most _J_SERIES_TAIL 2^b, by the geometric series
    of the term ratio (b + k) / (2 (k + 1)), which decreases in k for b > 1.
    None when N exceeds _J_TERMS_MAX; the terms peak near k = b. b is a
    ratio of integers, and so is each c_k, rounded once: it is within _U of
    its value. Read-only: the cache hands it to every caller."""
    if not b < _J_TERMS_MAX:
        return None
    p, q = b.as_integer_ratio()
    num, den, c = 1, 1, []
    tail = _J_SERIES_TAIL * 2.0**b
    for k in range(_J_TERMS_MAX):
        c.append(num / den)
        # c_k ratio / (1 - ratio) bounds the terms after k once ratio < 1
        ratio = (b + k) / (2.0 * (k + 1))
        if ratio < 1.0 and c[k] * ratio <= tail * (1.0 - ratio):
            c = np.array(c)
            c.flags.writeable = False
            return c
        num *= p + k * q
        den *= 2 * q * (k + 1)
    return None


class _Series(NamedTuple):
    """J's series on a power tail sum_i c_i x^-a_i: one row per term of each
    binomial series of ``_j_series``, over all pairs of tail terms and both
    halves. Row m at ell is

        expm1(neg_abs_e_m ell) gain_m V [exp(neg_k_m ell)],

    V the weight w_p (p = ``far``) times the power that ``combo`` names, and
    the last factor on the first len(neg_k) rows alone, those with e < 0.
    gain is -coef / |e|; a row at e = 0 takes |e| = 2^-300, where expm1 is
    its argument, so that the row is coef ell.

    E reads the rows ``edge`` with the relative weights edge_c + edge_l ell:
    the rows with e < 0, for the rounding of exp(neg_k ell), and the last
    row of each series, whose factor ratio / (1 - ratio) bounds the terms it
    drops. Every other error is a share of S (``s_err``) or of the
    weights, or the underflow allowance ``floor``."""

    terms: tuple
    exponents: np.ndarray
    neg_abs_e: np.ndarray
    gain: np.ndarray
    combo: np.ndarray
    far: np.ndarray
    neg_k: np.ndarray
    edge: np.ndarray
    edge_c: np.ndarray
    edge_l: np.ndarray
    s_err: float
    floor: float
    weight_err: float


@functools.lru_cache(maxsize=16)
def _series_table(terms: tuple) -> _Series | None:
    """The rows of J's series for the tail terms (c_i, a_i), built on first
    use for each tail and shared by equal ones; None when an exponent needs
    more than _J_TERMS_MAX terms."""
    n = len(terms)
    exponents = np.array([a for _, a in terms])
    # the weights' error, 6 u |log w_p| plus this: the shifted log-sum-exp
    # behind them is at most -log of the flattest term's coefficient. A
    # one-term tail has weight 1 exactly
    flat = -math.log(terms[int(np.argmin(exponents))][0])
    weight_err = _U * (24.0 * flat + 12.0 * math.log(n) + 5.0 * n + 6.0) if n > 1 else 0.0
    parts, tails = [], []
    for i, (ci, ai) in enumerate(terms):
        for j, (cj, aj) in enumerate(terms):
            # the left half expands (1 - t)^-a_i and integrates t^(k - a_j - 1),
            # under the weight w_i; the right one, in s = 1 - t, expands
            # (1 - s)^-(a_j + 1) and integrates s^(k - a_i), under w_j
            for b, shift, near, far, scale in ((ai, 0, j, i, cj * aj),
                                               (aj + 1.0, 1, i, j, 0.5 * ci * aj)):
                c = _binomial_series(b)
                if c is None:
                    return None
                k = np.arange(c.size)
                e = (k + shift) - terms[near][1]  # one rounding: within u of e
                abs_e = np.where(e == 0.0, 2.0**-300, np.abs(e))
                below = e < 0.0
                parts.append((below, -abs_e, -scale * c / abs_e,
                              far * 2 * n + np.where(below, near, n + near), np.full(c.size, far),
                              -(k + shift).astype(float), scale * c))
                ratio = (b + c.size - 1.0) / (2.0 * c.size)
                tails.append(ratio / (1.0 - ratio))
    # the rows with e < 0 first: they alone take exp(-k ell)
    below, *rows = (np.concatenate(p) for p in zip(*parts))
    order = np.concatenate((np.flatnonzero(below), np.flatnonzero(~below)))
    neg_abs_e, gain, combo, far, neg_k, coef = (v[order] for v in rows)
    n_below = int(np.count_nonzero(below))
    M = coef.size
    position = np.empty(M, dtype=int)
    position[order] = np.arange(M)
    last = position[np.cumsum([p[0].size for p in parts]) - 1]
    # rows: 24 u; the row sum: at most 26 + log2 M additions; the final
    # sums: 2 u
    s_err = (24.0 + 28.0 + math.log2(M)) * _U + weight_err
    # underflow: each row is at most coef ell, and ell <= log(x/2) < 710
    floor = 2.0**-1071 * (710.0 * math.fsum(coef) + M)
    return _Series(terms, exponents, neg_abs_e, gain, combo, far, neg_k[:n_below],
                   np.concatenate((np.arange(n_below), last)),
                   np.concatenate((np.zeros(n_below), tails)),
                   np.concatenate((-5.0 * _U * neg_k[:n_below], np.zeros(last.size))),
                   s_err, floor, weight_err)


def _power_series(dist: SummandDistribution) -> _Series | None:
    """J's series for a power-type family, None for any other; a tail too
    steep for the series is refused. The kernel sweep asks for it before K,
    whose plateau branch x^a overflows at such an exponent."""
    terms = dist.tail_power_terms
    if terms is None:
        return None
    series = _series_table(tuple(terms))
    if series is None:
        raise ConfigError(f"severity tail too steep for the J kernel's series, which takes at "
                          f"most {_J_TERMS_MAX} terms per half: {dist!r}")
    return series


def _j_series(series: _Series, x: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The enclosure [S, S + E] of J at the points (x, r) with 0 < r <= x/2,
    on the power tail sum_i c_i x^-a_i of ``series``; S = 0 at r = x/2.

    With rr = max(r, 1) and u = rr/x, J is, where u < 1/2,

        sum_ij c_i c_j a_j x^(-a_i - a_j) / tail(x) * I_ij(u),
        I_ij(u) = integral_u^(1-u) t^(-a_j - 1) (1 - t)^(-a_i) dt,

    plus, where r < 1, the part of [r, x - r] where x - y < 1 and
    tail(x - y) = 1 (the density vanishes below 1):
    (tail(max(1, x - 1)) - tail(x - r)) / tail(x), formed term by term as
    w_i (x/b)^a_i expm1(a_i log(b/m)), with m = max(1, x - 1), b = x - r and
    the weights w_i = c_i x^-a_i / tail(x).

    I_ij is split at 1/2. On the left (1 - t)^-a_i is expanded; on the
    right, in s = 1 - t, (1 - s)^(-a_j - 1). Each term is a binomial
    coefficient times G(e) = integral_u^(1/2) t^(e - 1) dt, with e = k - a_j
    or k + 1 - a_i, and G(e) = base^e ell phi(|e| ell), where
    ell = log(1/(2u)), phi(z) = -expm1(-z)/z, phi(0) = 1, and base is u for
    e < 0 and 1/2 otherwise. Every term is positive. The weights come from a
    log-sum-exp, and base^e x^-a_j is written as a power of rr or of x/2
    times (2u)^k = exp(-k ell), so no factor overflows. A power can
    underflow where its term, whose coefficient reaches 2^b, does not; E's
    underflow allowance covers what it loses, so on a steep tail the
    enclosure of a J below about 2^(b - 1022) is wide.

    E bounds |S - J| to first order in the unit roundoff u = 2^-53, with
    exp, expm1, log, log1p and power within one ulp:
    - the dropped terms: a term's ratio to the one before is at most
      (b + k)/(2 (k + 1)), as t <= 1/2 on [u, 1/2], so the geometric series
      from each series' last term bounds them;
    - each term's rounding: 24 u, 5 u k ell for exp(-k ell), and, for its
      weight w_p, 6 u |log w_p| plus a constant of the tail;
    - the row sum: numpy sums a contiguous row pairwise, in blocks of at
      most 128 terms by eight running sums, so at most 26 + log2 M additions
      lie between a term and S, M the number of rows;
    - underflow: 2^-1071 (710 sum|coef| + M), as ell < 710;
    - the unit-threshold piece: (14 + 6 a_i (log(x/b) + log(b/m))) u and the
      weight's error on each term; then the final sums.
    Each point reads only its own row, by elementwise products and a row
    sum, so S and E at a point are the same doubles in any batch.
    """
    a = series.exponents
    n = a.size
    rr = np.maximum(r, 1.0)
    two_r = rr + rr
    # ell = log1p(q) >= 0 within 4 u: q = (x - 2 rr) / (2 rr) is within 2 u,
    # x - 2 rr exact where 2 rr >= x/2, and log1p's condition number is at
    # most 1 for q >= 0. ell = 0, where rr >= x/2, makes every row 0
    ell = np.log1p(np.maximum(x - two_r, 0.0) / two_r)
    ell_col = ell[:, None]
    # the powers rr^-a_q, used where e < 0, and (x/2)^-a_q, where e >= 0;
    # times the weights w_p of a tail of more than one term
    P = np.power(np.stack((rr, 0.5 * x), axis=1)[:, :, None], -a).reshape(x.size, 2 * n)
    # a one-term tail has weight 1
    log_w = _log_power_weights(series.terms, x)[0].T if n > 1 else np.zeros((x.size, 1))
    if n > 1:
        P = (np.exp(log_w)[:, :, None] * P[:, None, :]).reshape(x.size, 2 * n * n)
    T = np.expm1(series.neg_abs_e * ell_col)
    T *= series.gain
    T *= P[:, series.combo]
    below = T[:, : series.neg_k.size]
    below *= np.exp(series.neg_k * ell_col)
    S = T.sum(axis=1)
    E = (series.s_err * S + series.floor
         + (T[:, series.edge] * (series.edge_c + series.edge_l * ell_col)).sum(axis=1))
    if n > 1:
        E += (T * (6.0 * _U * np.abs(log_w))[:, series.far]).sum(axis=1)
    low = r < 1.0
    if low.any():
        m = np.maximum(x - 1.0, 1.0)
        b = x - r
        # b - m: 1 - r for x >= 2, (x - 1) - r below, where x - 1 is exact
        gap = np.maximum(np.where(x >= 2.0, 1.0 - r, (x - 1.0) - r), 0.0)
        up, step = np.log1p(r / b)[:, None], np.log1p(gap / m)[:, None]
        U = np.where(low[:, None], np.exp(log_w + a * up) * np.expm1(a * step), 0.0)
        U_err = 7.0 * _U * np.abs(log_w) + series.weight_err + _U * (14.0 + 6.0 * a * (up + step))
        E += (U * U_err).sum(axis=1) + (n + 2) * _U * U.sum(axis=1)
        S = S + U.sum(axis=1)
    return S, E


def _j_quadrature(dist: SummandDistribution, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J at the points (x, r) with 0 < r < x/2 by the 24-node Gauss-Legendre
    rule on panels that grow geometrically from both ends (``_j_panels``),
    the panels of every point evaluated by one call of the family's
    integrand. Every panel whose 24- and 16-node rules differ by more than
    ``_J_RTOL`` of its own point's |J|, and by more than ``_J_ATOL``, is
    halved, all in one pass per round, and each round evaluates only the two
    halves of the failing panels. A
    panel's sums are formed from its own nodes alone and a point's J from
    its own panels, so J at a point is the same double in any batch. A point
    still failing after ``_J_HALVINGS`` rounds, and a NaN value, are
    reported, naming the first failing point in array order."""
    owner, lo, hi, right = _j_panels(x, r)
    vals, errs = _gauss_panels(dist, x[owner], lo, hi, right)
    for halvings in range(_J_HALVINGS + 1):
        # each point sums its panels in their order: the first ones, each
        # failing one replaced by its lower half, then the upper halves in
        # the order of the rounds that made them
        J = np.bincount(owner, vals, x.size)
        bad = errs > np.maximum(_J_RTOL * np.abs(J), _J_ATOL)[owner]
        if not bad.any():
            break
        if halvings == _J_HALVINGS:
            i = int(owner[bad].min())
            # a NaN before the first point that did not converge fails first
            _clamp_at_zero("J", J[:i], x[:i], r[:i])
            err = np.bincount(owner, errs, x.size)[i]
            raise RuntimeError(
                f"J kernel quadrature did not converge at x={x[i]:g}, r={r[i]:g}: "
                f"value {J[i]:.6e}, error estimate {err:.2e}"
            )
        # the failing panels become their lower halves, and their upper
        # halves join at the end: both evaluated in one call
        mid = 0.5 * (lo + hi)[bad]
        n = mid.size
        at, side = np.tile(owner[bad], 2), np.tile(right[bad], 2)
        v, e = _gauss_panels(dist, x[at], np.concatenate((lo[bad], mid)),
                             np.concatenate((mid, hi[bad])), side)
        upper_hi = hi[bad]
        vals[bad], errs[bad], hi[bad] = v[:n], e[:n], mid
        owner, right = np.concatenate((owner, at[n:])), np.concatenate((right, side[n:]))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((hi, upper_hi))
        vals, errs = np.concatenate((vals, v[n:])), np.concatenate((errs, e[n:]))
    # a NaN fails every comparison and reaches _clamp_at_zero
    return _clamp_at_zero("J", J, x, r)


def _inf_on_overflow(fn, *args) -> float:
    """fn(*args), or inf where it overflows: a dominator is still one at inf,
    and an envelope built on it is not finite and certifies nothing."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def pareto_K_envelope(alpha: float, x: float, h: float) -> float:
    """Closed-form dominator of K(x, h) for the unit-threshold Pareto:
    alpha * h * x^alpha / (x - h)^(alpha + 1), valid for h < x/2; inf where
    it overflows."""
    if not (0.0 < h < x / 2.0):
        raise ValueError("requires 0 < h < x/2")
    u = h / x
    return alpha * u * _inf_on_overflow(math.exp, -(alpha + 1.0) * math.log1p(-u))


def pareto_J_envelope(alpha: float, x: float, h: float) -> float:
    """Closed-form dominator of J(x, h) for the unit-threshold Pareto:
    2 (2/h)^alpha + (4/x)^alpha, valid for h < x/2; inf where it overflows."""
    if not (0.0 < h < x / 2.0):
        raise ValueError("requires 0 < h < x/2")
    return 2.0 * _inf_on_overflow(pow, 2.0 / h, alpha) + _inf_on_overflow(pow, 4.0 / x, alpha)


def weibull_K_envelope(beta: float, x, h):
    """Dominator of K(x, h) for the Weibull tail exp(-x^beta):
    expm1(beta * h * (x - h)^(beta - 1)), valid for h < x/2. Vectorized
    over ``x`` and ``h``."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if not np.all((0.0 < h) & (h < x / 2.0)):
        raise ValueError("requires 0 < h < x/2")
    v = np.expm1(beta * h * np.power(x - h, beta - 1.0))
    return v if v.ndim else float(v)


def weibull_J_envelope(beta: float, x, r):
    """Dominator of J(x, r) for the Weibull tail exp(-x^beta):
    exp(-(1-beta) r^beta)/(1-beta) + exp(-(2^(1-beta)-1) x^beta), valid for
    r <= x/2. Vectorized over ``x`` and ``r``."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 < r) & (r <= x / 2.0)):
        raise ValueError("requires 0 < r <= x/2")
    head = np.exp(-(1.0 - beta) * np.power(r, beta)) / (1.0 - beta)
    far = np.exp(-(2.0 ** (1.0 - beta) - 1.0) * np.power(x, beta))
    v = head + far
    return v if v.ndim else float(v)


class TestFunction:
    """Base class for the shape g(x) the error bound is expressed against. A
    test function defines ``evaluate(xs)``, g over an array as one numpy
    expression, and ``describe()``; calling it gives g at one point.

    ``power_tail`` is the triple (start, coef, exponent) when
    g(x) = coef * x^(-exponent) for every x >= start, else None. The power
    envelopes of the far tail and the certificate's tail coefficient read it.
    """

    power_tail: tuple[float, float, float] | None = None

    def __call__(self, x: float) -> float:
        return float(self.evaluate(x))

    def evaluate(self, xs) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerTestFunction(TestFunction):
    """g(x) = coef * x^(-exponent)."""

    coef: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        for name, value in (("coef", self.coef), ("exponent", self.exponent)):
            if not (value > 0.0):
                raise ConfigError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value:g}")

    @property
    def power_tail(self) -> tuple[float, float, float]:
        return (0.0, self.coef, self.exponent)

    def evaluate(self, xs):
        return self.coef * np.power(np.asarray(xs, dtype=float), -self.exponent)

    def describe(self) -> str:
        return f"{self.coef:g} * x^-{self.exponent:g}"


@dataclass(frozen=True)
class KKernelTestFunction(TestFunction):
    """g(x) = K(x, h(x)), the overshoot kernel along the cutoff."""

    dist: SummandDistribution
    h: CutoffFunction

    def evaluate(self, xs):
        return K_kernel(self.dist, xs, self.h(xs))

    def describe(self) -> str:
        return f"K(x, h(x)) with h(x) = {self.h.describe()}"


@dataclass(frozen=True)
class MonotoneEnvelope:
    """Non-increasing piecewise-linear majorant of a tabulated function."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or g.shape != v.shape:
            raise ValueError("envelope needs matching 1-d grid and values, length >= 2")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("envelope grid must be strictly increasing")
        if np.any(np.diff(v) > 1e-12 * np.maximum(np.abs(v[:-1]), 1e-300)):
            raise ValueError("envelope values must be non-increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_table(xs, values) -> "MonotoneEnvelope":
        """Backward running maximum: the smallest non-increasing majorant on
        the table's grid."""
        v = np.asarray(values, dtype=float)
        env = np.maximum.accumulate(v[::-1])[::-1]
        return MonotoneEnvelope(grid=np.asarray(xs, dtype=float), values=env)

    def __call__(self, x):
        """The envelope at x, vectorized; the last value beyond the grid."""
        x = np.asarray(x, dtype=float)
        below = x < self.grid[0] - 1e-9 * max(1.0, abs(self.grid[0]))
        if np.any(below):
            raise ValueError(f"x={x[below][0]:g} below the envelope range start {self.grid[0]:g}")
        return np.interp(x, self.grid, self.values)


@dataclass(frozen=True)
class SplicedTestFunction(TestFunction):
    """Envelope of the tabulated relative error up to bstar, then a power tail
    kappa_splice * tailg(x) chosen so the two pieces meet continuously."""

    bstar: float
    envelope: MonotoneEnvelope
    kappa_splice: float
    tailg: PowerTestFunction

    def evaluate(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs >= self.bstar, self.kappa_splice * self.tailg.evaluate(xs),
                        self.envelope(xs))

    @property
    def power_tail(self) -> tuple[float, float, float]:
        return (self.bstar, self.kappa_splice * self.tailg.coef, self.tailg.exponent)

    def describe(self) -> str:
        return (
            f"running max of the error table on [{self.envelope.grid[0]:g}, {self.bstar:g}], "
            f"then {self.power_tail[1]:g} * x^-{self.tailg.exponent:g}"
        )


def build_spliced_g(delta_table, bstar: float, tailg: PowerTestFunction) -> SplicedTestFunction:
    """Splice the monotone envelope of a relative-error table with a power tail.

    The envelope is the backward running maximum of the table values on
    [table start, bstar]; the power piece kappa * tailg(x) is anchored so that
    kappa * tailg(bstar) equals the envelope value at bstar.
    """
    xs = np.asarray(delta_table.xs, dtype=float)
    dv = np.asarray(delta_table.delta, dtype=float)
    if not (xs[0] <= bstar <= xs[-1]):
        raise ConfigError(
            f"bstar={bstar:g} outside the table range [{xs[0]:g}, {xs[-1]:g}]"
        )
    sel = xs <= bstar
    sub_x = xs[sel]
    sub_v = dv[sel]
    if sub_x.size == 0 or sub_x[-1] < bstar - 1e-9 * max(1.0, bstar):
        sub_x = np.append(sub_x, bstar)
        sub_v = np.append(sub_v, np.interp(bstar, xs, dv))
    if sub_x.size < 2:
        raise ConfigError("table too coarse to build an envelope up to bstar")
    env = MonotoneEnvelope.from_table(sub_x, sub_v)
    anchor = float(env.values[-1])
    if anchor <= 0.0:
        raise ConfigError(f"relative error at the splice point g.bstar = {bstar:g} is "
                          f"{anchor:g}, not positive")
    kappa = anchor / tailg(bstar)
    return SplicedTestFunction(bstar=float(bstar), envelope=env, kappa_splice=kappa, tailg=tailg)


def optimal_pareto_g(alpha: float, gamma: float) -> PowerTestFunction:
    """Power test function with the best decay exponent for a Pareto severity
    and cutoff s * x^gamma: the exponent is min(alpha * gamma, 1 - gamma)."""
    if not (alpha > 1.0):
        raise ValueError("alpha must exceed 1")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    return PowerTestFunction(coef=1.0, exponent=min(alpha * gamma, 1.0 - gamma))
