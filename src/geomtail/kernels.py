"""Overshoot kernels, cutoff functions, and test functions.

The two kernels measure how much heavier the tail of X is near x than at x:

    K(x, r) = tail(x - r) / tail(x) - 1
    J(x, r) = integral_r^{x-r} tail(x - y)/tail(x) * density(y) dy

A cutoff function h splits the integration range, and a test function g is
the shape the final relative-error bound is expressed against. The spliced
test function follows a monotone envelope of the exact relative error up to a
splice point and a pure power beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import SummandDistribution

__all__ = [
    "CutoffFunction",
    "K_kernel",
    "J_kernel",
    "validate_h",
    "HValidationReport",
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
        if self.family == "power":
            if not (self.scale > 0.0):
                raise ValueError("scale must be positive")
            if not (0.0 < self.gamma < 1.0):
                raise ValueError("power cutoff needs gamma in (0, 1)")
            # solve s x^gamma = x/2
            start = (2.0 * self.scale) ** (1.0 / (1.0 - self.gamma))
            object.__setattr__(self, "domain_start", start)
        elif self.family == "logpower":
            if not (self.scale > 0.0):
                raise ValueError("scale must be positive")
            if not (self.kappa > 0.0):
                raise ValueError("log-power cutoff needs kappa > 0")
            object.__setattr__(self, "domain_start", self._logpower_start())
        else:
            raise ValueError(f"unknown cutoff family {self.family!r}")

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
            raise ValueError("cutoff exceeds x/2 beyond the probed range")
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
    0 at r = 0. Vectorized over ``x`` and ``r``; a float for scalar input."""
    x, r = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(r, dtype=float))
    if np.any(r < 0.0):
        raise ValueError("r must be non-negative")
    shift = r > 0.0
    if np.any(shift & (r >= x)):
        raise ValueError("requires r < x")
    # stability beyond floating-point tail underflow is the distribution's
    # job: k_value works on ratios, never on the raw tails
    k = _clamp_at_zero("K", np.where(shift, dist.k_value(x, r), 0.0), x, r)
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


def _j_panels(dist: SummandDistribution, x: np.ndarray, r: np.ndarray) -> tuple:
    """Panels (owner, lo, hi, right) covering [r, x - r] at every point
    (x, r) with r < x/2, split at x/2: panel i of point owner[i] spans y in
    [lo, hi] if it is a left panel, x - y in [lo, hi] if ``right``. Both
    halves cut at r * 2^k below x/2, and at the family's breakpoints, so the
    panels grow geometrically from both ends: the integrand is steep near
    y = r and has a spike of width about r at y -> x - r. A point's panels
    are adjacent, its left ones first, each half in increasing order."""
    half = x / 2.0
    xc, rc, hc = x[:, None], r[:, None], half[:, None]
    # r * 2^k from k = 0 until every point has passed x/2
    k = np.arange(int(math.log2(half.max()) - math.log2(r.min())) + 3)
    breaks = dist.integrand_breakpoints(x)
    cuts = np.empty((x.size, len(breaks)))
    for j, p in enumerate(breaks):
        cuts[:, j] = p
    # a cut y goes to the left half, x - y to the right one; every cut is
    # clipped to [r, x/2], where a cut outside that range (and every step
    # beyond it) lands on r or x/2 and leaves an empty panel
    ends = np.empty((x.size, 2, k.size + cuts.shape[1]))
    ends[:, :, : k.size] = np.ldexp(rc, k)[:, None]
    ends[:, 0, k.size :] = cuts
    ends[:, 1, k.size :] = xc - cuts
    ends = np.minimum(np.maximum(ends, rc[:, None]), hc[:, None])
    ends.sort()
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
    r >= x/2 (0 at equality, rejected beyond). J is the 24-node
    Gauss-Legendre rule on panels that grow geometrically from both ends
    (``_j_panels``), the panels of every point evaluated by one call of the
    family's integrand. Every panel whose 24- and 16-node rules differ by
    more than ``_J_RTOL`` of its own point's |J| is halved, all in one pass
    per round, and each round evaluates only the two halves of the failing
    panels. A panel's sums are formed from its own nodes alone and a point's
    J from its own panels, so J at a point is the same double in any batch.
    A point still failing after ``_J_HALVINGS`` rounds, and a NaN value, are
    reported rather than silently returned, naming the first failing point
    in array order.
    """
    x, r = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(r, dtype=float))
    if not np.all(r > 0.0):
        raise ValueError("r must be positive")
    if np.any(r > x / 2.0):
        raise ValueError("requires r <= x/2")
    J = np.zeros(x.shape)
    live = np.flatnonzero(r != x / 2.0)
    if live.size:
        J.flat[live] = _j_quadrature(dist, x.ravel()[live], r.ravel()[live])
    return J if J.ndim else float(J)


def _j_quadrature(dist: SummandDistribution, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J at the points (x, r) with 0 < r < x/2, as J_kernel describes it."""
    owner, lo, hi, right = _j_panels(dist, x, r)
    vals, errs = _gauss_panels(dist, x[owner], lo, hi, right)
    for halvings in range(_J_HALVINGS + 1):
        # each point sums its panels in their order: the first ones, each
        # failing one replaced by its lower half, then the upper halves in
        # the order of the rounds that made them
        J = np.bincount(owner, vals, x.size)
        bad = errs > _J_RTOL * np.abs(J)[owner]
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


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    first_violation_x: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class HValidationReport:
    """Outcome of checking a cutoff function on a grid.

    The geometric conditions (increasing, concave, below x/2) are intrinsic
    to h. The kernel conditions tie h to a severity distribution and fail for
    legitimately usable cutoffs whose K kernel does not vanish, so they are
    reported separately rather than folded into a single verdict.
    """

    grid: np.ndarray
    conditions: dict

    @property
    def geometric_ok(self) -> bool:
        return all(self.conditions[k].passed for k in ("increasing", "concave", "half"))

    @property
    def kernel_ok(self) -> bool:
        return all(self.conditions[k].passed for k in ("J_small", "K_small"))


def validate_h(
    dist: SummandDistribution,
    h: CutoffFunction,
    grid,
) -> HValidationReport:
    """Check cutoff conditions on a grid: monotone, concave, h <= x/2, and the
    kernel smallness conditions J(x, h(x)) <= 2 * tail(h(x)) and
    K(x, h(x)) <= tail(h(x))."""
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 3 or np.any(np.diff(xs) <= 0.0):
        raise ValueError("grid must be increasing with at least 3 points")
    hv = np.asarray(h(xs), dtype=float)

    conditions: dict[str, ConditionResult] = {}

    dif = np.diff(hv)
    bad = np.nonzero(dif < -1e-12 * np.maximum(1.0, np.abs(hv[:-1])))[0]
    conditions["increasing"] = ConditionResult(bad.size == 0, xs[bad[0] + 1] if bad.size else None)

    # concavity via chord slopes, valid on arbitrary grids
    slopes = dif / np.diff(xs)
    sbad = np.nonzero(np.diff(slopes) > 1e-9 * np.maximum(np.abs(slopes[:-1]), 1e-30))[0]
    conditions["concave"] = ConditionResult(sbad.size == 0, xs[sbad[0] + 2] if sbad.size else None)

    hbad = np.nonzero(hv > xs / 2.0 + 1e-12 * xs)[0]
    conditions["half"] = ConditionResult(hbad.size == 0, xs[hbad[0]] if hbad.size else None)

    # the kernel conditions where h(x) is a usable cut, (0, x/2)
    cut = (hv > 0.0) & (hv < xs / 2.0)
    xc, rc = xs[cut], hv[cut]
    th = np.asarray(dist.tail(rc), dtype=float)
    kbad = np.flatnonzero(K_kernel(dist, xc, rc) > th + 1e-12)
    k_first = float(xc[kbad[0]]) if kbad.size else None
    from .bounder import _j_chunks  # bounder imports this module

    # J in chunks up to the first violation: a J that raises after it is never met
    j_first, i = None, 0
    for J in _j_chunks(dist, xc, rc):
        over = np.flatnonzero(J > 2.0 * th[i : i + J.size] + 1e-12)
        if over.size:
            j_first = float(xc[i + over[0]])
            break
        i += J.size
    conditions["J_small"] = ConditionResult(j_first is None, j_first, "J <= 2 * tail(h)")
    conditions["K_small"] = ConditionResult(k_first is None, k_first, "K <= tail(h)")

    return HValidationReport(grid=xs, conditions=conditions)


def pareto_K_envelope(alpha: float, x: float, h: float) -> float:
    """Closed-form dominator of K(x, h) for the unit-threshold Pareto:
    alpha * h * x^alpha / (x - h)^(alpha + 1), valid for h < x/2."""
    if not (0.0 < h < x / 2.0):
        raise ValueError("requires 0 < h < x/2")
    u = h / x
    return alpha * u * math.exp(-(alpha + 1.0) * math.log1p(-u))


def pareto_J_envelope(alpha: float, x: float, h: float) -> float:
    """Closed-form dominator of J(x, h) for the unit-threshold Pareto:
    2 (2/h)^alpha + (4/x)^alpha, valid for h < x/2."""
    if not (0.0 < h < x / 2.0):
        raise ValueError("requires 0 < h < x/2")
    return 2.0 * (2.0 / h) ** alpha + (4.0 / x) ** alpha


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
        if not (self.coef > 0.0):
            raise ValueError("coef must be positive")
        if not (self.exponent > 0.0):
            raise ValueError("exponent must be positive")

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
        raise ValueError(
            f"bstar={bstar:g} outside the table range [{xs[0]:g}, {xs[-1]:g}]"
        )
    sel = xs <= bstar
    sub_x = xs[sel]
    sub_v = dv[sel]
    if sub_x.size == 0 or sub_x[-1] < bstar - 1e-9 * max(1.0, bstar):
        sub_x = np.append(sub_x, bstar)
        sub_v = np.append(sub_v, np.interp(bstar, xs, dv))
    if sub_x.size < 2:
        raise ValueError("table too coarse to build an envelope up to bstar")
    env = MonotoneEnvelope.from_table(sub_x, sub_v)
    anchor = float(env.values[-1])
    if anchor <= 0.0:
        raise ValueError("relative error at the splice point is not positive")
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
