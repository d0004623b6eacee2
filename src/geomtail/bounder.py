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
from dataclasses import dataclass, field, replace

import numpy as np

from .compound import DeltaTable, TailTable, delta_from_tails, mc_tail, panjer_tail
from .dist import (
    GeometricParams,
    ParetoDist,
    PowerMixtureDist,
    SummandDistribution,
    WeibullDist,
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
    build_spliced_g,
)

__all__ = [
    "FTerms",
    "f_terms",
    "SupResult",
    "delta_sup",
    "phi_sup",
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


def _kernel_point(dist: SummandDistribution, h: CutoffFunction, x: float) -> tuple:
    """(x, h(x), K, J, tail(h(x))): the part of the contraction terms at x
    that does not depend on the test function."""
    r = float(h(x))
    if not (0.0 < r <= x / 2.0):
        raise ValueError(f"cutoff h(x)={r:g} outside (0, x/2] at x={x:g}")
    K = K_kernel(dist, x, r)
    J = J_kernel(dist, x, r) if r < x / 2.0 else 0.0
    return x, r, K, J, float(dist.tail(r))


def _combine(params: GeometricParams, g: TestFunction, point: tuple) -> FTerms:
    """The contraction terms from the kernel values of one _kernel_point."""
    x, r, K, J, tail_r = point
    q = params.q
    gx = g(x)
    if not (gx > 0.0):
        raise ValueError(f"test function must be positive; g({x:g})={gx:g}")
    f1 = q * g(x - r) * (K + 1.0) * (1.0 - tail_r) / gx
    f2 = q * g(r) * J / gx
    f3 = (q * J + (1.0 - params.p**2) * K - q * (K + 1.0) * tail_r) / gx
    return FTerms(x=x, f1=f1, f2=f2, f3=f3)


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
    return _combine(params, g, _kernel_point(dist, h, float(x)))


@dataclass(frozen=True)
class SupResult:
    """Supremum of a contraction expression over [from_x, infinity).

    ``grid_max`` is the maximum over the evaluation grid reaching x_far;
    ``tail_bound`` is the closed-form envelope over [x_far, infinity) when
    one is available. ``value`` combines the two when the tail is certified
    and falls back to the grid maximum (with a caveat) otherwise.
    """

    value: float
    grid_max: float
    grid_argmax: float
    tail_bound: float | None
    tail_certified: bool
    note: str = ""

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class _TailEnvelopes:
    f12: float | None
    f3: float | None
    certified: bool
    note: str


def _nonincreasing(vals: np.ndarray) -> bool:
    return bool(np.all(np.diff(vals) <= 1e-9 * np.maximum(np.abs(vals[:-1]), 1e-300)))


def _power_tail_envelopes(
    dist: SummandDistribution,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    x_far: float,
) -> _TailEnvelopes:
    """Closed-form bounds on f1+f2 and f3 over [x_far, infinity) for power
    tails with a power cutoff and a power-decaying test function.

    Each bound is a finite combination of decreasing power terms whose
    decrease requires the test-function exponent to stay at or below
    min(a_min * gamma, 1 - gamma); under that condition the maximum over a
    probe grid starting at x_far dominates the whole tail.
    """
    terms = dist.tail_power_terms
    if terms is None:
        return _TailEnvelopes(None, None, False, "severity tail is not of power type")
    if h.family != "power":
        return _TailEnvelopes(None, None, False, "tail envelopes need a power cutoff")

    if isinstance(g, PowerTestFunction):
        e = g.exponent
    elif isinstance(g, SplicedTestFunction):
        e = g.tailg.exponent
        hf = float(h(x_far))
        if not (hf >= g.bstar and x_far - hf >= g.bstar):
            return _TailEnvelopes(
                None, None, False, "spliced test function not in its power regime at x_far"
            )
    else:
        return _TailEnvelopes(None, None, False, "no tail envelope for this test function")

    a_min = min(a for _, a in terms)
    a_max = max(a for _, a in terms)
    gamma = h.gamma
    if e > min(a_min * gamma, 1.0 - gamma) + 1e-9:
        return _TailEnvelopes(
            None,
            None,
            False,
            "test-function exponent exceeds min(a_min*gamma, 1-gamma); "
            "envelope terms need not decrease",
        )

    q = params.q
    xs = np.geomspace(x_far, x_far * 1e12, 40)
    r = np.asarray(h(xs), dtype=float)
    if np.any(r >= xs / 2.0):
        return _TailEnvelopes(None, None, False, "cutoff reaches x/2 beyond x_far")
    u = r / xs

    # K(x, y) <= kappa_m * y / x for y <= x/m, by convexity of the pure
    # power kernel with the largest exponent
    m = 16.0
    kappa_m = m * math.expm1(-a_max * math.log1p(-1.0 / m))
    mean_above = np.array([dist.tail_mean_above(ri) for ri in r])
    tail = dist.tail
    i1 = kappa_m * mean_above / xs + math.expm1(a_max * math.log(2.0)) * np.asarray(
        tail(xs / m), dtype=float
    )
    # from the symmetric splitting of the J integral:
    # J <= tail(r) + (2^a_max - 2) tail(x/2) + 2 I1
    j_excess = (2.0**a_max - 2.0) * np.asarray(tail(xs / 2.0), dtype=float) + 2.0 * i1
    j_env = np.asarray(tail(r), dtype=float) + j_excess

    f1 = q * np.exp(-(e + a_max) * np.log1p(-u))
    f2 = q * np.exp(-e * np.log(u)) * j_env
    # sharp per-term bound on K / tail(x): tail(x) >= c_min x^(-a_min), and
    # each numerator term c x^(-a) ((1-u)^(-a) - 1) decreases after the
    # division once e <= 1 - gamma
    c_min = next(c for c, a in terms if a == a_min)
    k_bound = (
        sum(c * np.power(xs, a_min - a) * np.expm1(-a * np.log1p(-u)) for c, a in terms)
        / c_min
    )
    gx = np.array([g(float(x)) for x in xs])
    f3 = (q * j_excess + (1.0 - params.p**2) * k_bound) / gx

    f12 = f1 + f2
    if not (_nonincreasing(f12) and _nonincreasing(f3)):
        return _TailEnvelopes(None, None, False, "envelope terms failed the decrease check")
    return _TailEnvelopes(float(np.max(f12)), float(np.max(f3)), True, "")


def _weibull_tail_envelopes(
    dist: WeibullDist,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    x_far: float,
) -> _TailEnvelopes:
    """Closed-form bounds on f1+f2 and f3 over [x_far, infinity) for the
    Weibull tail with a log-power cutoff and the K-kernel test function.

    The remainder term f3 stays bounded only when kappa * beta > 1, or
    kappa * beta = 1 with scale >= 1; outside that region the supremum over
    the whole half-line genuinely diverges and no envelope is reported.
    """
    if h.family != "logpower":
        return _TailEnvelopes(None, None, False, "Weibull envelopes need a log-power cutoff")
    if not (isinstance(g, KKernelTestFunction) and g.dist == dist and g.h == h):
        return _TailEnvelopes(
            None, None, False, "Weibull envelopes need the matching K-kernel test function"
        )
    beta = dist.beta
    kb = h.kappa * beta
    if not (kb > 1.0 + 1e-9 or (abs(kb - 1.0) <= 1e-9 and h.scale >= 1.0 - 1e-12)):
        return _TailEnvelopes(
            None,
            None,
            False,
            "remainder term does not vanish for kappa*beta < 1 "
            "(or = 1 with scale < 1); the supremum diverges",
        )

    y0 = math.exp(h.kappa / (1.0 - beta))
    hf = float(h(x_far))
    if not (x_far - 2.0 * hf >= y0 and hf >= max(y0, 2.0 * h.domain_start)):
        return _TailEnvelopes(
            None, None, False, "x_far too small for the Weibull envelope regime"
        )

    def k_up(y: np.ndarray) -> np.ndarray:
        # K(y, h(y)) <= expm1(beta h(y) (y - h(y))^(beta-1)) by concavity
        ry = np.asarray(h(y), dtype=float)
        return np.expm1(beta * ry * np.power(y - ry, beta - 1.0))

    q = params.q
    xs = np.geomspace(x_far, x_far * 1e12, 40)
    r = np.asarray(h(xs), dtype=float)
    u = r / xs
    k_low = beta * r * np.power(xs, beta - 1.0)

    head = np.exp(-(1.0 - beta) * np.power(r, beta)) / (1.0 - beta)
    far = np.exp(-(2.0 ** (1.0 - beta) - 1.0) * np.power(xs, beta))
    j_env = head + far

    # g(x - h(x)) / g(x) <= (1 - 2u)^(beta-1) * exp(A2) with
    # A2 = beta h(x) (x - 2 h(x))^(beta-1)
    a2 = beta * r * np.power(xs - 2.0 * r, beta - 1.0)
    f1 = q * np.power(1.0 - 2.0 * u, beta - 1.0) * np.exp(a2) * (1.0 + k_up(xs))
    f2 = q * k_up(r) * j_env / k_low
    f3 = q * j_env / k_low + (1.0 - params.p**2)

    f12 = f1 + f2
    if not (_nonincreasing(f12) and _nonincreasing(f3)):
        return _TailEnvelopes(None, None, False, "envelope terms failed the decrease check")
    return _TailEnvelopes(float(np.max(f12)), float(np.max(f3)), True, "")


def _tail_envelopes(dist, params, h, g, x_far) -> _TailEnvelopes:
    if isinstance(dist, WeibullDist):
        return _weibull_tail_envelopes(dist, params, h, g, x_far)
    if dist.tail_power_terms is not None:
        return _power_tail_envelopes(dist, params, h, g, x_far)
    return _TailEnvelopes(None, None, False, "no closed-form tail envelope for this severity")


def _sup_grid(from_x: float, x_far: float, grid_ratio: float) -> np.ndarray:
    if not (from_x > 0.0 and x_far > from_x):
        raise ValueError("need 0 < from_x < x_far")
    if not (grid_ratio > 1.0):
        raise ValueError("grid_ratio must exceed 1")
    n = int(math.ceil(math.log(x_far / from_x) / math.log(grid_ratio)))
    grid = from_x * grid_ratio ** np.arange(n + 1)
    grid = grid[grid < x_far * (1.0 - 1e-12)]
    return np.append(grid, x_far)


@dataclass(frozen=True)
class _KernelSweep:
    """_kernel_point values along the sweep grid up to x_far; they do not
    depend on g, so one sweep serves every test function on the cutoff.
    ``points`` stops at the first point that raised; _sup_pair raises that
    ``error`` once g is checked on the points before it, as f_terms would."""

    dist: SummandDistribution
    h: CutoffFunction
    x_far: float
    points: tuple[tuple, ...]
    error: Exception | None


def _kernel_sweep(dist, h, from_x, x_far, grid_ratio) -> _KernelSweep:
    points, error = [], None
    try:
        if from_x < h.domain_start * (1.0 - 1e-12):
            raise ValueError(
                f"from_x={from_x:g} below the cutoff domain start {h.domain_start:g}"
            )
        for x in _sup_grid(from_x, x_far, grid_ratio):
            points.append(_kernel_point(dist, h, float(x)))
    except (ValueError, RuntimeError) as exc:
        error = exc
    return _KernelSweep(dist, h, x_far, tuple(points), error)


def _sup_pair(sweep: _KernelSweep, params, g) -> tuple[SupResult, SupResult]:
    """The f1+f2 supremum and the f3 supremum over [from_x, infinity)
    together, from one kernel sweep and the test function g."""
    f12 = np.empty(len(sweep.points))
    f3 = np.empty(len(sweep.points))
    for i, point in enumerate(sweep.points):
        ft = _combine(params, g, point)
        f12[i] = ft.f1 + ft.f2
        f3[i] = ft.f3
    if sweep.error is not None:
        raise sweep.error

    env = _tail_envelopes(sweep.dist, params, sweep.h, g, sweep.x_far)
    note = "" if env.certified else (
        f"grid maximum only; tail beyond {sweep.x_far:g} not certified: {env.note}"
    )

    def sup(vals: np.ndarray, bound: float | None) -> SupResult:
        i = int(np.argmax(vals))
        value = max(float(vals[i]), bound) if env.certified else float(vals[i])
        return SupResult(value, float(vals[i]), sweep.points[i][0], bound, env.certified, note)

    d_res, p_res = sup(f12, env.f12), sup(f3, env.f3)
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
    """Supremum of f1 + f2 over [from_x, infinity)."""
    return _sup_pair(_kernel_sweep(dist, h, from_x, x_far, grid_ratio), params, g)[0]


def phi_sup(
    dist: SummandDistribution,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    from_x: float,
    x_far: float = 1e8,
    grid_ratio: float = 1.02,
) -> SupResult:
    """Supremum of the remainder term f3 over [from_x, infinity), clamped
    below at zero."""
    return _sup_pair(_kernel_sweep(dist, h, from_x, x_far, grid_ratio), params, g)[1]


def c_interval(delta_table: DeltaTable, g: TestFunction, a: float, b: float) -> float:
    """Interval constant: max over table points x in [a, b] of
    max(0, delta(x) + 2 stderr(x)) / g(x).

    The two-standard-error margin makes the constant conservative under a
    Monte Carlo table; it vanishes for the exact engines.
    """
    if not (a < b):
        raise ValueError("need a < b")
    xs = delta_table.xs
    tol = 1e-9 * max(1.0, abs(a))
    sel = (xs >= a - tol) & (xs <= b + tol)
    if not np.any(sel):
        raise ValueError(f"no table points inside [{a:g}, {b:g}]")
    dv = delta_table.delta[sel] + 2.0 * delta_table.delta_stderr[sel]
    dv = np.maximum(dv, 0.0)
    gx = np.array([g(float(x)) for x in xs[sel]])
    if np.any(gx <= 0.0):
        raise ValueError("test function must be positive on the interval")
    return float(np.max(dv / gx))


def bound_constant(delta_b: float, phi: float, c_hb_b: float) -> float:
    """The certified constant max(phi / (1 - delta), phi + delta * C[h(b), b])."""
    if not (0.0 < delta_b < 1.0):
        raise ValueError(f"delta must lie in (0, 1); got {delta_b:g}")
    if phi < 0.0:
        raise ValueError("phi must be non-negative")
    if c_hb_b < 0.0:
        raise ValueError("interval constant must be non-negative")
    return max(phi / (1.0 - delta_b), phi + delta_b * c_hb_b)


class ProcedureFailed(RuntimeError):
    """The contraction condition delta < 1 fails at the requested horizon."""

    def __init__(self, from_b: float, delta_value: float, min_b: int | None, cap: int):
        self.from_b = from_b
        self.delta_value = delta_value
        self.min_b = min_b
        self.cap = cap
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
    truncation: float | None
    mc_samples: int | None
    seed: int | None
    B: float
    delta_b: float
    phi: float
    c_hb_b: float
    C: float
    kappa_splice: float | None
    tail_coefficient: float | None
    delta_tail_certified: bool
    phi_tail_certified: bool
    caveats: tuple[str, ...]
    report: str

    def __post_init__(self):
        expected = max(self.phi / (1.0 - self.delta_b), self.phi + self.delta_b * self.c_hb_b)
        if abs(self.C - expected) > 1e-12 * max(1.0, abs(expected)):
            raise ValueError("certificate constant does not match its components")

    # the contraction starts at the anchor B and the bound holds from there on
    @property
    def b(self) -> float:
        return self.B

    valid_from = b

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
        put("truncation", self.truncation)
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
        else:
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


def _tail_table(dist, params, xmax, engine, bandwidth, truncation, mc_samples, seed, mode,
                mc_xs) -> tuple[TailTable, float | None]:
    """Compound tails up to xmax from the chosen engine, and the lattice
    truncation (None for Monte Carlo, which estimates the tails at mc_xs).

    The one place that sizes the Panjer lattice: the truncation (default
    2 * xmax) is rounded up to whole cells, so the lattice reaches it.
    """
    if engine == "panjer":
        if bandwidth is None:
            raise ValueError("the recursion engine requires a bandwidth")
        trunc = 2.0 * xmax if truncation is None else truncation
        trunc = math.ceil(trunc / bandwidth - 1e-9) * bandwidth
        lattice = discretize(dist, bandwidth, trunc, mode=mode)
        return panjer_tail(lattice, params, xmax), trunc
    if engine == "mc":
        if mc_samples is None or seed is None:
            raise ValueError("the Monte Carlo engine requires mc_samples and a seed")
        return mc_tail(dist, params, mc_samples, seed, mc_xs), None
    raise ValueError(f"unknown engine {engine!r}")


def _build_delta_table(dist, params, B, table_lo, engine, bandwidth, truncation, mc_samples,
                       seed, mc_grid_points, mode) -> tuple[DeltaTable, float | None]:
    """The exact-error table up to B and the lattice truncation; Monte Carlo
    estimates it at mc_grid_points geometric points of [table_lo, B]."""
    mc_xs = np.geomspace(0.999 * table_lo, B, mc_grid_points) if engine == "mc" else None
    tails, trunc = _tail_table(
        dist, params, B, engine, bandwidth, truncation, mc_samples, seed, mode, mc_xs
    )
    return delta_from_tails(tails, dist, params), trunc


def _search_min_b(dist, params, h, g, B, cap, x_far, grid_ratio) -> int | None:
    """Smallest integer n <= cap with delta(n) < 1, by bisection.

    The supremum over [n, infinity) is non-increasing in n, so the predicate
    is monotone up to grid discretization.
    """
    lo = max(int(math.floor(B)), int(math.ceil(h.domain_start + 1e-9)))
    if cap <= lo:
        return None
    if delta_sup(dist, params, h, g, float(cap), x_far, grid_ratio).value >= 1.0:
        return None
    hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if delta_sup(dist, params, h, g, float(mid), x_far, grid_ratio).value < 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _certificate_outputs(g: TestFunction, C: float, b: float):
    """Tail coefficient and the one-line human report for a certificate."""
    if isinstance(g, SplicedTestFunction):
        coef = C * g.tail_coef
        report = f"Delta(x) <= {coef:.6g} * x^-{g.tailg.exponent:.6g} for x > {b:g}"
        return g.kappa_splice, coef, report
    if isinstance(g, PowerTestFunction):
        coef = C * g.coef
        report = f"Delta(x) <= {coef:.6g} * x^-{g.exponent:.6g} for x > {b:g}"
        return None, coef, report
    report = f"Delta(x) <= {C:.6g} * K(x,h(x)) for x >= {b:g}, h(x) = {g.h.describe()}"
    return None, None, report


def _certify(table: DeltaTable, sweep: _KernelSweep, params, g, B):
    """The certify core of build_bound and tune: the delta and phi suprema
    from B, the interval constant over [h(B), B], the constant C and the
    certificate outputs, all but the suprema None when delta >= 1."""
    d_res, p_res = _sup_pair(sweep, params, g)
    if d_res.value >= 1.0:
        return d_res, p_res, None, None, (None, None, None)
    chb = c_interval(table, g, float(sweep.h(B)), B)
    C = bound_constant(d_res.value, p_res.value, chb)
    return d_res, p_res, chb, C, _certificate_outputs(g, C, B)


def build_bound(
    dist: SummandDistribution,
    params: GeometricParams,
    h: CutoffFunction,
    g: TestFunction,
    B: float,
    engine: str = "panjer",
    bandwidth: float | None = None,
    truncation: float | None = None,
    mc_samples: int | None = None,
    seed: int | None = None,
    bstar: float | None = None,
    mode: str = "rounded",
    x_far: float = 1e8,
    grid_ratio: float = 1.02,
    min_b_cap: int = 10_000,
    mc_grid_points: int = 512,
) -> BoundCertificate:
    """Run the full bound construction at horizon B.

    Builds the exact relative-error table on [0, B] (or a Monte Carlo grid),
    optionally splices the test function at bstar, evaluates the contraction
    suprema from B, and assembles the certificate. Raises ProcedureFailed,
    with the smallest workable horizon when one exists below min_b_cap, if
    the contraction condition delta < 1 fails at B.
    """
    if B <= h.domain_start:
        raise ValueError(
            f"B={B:g} must exceed the cutoff domain start {h.domain_start:g}"
        )
    hB = float(h(B))
    table, trunc = _build_delta_table(
        dist, params, B, hB, engine, bandwidth, truncation, mc_samples, seed,
        mc_grid_points, mode,
    )

    if bstar is not None and not isinstance(g, PowerTestFunction):
        raise ValueError("splicing requires a power test function for the tail piece")
    g_final = g if bstar is None else build_spliced_g(table, bstar, g)

    sweep = _kernel_sweep(dist, h, B, x_far, grid_ratio)
    d_res, p_res, chb, C, (kappa, coef, report) = _certify(table, sweep, params, g_final, B)
    if C is None:
        min_b = _search_min_b(dist, params, h, g_final, B, min_b_cap, x_far, grid_ratio)
        raise ProcedureFailed(B, d_res.value, min_b, min_b_cap)

    caveats = []
    if not d_res.tail_certified:
        caveats.append(f"delta sup: {d_res.note}")
    if p_res.note:
        caveats.append(f"phi sup: {p_res.note}")
    if engine == "mc":
        caveats.append(
            "interval constant from a Monte Carlo table with a two-standard-error margin"
        )

    return BoundCertificate(
        params=params,
        dist=dist,
        h=h,
        g=g_final,
        engine=engine,
        bandwidth=bandwidth if engine == "panjer" else None,
        truncation=trunc,
        mc_samples=mc_samples if engine == "mc" else None,
        seed=seed if engine == "mc" else None,
        B=float(B),
        delta_b=d_res.value,
        phi=p_res.value,
        c_hb_b=chb,
        C=C,
        kappa_splice=kappa,
        tail_coefficient=coef,
        delta_tail_certified=d_res.tail_certified,
        phi_tail_certified=p_res.tail_certified,
        caveats=tuple(caveats),
        report=report,
    )


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
    truncation: float | None = None,
    mc_samples: int | None = None,
    seed: int | None = None,
    mode: str = "rounded",
    x_far: float = 1e8,
    grid_ratio: float = 1.02,
    mc_grid_points: int = 512,
) -> TuneResult:
    """Sweep cutoff scales and splice points, minimizing the bound's tail
    coefficient C * kappa (spliced) or C * coef (pure power).

    The exact-error table does not depend on the cutoff or the splice, so it
    is computed once. Ties prefer the smaller scale, then the smaller splice
    point, with the pure (unspliced) candidate ordered last.
    """
    if not isinstance(g, PowerTestFunction):
        raise ValueError("tuning compares power-tail coefficients; g must be a power shape")
    s_list = [float(s) for s in s_grid]
    b_list = list(bstar_grid)
    if not s_list or not b_list:
        raise ValueError("empty tuning grid")

    scales = [h.with_scale(s) for s in s_list]
    usable = [hs for hs in scales if B > hs.domain_start]
    if not usable:
        raise ValueError("no candidate scale admits the horizon B")
    table_lo = min(float(hs(B)) for hs in usable)
    table, _ = _build_delta_table(
        dist, params, B, table_lo, engine, bandwidth, truncation, mc_samples, seed,
        mc_grid_points, mode,
    )

    rows: list[TuneRow] = []
    for s, hs in zip(s_list, scales):
        if B <= hs.domain_start:
            for bst in b_list:
                rows.append(TuneRow(s, bst, False, None, None, "horizon below cutoff domain"))
            continue
        sweep = _kernel_sweep(dist, hs, B, x_far, grid_ratio)
        for bst in b_list:
            try:
                g_final = g if bst is None else build_spliced_g(table, float(bst), g)
                d_res, _, _, C, (_, coef, _) = _certify(table, sweep, params, g_final, B)
                note = "" if C is not None else f"delta = {d_res.value:.4g} >= 1"
            except (ValueError, RuntimeError) as exc:
                C = coef = None
                note = str(exc)
            rows.append(TuneRow(s, bst, C is not None, C, coef, note))

    feasible = [r for r in rows if r.feasible]
    if not feasible:
        notes = "; ".join(sorted({r.note for r in rows if r.note}))
        raise ValueError(f"no feasible tuning candidate: {notes}")
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
    point at or beyond the certificate's validity start."""
    xs = delta_table.xs
    tol = 1e-9 * max(1.0, certificate.valid_from)
    sel = xs >= certificate.valid_from - tol
    violations = []
    max_excess = 0.0
    checked = 0
    for x, d, s in zip(xs[sel], delta_table.delta[sel], delta_table.delta_stderr[sel]):
        checked += 1
        allowed = certificate.C * certificate.g(float(x)) + 2.0 * s
        slack = 1e-9 * max(1.0, abs(allowed))
        if d > allowed + slack:
            violations.append((float(x), float(d), float(allowed)))
            max_excess = max(max_excess, float(d - allowed))
    return VerifyReport(
        ok=not violations,
        checked=checked,
        violations=tuple(violations),
        max_excess=max_excess,
    )
