"""Tail engines for the geometric compound sum S = X_1 + ... + X_nu.

Two engines share one output shape: an exact recursion on a lattice (Panjer),
which runs on the compound tail itself and so keeps the relative accuracy of
tails far below 1e-16, and a seeded Monte Carlo estimator. A helper converts
tail tables into tables of the relative error of the first-order
approximation E(nu) * tail(x).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .dist import ConfigError, GeometricParams, LatticeDistribution, SummandDistribution

__all__ = [
    "TailTable",
    "DeltaTable",
    "panjer_tail",
    "mc_tail",
    "delta_from_tails",
]

_MC_BLOCK = 1 << 16
# most severity draws a worker holds at once: a block samples its sums in
# groups of whole sums up to this many draws, and a longer sum takes a group
# of its own
_MC_GROUP_DRAWS = 1 << 16
# most threads mc_tail runs its blocks on; each holds its own buffers, so
# memory grows with the thread count, and this bounds it as _MC_BLOCK and
# _MC_GROUP_DRAWS do (see mc_tail)
_MC_MAX_WORKERS = 8
# longest sum mc_tail's screen can pass over unsampled (see _mc_screen); it
# sizes the one array of candidate lengths the screen weighs
_MC_SCREEN_MAX_LEN = 1 << 12
# cells per block of panjer_tail's recursion; its block matrix is this square
_PANJER_BLOCK = 64
# cells per tile of panjer_tail's history product
_PANJER_TILE = 16
# most tiles one matrix product of the history product sums over: OpenBLAS
# rounds a longer one differently on different thread counts
_PANJER_MATMUL_TILES = 256


@dataclass(frozen=True)
class TailTable:
    """Tail probabilities P(S > x) on a grid, with per-point uncertainty.

    ``stderrs`` is zero for the exact engines.
    """

    xs: np.ndarray
    tails: np.ndarray
    stderrs: np.ndarray
    engine: str

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        t = np.asarray(self.tails, dtype=float)
        s = np.asarray(self.stderrs, dtype=float)
        if not (xs.shape == t.shape == s.shape) or xs.ndim != 1:
            raise ValueError("xs, tails, stderrs must be matching 1-d arrays")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("xs must be strictly increasing")
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("tail probabilities must lie in [0, 1]")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "tails", t)
        object.__setattr__(self, "stderrs", s)

    def __len__(self) -> int:
        return self.xs.size


@dataclass(frozen=True)
class DeltaTable:
    """Relative error p * P(S > x) / tail(x) - 1 on a grid."""

    xs: np.ndarray
    delta: np.ndarray
    delta_stderr: np.ndarray
    engine: str

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        s = np.asarray(self.delta_stderr, dtype=float)
        if not (xs.shape == d.shape == s.shape) or xs.ndim != 1:
            raise ValueError("xs, delta, delta_stderr must be matching 1-d arrays")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("xs must be strictly increasing")
        if np.any(d < -1.0 - 1e-12):
            raise ValueError("relative error cannot fall below -1")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "delta_stderr", s)


def _dyadic_uniforms(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with uniforms (k + 1/2) 2^-53 in (0, 1), for k the
    generator's next 53-bit integers, and return it.

    ``rng.random()`` is k 2^-53 with k = next_uint64 >> 11, the same k that
    ``rng.integers(0, 2**53, dtype=np.uint64)`` returns: Lemire's method never
    rejects for a range that divides 2^64. k + 1/2 needs 54 bits, so it
    rounds for k >= 2^52, and to 2^53 itself for k = 2^53 - 1; moving that
    one value below 1 leaves every other uniform as it was. Only an array
    that holds it is clamped.
    """
    rng.random(out=out)
    out += 0.5**54
    # one maximum is a few times cheaper than a clamp of every uniform
    if out.size and out.max() >= 1.0:
        np.minimum(out, np.nextafter(1.0, 0.0), out=out)
    return out


def _mc_workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_screen(dist, params, x0: float) -> tuple[int, float] | None:
    """A length K and a uniform cutoff u_cap such that every sum of at most K
    draws whose uniforms are all at most u_cap stays below x0, or None when
    the sums left over would hold more than ``dist.mc_screen_max_share`` of
    the draws: the share above which finding and gathering them costs more
    than sampling every draw, which each family declares (one half for a
    closed-form quantile, three quarters for a power mixture's solver).

    Every u <= u_cap samples to at most c = x0 / K * (1 - 1e-9): u_cap is
    stepped down until 1 - u_cap >= tail(c') holds in floating point, for
    the cut c' = c * (1 - 1e-10), so 1 - u >= tail(c'), and
    ``dist.sample(u)`` is the smallest x with tail(x) <= 1 - u, to a relative
    1e-10 (see ``SummandDistribution.sample``), so at most c. The margin of
    1e-9 covers the rounding of a sum of K <= 2^12 such draws, so the sum
    stays below x0 and counts at no grid point.

    K minimizes the expected share of draws in the other sums, those longer
    than K or holding a uniform above u_cap. With r = 1 - tail(c'), the kept
    share is p^2 sum_{j <= K} j q^(j-1) r^j, a geometric sum in closed form,
    weighed at once on one array for every K up to the longest sum a block
    can draw, or _MC_SCREEN_MAX_LEN.
    """
    if not x0 > 0.0:
        return None
    p, q = params.p, params.q
    # no uniform is below 2^-54, so no sum is longer than this
    longest = math.ceil(54.0 * math.log(2.0) / -math.log(q))
    k = np.arange(1.0, min(longest, _MC_SCREEN_MAX_LEN) + 1.0)
    cut = x0 / k * (1.0 - 1e-9) * (1.0 - 1e-10)
    tails = np.asarray(dist.tail(cut), dtype=float)
    r = 1.0 - tails
    z = q * r
    kept = p * p * r * (1.0 - (k + 1.0) * z**k + k * z ** (k + 1.0)) / (1.0 - z) ** 2
    # argmax picks a NaN first, and a NaN share, which fails every
    # comparison, screens nothing
    best = int(np.argmax(kept))
    if not 1.0 - kept[best] <= dist.mc_screen_max_share:
        return None
    tail_c = float(tails[best])
    u_cap = 1.0 - tail_c
    while 1.0 - u_cap < tail_c:
        u_cap = float(np.nextafter(u_cap, 0.0))
    return best + 1, u_cap


def panjer_tail(
    lattice: LatticeDistribution,
    params: GeometricParams,
    xmax: float,
) -> TailTable:
    """Exact compound tail on the lattice via the geometric Panjer recursion
    (Panjer, ASTIN Bulletin 1981), run on the tail.

    Computes P(S > j * bw) for lattice points up to xmax. The recursion runs
    on the count shifted to start at zero, W = X_1 + ... + X_N' with
    P(N' = k) = p q^k, whose tail Z(j) = P(W > j bw) is q P(S > j bw) for
    j >= 0; so P(S > x) = min(1, Z / q). With f_k the lattice masses and
    F(j) = P(X > j bw) the lattice tails, W is 0 with probability p and
    X + W' otherwise, so

        Z(j) = a * (F(j) + sum_{k=1..j} f_k Z(j-k)),  a = q / (1 - q f_0),

    and Z(0) = a F(0). It reads the tails F(0) .. F(n) alone, which fix
    f_1 .. f_n too, for n = floor(xmax / bw), so any lattice that reaches
    xmax gives the same tails; a shorter one is read as holding its
    truncated mass beyond xmax. The result is exact whenever the severity
    lattice carries no truncated mass, or extends to at least xmax. Each
    call runs the recursion; nothing is kept between calls.

    The tails are found in blocks of _PANJER_BLOCK = L = 64 cells. Within
    the block of cells s .. s + L - 1 they solve (I - a T) Z = r: T is the
    strictly lower Toeplitz matrix of f_1 .. f_(L-1), and r is what the
    cells before s contribute plus the severity tail, a * (F(s + t) +
    sum_{j<s} f_(s+t-j) Z_j) for the t-th cell. So Z = M r, with
    M = (I - a T)^-1 = sum_k (a T)^k the lower Toeplitz matrix whose first
    column is the recursion itself run for L cells from 1; it is the same
    matrix for every block.

    The history sum of cell s + t is sum_i f_(t+1+i) Z_(s-1-i) over the
    s earlier cells, newest first. Cut into tiles of _PANJER_TILE = 16
    cells, i = 16 b + v, its masses for b = 0 .. k - 1 are the tile rows
    g .. g + k - 1 of the masses, for g the tile of t + v. So one matrix
    product per band g, of those rows (a strided view of the masses) with
    the history as a k x 16 matrix (a view of the tails), gives every
    product P[16 g + u, v] of a mass row u and a history column v, and
    r[t] = sum_v P[t + v, v]. Both are zero-padded to whole tiles; nothing
    is copied.

    Every term of the history product, of r, of M and of M r is
    non-negative, and no tail is 1 minus a sum, so nothing cancels: for the
    rounded a, f_k and F(j) it reads, each computed tail is its exact value
    to a relative gamma_N = N u / (1 - N u), u = 2^-53, for N the longest
    chain of roundings behind it. A history sum adds the same m nonzero
    terms f_k Z_j, for the m = min(n, cells - 1) masses a cell reads,
    whatever order the matrix products, their pieces and the diagonal sum
    add them in: the padding adds exact zeros, and a term passes through
    its product and at most one inexact addition per other nonzero term, m
    roundings. With the factor a, the severity tail, the entries of M (the
    recursion run for up to L - 1 cells, (L - 1)(m + 1)) and the L-term
    product M r, a block adds at most L (m + 3) to N, and the division by q
    one more: N <= (n + L)(m + 3) + 1, 3e-9 relative at 5,000 cells of
    history 5,000, at 1 or at 1e-30 alike; only tails near the underflow
    threshold, 2.2e-308, lose it.

    The cost is still quadratic in xmax / bandwidth, but the Python work is
    per block, not per cell: one history product and one L x L product. A
    matrix product of the history product sums over at most
    _PANJER_MATMUL_TILES = 256 tiles (4,096 cells), and a longer history is
    added up in pieces of that many tiles from the newest, in a fixed order.
    OpenBLAS can round a longer product differently on different thread
    counts; so the tails are the same bytes whatever the BLAS thread count.
    """
    q = params.q
    bw = lattice.bandwidth
    if xmax <= 0.0:
        raise ValueError("xmax must be positive")
    if lattice.truncated_mass > 0.0 and lattice.truncation_point < xmax - 1e-9 * xmax:
        raise ValueError(
            f"severity lattice truncated at {lattice.truncation_point:g} < xmax {xmax:g}"
        )
    n = int(math.floor(xmax / bw + 1e-9))
    # fbar[j] = F(j) for j <= n, the truncated mass past the lattice
    fbar = lattice.tails[: n + 1]
    if fbar.size < n + 1:
        fbar = np.concatenate([fbar, np.full(n + 1 - fbar.size, fbar[-1])])
    f0 = 1.0 - float(fbar[0])
    if q * f0 >= 1.0:
        raise ValueError("q * P(X=0) >= 1; recursion denominator vanishes")

    a = q / (1.0 - q * f0)
    size = _PANJER_BLOCK
    tile = _PANJER_TILE
    # the longest history, n cells, in whole tiles, and one band g for each
    # tile that t + v reaches, for the cells t of a block and columns v
    tiles = -(-n // tile)
    bands = -(-(size + tile - 1) // tile)
    # fs[i - 1] = f_i for i <= n, zero past the lattice and up to whole tiles
    fs = np.zeros((bands - 1 + tiles) * tile)
    fs[:n] = fbar[:-1] - fbar[1:]
    # M[i, j] = c[i - j] below the diagonal, for c the recursion from c[0] = 1
    c = np.empty(size)
    c[0] = 1.0
    for k in range(1, size):
        c[k] = a * float(fs[:k].dot(c[k - 1 :: -1]))
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    block_inverse = np.where(lag >= 0, c[np.maximum(lag, 0)], 0.0)

    # band g of Fs, Fs[g, u, b] = fs[(g + b) tile + u], is the tile rows
    # g .. g + tiles - 1 of fs, transposed: a view, as is each history
    item = fs.itemsize
    Fs = np.lib.stride_tricks.as_strided(
        fs, shape=(bands, tile, tiles), strides=(tile * item, item, tile * item),
        writeable=False,
    )
    # rev[n - j] = Z_j: kept newest first, zero past Z_0 up to whole tiles
    rev = np.zeros(n + tile)
    rev[n] = a * fbar[0]
    P = np.empty((bands, tile, tile))
    piece = np.empty_like(P)
    # D[t, v] = P[t + v, v], for P read as bands * tile rows of tile
    # products: row t of D sums to cell t's history sum
    D = np.lib.stride_tricks.as_strided(
        P, shape=(size, tile), strides=(tile * item, (tile + 1) * item), writeable=False
    )
    for s in range(1, n + 1, size):
        e = min(s + size, n + 1)
        # the history Z_(s-1) .. Z_0 in k tiles, V[b, v] = Z_(s-1-b tile-v),
        # and P[g, u, v] = sum_b fs[(g + b) tile + u] V[b, v]
        k = -(-s // tile)
        V = rev[n - s + 1 : n - s + 1 + k * tile].reshape(k, tile)
        # in pieces of at most _PANJER_MATMUL_TILES tiles, newest first
        b1 = min(k, _PANJER_MATMUL_TILES)
        np.matmul(Fs[:, :, :b1], V[:b1], out=P)
        for b0 in range(b1, k, _PANJER_MATMUL_TILES):
            b1 = min(k, b0 + _PANJER_MATMUL_TILES)
            P += np.matmul(Fs[:, :, b0:b1], V[b0:b1], out=piece)
        r = D[: e - s].sum(axis=1)
        r += fbar[s:e]
        r *= a
        rev[n - e + 1 : n - s + 1] = block_inverse[: e - s, : e - s].dot(r)[::-1]

    tails = rev[n::-1] / q
    np.minimum(tails, 1.0, out=tails)
    return TailTable(
        xs=np.arange(n + 1, dtype=float) * bw,
        tails=tails,
        stderrs=np.zeros(n + 1),
        engine="panjer",
    )


def _mc_block_counts(dist, lnq, n, seeds, blocks, xs, screen, stop) -> np.ndarray:
    """For each x in the sorted array xs, the number of sums above x over the
    given blocks. One set of buffers serves every block. Once the event
    ``stop`` is set, no further block starts and the counts are partial.

    ``screen`` is None or the pair (K, u_cap) of ``_mc_screen``: a group then
    samples and sums only its candidate sums, those longer than K or holding
    a uniform above u_cap, gathered in order; the others stay below xs[0]."""
    counts = np.zeros(xs.size, dtype=np.int64)
    u_count = np.empty(_MC_BLOCK)
    ends_buf = np.empty(_MC_BLOCK, dtype=np.int64)
    starts = np.zeros(_MC_BLOCK + 1, dtype=np.int64)
    sums = np.empty(_MC_BLOCK)
    u_sev = np.empty(0)
    for b in blocks:
        if stop.is_set():
            break
        m = min(_MC_BLOCK, n - b * _MC_BLOCK)
        rng = np.random.Generator(np.random.PCG64(seeds[b]))
        # counts nu = max(1, ceil(log u / log q)), and their running sum
        nu = _dyadic_uniforms(rng, u_count[:m])
        np.log(nu, out=nu)
        nu /= lnq
        ends = ends_buf[:m]
        np.ceil(nu, out=ends, casting="unsafe")
        np.maximum(ends, 1, out=ends)
        np.cumsum(ends, out=ends)
        # groups split only between sums, so the severity stream and every
        # sum are those of one draw for the whole block, and counts add up
        i = 0
        while i < m:
            base = int(ends[i - 1]) if i else 0
            j = max(i + 1, int(np.searchsorted(ends, base + _MC_GROUP_DRAWS, side="right")))
            draws = int(ends[j - 1]) - base
            if u_sev.size < draws:
                u_sev = np.empty(max(draws, _MC_GROUP_DRAWS))
            # every group draws all its uniforms, so the stream stays in step
            u = _dyadic_uniforms(rng, u_sev[:draws])
            g = j - i
            np.subtract(ends[i : j - 1], base, out=starts[1:g])
            if screen is not None:
                u, g = _mc_candidates(u, nu[i:j], starts, screen)
            if g:
                sev = np.asarray(dist.sample(u), dtype=float)
                group = np.add.reduceat(sev, starts[:g], out=sums[:g])
                group.sort()
                counts += g - np.searchsorted(group, xs, side="right")
            i = j
    return counts


def _mc_candidates(u, nu, starts, screen):
    """The uniforms of a group's candidate sums, in order, and how many sums
    they make; ``starts`` then holds where each begins.

    The group's sums start at starts[:g] in u, for g = nu.size, and nu holds
    log u / log q, so a sum is longer than K where nu > K. When every sum is
    a candidate, u and starts come back as they were.
    """
    length, u_cap = screen
    g = nu.size
    cand = nu > length
    high = np.flatnonzero(u > u_cap)
    cand[np.searchsorted(starts[:g], high, side="right") - 1] = True
    picked = np.flatnonzero(cand)
    kept = picked.size
    if kept == g:
        return u, g
    shift = starts[picked]
    starts[g] = u.size
    lens = starts[picked + 1] - shift
    np.cumsum(lens[:-1], out=starts[1:kept])
    shift -= starts[:kept]
    # the gathered run's draw d is u[d + shift] for the shift of its sum
    at = np.repeat(shift, lens)
    at += np.arange(at.size)
    return u[at], kept


def _check_mc(n: int, seed: int) -> None:
    if n < 1:
        raise ConfigError(f"mc_samples must be at least 1, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def mc_tail(
    dist: SummandDistribution,
    params: GeometricParams,
    n: int,
    seed: int,
    xgrid,
) -> TailTable:
    """Monte Carlo estimate of P(S > x) on a grid, from n simulated sums.

    Draws are organized in blocks of 2^16 sums with independently seeded
    streams. The blocks run on a pool of up to _MC_MAX_WORKERS = 8 threads,
    no more than the CPUs the process may use or the blocks; each thread
    counts exceedances over its own blocks, and the integer counts add up
    exactly in any order. So the table depends only on (seed, n), whatever
    the number of threads. ``dist.sample`` is called from several threads at
    once. When one thread raises, or the caller is interrupted, the other
    threads finish the block they are in and start no other.

    Uniforms are taken as dyadic rationals strictly inside (0, 1). Geometric
    counts use the inversion nu = ceil(log u / log q). A block draws its
    severities in groups of whole sums, so each thread holds at most 2^16
    severity draws (or one longer sum) at once, whatever p is, next to its
    buffers of 2^16 count uniforms, sum ends, starts and sums, 2.5 MiB in
    all, and what one group's candidate sums (below) allocate: their
    gathered uniforms, the output of ``dist.sample``, and for a power
    mixture the solver's temporaries for 2^13 draws. Memory grows with the
    thread count: the tracemalloc peak of one call is 3.0, 6.0 and 23 MiB at
    1, 2 and 8 threads for a Pareto severity (criterion 1, 5e6 sums), and
    4.4, 8.8 and 32 MiB for criterion 5's power mixture (5e5 sums). The
    returned table is in ascending grid order regardless of the order of
    ``xgrid``.

    Most sums lie far below the grid and count at no point of it, so only
    the sums that can reach its lowest point x0 are sampled. Once per call,
    ``_mc_screen`` picks a length K and a uniform cutoff u_cap such that
    every u <= u_cap samples to at most x0 / K * (1 - 1e-9); a sum of at
    most K draws with no uniform above u_cap then stays below x0. Each group
    still draws all its uniforms, so the stream, every draw and the table
    are those of sampling every sum; but ``dist.sample``, the sums and the
    sort run only on the candidate sums, those longer than K or holding a
    uniform above u_cap, gathered in order. On criterion 1 (x0 = 30, K = 13)
    they are 11% of the sums and 27% of the draws; on criterion 5 (x0 =
    4.30, K = 2) 60% of the draws. When the candidates are expected to hold
    more than the severity's ``mc_screen_max_share`` of the draws (see
    ``_mc_screen``) there is no screen, and a group whose sums are all
    candidates is sampled whole. The screen needs
    ``dist.sample`` to be the quantile transform of ``dist.tail``, to a few
    ulps (see ``SummandDistribution.sample``).
    """
    _check_mc(n, seed)
    xs = np.asarray(xgrid, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xgrid must be a non-empty 1-d array")
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    if np.any(np.diff(xs_sorted) <= 0.0):
        raise ValueError("xgrid values must be distinct")

    lnq = math.log(params.q)
    nblocks = (n + _MC_BLOCK - 1) // _MC_BLOCK
    seeds = np.random.SeedSequence(seed).spawn(nblocks)
    workers = min(_mc_workers(), nblocks, _MC_MAX_WORKERS)
    screen = _mc_screen(dist, params, float(xs_sorted[0]))

    # imported here: the pool is the engine's alone, and import geomtail
    # stays as cheap as it was
    from concurrent.futures import ThreadPoolExecutor

    # set when any thread, or the caller, raises: the other threads start no
    # further block
    stop = threading.Event()

    def count(w: int) -> np.ndarray:
        blocks = range(w, nblocks, workers)
        try:
            return _mc_block_counts(dist, lnq, n, seeds, blocks, xs_sorted, screen, stop)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            counts = sum(pool.map(count, range(workers)))
        except BaseException:
            stop.set()
            raise

    phat = counts / float(n)
    stderr = np.sqrt(phat * (1.0 - phat) / float(n))
    return TailTable(xs=xs_sorted, tails=phat, stderrs=stderr, engine="mc")


def delta_from_tails(
    tails: TailTable,
    dist: SummandDistribution,
    params: GeometricParams,
) -> DeltaTable:
    """Relative error of the approximation P(S > x) ~ tail(x) / p.

    delta(x) = p * P(S > x) / tail(x) - 1, with the engine uncertainty scaled
    the same way. A severity tail that is not a positive number (zero,
    negative or NaN) at a grid point leaves delta undefined there, and is
    refused.
    """
    fbar = np.asarray(dist.tail(tails.xs), dtype=float)
    bad = np.flatnonzero(~(fbar > 0.0))
    if bad.size:
        i = bad[0]
        if fbar[i] <= 0.0:
            raise ValueError("severity tail vanishes on the grid; relative error undefined")
        raise ValueError(f"severity tail is {fbar[i]:g} at x={tails.xs[i]:g}; "
                         "relative error undefined")
    delta = params.p * tails.tails / fbar - 1.0
    stderr = params.p * tails.stderrs / fbar
    return DeltaTable(
        xs=tails.xs,
        delta=delta,
        delta_stderr=stderr,
        engine=tails.engine,
    )
