"""Compound-tail engines: Panjer recursion, Monte Carlo, brute force."""

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomtail import compound
from geomtail.compound import (
    TailTable,
    _dyadic_uniforms,
    _kahan_cumsum,
    delta_from_tails,
    mc_tail,
    panjer_tail,
)
from geomtail.dist import (
    GeometricParams,
    LatticeDistribution,
    ParetoDist,
    PowerMixtureDist,
    SummandDistribution,
    WeibullDist,
    discretize,
)
from conftest import random_lattice


def brute_force_tail(
    lattice: LatticeDistribution,
    params: GeometricParams,
    term_cap: int,
) -> TailTable:
    """Oracle engine: sum p q^(k-1) P(X_1+...+X_k > x) over k up to term_cap,
    with each convolution power computed directly.

    The neglected count mass q^term_cap bounds the truncation error and is
    reported as the per-point stderr; a warning is raised when it exceeds
    1e-12. Quadratic in the lattice size, intended for small test lattices.
    """
    if term_cap < 1:
        raise ValueError("term_cap must be at least 1")
    p, q = params.p, params.q
    f = lattice.masses
    nn = f.size
    acc = np.zeros(nn)
    fk = f.copy()
    weight = p
    for k in range(1, term_cap + 1):
        if k > 1:
            fk = np.convolve(fk, f)[:nn]
            weight *= q
        tail_k = 1.0 - np.cumsum(fk)
        acc += weight * np.maximum(tail_k, 0.0)
    residual = q**term_cap
    if residual > 1e-12:
        warnings.warn(
            f"brute force truncated the count at {term_cap}; residual mass {residual:.3e}",
            stacklevel=2,
        )
    xs = np.arange(nn, dtype=float) * lattice.bandwidth
    tails = np.minimum(1.0, np.maximum(0.0, acc))
    return TailTable(
        xs=xs,
        tails=tails,
        stderrs=np.full(nn, residual),
        engine="brute",
    )


def cap_for(q, residual=1e-13):
    return int(math.ceil(math.log(residual) / math.log(q))) + 1


# ---------------------------------------------------------------- exact engines

def test_panjer_unit_severity_is_geometric():
    # X = 1 a.s.: S = count, so P(S > n) = q^n exactly
    lat = LatticeDistribution(bandwidth=1.0, masses=np.array([0.0, 1.0]),
                              truncation_point=1.0, truncated_mass=0.0)
    for p in (0.3, 0.5, 0.8):
        tt = panjer_tail(lat, GeometricParams(p), 20.0)
        expect = (1.0 - p) ** np.arange(21)
        assert np.allclose(tt.tails, expect, rtol=1e-12, atol=1e-15)


def test_panjer_matches_brute_force_three_atoms():
    lat = LatticeDistribution(bandwidth=1.0,
                              masses=np.array([0.0, 0.5, 0.3, 0.2]),
                              truncation_point=3.0, truncated_mass=0.0)
    params = GeometricParams(0.4)
    tt = panjer_tail(lat, params, 30.0)
    bf = brute_force_tail(lat, params, cap_for(params.q))
    n = min(tt.xs.size, bf.xs.size)
    assert np.allclose(tt.tails[:n], bf.tails[:n], rtol=1e-10, atol=1e-13)


def test_panjer_matches_brute_force_random_lattices(rng):
    for _ in range(10):
        lat = random_lattice(rng)
        p = float(rng.uniform(0.1, 0.9))
        params = GeometricParams(p)
        xmax = lat.truncation_point * 4
        lat_ext = LatticeDistribution(
            bandwidth=lat.bandwidth, masses=lat.masses,
            truncation_point=lat.truncation_point, truncated_mass=0.0)
        tt = panjer_tail(lat_ext, params, xmax)
        bf = brute_force_tail(lat_ext, params, cap_for(params.q))
        n = min(tt.xs.size, bf.xs.size)
        assert np.allclose(tt.tails[:n], bf.tails[:n], rtol=0, atol=2e-13)


def panjer_tails_oldest_first(lattice, params, xmax):
    """The recursion over an oldest-first history: each cell dots the severity
    masses with a reversed view of the earlier cells, which np.dot copies
    before it runs. The Kahan sum and the 1 - cdf step are panjer_tail's."""
    p, q = params.p, params.q
    n = int(math.floor(xmax / lattice.bandwidth + 1e-9))
    f = lattice.masses
    f0 = float(f[0])
    a = q / (1.0 - q * f0)
    w = np.empty(n + 1)
    w[0] = p / (1.0 - q * f0)
    for k in range(1, n + 1):
        m = min(k, f.size - 1)
        w[k] = a * float(np.dot(f[1 : m + 1], w[k - m : k][::-1]))
    cdf = _kahan_cumsum(np.maximum(w, 0.0))
    return np.minimum(1.0, np.maximum(0.0, (1.0 - cdf) / q))


@st.composite
def panjer_cases(draw):
    """A lattice, p and xmax: either a compact support of 1-60 atoms with no
    truncated mass, run past its end (so the history is cut at the support
    length), or a discretized Pareto or Weibull truncated at 2 * xmax. The
    tables run from 1 to 400 cells: shorter than one block of the recursion,
    whole blocks, and a part block at the end."""
    p = draw(st.floats(0.05, 0.95))
    bw = draw(st.sampled_from([0.02, 0.25, 0.5, 1.0]))
    cells = draw(st.integers(1, 400))
    if draw(st.booleans()):
        raw = draw(hnp.arrays(float, st.integers(2, 61), elements=st.floats(0.0, 1.0))
                   .filter(lambda r: r.sum() > 0.0))
        lattice = LatticeDistribution(bandwidth=bw, masses=raw / raw.sum(),
                                      truncation_point=bw * (raw.size - 1),
                                      truncated_mass=0.0)
    else:
        d = draw(st.sampled_from([ParetoDist(2.2), ParetoDist(5.0), WeibullDist(0.5)]))
        mode = draw(st.sampled_from(["rounded", "lower", "upper"]))
        lattice = discretize(d, bw, 2 * cells * bw, mode=mode)
    return lattice, GeometricParams(p), cells * bw


THREE_ATOMS = LatticeDistribution(bandwidth=0.5, masses=np.array([0.1, 0.5, 0.4]),
                                  truncation_point=1.0, truncated_mass=0.0)
# 0.9697 of the mass on cell 1 and 0.003788 on each other cell: at p = 0.05
# and xmax = 0.38 the two orders differ by q * 1.002e-15 (4.5 ulps of 1)
_NINE = np.array([1.0 / 256.0, 1.0] + [1.0 / 256.0] * 7)
NINE_CELLS = LatticeDistribution(bandwidth=0.02, masses=_NINE / _NINE.sum(),
                                 truncation_point=0.16, truncated_mass=0.0)


def rounding_bound(lattice, params, xmax):
    """A bound on q * |blocked - oldest-first| from the two summation orders.

    Both orders compute the compound masses w_k from the same rounded a, f
    and w_0, and every term of every sum is non-negative. So a computed w_k
    is the exact one with each of its product terms multiplied by at most N
    factors (1 + t), |t| <= u = 2^-53, for N the longest chain of roundings
    behind it, and it is within gamma_N = N u / (1 - N u) of exact, relative.
    In a sum of non-negative terms a term passes through at most one
    inexact addition per other nonzero term, and cell k reads at most
    m = min(n, f.size - 1) severity masses:

    - oldest first, each cell costs one product, m - 1 additions and the
      factor a, m + 1 roundings, over a chain of at most n cells;
    - blocked, a block of L cells costs the history product (m + 1), the
      entries of M (the recursion itself for up to L - 1 cells,
      (L - 1)(m + 1)) and the L-term product M r (L), so L (m + 2), over
      ceil(n / L) blocks.

    So the masses of the two orders differ by at most (gamma_N1 + gamma_N2)
    w_k, and their sums by that times cdf <= 1 + 1e-9. The Kahan sums err by
    at most 3u cdf each, and 1 - cdf, the division by q and the difference
    of the tails add at most 4u more to q |difference|.
    """
    u = 2.0**-53
    n = int(math.floor(xmax / lattice.bandwidth + 1e-9))
    m = min(n, lattice.masses.size - 1)
    size = compound._PANJER_BLOCK
    chains = (n * (m + 1), -(-n // size) * size * (m + 2))
    gamma = sum(c * u / (1.0 - c * u) for c in chains)
    return (1.0 + 1e-9) * (gamma + 6.0 * u) + 4.0 * u


@settings(max_examples=150, deadline=None)
@given(panjer_cases())
# panjer_tail recurses in blocks of 64 cells: a table shorter than one block,
# one of whole blocks, and part blocks at the end, on a support shorter than
# a block and on a severity lattice that reaches the end of the table
@example((THREE_ATOMS, GeometricParams(0.3), 50.0))
@example((THREE_ATOMS, GeometricParams(0.3), 5.0))
@example((THREE_ATOMS, GeometricParams(0.7), 64.0))
@example((discretize(ParetoDist(2.2), 0.25, 100.0), GeometricParams(0.6), 50.0))
@example((discretize(WeibullDist(0.5), 0.25, 64.0), GeometricParams(0.4), 32.0))
# a case hypothesis found past a fixed bound of 1e-15
@example((NINE_CELLS, GeometricParams(0.05), 0.38))
def test_panjer_matches_the_oldest_first_recursion(case):
    # the blocked recursion adds the same non-negative terms in another order;
    # the tails of the shifted count, q * P(S > x) = 1 - cdf, agree within
    # the rounding of the two orders (rounding_bound), and dividing by q
    # scales that up
    lattice, params, xmax = case
    got = panjer_tail(lattice, params, xmax).tails
    want = panjer_tails_oldest_first(lattice, params, xmax)
    assert got.shape == want.shape
    assert params.q * np.max(np.abs(got - want)) <= rounding_bound(lattice, params, xmax)


@pytest.mark.parametrize("d, p, bw, xmax, cells", [
    (ParetoDist(2.2), 0.5, 0.02, 100.0, 5_001),
    (ParetoDist(5.0), 0.5, 0.008, 50.0, 6_251),
    (WeibullDist(0.5), 0.5, 0.008, 100.0, 12_501),
    (ParetoDist(2.2), 0.2, 0.005, 100.0, 20_001),
    (WeibullDist(0.5), 0.5, 0.002, 100.0, 50_001),
], ids=["pareto2.2-5001", "pareto5-6251", "weibull-12501", "pareto2.2-20001",
        "weibull-50001"])
def test_panjer_matches_the_oldest_first_recursion_on_acceptance_lattices(
        d, p, bw, xmax, cells):
    # the benchmark's lattices of criteria 2, 4 and 6, and the acceptance
    # lattices of criteria 3 and 6; from 12,501 cells on, the longest
    # histories are read in pieces of compound._PANJER_HISTORY_CHUNK terms
    lattice = discretize(d, bw, 2.0 * xmax)
    params = GeometricParams(p)
    got = panjer_tail(lattice, params, xmax).tails
    assert got.size == cells
    want = panjer_tails_oldest_first(lattice, params, xmax)
    assert params.q * np.max(np.abs(got - want)) <= 1e-15


def test_panjer_tails_do_not_depend_on_the_blas_thread_count():
    # criterion 6's acceptance lattice: histories of up to 50,000 terms, which
    # OpenBLAS would split across its threads in one dot product
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from geomtail.compound import panjer_tail\n"
        "from geomtail.dist import GeometricParams, WeibullDist, discretize\n"
        "lattice = discretize(WeibullDist(0.5), 0.002, 200.0)\n"
        "tails = panjer_tail(lattice, GeometricParams(0.5), 100.0).tails\n"
        "sys.stdout.buffer.write(tails.tobytes())\n"
    )
    out = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr.decode()
        out.append(proc.stdout)
    assert len(out[0]) == 8 * 50_001
    assert out[0] == out[1]


def test_brute_force_single_term():
    lat = LatticeDistribution(bandwidth=1.0,
                              masses=np.array([0.0, 0.5, 0.3, 0.2]),
                              truncation_point=3.0, truncated_mass=0.0)
    params = GeometricParams(0.4)
    with pytest.warns(UserWarning):
        bf = brute_force_tail(lat, params, 1)
    # one count term: P(S > x) = p * P(X > x)
    tail_x = np.array([1.0, 0.5, 0.2, 0.0])
    assert np.allclose(bf.tails, 0.4 * tail_x, rtol=1e-14)
    assert np.all(bf.stderrs == pytest.approx(0.6))


def kahan_cumsum_on_numpy_scalars(values):
    """The compensated running sum as it ran on numpy scalars, element by
    element into a preallocated array."""
    out = np.empty_like(values)
    total = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.integers(0, 300),
                  elements=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)))
def test_kahan_cumsum_is_the_numpy_scalar_loop_bit_for_bit(values):
    got = _kahan_cumsum(values)
    assert got.dtype == np.float64 and got.shape == values.shape
    assert got.tobytes() == kahan_cumsum_on_numpy_scalars(values).tobytes()


def test_kahan_cumsum_on_compound_masses_is_the_numpy_scalar_loop(rng):
    # masses like the Panjer recursion's, falling over 16 decades; 5,001 and
    # 12,501 cells run over several of _kahan_cumsum's chunks
    for n in (1, 5001, 12501):
        values = rng.random(n) * np.exp(-np.arange(n) * (37.0 / n))
        assert _kahan_cumsum(values).tobytes() == kahan_cumsum_on_numpy_scalars(values).tobytes()


def test_panjer_tails_non_increasing_and_bounded():
    d = ParetoDist(2.2)
    lat = discretize(d, 0.05, 100.0)
    tt = panjer_tail(lat, GeometricParams(0.5), 50.0)
    assert np.all(np.diff(tt.tails) <= 1e-15)
    assert np.all((tt.tails >= 0.0) & (tt.tails <= 1.0))


def test_panjer_needs_enough_truncation():
    d = ParetoDist(2.2)
    lat = discretize(d, 0.5, 30.0)
    with pytest.raises(ValueError):
        panjer_tail(lat, GeometricParams(0.5), 100.0)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([ParetoDist(2.2), WeibullDist(0.5),
                          PowerMixtureDist(((0.6, 1.8), (0.4, 3.0)))]),
       mode=st.sampled_from(["rounded", "lower", "upper"]),
       bw=st.sampled_from([0.02, 0.25, 0.5, 1.0]),
       xmax=st.floats(0.5, 50.0), p=st.floats(0.05, 0.95))
def test_panjer_tails_do_not_depend_on_where_the_lattice_ends(d, mode, bw, xmax, p):
    # the recursion reads only the cells up to xmax, so any lattice that
    # reaches xmax gives the same tails, bit for bit
    end = math.ceil(xmax / bw) * bw
    params = GeometricParams(p)
    tails = [panjer_tail(discretize(d, bw, k * end, mode), params, xmax).tails.tobytes()
             for k in (1, 2, 4)]
    assert tails[0] == tails[1] == tails[2]


def test_almost_degenerate_count_reduces_to_severity():
    # p close to 1: S is one summand with high probability
    d = ParetoDist(5.0)
    lat = discretize(d, 0.01, 200.0)
    params = GeometricParams(0.999)
    tt = panjer_tail(lat, params, 50.0)
    dd = delta_from_tails(tt, d, params)
    sel = dd.xs >= 10.0
    assert np.max(np.abs(dd.delta[sel])) < 0.02


# ---------------------------------------------------------------- Monte Carlo

def test_mc_matches_panjer_within_error_bars():
    d = ParetoDist(2.2)
    params = GeometricParams(0.5)
    xgrid = [5.0, 10.0, 20.0]
    mc = mc_tail(d, params, 200_000, seed=7, xgrid=xgrid)
    lat = discretize(d, 0.0025, 80.0)
    ex = panjer_tail(lat, params, 40.0)
    for x, tail, stderr in zip(mc.xs, mc.tails, mc.stderrs):
        j = int(round(x / 0.0025))
        assert abs(tail - ex.tails[j]) < 4.0 * stderr
        assert stderr > 0.0


def test_mc_same_seed_is_deterministic():
    d = ParetoDist(2.2)
    params = GeometricParams(0.5)
    a = mc_tail(d, params, 100_000, seed=42, xgrid=[5.0, 15.0])
    b = mc_tail(d, params, 100_000, seed=42, xgrid=[5.0, 15.0])
    assert np.array_equal(a.tails, b.tails)
    assert np.array_equal(a.stderrs, b.stderrs)


def test_mc_different_seeds_agree_statistically():
    d = ParetoDist(2.2)
    params = GeometricParams(0.5)
    a = mc_tail(d, params, 150_000, seed=1, xgrid=[10.0])
    b = mc_tail(d, params, 150_000, seed=2, xgrid=[10.0])
    assert a.tails[0] != b.tails[0]
    joint = math.hypot(a.stderrs[0], b.stderrs[0])
    assert abs(a.tails[0] - b.tails[0]) < 4.0 * joint


def integer_dyadic_uniforms(k):
    """The dyadic uniforms from 53-bit integers k: (k + 1/2) 2^-53, with the
    top value moved below 1."""
    u = (np.asarray(k, dtype=np.uint64) + 0.5) * 0.5**53
    return np.minimum(u, np.nextafter(1.0, 0.0))


class FixedDraws:
    """Stands in for a generator whose next 53-bit integers are ``ks``."""

    def __init__(self, ks):
        self.ks = np.asarray(ks, dtype=np.uint64)

    def random(self, out):
        out[...] = self.ks * 0.5**53
        return out


EDGE_KS = [0, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]


def test_dyadic_uniforms_stay_strictly_inside_the_unit_interval():
    u = _dyadic_uniforms(FixedDraws(EDGE_KS), np.empty(len(EDGE_KS)))
    assert u[0] == 2.0**-54
    # above 2^52, k + 1/2 rounds to even, as it always did
    assert u[1] == 0.5
    assert u[2] == 0.5 + 2.0**-52
    assert u[3] == 1.0 - 2.0**-52
    # (2^53 - 1/2) 2^-53 rounds to 1.0, which every sampler rejects
    assert u[4] == np.nextafter(1.0, 0.0)
    assert np.array_equal(u, integer_dyadic_uniforms(EDGE_KS))
    ParetoDist(2.2).sample(u)


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**40 + 3])
def test_dyadic_uniforms_are_the_53_bit_integer_draws(seed):
    ints = np.random.Generator(np.random.PCG64(seed))
    floats = np.random.Generator(np.random.PCG64(seed))
    expect = integer_dyadic_uniforms(ints.integers(0, 1 << 53, size=5_000, dtype=np.uint64))
    got = _dyadic_uniforms(floats, np.empty(5_000))
    assert np.array_equal(got, expect)
    # both took one 64-bit draw per uniform, so the streams stay in step
    assert ints.bit_generator.state == floats.bit_generator.state


class RecordingPareto(SummandDistribution):
    """Pareto severity that records the size and thread of every sample call."""

    def __init__(self):
        self.inner = ParetoDist(2.2)
        self.calls = []
        self.threads = set()

    def tail(self, x):
        return self.inner.tail(x)

    def sample(self, u):
        self.calls.append(np.size(u))
        self.threads.add(threading.get_ident())
        return self.inner.sample(u)


@pytest.mark.parametrize("cap, n", [(64, 70_000), (1, 3_000)])
def test_mc_draws_severities_in_bounded_groups(monkeypatch, cap, n):
    params = GeometricParams(0.5)
    # a grid below the support screens nothing: every draw is sampled
    every = RecordingPareto()
    mc_tail(every, params, n, seed=5, xgrid=[0.5])
    # at 1.5 the sums that could be passed over hold too few of the draws
    for screened, xgrid in ((False, [1.5, 3.0, 10.0, 40.0]), (True, [10.0, 40.0])):
        assert (compound._mc_screen(ParetoDist(2.2), params, xgrid[0]) is not None) == screened
        # a cap far above a block's draws: one sample call per block
        monkeypatch.setattr(compound, "_MC_GROUP_DRAWS", 1 << 22)
        whole = RecordingPareto()
        expect = mc_tail(whole, params, n, seed=5, xgrid=xgrid)
        monkeypatch.setattr(compound, "_MC_GROUP_DRAWS", cap)
        grouped = RecordingPareto()
        got = mc_tail(grouped, params, n, seed=5, xgrid=xgrid)
        assert np.array_equal(got.tails, expect.tails)
        # the screen picks the same sums whatever the groups, and samples
        # fewer draws than there are
        assert sum(grouped.calls) == sum(whole.calls)
        assert (sum(whole.calls) < sum(every.calls)) == screened
        assert len(whole.calls) == (n + compound._MC_BLOCK - 1) // compound._MC_BLOCK
        if cap == 1:
            # every sum is longer than the cap and takes a group of its own;
            # the screen samples none of the sums it passes over
            assert len(grouped.calls) <= n
            assert (len(grouped.calls) < n) == screened
        else:
            assert max(grouped.calls) <= cap


def serial_mc_tail(dist, params, n, seed, xgrid):
    """The engine as one loop: each block after the other, its severities
    drawn at once as 53-bit integers, each sum compared with every x."""
    xs = np.sort(np.asarray(xgrid, dtype=float))
    block = compound._MC_BLOCK
    lnq = math.log(params.q)
    counts = np.zeros(xs.size, dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn((n + block - 1) // block)
    for b, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        u = integer_dyadic_uniforms(rng.integers(0, 1 << 53, size=min(block, n - b * block),
                                                 dtype=np.uint64))
        nu = np.maximum(np.ceil(np.log(u) / lnq).astype(np.int64), 1)
        u_sev = integer_dyadic_uniforms(rng.integers(0, 1 << 53, size=int(nu.sum()),
                                                     dtype=np.uint64))
        starts = np.concatenate(([0], np.cumsum(nu)[:-1]))
        sums = np.add.reduceat(dist.sample(u_sev), starts)
        counts += np.count_nonzero(sums[:, None] > xs, axis=0)
    phat = counts / float(n)
    return phat, np.sqrt(phat * (1.0 - phat) / float(n))


@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 3 * compound._MC_BLOCK), seed=st.integers(0, 2**32),
       p=st.floats(0.2, 0.95))
@example(n=1, seed=3, p=0.5)
@example(n=compound._MC_BLOCK, seed=4, p=0.3)
@example(n=3 * compound._MC_BLOCK + 777, seed=5, p=0.7)
def test_mc_tables_do_not_depend_on_the_thread_count(n, seed, p):
    d = ParetoDist(2.2)
    params = GeometricParams(p)
    xgrid = [40.0, 1.5, 10.0, 3.0]
    tails, stderrs = serial_mc_tail(d, params, n, seed, xgrid)
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compound, "_mc_workers", lambda: workers)
            got = mc_tail(d, params, n, seed, xgrid)
        assert np.array_equal(got.xs, np.sort(xgrid))
        assert np.array_equal(got.tails, tails)
        assert np.array_equal(got.stderrs, stderrs)


MIXTURE = PowerMixtureDist(((0.5, 1.5), (0.3, 2.5), (0.2, 4.0)))
SEVERITIES = [ParetoDist(2.2), ParetoDist(5.0), WeibullDist(0.5), WeibullDist(0.3), MIXTURE]


@st.composite
def screen_cases(draw):
    """A severity, a count and a lowest grid point x0, from below the support
    to where tail(x0) is 1e-14."""
    d = draw(st.sampled_from(SEVERITIES))
    params = GeometricParams(draw(st.floats(0.1, 0.95)))
    if draw(st.booleans()):
        x0 = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
    else:
        # x0 = the severity's quantile at tail 10^-level
        x0 = float(d.sample(1.0 - 10.0 ** -draw(st.floats(0.01, 14.0))))
    return d, params, x0


@settings(max_examples=25, deadline=None)
@given(case=screen_cases(), n=st.integers(1, 2 * compound._MC_BLOCK + 99),
       seed=st.integers(0, 2**32))
@example(case=(ParetoDist(5.0), GeometricParams(0.2), 30.0), n=70_000, seed=123)
@example(case=(MIXTURE, GeometricParams(0.5), 80.0), n=70_000, seed=1)
@example(case=(WeibullDist(0.5), GeometricParams(0.3), 0.5), n=20_000, seed=9)
@example(case=(ParetoDist(2.2), GeometricParams(0.7), 1e6), n=5_000, seed=2)
def test_screened_mc_is_the_serial_engine_bit_for_bit(case, n, seed):
    d, params, x0 = case
    xgrid = [x0 * 3.0 + 1.0, x0, x0 * 1.5 + 0.1]
    tails, stderrs = serial_mc_tail(d, params, n, seed, xgrid)
    got = mc_tail(d, params, n, seed, xgrid)
    assert np.array_equal(got.tails, tails)
    assert np.array_equal(got.stderrs, stderrs)


@settings(max_examples=60, deadline=None)
@given(case=screen_cases(), fracs=hnp.arrays(float, 64, elements=st.floats(0.0, 1.0)))
@example(case=(ParetoDist(5.0), GeometricParams(0.2), 30.0), fracs=np.linspace(0.0, 1.0, 64))
# a Weibull draw at u_cap one ulp above c, when u_cap was cut at c itself
@example(case=(WeibullDist(0.5), GeometricParams(0.75), 5.301898110478399), fracs=np.zeros(64))
def test_screened_uniforms_sample_below_the_cut(case, fracs):
    d, params, x0 = case
    screen = compound._mc_screen(d, params, x0)
    if screen is None:
        return
    length, u_cap = screen
    c = x0 / length * (1.0 - 1e-9)
    assert 1.0 <= length <= compound._MC_SCREEN_MAX_LEN
    assert 0.0 < u_cap < 1.0
    assert 1.0 - u_cap >= d.tail(c)
    # u_cap, the run of doubles below it, uniforms spread over (0, u_cap]
    # and the smallest dyadic uniform
    run = u_cap - np.arange(64) * np.spacing(u_cap)
    u = np.concatenate([run, u_cap * fracs, [2.0**-54]])
    u = u[u > 0.0]
    draws = d.sample(u)
    assert np.max(draws) <= c
    # K of the largest, summed as reduceat sums them, stay below x0
    assert np.add.reduceat(np.full(length, np.max(draws)), [0])[0] < x0


@pytest.mark.parametrize("cores, n, bound", [
    (1, 3 * (1 << 16), 1),  # one CPU: one thread draws every block
    (3, 1 << 16, 1),  # one block: one thread
    (3, 2 * (1 << 16), 2),  # at most one thread per block
    (2, 5 * (1 << 16), 2),  # blocks 0, 2, 4 on one thread, 1 and 3 on another
])
def test_mc_threads_are_bounded_by_cores_and_blocks(monkeypatch, cores, n, bound):
    monkeypatch.setattr(compound, "_mc_workers", lambda: cores)
    d = RecordingPareto()
    mc_tail(d, GeometricParams(0.9), n, seed=1, xgrid=[10.0])
    assert 1 <= len(d.threads) <= bound


def test_mc_threads_follow_the_cpus_the_process_may_use():
    d = RecordingPareto()
    mc_tail(d, GeometricParams(0.9), 4 * (1 << 16), seed=1, xgrid=[10.0])
    assert 1 <= len(d.threads) <= min(compound._mc_workers(), 4, compound._MC_MAX_WORKERS)


class FailingPareto(RecordingPareto):
    error = ValueError("uniform inputs must lie strictly inside (0, 1)")

    def sample(self, u):
        super().sample(u)
        raise self.error


def test_mc_worker_errors_reach_the_caller(monkeypatch):
    monkeypatch.setattr(compound, "_mc_workers", lambda: 2)
    d = FailingPareto()
    with pytest.raises(ValueError) as info:
        mc_tail(d, GeometricParams(0.5), 2 * (1 << 16), seed=1, xgrid=[10.0])
    assert info.value is FailingPareto.error
    assert threading.get_ident() not in d.threads


class FirstCallFails(RecordingPareto):
    """The first sample call raises; every other call waits until it has, and
    a little longer, so the failing thread has set the engine's stop event."""

    error = ValueError("first call")

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.raised = threading.Event()

    def sample(self, u):
        with self.lock:
            first = not self.calls
            super().sample(u)
        if first:
            self.raised.set()
            raise self.error
        self.raised.wait()
        time.sleep(0.2)
        return self.inner.sample(u)


def test_mc_worker_error_stops_the_other_threads(monkeypatch):
    monkeypatch.setattr(compound, "_mc_workers", lambda: 2)
    # one sample call per block
    monkeypatch.setattr(compound, "_MC_GROUP_DRAWS", 1 << 22)
    d = FirstCallFails()
    with pytest.raises(ValueError) as info:
        mc_tail(d, GeometricParams(0.5), 8 * (1 << 16), seed=1, xgrid=[10.0])
    assert info.value is FirstCallFails.error
    # the other thread finishes the block it is in and starts none of its
    # other three
    assert len(d.calls) < 1 + 4


def test_mc_handles_unsorted_grid():
    d = ParetoDist(2.2)
    params = GeometricParams(0.5)
    asc = mc_tail(d, params, 50_000, seed=3, xgrid=[5.0, 10.0, 20.0])
    mixed = mc_tail(d, params, 50_000, seed=3, xgrid=[20.0, 5.0, 10.0])
    # the table comes back in ascending grid order either way
    assert np.array_equal(mixed.xs, asc.xs)
    assert np.array_equal(mixed.tails, asc.tails)
    with pytest.raises(ValueError):
        mc_tail(d, params, 1000, seed=3, xgrid=[5.0, 5.0])


# ---------------------------------------------------------------- delta tables

def test_delta_from_tails_formula():
    d = ParetoDist(2.2)
    params = GeometricParams(0.5)
    xs = np.array([2.0, 4.0, 8.0])
    tails = np.array([0.2, 0.05, 0.01])
    tt = TailTable(xs=xs, tails=tails, stderrs=np.zeros(3), engine="panjer")
    dd = delta_from_tails(tt, d, params)
    expect = 0.5 * tails / d.tail(xs) - 1.0
    assert np.allclose(dd.delta, expect, rtol=1e-14)
    # stderr scales by the same factor as the estimate
    tt2 = TailTable(xs=xs, tails=tails, stderrs=np.full(3, 1e-3), engine="mc")
    dd2 = delta_from_tails(tt2, d, params)
    assert np.allclose(dd2.delta_stderr, 0.5e-3 / d.tail(xs), rtol=1e-14)


def test_delta_from_tails_rejects_vanishing_tail():
    d = ParetoDist(2.2)

    class Dead(ParetoDist):
        def tail(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

    tt = TailTable(xs=np.array([5.0]), tails=np.array([0.1]),
                   stderrs=np.zeros(1), engine="panjer")
    with pytest.raises(ValueError):
        delta_from_tails(tt, Dead(2.2), GeometricParams(0.5))
    # sane distribution passes
    delta_from_tails(tt, d, GeometricParams(0.5))


def test_brute_force_residual_warning():
    lat = LatticeDistribution(bandwidth=1.0, masses=np.array([0.0, 1.0]),
                              truncation_point=1.0, truncated_mass=0.0)
    with pytest.warns(UserWarning, match="residual"):
        brute_force_tail(lat, GeometricParams(0.5), 10)
