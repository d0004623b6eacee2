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

from geomtail import bounder, cli, compound
from geomtail.bounder import build_bound
from geomtail.compound import (
    TailTable,
    _dyadic_uniforms,
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
from geomtail.kernels import CutoffFunction, PowerTestFunction
from conftest import HoledPareto, lattice_from_masses, panjer_rounding, random_lattice


def brute_force_tail(
    lattice: LatticeDistribution,
    params: GeometricParams,
    term_cap: int,
) -> TailTable:
    """Oracle engine: sum p q^(k-1) P(X_1+...+X_k > x) over k up to term_cap,
    on the lattice's cells.

    The tails of the convolution powers come from T_1 = F, the lattice
    tails, and T_k(j) = F(j) + sum_{i=0..j} f_i T_(k-1)(j - i): the sum of k
    draws exceeds j when its last draw does, or when the last draw is i and
    the others exceed j - i. Every term is non-negative, so no tail is 1
    minus a sum, and each keeps its relative accuracy however small it is.

    The neglected count mass q^term_cap bounds the truncation error and is
    reported as the per-point stderr; a warning is raised when it exceeds
    1e-12. Quadratic in the lattice size, intended for small test lattices.
    """
    if term_cap < 1:
        raise ValueError("term_cap must be at least 1")
    p, q = params.p, params.q
    f, fbar = lattice.masses, lattice.tails
    nn = fbar.size
    acc = np.zeros(nn)
    tail_k = fbar
    weight = p
    for k in range(1, term_cap + 1):
        if k > 1:
            tail_k = fbar + np.convolve(f, tail_k)[:nn]
            weight *= q
        acc += weight * tail_k
    residual = q**term_cap
    if residual > 1e-12:
        warnings.warn(
            f"brute force truncated the count at {term_cap}; residual mass {residual:.3e}",
            stacklevel=2,
        )
    xs = np.arange(nn, dtype=float) * lattice.bandwidth
    return TailTable(
        xs=xs,
        tails=np.minimum(1.0, acc),
        stderrs=np.full(nn, residual),
        engine="brute",
    )


def cap_for(q, residual=1e-13):
    return int(math.ceil(math.log(residual) / math.log(q))) + 1


# ---------------------------------------------------------------- exact engines

def test_panjer_unit_severity_is_geometric():
    # X = 1 a.s.: S = count, so P(S > n) = q^n exactly
    lat = lattice_from_masses(1.0, [0.0, 1.0])
    for p in (0.3, 0.5, 0.8):
        tt = panjer_tail(lat, GeometricParams(p), 20.0)
        expect = (1.0 - p) ** np.arange(21)
        assert np.allclose(tt.tails, expect, rtol=1e-12, atol=1e-15)


def test_panjer_matches_brute_force_three_atoms():
    lat = lattice_from_masses(1.0, [0.0, 0.5, 0.3, 0.2])
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
        tt = panjer_tail(lat, params, lat.truncation_point * 4)
        bf = brute_force_tail(lat, params, cap_for(params.q))
        n = min(tt.xs.size, bf.xs.size)
        assert np.allclose(tt.tails[:n], bf.tails[:n], rtol=0, atol=2e-13)


# severities with their table end, where each tail is below 1e-30
FAR_TAILS = [
    (ParetoDist(15.0), 101.0),
    (ParetoDist(40.0), 6.0),
    (WeibullDist(0.5), 4800.0),
    (WeibullDist(0.8), 200.0),
    (PowerMixtureDist(((0.5, 12.0), (0.5, 25.0))), 300.0),
]


@st.composite
def far_tail_cases(draw):
    """A lattice whose tails fall far, and p: either a compact support of
    2-40 atoms padded with empty cells to 1-4 times its length, so the
    compound tail runs past the support, or a severity of FAR_TAILS
    discretized on 20-250 cells up to its table end, in any mode."""
    p = draw(st.floats(0.2, 0.95))
    bw = draw(st.sampled_from([0.25, 1.0]))
    if draw(st.booleans()):
        # atoms of at least 1e-6, so the smallest tail does not underflow
        # the count cut below
        atoms = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
        raw = draw(hnp.arrays(float, st.integers(2, 40), elements=atoms)
                   .filter(lambda r: r.sum() > 0.0))
        empty = draw(st.integers(0, 3 * raw.size))
        lattice = lattice_from_masses(bw, np.append(raw / raw.sum(), np.zeros(empty)))
    else:
        d, end = draw(st.sampled_from(FAR_TAILS))
        cells = draw(st.integers(20, 250))
        mode = draw(st.sampled_from(["rounded", "lower", "upper"]))
        lattice = discretize(d, end / cells, end, mode=mode)
        assert 0.0 < lattice.tails[-1] <= 1e-30
    return lattice, GeometricParams(p)


@settings(max_examples=30, deadline=None)
@given(far_tail_cases())
def test_panjer_matches_the_brute_force_to_1e_12_relative(case):
    # the oracle sums the tails of the convolution powers, with no 1 minus
    # a sum either; the count is cut where its neglected mass q^cap is below
    # 1e-14 of p times the smallest positive severity tail, which bounds the
    # compound tail wherever the severity tail is positive. Past a compact
    # support only points where q^cap is below 1e-14 of the tail are read
    lattice, params = case
    floor = params.p * np.min(lattice.tails[lattice.tails > 0.0], initial=1.0)
    cap = math.ceil(math.log(1e-14 * floor) / math.log(params.q))
    want = brute_force_tail(lattice, params, cap).tails
    got = panjer_tail(lattice, params, lattice.truncation_point).tails
    assert got.shape == want.shape
    read = params.q**cap <= 1e-14 * want
    assert read[lattice.tails > 0.0].all()
    assert np.all(np.abs(got - want)[read] <= 1e-12 * want[read])


def test_error_table_is_positive_on_pareto_5_out_to_1e4():
    # the lattice tails carry the far tail: delta = p P(S > x) / tail(x) - 1
    # is +0.0121, +0.0024 and +0.0012 at 1e3, 5e3 and 1e4, where tails
    # taken as 1 - cdf lose all relative accuracy and read -0.0008, -1, -1
    d, params = ParetoDist(5.0), GeometricParams(0.5)
    table = panjer_tail(discretize(d, 0.2, 1e4), params, 1e4)
    delta = delta_from_tails(table, d, params).delta[[5_000, 25_000, 50_000]]
    assert np.all(delta > 0.0)
    assert delta == pytest.approx([0.0121, 0.0024, 0.0012], abs=1e-4)


def panjer_tails_oldest_first(lattice, params, xmax):
    """The tail recursion over an oldest-first history: each cell dots the
    severity masses with a reversed view of the earlier cells, which np.dot
    copies before it runs, adds the severity tail and scales by a."""
    p, q = params.p, params.q
    n = int(math.floor(xmax / lattice.bandwidth + 1e-9))
    f, fbar = lattice.masses, lattice.tails
    # past the lattice, the truncated mass lies beyond every cell
    fbar = np.append(fbar, np.full(max(0, n + 1 - fbar.size), fbar[-1]))
    a = q / (1.0 - q * float(f[0]))
    z = np.empty(n + 1)
    z[0] = a * fbar[0]
    for k in range(1, n + 1):
        m = min(k, f.size - 1)
        z[k] = a * (float(np.dot(f[1 : m + 1], z[k - m : k][::-1])) + fbar[k])
    return np.minimum(1.0, z / q)


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
        lattice = lattice_from_masses(bw, raw / raw.sum())
    else:
        d = draw(st.sampled_from([ParetoDist(2.2), ParetoDist(5.0), WeibullDist(0.5)]))
        mode = draw(st.sampled_from(["rounded", "lower", "upper"]))
        lattice = discretize(d, bw, 2 * cells * bw, mode=mode)
    return lattice, GeometricParams(p), cells * bw


THREE_ATOMS = lattice_from_masses(0.5, [0.1, 0.5, 0.4])
# 0.9697 of the mass on cell 1 and 0.003788 on each other cell: at p = 0.05
# and xmax = 0.38 the two orders once differed by q * 1.002e-15 (4.5 ulps
# of 1)
_NINE = np.array([1.0 / 256.0, 1.0] + [1.0 / 256.0] * 7)
NINE_CELLS = lattice_from_masses(0.02, _NINE / _NINE.sum())


def rounding_bound(lattice, params, xmax):
    """A bound on |blocked - oldest-first| / oldest-first from the two
    summation orders.

    Both orders compute the shifted tails Z_k from the same rounded a, f
    and F, and every term of every sum is non-negative. So a computed Z_k is
    the exact one with each of its terms multiplied by at most N factors
    (1 + t), |t| <= u = 2^-53, for N the longest chain of roundings behind
    it, and it is within gamma_N = N u / (1 - N u) of exact, relative. In a
    sum of non-negative terms a term passes through at most one inexact
    addition per other nonzero term, and cell k reads at most
    m = min(n, f.size - 1) severity masses:

    - oldest first, each cell costs one product, m - 1 additions, the
      severity tail and the factor a, m + 2 roundings, over a chain of at
      most n cells;
    - blocked, a block of L cells costs the history product and the factor
      a (m + 1), the severity tail (1), the entries of M (the recursion
      itself for up to L - 1 cells, (L - 1)(m + 1)) and the L-term product
      M r (L), so at most L (m + 3), over ceil(n / L) blocks.

    Each order then divides by q, one rounding more. So the two differ by at
    most (gamma_N1 + gamma_N2) times the exact tail, which is at most the
    oldest-first one over 1 - gamma_N2; a factor 2 covers that and the
    clamp at 1. Near the underflow threshold, 2.2e-308, a rounding can also
    lose up to 2^-1075 absolutely, so the bound is read against 1e-290 for
    the tails below it.
    """
    u = 2.0**-53
    n = int(math.floor(xmax / lattice.bandwidth + 1e-9))
    m = min(n, lattice.masses.size - 1)
    size = compound._PANJER_BLOCK
    chains = (n * (m + 2) + 1, -(-n // size) * size * (m + 3) + 1)
    return 2.0 * sum(c * u / (1.0 - c * u) for c in chains)


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
# a case hypothesis found past a fixed absolute bound of 1e-15, and one
# whose tails fall below the underflow threshold
@example((NINE_CELLS, GeometricParams(0.05), 0.38))
@example((lattice_from_masses(0.02, [16.0 / 17.0, 1.0 / 17.0]), GeometricParams(0.5), 4.94))
def test_panjer_matches_the_oldest_first_recursion(case):
    # the blocked recursion adds the same non-negative terms in another
    # order; the tails agree within the rounding of the two orders,
    # relative to each tail (rounding_bound)
    lattice, params, xmax = case
    got = panjer_tail(lattice, params, xmax).tails
    want = panjer_tails_oldest_first(lattice, params, xmax)
    assert got.shape == want.shape
    bound = rounding_bound(lattice, params, xmax)
    assert np.all(np.abs(got - want) <= bound * np.maximum(want, 1e-290))


@settings(max_examples=100, deadline=None)
@given(panjer_cases())
# a subnormal tail, where a rounding loses up to 2^-1075 absolutely
@example((LatticeDistribution(bandwidth=0.02, tails=np.array([2.22507386e-313, 0.0]),
                             truncation_point=0.02),
          GeometricParams(0.875), 0.02))
def test_panjer_is_at_least_the_one_big_jump_bound(case):
    # S = X_1 + ... + X_N with N >= 1, P(N = n) = p q^(n - 1), and X >= 0
    # exceeds x once one summand does: P(S > x) >= P(max X_i > x) =
    # 1 - E[(1 - T)^N] = T / (p + q T), T = P(X > x). It holds on any
    # lattice with that lattice's own tail, and shares no step with the
    # recursion; panjer_tail reads a lattice that ends before the table as
    # holding its truncated mass beyond, so T stays at its last tail there.
    # The slack is panjer_tail's stated rounding, read against 1e-290 below
    # it, as rounding_bound's is
    lattice, params, xmax = case
    tails = panjer_tail(lattice, params, xmax).tails
    n = tails.size - 1
    T = lattice.tails[np.minimum(np.arange(n + 1), lattice.tails.size - 1)]
    bound = T / (params.p + params.q * T)
    assert np.all(tails >= bound - panjer_rounding(n) * np.maximum(bound, 1e-290))


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
    # histories are read in pieces of compound._PANJER_HISTORY_CHUNK terms.
    # The two orders differ by at most 1.2e-15 relative on these lattices,
    # far inside rounding_bound's worst case of 1e-8 to 1e-6
    lattice = discretize(d, bw, 2.0 * xmax)
    params = GeometricParams(p)
    got = panjer_tail(lattice, params, xmax).tails
    assert got.size == cells
    want = panjer_tails_oldest_first(lattice, params, xmax)
    assert params.q * np.max(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(got - want) / want) <= 1e-14


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
    lat = lattice_from_masses(1.0, [0.0, 0.5, 0.3, 0.2])
    params = GeometricParams(0.4)
    with pytest.warns(UserWarning):
        bf = brute_force_tail(lat, params, 1)
    # one count term: P(S > x) = p * P(X > x)
    tail_x = np.array([1.0, 0.5, 0.2, 0.0])
    assert np.allclose(bf.tails, 0.4 * tail_x, rtol=1e-14)
    assert np.all(bf.stderrs == pytest.approx(0.6))


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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: panjer_tail(discretize(ParetoDist(2.2), 0.5, 10.0),
                                     GeometricParams(0.5), 0.0),
                 "xmax must be positive", id="panjer xmax = 0"),
    pytest.param(lambda: mc_tail(ParetoDist(2.2), GeometricParams(0.5), 100, 1, []),
                 "xgrid must be a non-empty 1-d array", id="mc empty xgrid"),
])
def test_engines_reject_an_empty_range(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------- kept table

class CountingNumpy:
    """numpy, with a count of its np.correlate calls."""

    def __init__(self):
        self.correlations = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def correlate(self, *args, **kwargs):
        self.correlations += 1
        return np.correlate(*args, **kwargs)


def test_panjer_tail_recurses_on_every_call_with_writable_tails(monkeypatch):
    # panjer_tail keeps nothing: each call runs the recursion, one history
    # product for each of the 32 blocks of 64 cells past cell 0 of 2,001, and
    # returns its own arrays
    counting = CountingNumpy()
    monkeypatch.setattr(compound, "np", counting)
    lattice, params = discretize(ParetoDist(2.2), 0.05, 200.0), GeometricParams(0.5)
    first = panjer_tail(lattice, params, 100.0)
    assert counting.correlations == 32
    second = panjer_tail(lattice, params, 100.0)
    assert counting.correlations == 64
    assert same_table(first, second)
    for a, b in ((first.xs, second.xs), (first.tails, second.tails)):
        assert a.flags.writeable and b.flags.writeable and not np.shares_memory(a, b)


def fresh_tail_table(*args, **kwargs):
    """bounder._tail_table with no table kept, as the first call of a process."""
    bounder._panjer_last.clear()
    return bounder._tail_table(*args, **kwargs)


def serve(patch, lattice):
    """Make bounder's discretize return ``lattice``, whatever it is asked for,
    and give a stand-in dist of its own to ask with: the kept table is keyed
    on the dist, which fixes the lattice."""
    patch.setattr(bounder, "discretize", lambda *args, **kwargs: lattice)
    return object()


def same_table(a: TailTable, b: TailTable) -> bool:
    return (a.engine == b.engine and a.xs.tobytes() == b.xs.tobytes()
            and a.tails.tobytes() == b.tails.tobytes()
            and a.stderrs.tobytes() == b.stderrs.tobytes())


@pytest.fixture
def recursions(monkeypatch):
    """The xmax of each panjer_tail call _tail_table makes, in order."""
    calls = []
    real = bounder.panjer_tail

    def counted(lattice, params, xmax):
        calls.append(xmax)
        return real(lattice, params, xmax)

    monkeypatch.setattr(bounder, "panjer_tail", counted)
    return calls


def test_kept_table_is_the_same_bytes_and_read_only(recursions):
    dist, params = ParetoDist(2.2), GeometricParams(0.5)
    first = fresh_tail_table(dist, params, 100.0, bandwidth=0.05)
    # the same call, and an xmax in the same cell, whose lattice is longer
    # and holds the same tails up to xmax: the recursion would read the same
    # inputs
    again = [bounder._tail_table(dist, params, 100.0, bandwidth=0.05),
             bounder._tail_table(dist, GeometricParams(0.5), 100.04, bandwidth=0.05)]
    assert recursions == [100.0]
    assert same_table(first, panjer_tail(discretize(dist, 0.05, 200.0), params, 100.0))
    for table in [first, *again]:
        assert same_table(table, first)
        assert not any(a.flags.writeable for a in (table.xs, table.tails, table.stderrs))
        with pytest.raises(ValueError, match="read-only"):
            table.tails[0] = 0.5
    # tails read off at given points are a table of their own
    points = bounder._tail_table(dist, params, 100.0, bandwidth=0.05, xs=np.array([1.0, 50.0]))
    assert recursions == [100.0]
    assert points.tails.tobytes() == first.tails[[20, 1000]].tobytes()
    assert points.tails.flags.writeable


def _tails_with_one_bit_moved(lattice):
    tails = lattice.tails.copy()
    tails[30] = np.nextafter(tails[30], 0.0)
    return LatticeDistribution(bandwidth=lattice.bandwidth, tails=tails,
                               truncation_point=lattice.truncation_point)


@pytest.mark.parametrize("change", ["p", "xmax", "one tail", "dist class", "mode"])
def test_kept_table_misses_on_any_input_the_recursion_reads(monkeypatch, recursions, change):
    dist, params, xmax, mode = ParetoDist(2.2), GeometricParams(0.5), 100.0, "rounded"
    lattice = discretize(dist, 0.05, 200.0)
    if change == "one tail":
        dist = serve(monkeypatch, lattice)
    fresh_tail_table(dist, params, xmax, bandwidth=0.05, mode=mode)
    if change == "p":
        params = GeometricParams(float(np.nextafter(0.5, 1.0)))
    elif change == "xmax":
        xmax = 100.05
    elif change == "one tail":
        dist = serve(monkeypatch, _tails_with_one_bit_moved(lattice))
    elif change == "dist class":
        # equal fields and, with no lattice point in its hole, equal lattice
        # tails: == still tells the classes apart
        dist = HoledPareto(2.2, (50.005, 50.02))
    else:
        mode = "lower"
    got = bounder._tail_table(dist, params, xmax, bandwidth=0.05, mode=mode)
    assert len(recursions) == 2
    assert same_table(got, fresh_tail_table(dist, params, xmax, bandwidth=0.05, mode=mode))


def test_tail_table_refuses_an_unknown_mode():
    # discretize checks the mode before any recursion; certificates read the
    # upper lattice, and the tail and delta estimates all three
    with pytest.raises(ValueError, match="^unknown discretization mode 'bogus'$"):
        fresh_tail_table(ParetoDist(2.2), GeometricParams(0.5), 100.0, bandwidth=0.05,
                         mode="bogus")
    assert bounder._panjer_last == {}


# the benchmark's tune_cli inputs: criterion 2 tuned over 5 scales and 4
# splice points, and its error estimated on xgrid with its brackets
TUNE_DELTA_CONFIG = """\
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = 0.02
grid_ratio = 1.2
B = 100
h.family = power
h.scale = 1.0
h.gamma = 0.3125
g.variant = power
g.exponent = 0.6875
tune.s = 1.0, 1.14, 1.4, 1.7, 2.0
tune.bstar = none, 15, 21.3, 27.1
xgrid = 5, 10, 20, 35, 50, 75, 100
"""


def test_a_certificate_and_an_estimate_keep_a_table_each(monkeypatch, recursions, tmp_path):
    # tune reads the upper lattice, and delta the rounded one with its lower
    # and upper brackets, all up to 100: one table per lattice is kept, so
    # the first round recurses once on each lattice (delta's hi column reads
    # tune's table) and the second not at all, where a single kept table
    # would have them evict each other every round
    monkeypatch.setattr(bounder, "_panjer_last", {})
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TUNE_DELTA_CONFIG)
    for _ in range(2):
        for command in ("tune", "delta"):
            assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert recursions == [100.0, 100.0, 100.0]
    assert sorted(bounder._panjer_last) == ["lower", "rounded", "upper"]


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([ParetoDist(2.2), ParetoDist(5.0), WeibullDist(0.5),
                          PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0)))]),
       p=st.floats(0.05, 0.95), bw=st.floats(0.05, 1.0), xmax=st.floats(1.0, 40.0))
def test_upper_and_lower_lattices_bracket_the_compound_tail(d, p, bw, xmax):
    # bw ceil(X / bw) >= X >= bw floor(X / bw) pathwise, and a coarser
    # lattice rounds further, so at the points j bw of both lattices the
    # compound tails are ordered upper(bw) >= upper(bw/2) >= lower(bw/2) >=
    # lower(bw): the upper lattice's lies above P(S > x), which is why
    # certificates read it. Each computed tail is within panjer_rounding of
    # its exact value, relative
    params = GeometricParams(p)
    tables = [bounder._tail_table(d, params, xmax, bandwidth=width, mode=mode).tails
              for mode, width in (("upper", bw), ("upper", bw / 2), ("lower", bw / 2),
                                  ("lower", bw))]
    points = tables[0].size
    shared = [t[:: round(bw / w)][:points] for t, w in zip(tables, (bw, bw / 2, bw / 2, bw))]
    slack = [panjer_rounding(t.size - 1) for t in tables]
    for hi, lo, g_hi, g_lo in zip(shared, shared[1:], slack, slack[1:]):
        assert np.all(hi / (1.0 - g_hi) >= lo / (1.0 + g_lo))


def _lattice(masses, truncated_mass=0.0):
    return lattice_from_masses(1.0, masses, truncated_mass)


# each panjer_tail guard on a valid lattice: a truncated one, and all the
# mass at zero under p = 1e-17, where q rounds to 1
@pytest.mark.parametrize("lattice, p, message", [
    (_lattice([0.0, 0.5, 0.3], 0.2), 0.5, "truncated at 2"),
    (_lattice([1.0, 0.0]), 1e-17, "denominator vanishes"),
], ids=["truncated", "q f0 >= 1"])
def test_a_failed_call_keeps_nothing(monkeypatch, recursions, lattice, p, message):
    # the mode's kept table is dropped before panjer_tail runs, so a call
    # that fails leaves nothing kept
    good, params = _lattice([0.0, 0.5, 0.5]), GeometricParams(0.5)
    stand_in = serve(monkeypatch, good)
    want = fresh_tail_table(stand_in, params, 20.0, bandwidth=1.0)
    failing = serve(monkeypatch, lattice)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            bounder._tail_table(failing, GeometricParams(p), 20.0, bandwidth=1.0)
        assert bounder._panjer_last == {}
    serve(monkeypatch, good)
    assert same_table(bounder._tail_table(stand_in, params, 20.0, bandwidth=1.0), want)
    assert list(bounder._panjer_last) == ["rounded"]
    assert len(recursions) == 4


def test_criterion_2_certificates_do_not_depend_on_the_kept_table(recursions):
    # pure, scaled and spliced read one lattice and p: the scaled and spliced
    # certificates reuse the pure one's table
    def certify(scale, bstar):
        return build_bound(ParetoDist(2.2), GeometricParams(0.5),
                           CutoffFunction.power(scale, 1.0 / 3.2), PowerTestFunction(1.0, 0.6875),
                           100.0, engine="panjer", bandwidth=0.02, bstar=bstar,
                           grid_ratio=1.2).to_text()

    bounder._panjer_last.clear()
    configs = [(1.0, None), (1.7, None), (1.14, 21.3)]
    warm = [certify(*config) for config in configs]
    assert len(recursions) == 1
    cold = []
    for config in configs:
        bounder._panjer_last.clear()
        cold.append(certify(*config))
    assert len(recursions) == 4
    assert warm == cold


def test_threads_on_different_lattices_get_their_own_tables():
    # more threads than cores, switching every microsecond, each on its own
    # lattice or p: a table handed to the wrong key would show in its bytes
    cases = [(ParetoDist(2.2), GeometricParams(0.5), 100.0),
             (ParetoDist(2.2), GeometricParams(0.3), 100.0),
             (WeibullDist(0.5), GeometricParams(0.5), 80.0),
             (ParetoDist(5.0), GeometricParams(0.7), 60.0)]
    want = [fresh_tail_table(*case, bandwidth=0.1).tails.tobytes() for case in cases]
    got = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def run(i):
        start.wait()
        for _ in range(20):
            got[i].append(bounder._tail_table(*cases[i], bandwidth=0.1).tails.tobytes())

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 20 for w in want]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       calls=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.2, 0.5, 0.8]),
                                st.integers(1, 4)), min_size=1, max_size=12))
def test_interleaved_calls_are_the_calls_with_nothing_kept(seed, calls):
    rng = np.random.default_rng(seed)
    lattices = [random_lattice(rng) for _ in range(3)]
    with pytest.MonkeyPatch.context() as patch:
        stand_ins = [serve(patch, lattice) for lattice in lattices]
        for i, p, k in calls + calls[::-1]:
            lattice = lattices[i]
            serve(patch, lattice)
            params, xmax = GeometricParams(p), k * lattice.truncation_point
            got = bounder._tail_table(stand_ins[i], params, xmax, bandwidth=lattice.bandwidth)
            assert same_table(got, panjer_tail(lattice, params, xmax))


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


TOP = 2**53 - 1  # the one k whose uniform rounds to 1.0


@pytest.mark.parametrize("ks", [
    pytest.param([TOP, 5, 2**52, 2**53 - 2], id="first"),
    pytest.param([5, 2**52, TOP, 2**53 - 2, 7], id="middle"),
    pytest.param([5, 2**52, 2**53 - 2, TOP], id="last"),
    pytest.param([0, 5, 2**52, 2**52 + 1, 2**53 - 2], id="absent"),
    pytest.param([], id="empty"),
])
def test_dyadic_uniforms_clamp_only_the_top_value(ks):
    u = _dyadic_uniforms(FixedDraws(ks), np.empty(len(ks)))
    assert np.array_equal(u, integer_dyadic_uniforms(np.array(ks, dtype=np.uint64)))
    # every other value is the drawn k 2^-53 plus 2^-54, as it was
    other = np.array([k != TOP for k in ks], dtype=bool)
    assert np.array_equal(u[other], np.array(ks, dtype=np.uint64)[other] * 0.5**53 + 0.5**54)
    assert np.all(u[~other] == np.nextafter(1.0, 0.0))


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
# criterion 5's grid: screened for a power mixture only
@example(case=(MIXTURE, GeometricParams(0.5), 0.999 * 80 ** (1 / 3)), n=70_000, seed=20250817)
@example(case=(WeibullDist(0.5), GeometricParams(0.3), 0.5), n=20_000, seed=9)
@example(case=(ParetoDist(2.2), GeometricParams(0.7), 1e6), n=5_000, seed=2)
def test_screened_mc_is_the_serial_engine_bit_for_bit(case, n, seed):
    d, params, x0 = case
    xgrid = [x0 * 3.0 + 1.0, x0, x0 * 1.5 + 0.1]
    tails, stderrs = serial_mc_tail(d, params, n, seed, xgrid)
    got = mc_tail(d, params, n, seed, xgrid)
    assert np.array_equal(got.tails, tails)
    assert np.array_equal(got.stderrs, stderrs)


class HalfShareMixture(PowerMixtureDist):
    """A power mixture held to the closed forms' screen threshold."""

    mc_screen_max_share = 0.5


def test_each_family_sets_its_screen_threshold():
    params = GeometricParams(0.5)
    # criterion 5's mixture and grid: K = 2, candidates hold 60% of the draws
    c5 = PowerMixtureDist(((1.0 / 3.0, 2.0), (2.0 / 3.0, 3.0)))
    x0 = 0.999 * 80 ** (1 / 3)
    assert compound._mc_screen(c5, params, x0)[0] == 2
    assert compound._mc_screen(MIXTURE, params, x0) is not None
    # the same shares above one half screen nothing at the closed forms' threshold
    assert compound._mc_screen(HalfShareMixture(c5.terms), params, x0) is None
    assert compound._mc_screen(HalfShareMixture(MIXTURE.terms), params, x0) is None
    # Pareto and Weibull keep one half: candidate shares 0.85 and 0.64
    assert compound._mc_screen(ParetoDist(2.2), params, 1.5) is None
    assert compound._mc_screen(WeibullDist(0.5), params, x0) is None


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
    with pytest.raises(ValueError, match="^severity tail vanishes on the grid; "):
        delta_from_tails(tt, Dead(2.2), GeometricParams(0.5))
    # a NaN tail, which fails no "<= 0" test, is refused at its first point
    tt = TailTable(xs=np.array([5.0, 50.05, 50.08]), tails=np.full(3, 0.1),
                   stderrs=np.zeros(3), engine="mc")
    with pytest.raises(ValueError, match="^severity tail is nan at x=50.05; relative error"):
        delta_from_tails(tt, HoledPareto(2.2), GeometricParams(0.5))
    # sane distribution passes
    delta_from_tails(tt, d, GeometricParams(0.5))


def test_brute_force_residual_warning():
    lat = lattice_from_masses(1.0, [0.0, 1.0])
    with pytest.warns(UserWarning, match="residual"):
        brute_force_tail(lat, GeometricParams(0.5), 10)
