"""Shared fixtures and helper distributions for the test suite."""

import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from geomtail import compound
from geomtail.dist import LatticeDistribution, ParetoDist, SummandDistribution

# HYPOTHESIS_PROFILE=ci prints the reproduction blob of a failing property
# and drops the deadline, which a slow shared runner would trip
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class PointMass(SummandDistribution):
    """Degenerate severity with a single atom, for lattice-semantics tests."""

    def __init__(self, atom):
        self.atom = float(atom)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.atom, 1.0, 0.0)

    def tail_ge(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.atom, 1.0, 0.0)


@dataclass(frozen=True)
class HoledPareto(ParetoDist):
    """Pareto whose tail is NaN on the open interval ``hole``."""

    hole: tuple = (50.0, 50.1)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.hole
        t = np.where((lo < x) & (x < hi), math.nan, super().tail(x))
        return t if t.ndim else float(t)


def lattice_from_masses(bandwidth, masses, truncated_mass=0.0):
    """The lattice of the given masses on 0, bw, 2 bw, ... and the given mass
    beyond: each tail is the truncated mass plus the masses above its cell, a
    reverse running sum, held at 1 where the masses' rounding lifts it."""
    masses = np.asarray(masses, dtype=float)
    tails = np.cumsum(np.append(truncated_mass, masses[:0:-1]))[::-1]
    tails = np.where(tails <= 1.0 + 1e-12, np.minimum(tails, 1.0), tails)
    return LatticeDistribution(bandwidth=bandwidth, tails=tails,
                               truncation_point=bandwidth * (masses.size - 1))


def panjer_rounding(n: int) -> float:
    """panjer_tail's stated relative bound on a table of n + 1 cells whose
    lattice reaches past it: gamma_N for N = (n + L)(n + 3) + 1."""
    u, chain = 2.0**-53, (n + compound._PANJER_BLOCK) * (n + 3) + 1
    return chain * u / (1.0 - chain * u)


def random_lattice(rng, max_atoms=25):
    """Random finite severity on a lattice with no truncated mass."""
    bandwidth = float(rng.choice([0.25, 0.5, 1.0]))
    n = int(rng.integers(5, max_atoms + 1))
    raw = rng.random(n + 1)
    raw[0] *= 0.2  # keep the atom at zero from dominating
    return lattice_from_masses(bandwidth, raw / raw.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20250818)
