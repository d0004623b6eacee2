"""A fixed computation that measures how fast the machine runs during a run.

The benchmark's own code, not the package's: it stays the same on every
commit, so the speed it measures is the host's, not the program's. Its three
parts have the shapes of the package's hot loops: adaptive quadrature of a
Python integrand (the J kernel of every sweep point), short dot products in a
Python loop (the Panjer recursion) and vector arithmetic on arrays of an MC
block's size (the severity samplers). ``Reference.run`` does one round, about
16 ms on a quiet host, and returns its seconds per kind of work.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
from scipy import integrate

def _ratio_density(y: float, x: float, a: float) -> float:
    return ((1.0 + x - y) / (1.0 + x)) ** -a * a * (1.0 + y) ** (-a - 1.0)


class Reference:
    """The computation's inputs and work arrays; ``run`` does one round."""

    def __init__(self):
        rng = np.random.default_rng(20250817)
        self.f = rng.random(4000) / 4000.0
        self.w = rng.random(4000)
        # one MC block's severity draws (2^16 sums of two draws on average),
        # with preallocated work arrays so that no step allocates or faults
        # in memory
        self.u = rng.random(1 << 17)
        self.lo, self.hi, self.mid, self.t1, self.t2 = (np.empty_like(self.u)
                                                        for _ in range(5))
        self.high = np.empty(self.u.size, dtype=bool)
        # (kind, k): 10 quadrature, 8 dot-product and 4 vector segments
        self.parts = ([(0, k) for k in range(10)] + [(1, k) for k in range(8)]
                      + [(2, k) for k in range(4)])

    def quadrature(self, k: int) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            for i in range(4):
                x = 20.0 * 1.5 ** (k + i)
                integrate.quad(_ratio_density, 0.5, x - 0.5, args=(x, 2.2),
                               points=(1.0, 5.0, x / 2.0), limit=512, epsabs=1e-300,
                               epsrel=1e-10)

    def dots(self, k: int) -> None:
        w = np.empty(self.w.size)
        w[0] = 1.0
        for j in range(1, 200):
            m = 2000 + 200 * k + j
            w[j] = float(np.dot(self.f[1:m], self.w[m - 1:0:-1]))

    def vector(self, k: int) -> None:
        # one bisection step of a mixture-tail inversion, as the samplers do
        self.lo.fill(0.0)
        self.hi.fill(40.0 + k)
        np.add(self.lo, self.hi, out=self.mid)
        np.multiply(self.mid, 0.5, out=self.mid)
        np.multiply(self.mid, -2.0, out=self.t1)
        np.exp(self.t1, out=self.t1)
        np.multiply(self.mid, -3.0, out=self.t2)
        np.exp(self.t2, out=self.t2)
        np.multiply(self.t2, 2.0, out=self.t2)
        np.add(self.t1, self.t2, out=self.t1)
        np.divide(self.t1, 3.0, out=self.t1)
        np.greater(self.t1, self.u, out=self.high)
        np.copyto(self.lo, self.mid, where=self.high)
        np.copyto(self.hi, self.mid, where=~self.high)

    def run(self) -> list[float]:
        """Seconds of one round per kind: quadrature, dot products, vector."""
        kinds = (self.quadrature, self.dots, self.vector)
        times = [0.0, 0.0, 0.0]
        for kind, k in self.parts:
            t0 = time.perf_counter()
            kinds[kind](k)
            times[kind] += time.perf_counter() - t0
        return times
