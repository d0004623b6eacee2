"""Pinned outputs: four certificates, two tune tables and two failure
messages, byte for byte.

A change meant to leave the arithmetic alone must leave these texts exactly as
they are. A change that does alter the arithmetic updates the literals and
records the drift in CHANGES.md.
"""

import pytest

from geomtail.cli import main

PURE_CONFIG = """\
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = 0.05
B = 100
h.family = power
h.scale = 1.0
h.gamma = 0.3125
g.variant = power
g.exponent = 0.6875
"""

PURE_OUTPUT = """\
# bound certificate
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = 0.05
h.family = power
h.scale = 1
h.gamma = 0.3125
g.variant = power
g.coef = 1
g.exponent = 0.6875
B = 100
b = 100
delta_b = 0.785556796676
phi = 1.87267007011
c_hb_b = 14.8215981535
C = 13.5158772372
valid_from = 100
tail_coefficient = 13.5158772372
delta_tail_certified = true
phi_tail_certified = true
report = Delta(x) <= 13.5159 * x^-0.6875 for x >= 100
"""

SPLICED_CONFIG = """\
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = 0.05
B = 100
h.family = power
h.scale = 1.14
h.gamma = 0.3125
g.variant = spliced
g.exponent = 0.6875
g.bstar = 21.3
"""

SPLICED_OUTPUT = """\
# bound certificate
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = 0.05
h.family = power
h.scale = 1.14
h.gamma = 0.3125
g.variant = spliced
g.bstar = 21.3
g.coef = 1
g.exponent = 0.6875
B = 100
b = 100
delta_b = 0.749133698485
phi = 0.241930564059
c_hb_b = 1
C = 0.991064262544
valid_from = 100
kappa_splice = 8.79352410425
tail_coefficient = 8.71494748154
delta_tail_certified = true
phi_tail_certified = true
report = Delta(x) <= 8.71495 * x^-0.6875 for x >= 100
"""

KKERNEL_CONFIG = """\
family = weibull
beta = 0.5
p = 0.5
engine = panjer
bandwidth = 0.05
B = 100
h.family = logpower
h.scale = 0.179
h.kappa = 2
g.variant = kkernel
"""

KKERNEL_OUTPUT = """\
# bound certificate
family = weibull
beta = 0.5
p = 0.5
engine = panjer
bandwidth = 0.05
h.family = logpower
h.scale = 0.179
h.kappa = 2
g.variant = kkernel
B = 100
b = 100
delta_b = 0.601057223183
phi = 1.17765519214
c_hb_b = 2.73472051801
C = 2.9519401292
valid_from = 100
delta_tail_certified = false
phi_tail_certified = false
caveats = delta sup: grid maximum only; tail beyond 1e+08 not certified: f2 = q g(h) J / g(x) grows without bound for kappa*beta < 1 (or = 1 with scale < 1); the supremum diverges | phi sup: grid maximum only; tail beyond 1e+08 not certified: f2 = q g(h) J / g(x) grows without bound for kappa*beta < 1 (or = 1 with scale < 1); the supremum diverges
report = Delta(x) <= 2.95194 * K(x,h(x)) for x >= 100, h(x) = 0.179 * (log x)^2
"""

TUNE_CONFIG = """\
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = 0.05
B = 100
h.family = power
h.scale = 1.0
h.gamma = 0.3125
g.variant = power
g.exponent = 0.6875
x_far = 1e6
grid_ratio = 1.2
tune.s = 1.0, 1.14, 1.7
tune.bstar = none, 21.3
"""

TUNE_OUTPUT = """\
# best scale = 1.14
# best bstar = 21.3
# coefficient = 8.71494748154
# C = 0.991064262544
scale,bstar,feasible,C,coefficient,note
1,none,1,13.5158772372,13.5158772372,
1,21.3,1,1.00301627735,8.82004781185,
1.14,none,1,12.9646375812,12.9646375812,
1.14,21.3,1,0.991064262544,8.71494748154,
1.7,none,1,13.2231809688,13.2231809688,
1.7,21.3,1,1.23508826552,10.8607784338,
"""

# criterion 2 at its acceptance bandwidth with a small cutoff scale: at 0.3
# the sweep reaches x = 8.8e7, where J is 4.9e-5, and every J must converge
# there so that the rows report the contraction's delta, not a kernel failure
TUNE_SMALL_SCALE_CONFIG = """\
family = pareto
alpha = 2.2
p = 0.5
engine = panjer
bandwidth = 0.005
B = 100
h.family = power
h.scale = 1.0
h.gamma = 0.3125
g.variant = power
g.exponent = 0.6875
tune.s = 0.3, 1.0
tune.bstar = none, 21.3
"""

TUNE_SMALL_SCALE_OUTPUT = """\
# best scale = 1
# best bstar = 21.3
# coefficient = 8.89896627122
# C = 1.04455983474
scale,bstar,feasible,C,coefficient,note
0.3,none,0,,,delta = 6.711 >= 1
0.3,21.3,0,,,delta = 3.17 >= 1
1,none,1,13.1838496072,13.1838496072,
1,21.3,1,1.04455983474,8.89896627122,
"""

# criterion 5 of the acceptance suite at 2e5 sums and a coarser sweep: pins
# the seeded Monte Carlo engine and the mixture sampler
MIXTURE_MC_CONFIG = """\
family = mixture
terms = (0.3333333333333333, 2), (0.6666666666666666, 3)
p = 0.5
engine = mc
mc_samples = 200000
seed = 20250817
B = 80
h.family = power
h.scale = 1.0
h.gamma = 0.3333333333333333
g.variant = power
g.exponent = 0.6666666666666666
grid_ratio = 1.2
"""

MIXTURE_MC_OUTPUT = """\
# bound certificate
family = mixture
terms = [(0.333333333333, 2), (0.666666666667, 3)]
p = 0.5
engine = mc
mc_samples = 200000
seed = 20250817
h.family = power
h.scale = 1
h.gamma = 0.333333333333
g.variant = power
g.coef = 1
g.exponent = 0.666666666667
B = 80
b = 80
delta_b = 0.690798789541
phi = 1.71198447385
c_hb_b = 16.6099030379
C = 13.1860853868
valid_from = 80
tail_coefficient = 13.1860853868
delta_tail_certified = true
phi_tail_certified = true
caveats = interval constant from a Monte Carlo table with a two-standard-error margin
report = Delta(x) <= 13.1861 * x^-0.666667 for x >= 80
"""

# criteria 3 (pure) and 6 (unscaled) fail at the benchmark's resolution
# (Panjer bandwidth x4, grid_ratio 1.2); the messages pin the min-b search
C3_PURE_CONFIG = """\
family = pareto
alpha = 2.2
p = 0.2
engine = panjer
bandwidth = 0.02
grid_ratio = 1.2
B = 100
h.family = power
h.scale = 1.0
h.gamma = 0.3125
g.variant = power
g.exponent = 0.6875
"""

C3_PURE_MESSAGE = (
    "bound construction failed: delta(100) = 1.25689 >= 1; the bound construction "
    "requires delta < 1 (smallest integer b with delta(b) < 1 is 1082)\n"
)

C6_UNSCALED_CONFIG = """\
family = weibull
beta = 0.5
p = 0.5
engine = panjer
bandwidth = 0.008
grid_ratio = 1.2
B = 100
h.family = logpower
h.scale = 1.0
h.kappa = 2
g.variant = kkernel
"""

C6_UNSCALED_MESSAGE = (
    "bound construction failed: delta(100) = 1.6247 >= 1; the bound construction "
    "requires delta < 1 (smallest integer b with delta(b) < 1 is 1658)\n"
)


CASES = {
    "pure": ("bound", PURE_CONFIG, PURE_OUTPUT),
    "spliced": ("bound", SPLICED_CONFIG, SPLICED_OUTPUT),
    "kkernel": ("bound", KKERNEL_CONFIG, KKERNEL_OUTPUT),
    "tune": ("tune", TUNE_CONFIG, TUNE_OUTPUT),
    "tune_small_scale": ("tune", TUNE_SMALL_SCALE_CONFIG, TUNE_SMALL_SCALE_OUTPUT),
    "mixture_mc": ("bound", MIXTURE_MC_CONFIG, MIXTURE_MC_OUTPUT),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(tmp_path, name):
    command, config, expected = CASES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == expected


FAILURES = {
    "c3_pure": (C3_PURE_CONFIG, C3_PURE_MESSAGE),
    "c6_unscaled": (C6_UNSCALED_CONFIG, C6_UNSCALED_MESSAGE),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_message_is_byte_identical(tmp_path, capsys, name):
    config, expected = FAILURES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out.txt"
    assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == expected
    assert not out.exists()
