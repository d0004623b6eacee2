"""Flat key=value run configuration.

One file drives every CLI command. Lines are ``key = value``; blank lines
and ``#`` comments are ignored. Unknown keys are rejected so typos fail
loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .dist import (
    ConfigError,
    GeometricParams,
    ParetoDist,
    PowerMixtureDist,
    SummandDistribution,
    WeibullDist,
)
from .kernels import CutoffFunction, KKernelTestFunction, PowerTestFunction, TestFunction

__all__ = [
    "ConfigError", "RunConfig", "CONFIG_KEYS", "parse_kv",
    "build_dist", "build_params", "build_h", "build_g",
]


def parse_kv(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines, ignoring blanks and # comments."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = val
    return out


_STR_KEYS = {
    "family": ("pareto", "weibull", "mixture"),
    "engine": ("panjer", "mc"),
    "h.family": ("power", "logpower"),
    "g.variant": ("power", "kkernel", "spliced"),
    "mode": ("rounded", "lower", "upper"),
}
_FLOAT_KEYS = (
    "alpha", "beta", "p", "bandwidth", "B",
    "h.gamma", "h.kappa", "h.scale",
    "g.coef", "g.exponent", "g.bstar",
    "x_far", "grid_ratio", "plot.xmax",
)
_INT_KEYS = ("mc_samples", "seed", "plot.points")
_FLOAT_LIST_KEYS = ("xgrid", "tune.s", "tune.bstar")
# every key a configuration may set
CONFIG_KEYS = frozenset((*_STR_KEYS, *_FLOAT_KEYS, *_INT_KEYS, *_FLOAT_LIST_KEYS, "terms"))


def _parse_float(key: str, val: str) -> float:
    try:
        return float(val)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {val!r}") from exc


def _parse_terms(val: str) -> tuple[tuple[float, float], ...]:
    pairs = re.findall(r"\(([^()]*)\)", val)
    if not pairs:
        raise ConfigError(f"terms: expected [(c, a), ...], got {val!r}")
    out = []
    for pair in pairs:
        parts = [s.strip() for s in pair.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"terms: each entry needs (weight, exponent), got ({pair})")
        out.append((_parse_float("terms", parts[0]), _parse_float("terms", parts[1])))
    return tuple(out)


@dataclass
class RunConfig:
    """Typed view of one parsed configuration file."""

    values: dict = field(default_factory=dict)

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        raw = parse_kv(text)
        values: dict = {}
        for key, val in raw.items():
            if key in _STR_KEYS:
                if val not in _STR_KEYS[key]:
                    raise ConfigError(
                        f"{key}: expected one of {_STR_KEYS[key]}, got {val!r}"
                    )
                values[key] = val
            elif key in _FLOAT_KEYS:
                values[key] = _parse_float(key, val)
            elif key in _INT_KEYS:
                try:
                    values[key] = int(val)
                except ValueError as exc:
                    raise ConfigError(f"{key}: expected an integer, got {val!r}") from exc
            elif key in _FLOAT_LIST_KEYS:
                parts = [s for s in (t.strip() for t in val.split(",")) if s]
                if not parts:
                    raise ConfigError(f"{key}: expected a comma-separated list")
                # a splice point of none tunes the unspliced g
                values[key] = tuple(
                    None if key == "tune.bstar" and s.lower() == "none" else _parse_float(key, s)
                    for s in parts
                )
            elif key == "terms":
                values[key] = _parse_terms(val)
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
        return RunConfig(values=values)

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return RunConfig.from_text(fh.read())

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigError(f"missing required configuration keys: {key}")
        return self.values[key]


def build_dist(cfg: RunConfig) -> SummandDistribution:
    family = cfg.require("family")
    if family == "pareto":
        return ParetoDist(alpha=cfg.require("alpha"))
    if family == "weibull":
        return WeibullDist(beta=cfg.require("beta"))
    return PowerMixtureDist(terms=cfg.require("terms"))


def build_params(cfg: RunConfig) -> GeometricParams:
    return GeometricParams(p=cfg.require("p"))


def build_h(cfg: RunConfig) -> CutoffFunction:
    family = cfg.require("h.family")
    scale = cfg.require("h.scale")
    if family == "power":
        return CutoffFunction.power(scale, cfg.require("h.gamma"))
    return CutoffFunction.logpower(scale, cfg.require("h.kappa"))


def build_g(
    cfg: RunConfig,
    dist: SummandDistribution,
    h: CutoffFunction,
) -> tuple[TestFunction, float | None]:
    """The base test function plus the splice point when one is requested.

    The spliced variant is assembled downstream, once the exact-error table
    exists; here it contributes its power tail piece and bstar.
    """
    variant = cfg.require("g.variant")
    if variant == "kkernel":
        return KKernelTestFunction(dist=dist, h=h), None
    g = PowerTestFunction(coef=cfg.get("g.coef", 1.0), exponent=cfg.require("g.exponent"))
    if variant == "spliced":
        return g, cfg.require("g.bstar")
    return g, None
