"""Span tracing installed from outside the package.

``install(tracer)`` swaps timing wrappers onto module and class attributes of
an imported ``geomtail``, at the names its own modules call them through, so
every call into a traced layer records one span. Spans stay in memory and are
written out by the worker when the run ends. Nothing under ``src/`` changes.

A span is ``(id, name, start, end, parent id, operation)``. Wrappers nest
strictly on the one thread the workload runs on, so a span's children never
overlap and its self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

ROOT = "op"  # the span the worker opens around each whole operation


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = "setup"
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, t0, t1, parent, self.op))

    def wrap(self, name, fn, count=None):
        """Return fn wrapped so each call records a span called ``name``;
        ``count(tracer, args, kwargs, result)`` then updates the counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, t0)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def run_op(self, op_name, fn):
        """Run one whole operation under a root span."""
        self.op = op_name
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(sid, parent, ROOT, t0)

    def take(self) -> dict:
        """The spans and counts recorded since the last take; both restart."""
        taken = {"spans": self.spans, "counts": dict(self.counts)}
        self.spans = []
        self.counts = defaultdict(float)
        return taken


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"fields": ["id", "name", "start", "end", "parent", "op"],\n'
                 ' "spans": [\n')
        for i, span in enumerate(spans):
            fh.write(("," if i else " ") + json.dumps(span) + "\n")
        fh.write("]}\n")


# ------------------------------------------------------------------ counters

def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _count_panjer(tr, args, kwargs, table):
    tr.counts["panjer_cells"] += len(table)


def _count_mc(tr, args, kwargs, table):
    tr.counts["mc_sums"] += int(_arg(args, kwargs, 2, "n"))


def _count_sample(tr, args, kwargs, draws):
    tr.counts["sample_draws"] += int(np.size(_arg(args, kwargs, 1, "u")))


def _count_lattice(tr, args, kwargs, lattice):
    tr.counts["truncated_mass_max"] = max(tr.counts["truncated_mass_max"],
                                          lattice.truncated_mass)


def _count_tune(tr, args, kwargs, result):
    tr.counts["tune_candidates"] += len(result.rows)
    tr.counts["tune_feasible"] += sum(1 for row in result.rows if row.feasible)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the imported package."""
    from geomtail import bounder, cli, compound, config, dist, kernels

    def swap(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    # the engine calls both bounder and the CLI (its own lattice sizing) make
    engine = (
        ("discretize", "dist.discretize", _count_lattice),
        ("panjer_tail", "compound.panjer_tail", _count_panjer),
        ("mc_tail", "compound.mc_tail", _count_mc),
        ("delta_from_tails", "compound.delta_from_tails", None),
    )
    for attr, name, count in engine + (
        ("J_kernel", "kernels.J_kernel", None),
        ("K_kernel", "kernels.K_kernel", None),
        ("f_terms", "bounder.f_terms", None),
        ("c_interval", "bounder.c_interval", None),
        ("build_spliced_g", "kernels.build_spliced_g", None),
        # no public entry point: module-private boundaries of sweep and min-b
        ("_sup_pair", "bounder.sweep", None),
        ("_search_min_b", "bounder.minb", None),
        ("_tail_envelopes", "bounder.envelope", None),
    ):
        swap(bounder, attr, name, count)
    for attr, name, count in engine + (
        ("tune", "bounder.tune", _count_tune),
        ("main", "cli.main", None),
    ):
        swap(cli, attr, name, count)
    # KKernelTestFunction evaluates K through the kernels module
    swap(kernels, "K_kernel", "kernels.K_kernel")
    # criterion 1 calls the MC engine directly
    swap(compound, "mc_tail", "compound.mc_tail", _count_mc)
    for cls in (dist.PowerMixtureDist, dist.ParetoDist):
        swap(cls, "sample", "dist.sample", _count_sample)
    config.RunConfig.from_file = staticmethod(
        tracer.wrap("config.load", config.RunConfig.__dict__["from_file"].__func__)
    )


# --------------------------------------------------------------- aggregation

def layer_table(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, name, t0, t1, parent, op in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    table: dict[str, dict] = {}
    for sid, name, t0, t1, parent, op in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time[sid]
    return table


def _under(spans, ancestor: str) -> dict[str, int]:
    """Calls per span name that have a span called ``ancestor`` above them."""
    by_id = {s[0]: (s[1], s[4]) for s in spans}
    found: dict[str, int] = defaultdict(int)
    for sid, name, t0, t1, parent, op in spans:
        p = parent
        while p >= 0:
            pname, p_next = by_id[p]
            if pname == ancestor:
                found[name] += 1
                break
            p = p_next
    return found


def layer_metrics(call: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation call, from ``take()``."""
    t = layer_table(call["spans"])

    def tot(name):
        return t.get(name, {}).get("total_s", 0.0)

    def self_(name):
        return t.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return float(t.get(name, {}).get("calls", 0))

    in_minb = _under(call["spans"], "bounder.minb")
    c = defaultdict(float, call["counts"])
    return {
        "compound.panjer_tail_s": tot("compound.panjer_tail"),
        "compound.panjer_cells": c["panjer_cells"],
        "compound.panjer_tail_calls": calls("compound.panjer_tail"),
        "dist.sample_s": tot("dist.sample"),
        "dist.sample_draws": c["sample_draws"],
        "compound.mc_tail_s": self_("compound.mc_tail"),
        "compound.mc_sums": c["mc_sums"],
        "kernels.J_kernel_s": tot("kernels.J_kernel"),
        "kernels.J_kernel_calls": calls("kernels.J_kernel"),
        "kernels.K_kernel_s": tot("kernels.K_kernel"),
        "kernels.K_kernel_calls": calls("kernels.K_kernel"),
        "bounder.sweep_self_s": self_("bounder.sweep"),
        "bounder.sweeps": calls("bounder.sweep"),
        "bounder.sweep_points": calls("bounder.f_terms"),
        "bounder.f_terms_self_s": self_("bounder.f_terms"),
        "bounder.envelope_s": tot("bounder.envelope"),
        "bounder.minb_s": tot("bounder.minb"),
        "bounder.minb_sweeps": float(in_minb["bounder.sweep"]),
        "bounder.minb_points": float(in_minb["bounder.f_terms"]),
        "bounder.tune_s": tot("bounder.tune"),
        "bounder.tune_candidates": c["tune_candidates"],
        "bounder.tune_feasible": c["tune_feasible"],
        "bounder.c_interval_s": tot("bounder.c_interval"),
        "dist.discretize_s": tot("dist.discretize"),
        "dist.truncated_mass_max": c["truncated_mass_max"],
        "compound.delta_from_tails_s": tot("compound.delta_from_tails"),
        "kernels.build_spliced_g_s": tot("kernels.build_spliced_g"),
        "config.load_s": tot("config.load"),
        "cli.main_s": self_("cli.main"),
        "trace.unattributed_s": self_(ROOT),
        "trace.layer_self_s": sum(row["self_s"] for name, row in t.items() if name != ROOT),
    }


def combine(per_op: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one call of every operation, from those calls:
    sums, except the largest truncated mass and the feasible share of tune
    candidates."""
    total: dict[str, float] = defaultdict(float)
    for metrics in per_op:
        for name, value in metrics.items():
            if name == "dist.truncated_mass_max":
                total[name] = max(total[name], value)
            else:
                total[name] += value
    feasible = total.pop("bounder.tune_feasible", 0.0)
    candidates = total["bounder.tune_candidates"]
    total["bounder.tune_feasible_frac"] = feasible / candidates if candidates else 0.0
    return dict(total)
