"""One process of one workload, started by run.py.

Imports the package from the checkout's ``src/``, builds the workload's
inputs, then runs every operation once per round, one after another: round 0
warms up (lazy imports, first-call costs) and rounds 1..``--rounds`` are the
timed ones. Every call of every round is checked. The result is a JSON file:
setup time, each call's seconds, checks and certificate digest, and peak
memory. Rounds of the fixed ``reference`` computation follow each timed
call, one per quarter second of the call and one more. With ``--trace 1`` the tracing wrappers go on before the inputs are
built; each timed call's spans are reduced to per-layer metrics, and the
spans are written next to the result. With ``--setup-only 1`` the process
stops before the first operation, to sample setup time alone, and runs a few
reference rounds to measure the host right after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_EVERY_S = 0.25  # one reference round per this much call time, plus one
SETUP_REFERENCE_ROUNDS = 6  # reference rounds after set-up in a set-up-only process


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verify", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--deadline", type=float, required=True,
                    help="perf_counter time after which no round starts")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import geomtail
    from geomtail.bounder import ProcedureFailed

    import reference
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = Path(args.workdir)
    workload = workloads.BUILDERS[args.workload](args.seed, workdir)
    # perf_counter is CLOCK_MONOTONIC, shared with the parent that spawned us
    setup_s = time.perf_counter() - args.spawned_at

    result = {
        "setup_s": setup_s,
        "package": geomtail.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "calls": [],
        "reference": [],
        "layers": [],
        "verify": [],
    }
    if args.setup_only:
        ref = reference.Reference()
        ref.run()  # warm-up
        result["reference"] = [ref.run() for _ in range(SETUP_REFERENCE_ROUNDS)]
    else:
        ref = reference.Reference()
        outputs = {}  # round 0's results, for the cross-check
        spans = tracer.take()["spans"] if tracer else []  # set-up spans
        for rnd in range(args.rounds + 1):
            if rnd > 1 and time.perf_counter() > args.deadline:
                break
            for op in workload.ops:
                error = None
                t0 = time.perf_counter()
                try:
                    out = tracer.run_op(op.name, op.run) if tracer else op.run()
                except ProcedureFailed as exc:  # expected on the infeasible workload
                    out = exc
                except Exception:  # any other exception fails the operation
                    out, error = None, traceback.format_exc(limit=4)
                seconds = time.perf_counter() - t0
                text = None
                if error is None:
                    try:
                        text = op.check(out)
                    except Exception as exc:
                        error = f"{type(exc).__name__}: {exc}"
                if rnd == 0:
                    outputs[op.name] = out
                result["calls"].append({
                    "round": rnd,
                    "name": op.name,
                    "seconds": seconds,
                    "error": error,
                    "digest": None if text is None else workloads.digest(text),
                    "panjer_cells": op.panjer_cells,
                    "mc_sums": op.mc_sums,
                })
                if rnd > 0:
                    # reference rounds in proportion to the time the call took
                    for _ in range(1 + int(seconds / REFERENCE_EVERY_S)):
                        result["reference"].append(ref.run())
                if tracer is not None:
                    call = tracer.take()
                    if rnd > 0:
                        result["layers"].append((op.name, tracing.layer_metrics(call)))
                        spans.extend(call["spans"])
        if tracer is not None:
            result["layer_table"] = tracing.layer_table(spans)
            tracing.write_spans(spans, Path(args.result).with_suffix(".spans.json"))
        if args.verify:
            t0 = time.perf_counter()
            result["verify"] = workload.verify(outputs)
            result["verify_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
