"""geomtail benchmark: one workload per invocation, in fresh worker processes.

    python3 perfbench/run.py --workload certify_panjer --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. A worker process builds the
workload's inputs, warms up with one round of its operations and then runs
a fixed number of timed rounds (``--seconds`` over the workload's nominal
round time). Untraced (``--trace 0``) the rounds give the end-to-end metrics
and set-up-only processes give the set-up samples. Traced (``--trace 1``) an
untraced and a traced worker split the rounds; the traced one gives the
per-layer metrics, and the difference in wall time is the tracing overhead.
Every call is checked against the acceptance windows and against the
certificate digests of the first round and of the first run; the untraced
worker also runs the workload's independent cross-check after its rounds.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Detail (every call, spans, the
per-layer table) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402  (imports no geomtail)

# seconds one warm round of the workload's operations (with its reference
# rounds) takes on a 2-core x86 VM (Python 3.11, numpy 2.4, scipy 1.17) when
# its shared host is at its busiest, about twice the quiet time. They fix how
# many rounds fit in --seconds, so a run makes the same number of calls on
# every commit and reports the same statistic.
ROUND_SECONDS = {"certify_panjer": 1.25, "infeasible_minb": 1.9, "mixture_mc": 5.0,
                 "tune_cli": 1.7}
# seconds each kind of work in a round of reference.run() (quadrature, dot
# products, vector arithmetic) takes on that VM when its host is quiet:
# wall_s is given at that speed (see host_factor)
REFERENCE_SECONDS = (0.0060, 0.0049, 0.0050)
# the kinds of reference work that match each workload's hot loops: J-kernel
# quadrature in every sweep, Panjer dot products in the certificates' tables,
# vector arithmetic in the MC samplers
REFERENCE_MIX = {"certify_panjer": (1, 1, 0), "infeasible_minb": (1, 0, 0),
                 "mixture_mc": (0, 0, 1), "tune_cli": (1, 0, 0)}
MIN_ROUNDS = 5
SETUP_PROBES = 3  # set-up-only processes per untraced run
SETUP_MIX = (1, 1, 1)  # set-up imports and parses: every kind of reference work
DEADLINE_S = 150.0  # no round starts after this many seconds of the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The parent's environment with every BLAS/OpenMP pool capped at nproc.

    An unset pool gets one thread: each workload is one closed-loop thread,
    and idle pool threads that spin only contend with it for the cores.
    """
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, 1))
        except ValueError:
            wanted = 1
        env[var] = str(max(1, min(wanted, cap)))
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, rundir: Path):
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.workdir = rundir / "work"
        self.workdir.mkdir(parents=True)
        self.env = child_env()
        self.started = time.perf_counter()
        self.count = 0

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def worker(self, trace=0, verify=0, rounds=0, setup_only=0) -> dict:
        self.count += 1
        kind = "setup" if setup_only else ("traced" if trace else "untraced")
        result_path = self.rundir / f"worker{self.count:02d}-{kind}.json"
        t0 = time.perf_counter()
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(trace), "--verify", str(verify),
               "--setup-only", str(setup_only), "--rounds", str(rounds),
               "--deadline", repr(self.started + DEADLINE_S), "--spawned-at", repr(t0),
               "--workdir", str(self.workdir), "--result", str(result_path)]
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.left() + 20.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            err = "worker timed out"
        if proc.returncode == 0 and result_path.exists():
            res = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            res = {"crashed": f"exit {proc.returncode}: {err.strip()[-2000:]}",
                   "calls": [], "reference": [], "layers": [], "verify": []}
        res.update(kind=kind, process_s=time.perf_counter() - t0)
        return res


def timed(res: dict) -> dict[str, list[float]]:
    """Seconds of each operation's checked timed calls (round 0 is warm-up)."""
    by_op: dict[str, list[float]] = {}
    for call in res["calls"]:
        by_op.setdefault(call["name"], [])
        if call["round"] > 0 and call["error"] is None:
            by_op[call["name"]].append(call["seconds"])
    return by_op


def wall(res: dict, estimate=statistics.fmean) -> float | None:
    """Seconds for one call of every operation, by ``estimate`` per operation."""
    by_op = timed(res)
    if not by_op or not all(by_op.values()):
        return None
    return sum(estimate(secs) for secs in by_op.values())


def host_factor(res: dict, mix) -> float:
    """How much slower than on a quiet host the reference work of the kinds
    in ``mix`` ran in this worker, on average over its rounds.

    Reference rounds follow every timed call, in proportion to its time, so
    they sample the host's speed over the same stretch of time as the calls:
    bursts of a second and stretches of tens of seconds alike. Slowdowns do
    not slow all kinds of code alike, hence the kinds that match the
    workload.
    """
    rounds = res["reference"]
    measured = sum(w * statistics.fmean(r[k] for r in rounds) for k, w in enumerate(mix) if w)
    return measured / sum(w * t for w, t in zip(mix, REFERENCE_SECONDS))


def check(workers: list[dict], reference_path: Path) -> tuple[int, int, list]:
    """Failed and attempted calls over all workers, plus the problems."""
    problems = []
    first = {c["name"]: c["digest"] for c in workers[0]["calls"] if c["round"] == 0}
    if reference_path.exists():
        stored = json.loads(reference_path.read_text(encoding="utf-8"))
    else:
        stored = first if first and all(first.values()) else {}
        if stored:
            reference_path.write_text(json.dumps(stored, indent=1), encoding="utf-8")
    attempted = failed = 0
    for res in workers:
        if "crashed" in res:
            problems.append(f"{res['kind']} worker: {res['crashed']}")
            if res["kind"] != "setup":
                attempted += 1
                failed += 1
        for call in res["calls"]:
            attempted += 1
            why = call["error"]
            if why is None and call["digest"] != first.get(call["name"]):
                why = "certificate digest differs from the first round"
            if why is None and stored and call["digest"] != stored.get(call["name"]):
                why = f"certificate digest differs from the first run ({reference_path.name})"
            if why is not None:
                failed += 1
                problems.append(f"{res['kind']} round {call['round']} {call['name']}: {why}")
        problems.extend(f"verify: {v}" for v in res["verify"])
    return failed, attempted, problems


def describe(res: dict, mix) -> list[str]:
    lines = []
    for name, secs in timed(res).items():
        if secs:
            lines.append(f"  {name:16s} n={len(secs):3d}  mean {statistics.fmean(secs):.4f}  "
                         f"fastest {min(secs):.4f}  median {statistics.median(secs):.4f}  "
                         f"slowest {max(secs):.4f} s")
    if wall(res) is not None:
        lines.append(f"  one call of every operation: mean {wall(res):.4f} s, fastest "
                     f"{wall(res, min):.4f} s, median {wall(res, statistics.median):.4f} s")
    if res["calls"] and res["reference"]:
        means = [statistics.fmean(r[k] for r in res["reference"]) for k in range(3)]
        lines.append(f"  reference computation: {len(res['reference'])} rounds, means "
                     f"{' '.join(f'{m:.5f}' for m in means)} s against "
                     f"{' '.join(str(t) for t in REFERENCE_SECONDS)} s quiet; host factor "
                     f"{host_factor(res, mix):.4f} with kinds {mix}")
    return lines


def mean_layers(layers: list) -> dict[str, float]:
    """Per-layer metrics of one call of every operation: each operation's
    traced calls averaged, then added up over the operations."""
    by_op: dict[str, list[dict]] = {}
    for name, metrics in layers:
        by_op.setdefault(name, []).append(metrics)
    return tracing.combine([{k: statistics.fmean(m[k] for m in calls) for k in calls[0]}
                            for calls in by_op.values()])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; sets the MC seeds of mixture_mc, and 0 "
                         "reproduces the documented seeds 123, 20250817 and 99")
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "geomtail" / "__init__.py").is_file():
        print(f"no geomtail sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    (OUT / "digests").mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, rundir)
    rounds = max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS[args.workload]))
    try:
        if args.trace:
            half = math.ceil(rounds / 2)
            workers = [runner.worker(verify=1, rounds=half),
                       runner.worker(trace=1, rounds=half)]
        else:
            workers = [runner.worker(verify=1, rounds=rounds)]
            for _ in range(SETUP_PROBES):
                if "crashed" in workers[-1]:
                    break
                workers.append(runner.worker(setup_only=1))
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    # digests of the first run on these inputs, kept per version of the workloads
    inputs = hashlib.sha256((BENCH / "workloads.py").read_bytes()).hexdigest()[:12]
    failed, attempted, problems = check(
        workers, OUT / "digests" / f"{args.workload}-seed{args.seed}-{inputs}.json")
    untraced, traced = workers[0], workers[-1]
    mix = REFERENCE_MIX[args.workload]
    mean_s = wall(untraced)
    correct = not problems and mean_s is not None and bool(untraced["reference"])
    if args.trace:
        correct = correct and wall(traced) is not None and bool(traced["layers"])
    else:
        # each set-up at a quiet host's speed, by the reference rounds that follow it
        setups = [w["setup_s"] / host_factor(w, SETUP_MIX)
                  for w in workers if w["kind"] == "setup" and w["reference"]]
        correct = correct and len(setups) == SETUP_PROBES

    env = {"nproc": nproc(), "threads": {v: runner.env[v] for v in THREAD_VARS},
           **untraced.get("versions", {})}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed rounds {rounds}  package {untraced.get('package')}")
    print("environment " + json.dumps(env, sort_keys=True))
    for res in workers:
        line = f"{res['kind']:8s} worker: process {res['process_s']:.3f} s"
        if "setup_s" in res:
            line += f"  setup {res['setup_s']:.3f} s"
        if res["kind"] == "setup" and res["reference"]:
            line += (f"  host factor {host_factor(res, SETUP_MIX):.4f}: "
                     f"{res['setup_s'] / host_factor(res, SETUP_MIX):.3f} s at a quiet host's speed")
        if res["calls"]:
            first_round = sum(c["seconds"] for c in res["calls"] if c["round"] == 0)
            line += f"  warm-up round {first_round:.3f} s"
        if "verify_s" in res:
            line += f"  cross-check {res['verify_s']:.3f} s"
        print("\n".join([line] + describe(res, mix)))
    calls0 = [c for c in untraced["calls"] if c["round"] == 0]
    print(f"input size: {len(calls0)} operations, "
          f"{sum(c['panjer_cells'] for c in calls0)} Panjer cells, "
          f"{sum(c['mc_sums'] for c in calls0)} MC sums per round")
    print(f"fail_frac {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} calls)")
    for problem in problems:
        print("PROBLEM " + problem)

    metrics = {}
    if correct and not args.trace:
        metrics = {
            "wall_s": mean_s / host_factor(untraced, mix),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    elif correct:
        layers = mean_layers(traced["layers"])
        layers["trace.wall_s"] = wall(traced)
        # the untraced calls rescaled to the host speed the traced worker saw
        layers["trace.overhead_s"] = wall(traced) - (
            mean_s * host_factor(traced, mix) / host_factor(untraced, mix))
        table = [f"{'span':28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
        for name, row in sorted(traced["layer_table"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            table.append(f"{name:28s} {row['calls']:9d} {row['total_s']:10.4f} "
                         f"{row['self_s']:10.4f}")
        table.append(
            f"per call of every operation: traced layers' self times sum to "
            f"{layers['trace.layer_self_s']:.4f} s, plus {layers['trace.unattributed_s']:.4f} s "
            f"outside them, against traced wall {layers['trace.wall_s']:.4f} s; tracing "
            f"overhead {layers['trace.overhead_s']:+.4f} s over the untraced calls at the same "
            f"host speed")
        print("(totals over set-up and every timed round of the traced worker)")
        print("\n".join(table))
        (rundir / "layers.txt").write_text("\n".join(table) + "\n", encoding="utf-8")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    summary = {"correct": bool(correct), "attempted": attempted or 1,
               "failed": failed if attempted else 1, "metrics": metrics}
    (rundir / "result.json").write_text(
        json.dumps({**summary, "environment": env, "problems": problems,
                    "workers": workers}, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_max"):
        return "mass"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
