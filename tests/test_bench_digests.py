"""The benchmark's certificate digests at seed 0 are the committed stores.

``perfbench/run.py`` checks every call against a store of digests named
``<workload>-seed0-<sha256(workloads.py)[:12]>.json``. The four stores under
``tests/data/bench_digests/`` are those of this commit; the benchmark's CI
job copies them in before it runs. Here every operation of every workload
runs once in-process, as a benchmark worker runs it, and its digest must be
the committed one. A change that moves a certificate digit regenerates the
stores in the same commit, so the diff names the calls that moved.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from geomtail.bounder import ProcedureFailed

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
STORES = Path(__file__).resolve().parent / "data" / "bench_digests"
SEED = 0

REGENERATE = """\
A change that moves these digits regenerates the stores in the same commit, as
README.md's Install section shows: from an empty perfbench/out/digests/, run
    python3 perfbench/run.py --workload <workload> --seed 0 --seconds 1 --trace 0
for each workload, then replace tests/data/bench_digests/*.json by the four
files of perfbench/out/digests/."""


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # the dataclasses of the module look it up in sys.modules while they build
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _digests(workloads, name, workdir):
    """Each operation's certificate digest, as a benchmark worker takes it."""
    workload = workloads.BUILDERS[name](SEED, workdir)
    found = {}
    for op in workload.ops:
        try:
            out = op.run()
        except ProcedureFailed as exc:  # the infeasible workload's output
            out = exc
        found[op.name] = workloads.digest(op.check(out))
    return found


def _moved(name, path, stored, found):
    """One line naming the calls of ``name`` that differ from its store."""
    parts = [f"{what}: {', '.join(ops)}" for what, ops in (
        ("digest moved", [op for op in stored if op in found and stored[op] != found[op]]),
        ("not in the workload", [op for op in stored if op not in found]),
        ("not in the store", [op for op in found if op not in stored])) if ops]
    return [f"{name} ({path.name}): {'; '.join(parts)}"] if parts else []


def test_benchmark_digests_are_the_committed_stores(tmp_path, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    inputs = hashlib.sha256(WORKLOADS.read_bytes()).hexdigest()[:12]
    wanted = {f"{name}-seed{SEED}-{inputs}.json": name for name in workloads.BUILDERS}
    problems = [f"{path.name}: not the store of a workload of this workloads.py "
                f"(hash {inputs})" for path in sorted(STORES.glob("*.json"))
                if path.name not in wanted]
    for file_name, name in wanted.items():
        path = STORES / file_name
        if not path.is_file():
            problems.append(f"{name}: no store {file_name}")
            continue
        stored = json.loads(path.read_text(encoding="utf-8"))
        workdir = tmp_path / name
        workdir.mkdir()
        problems += _moved(name, path, stored, _digests(workloads, name, workdir))
    assert not problems, "\n".join(problems + [REGENERATE])
