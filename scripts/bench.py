#!/usr/bin/env python3
"""Paired runs of ``perfbench/run.py`` on one source tree or two, written to a JSON file.

    python3 scripts/bench.py --workload tail-paths --seed 5 --rounds 10 \\
        [--parent REV] --output BENCH_26.json

Each tree is a git revision of the repository holding this script (HEAD,
and with ``--parent`` a second one), which ``git archive`` exports into
``.perfbench_run/bench/<12 hex digits of its commit>``, so the trees'
paths have one length.  An export is unpacked beside its place and
renamed into it only once ``tar`` succeeds, so a partial tree is never
reused.  The peak RSS of the ``simulate`` child follows the length of
its input paths: on ``tail-bootstrap`` one version of the code peaked
at 41.2 MB with paths 34 characters longer than another tree's, and at
41.5 MB with that tree's paths.  Each round runs ``perfbench/run.py
--workload W --seed S --seconds T`` as it is, from the root of each
tree, T being ``run_seconds`` in ``BENCHMARK.json``, and then times the
``simulate`` child on its own.  Two trees alternate which runs first:
the parent in even rounds, the change in odd ones.

The ``simulate`` child is started from this process, which imports no
numpy, so the peak RSS that ``os.wait4`` reports is the child's own.  It
runs with the flags ``perfbench/run.py`` gives it in ``WORKLOADS`` (read
from the source, not imported), on the models and data of the round that
perfbench just ran, and writes to ``.perfbench_run/bench_simulate``.

Bytecode is pinned.  Every child runs with
``PYTHONPYCACHEPREFIX=<tree>/.perfbench_run/pycache`` and without
``PYTHONDONTWRITEBYTECODE``.  An untimed perfbench round per tree
(``--seconds 0``) fills that cache before the first timed round, so no
timed process compiles the source, numpy or scipy again.  Where every
child compiled ``src/``, a 30-line comment edit moved the ``simulate``
peak on ``tail-bootstrap`` by about 0.1 MB.

For each metric the file records each side's values, median and
quartiles.  With two trees it also records the change's wins: pairs in
which it reads lower, ties counting for neither.  ``gain`` says whether
the change won at least nine tenths of the pairs and its median lies
below the parent's by more than the parent's interquartile range.  The
file also records each tree's commit and bytecode state, and the host:
``nproc``, the Python, numpy and BLAS versions and the BLAS thread
count.  Runs of other workloads and seeds are merged into an existing
file, one entry per ``<workload>@<seed>``, only if the file's host is
this one.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD = {"simulate_child_s": "s", "simulate_child_peak_rss_mb": "MB"}

# Run in a child: the numpy and BLAS build, and the threads BLAS runs on.
_VERSIONS = """
import ctypes, json, pathlib, sys, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in (pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
    fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
    threads = fn() if fn else threads
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}))
"""


class Tree:
    """One source tree, the environment its children run in, and its samples."""

    def __init__(self, name: str, path: Path, commit: str | None):
        self.name, self.path, self.commit = name, path, commit
        self.cache = path / ".perfbench_run" / "pycache"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = dict(env, PYTHONPYCACHEPREFIX=str(self.cache))
        self.samples: dict[str, list[float]] = {}
        self.correct: list[bool] = []

    def perfbench(self, workload: str, seed: int, seconds: float) -> dict:
        """The last line of ``perfbench/run.py``'s output: its JSON summary."""
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=self.path, env=self.env, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{self.name}: perfbench/run.py exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(lines[-1])

    def simulate_child(self, workload: str, seed: int, flags: list[str]) -> tuple[float, float]:
        """Wall seconds and peak RSS (MB) of one ``simulate`` child on the round's models."""
        work = self.path / ".perfbench_run" / workload
        data = work / "data" if workload == "book" else self.path / "tests" / "data"
        out = self.path / ".perfbench_run" / "bench_simulate"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = [sys.executable, "-m", "defirisk.cli", "simulate", "--tvl", str(data / "tvl.csv"),
                "--portfolio", str(data / "portfolio_priced.json"), "--models", str(work / "round0"),
                "--seed", str(seed), *flags, "--output", str(out)]
        env = dict(self.env, PYTHONPATH=str(self.path / "src"), **THREAD_ENV)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.path, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status) != 0:
            sys.exit(f"{self.name}: simulate exited {os.waitstatus_to_exitcode(status)}")
        return wall, usage.ru_maxrss / 1024.0

    def record(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def bytecode(self) -> dict:
        return {
            "PYTHONPYCACHEPREFIX": str(self.cache.relative_to(self.path)),
            "PYTHONDONTWRITEBYTECODE": None,
            "warmed": True,
            "pyc_files": sum(1 for _ in self.cache.rglob("*.pyc")),
        }


def simulate_flags(tree: Path, workload: str) -> list[str]:
    """The ``simulate`` flags of ``workload`` in ``perfbench/run.py``'s ``WORKLOADS``."""
    module = ast.parse((tree / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in module.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WORKLOADS" for t in node.targets):
            return ast.literal_eval(node.value)[workload]["simulate"]
    sys.exit(f"{tree}/perfbench/run.py defines no WORKLOADS")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def exported(name: str, rev: str) -> Tree:
    """The tree of git revision ``rev``, exported under ``.perfbench_run/bench``."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = ROOT / ".perfbench_run" / "bench" / commit[:12]
    if not path.is_dir():
        partial = path.with_name(path.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(partial)], input=archive.stdout, check=True)
        partial.rename(path)
    return Tree(name, path, commit)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--parent")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()

    change = exported("change" if args.parent else "tree", "HEAD")
    trees = [exported("parent", args.parent), change] if args.parent else [change]
    flags = simulate_flags(change.path, args.workload)
    benchmark = json.loads((change.path / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(benchmark["run_seconds"])
    for t in trees:  # untimed: fills the bytecode cache
        t.perfbench(args.workload, args.seed, 0.0)
    for r in range(args.rounds):
        order = trees if r % 2 == 0 else trees[::-1]
        for t in order:
            doc = t.perfbench(args.workload, args.seed, seconds)
            t.correct.append(bool(doc["correct"]) and doc["failed"] == 0)
            for name, metric in doc["metrics"].items():
                t.record(name, metric["value"])
        for t in order:
            wall, peak = t.simulate_child(args.workload, args.seed, flags)
            t.record("simulate_child_s", wall)
            t.record("simulate_child_peak_rss_mb", peak)
        print(f"round {r + 1}/{args.rounds}: " + ", ".join(
            f"{t.name} simulate_s {t.samples['simulate_s'][-1]:.3f}" for t in trees), file=sys.stderr)

    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    units.update(CHILD)
    metrics = {}
    for name in trees[0].samples:
        entry = {"unit": units.get(name)}
        entry.update((t.name, summary(t.samples[name])) for t in trees)
        if args.parent:
            pairs = list(zip(trees[0].samples[name], change.samples[name]))
            wins = sum(c < p for p, c in pairs)
            entry.update(pairs=len(pairs), change_wins=wins, parent_wins=sum(p < c for p, c in pairs))
            entry["gain"] = wins >= 0.9 * len(pairs) and (
                entry["parent"]["median"] - entry["change"]["median"] > entry["parent"]["iqr"])
        metrics[name] = entry

    versions = subprocess.run([sys.executable, "-c", _VERSIONS], env=dict(change.env, **THREAD_ENV),
                              capture_output=True, text=True, check=True)
    host = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            **json.loads(versions.stdout), "blas_thread_env": THREAD_ENV}
    doc = json.loads(args.output.read_text()) if args.output.exists() else {"host": host, "runs": {}}
    if doc["host"] != host:
        sys.exit(f"{args.output} holds runs of another host: {doc['host']}, not {host}")
    doc["runs"][f"{args.workload}@{args.seed}"] = {
        "workload": args.workload, "seed": args.seed, "rounds": args.rounds, "seconds": seconds,
        "trees": {t.name: {"commit": t.commit, "bytecode": t.bytecode(), "correct": t.correct} for t in trees},
        "metrics": metrics,
    }
    args.output.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(all(t.correct) for t in trees) else 1


if __name__ == "__main__":
    sys.exit(main())
