#!/usr/bin/env python3
"""Benchmark of the defirisk CLI: per-command wall time, start-up time and
``simulate`` peak memory, with output checks and an optional traced run.

    python3 perfbench/run.py --workload book --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree (it needs ``src/defirisk`` and, for
the tail workloads, ``tests/data``).  Each subcommand runs as its own
process, the way a user runs it, with ``PYTHONPATH=src`` and one BLAS
thread.  A round runs the six subcommands in pipeline order between two
start-up samples; rounds repeat until ``--seconds`` have passed (at least
one round) and every time is a median over the rounds.  Every round's
outputs are checked (see ``checks.py``).  With ``--trace 1`` the
same commands run once in a single traced process (see ``tracing.py``) and
the per-layer metrics are printed instead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run output goes to ``.perfbench_run/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads, for the reference draws here too

import checks  # noqa: E402
import tracing  # noqa: E402
from book import make_book  # noqa: E402

HERE = Path(__file__).resolve().parent

# Flags of the ``simulate`` call, the paths they give, and the size of the
# reference sample its VaR/CTE are checked against.
WORKLOADS = {
    "book": {"simulate": [], "paths": 100_000, "reference": 100_000},
    "tail-bootstrap": {
        "simulate": ["--samples", "1000000", "--bootstrap", "200", "--dependence", "both", "--workers", "1"],
        "paths": 1_000_000,
        "reference": 4_000_000,
    },
    "tail-paths": {
        "simulate": ["--samples", "10000000", "--bootstrap", "2", "--workers", "2"],
        "paths": 10_000_000,
        "reference": 4_000_000,
    },
}
END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "simulate_s": "s", "simulate_peak_rss_mb": "MB"}


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.work = root / ".perfbench_run" / workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
        self.attempted = 0
        self.failed = 0
        self.reference = None  # aggregate-loss samples the risk checks compare against

    # -- processes ---------------------------------------------------------

    def timed(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one child process."""
        with open(log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def command(self, argv: list[str]) -> tuple[float, float]:
        self.attempted += 1
        wall, rss, code = self.timed([sys.executable, "-m", "defirisk.cli", *argv], self.work / "stderr.log")
        if code != 0:
            self.failed += 1
            print(f"{argv[0]} exited {code}; see {self.work / 'stderr.log'}", file=sys.stderr)
        return wall, rss

    def import_time(self) -> float:
        """Wall time of a fresh interpreter that imports defirisk.cli and exits."""
        return self.timed([sys.executable, "-c", "import defirisk.cli"], self.work / "stderr.log")[0]

    # -- inputs and commands -----------------------------------------------

    def inputs(self):
        if self.workload == "book":
            return make_book(self.seed, self.work / "data")
        return checks.read_inputs(self.root / "tests" / "data")

    def argv(self, data, out: Path) -> dict[str, list[str]]:
        d = data.directory
        gof_model = out / f"freq_{data.priced_ids[0]}.json"
        common = ["--output", str(out)]
        return {
            "fit-frequency": ["fit-frequency", "--incidents", str(d / "incidents.csv"), "--tvl", str(d / "tvl.csv"),
                              "--portfolio", str(d / "portfolio.json"), *common],
            "fit-severity": ["fit-severity", "--incidents", str(d / "incidents.csv"), *common],
            "price": ["price", "--tvl", str(d / "tvl.csv"), "--portfolio", str(d / "portfolio_priced.json"),
                      "--models", str(out), "--seed", str(self.seed), *common],
            "simulate": ["simulate", "--tvl", str(d / "tvl.csv"), "--portfolio", str(d / "portfolio_priced.json"),
                         "--models", str(out), "--seed", str(self.seed), *self.spec["simulate"], *common],
            "gof": ["gof", "--model", str(gof_model), "--incidents", str(d / "incidents.csv"),
                    "--tvl", str(d / "tvl.csv"), "--portfolio", str(d / "portfolio.json"), *common],
            "summarize": ["summarize", "--incidents", str(d / "incidents.csv"), *common],
        }

    # -- checks ------------------------------------------------------------

    def check(self, data, outs: list[Path], simulated: list[Path]) -> list[str]:
        """Check every output directory; returns the failures."""
        failures = []
        sev_data = checks.severity_data(data)
        for out in outs:
            try:
                models = checks.check_frequency(out, data)
                sev = checks.check_severity(out, sev_data)
                checks.check_quotes(out, data, models, sev)
                checks.check_counts(out, data)
                checks.check_gof(out, models[data.priced_ids[0]])
                if self.reference is None:
                    self.reference = checks.reference_losses(data, models, sev, self.spec["reference"], self.seed)
            except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
                failures.append(f"{out.name}: {type(exc).__name__}: {exc}")
        for out in simulated:
            try:
                if self.reference is None:
                    raise checks.CheckFailed("no reference sample: the model checks failed")
                checks.check_risk(out, self.reference, self.spec["paths"])
            except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
                failures.append(f"{out.name}: {type(exc).__name__}: {exc}")
        return failures

    # -- runs --------------------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, list[str]]:
        """Rounds of the six subcommands, each round between two start-up samples."""
        data = self.inputs()
        self.import_time()  # compiles bytecode once, untimed
        walls: dict[str, list[float]] = {name: [] for name in tracing.COMMANDS}
        setup, pipeline, rss, outs = [], [], [], []
        start = time.perf_counter()
        while not outs or time.perf_counter() - start < seconds:
            out = self.work / f"round{len(outs)}"
            argv = self.argv(data, out)
            setup.append(self.import_time())
            for name in tracing.COMMANDS:
                wall, peak = self.command(argv[name])
                walls[name].append(wall)
                if name == "simulate":
                    rss.append(peak)
            setup.append(self.import_time())
            pipeline.append(sum(v[-1] for v in walls.values()))
            outs.append(out)
        metrics = {
            "setup_s": statistics.median(setup),
            "pipeline_s": statistics.median(pipeline),
            "simulate_s": statistics.median(walls["simulate"]),
            "simulate_peak_rss_mb": statistics.median(rss),
        }
        samples = dict(walls, setup_s=setup, pipeline_s=pipeline, simulate_peak_rss_mb=rss)
        (self.work / "samples.json").write_text(json.dumps(samples), encoding="utf-8")
        failures = self.check(data, outs, outs) if self.failed == 0 else []
        return metrics, failures

    def traced(self) -> tuple[dict, list[str]]:
        data = self.inputs()
        out = self.work / "traced"
        argv = self.argv(data, out)
        commands = [argv[name] for name in tracing.COMMANDS]
        cmd_file = self.work / "commands.json"
        spans_file = self.work / "spans.json"
        cmd_file.write_text(json.dumps(commands), encoding="utf-8")
        self.attempted += len(commands)
        _, _, code = self.timed(
            [sys.executable, str(HERE / "tracing.py"), "--commands", str(cmd_file), "--spans", str(spans_file)],
            self.work / "stderr.log",
        )
        if code != 0:
            self.failed += len(commands)
            return {}, []
        doc = json.loads(spans_file.read_text(encoding="utf-8"))
        self.failed += sum(1 for c in doc["commands"] if c["code"] != 0)
        metrics = tracing.layer_metrics(doc["spans"])
        metrics["cli.import_scipy_stats_s"] = self.scipy_import_time()
        failures = self.check(data, [out], [out]) if self.failed == 0 else []
        return metrics, failures

    def scipy_import_time(self) -> float:
        """Cumulative import time of scipy.stats under ``import defirisk.cli``."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import defirisk.cli"],
            cwd=self.root, env=self.env, capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.stats":
                return int(parts[1]) / 1e6
        return 0.0


def per_layer_names() -> list[tuple[str, str]]:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in doc["per_layer"]]


def main() -> int:
    parser = argparse.ArgumentParser(description="defirisk CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/defirisk/cli.py", "tests/data/incidents.csv") if not (root / p).is_file()]
    if missing:
        print(f"run from the root of a defirisk source tree; missing {missing}", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    if args.trace:
        values, failures = bench.traced()
        units = per_layer_names()
    else:
        values, failures = bench.measure(args.seconds)
        units = list(END_TO_END_UNITS.items())
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units}
    result = {"correct": not failures, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
