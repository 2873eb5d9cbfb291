"""Traced run: the workload's subcommands in one process, with spans.

    python3 perfbench/tracing.py --commands cmds.json --spans spans.json [--plain]

``cmds.json`` holds a list of argument lists for ``defirisk.cli.main``.
Before the first call, each public function the program calls through a
module attribute is replaced by a wrapper that records a span (name,
start, end, parent span, thread) and the work counts read from its
arguments or result.  The wrappers sit at the attribute the caller looks
up, so ``load_incidents`` is wrapped in ``defirisk.cli``, which imported
it by name, and ``fit_logistic`` in ``defirisk.glm``, which its callers
reach as ``glm.fit_logistic``.  Spans stay in memory and are written once
at the end, together with each command's exit code and wall time.
``--plain`` runs the same calls without wrappers, which measures the
tracing overhead.

``layer_metrics`` turns the spans into the per-layer metrics: a layer's
time is its self time, the span's duration minus the part of it that
wrapped calls inside it cover.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import threading
import time
from pathlib import Path

# (module whose attribute is replaced, attribute, span name)
WRAPPED = (
    ("defirisk.cli", "load_incidents", "datamodel.load_incidents"),
    ("defirisk.cli", "load_tvl", "datamodel.load_tvl"),
    ("defirisk.cli", "load_portfolio", "datamodel.load_portfolio"),
    ("defirisk.cli", "build_monthly_panel", "datamodel.build_monthly_panel"),
    ("defirisk.glm", "fit_logistic", "glm.fit_logistic"),
    ("defirisk.glm", "hosmer_lemeshow", "glm.hosmer_lemeshow"),
    ("defirisk.glm", "fit_linear_on_logit", "glm.fit_linear_on_logit"),
    ("defirisk.frequency", "fit_frequency", "frequency.fit_frequency"),
    ("defirisk.frequency", "peer_interval", "frequency.peer_interval"),
    ("defirisk.severity", "fit_severity", "severity.fit_severity"),
    ("defirisk.severity", "ratio_moments", "severity.ratio_moments"),
    ("defirisk.severity", "sample_ratio", "severity.sample_ratio"),
    ("defirisk.pricing", "price", "pricing.price"),
    ("defirisk.cli", "build_copula", "dependence.build_copula"),
    ("defirisk.dependence", "nearest_correlation", "numerics.nearest_correlation"),
    ("defirisk.dependence", "cholesky", "numerics.cholesky"),
    ("defirisk.tailrisk", "simulate_aggregate", "tailrisk.simulate_aggregate"),
    ("defirisk.tailrisk", "risk_report", "tailrisk.risk_report"),
)

COMMANDS = ("fit-frequency", "fit-severity", "price", "simulate", "gof", "summarize")


def _counts(name: str, args, kwargs, result) -> dict[str, float]:
    """Work counts recorded at a span's boundary."""
    if name == "datamodel.load_incidents":
        return {"datamodel.incident_rows": result.total_rows, "datamodel.rows_rejected": len(result.rejected)}
    if name == "datamodel.load_tvl":
        return {"datamodel.tvl_rows": len(result)}
    if name == "datamodel.build_monthly_panel":
        return {"datamodel.panel_rows": len(result)}
    if name == "glm.fit_logistic":
        return {
            "glm.fit_logistic_calls": 1,
            "glm.irls_iterations": max(len(result.nll_trace) - 1, 0),
            "glm.penalized_fits": int(result.penalty is not None),
        }
    if name == "frequency.peer_interval":
        return {"frequency.peer_interval_calls": 1}
    if name == "severity.ratio_moments":
        return {"severity.ratio_moment_draws": result.n_samples}
    if name == "severity.sample_ratio":
        size = kwargs.get("size", args[5] if len(args) > 5 else None)
        return {"severity.sample_ratio_calls": 1, "severity.ratio_draws": 1 if size is None else int(size)}
    if name == "pricing.price":
        return {"pricing.quotes": 1}
    if name == "tailrisk.simulate_aggregate":
        return {"tailrisk.paths": int(result.size)}
    if name == "tailrisk.risk_report":
        return {"tailrisk.bootstrap_resamples": 2 * result.bootstrap_resamples}  # both scenarios
    if name.startswith("cli."):
        return {"cli.bytes_written": sum(Path(p).stat().st_size for p in result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A span opened in a worker thread belongs to the span that
            # started the workers, which is open on the main thread.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = {"name": name, "parent": parent, "thread": threading.get_ident(), "counts": {}}
            with self._lock:
                self.spans.append(span)
                index = len(self.spans) - 1
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span["counts"] = _counts(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        cli = importlib.import_module("defirisk.cli")
        for command, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[command] = self.wrap("cli." + command.replace("-", "_"), fn)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (worker-thread children may overlap)."""
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self time per span name (``<name>_s``; ``cli.*`` and ``risk_report``
    as ``<name>.self_s``), the whole duration of each subcommand
    (``cli.<command>_s``) and summed counts."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: dict[str, float] = {}
    for index, span in enumerate(spans):
        name = span["name"]
        key = name + ".self_s" if name.startswith("cli.") or name == "tailrisk.risk_report" else name + "_s"
        duration = span["end"] - span["start"]
        out[key] = out.get(key, 0.0) + duration - _covered(children.get(index, []))
        if name.startswith("cli."):
            out[name + "_s"] = out.get(name + "_s", 0.0) + duration  # the whole subcommand
        for counter, value in span["counts"].items():
            out[counter] = out.get(counter, 0) + value
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--plain", action="store_true", help="run without wrappers")
    args = parser.parse_args()
    commands = json.loads(Path(args.commands).read_text(encoding="utf-8"))

    import defirisk.cli

    tracer = Tracer()
    if not args.plain:
        tracer.install()
    results = []
    t0 = time.perf_counter()
    for argv in commands:
        start = time.perf_counter()
        code = defirisk.cli.main(argv)
        results.append({"argv": argv, "code": code, "wall_s": time.perf_counter() - start})
    wall = time.perf_counter() - t0
    Path(args.spans).write_text(
        json.dumps({"commands": results, "wall_s": wall, "spans": tracer.spans}), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
