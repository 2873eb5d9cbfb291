#!/usr/bin/env python3
"""SHA-256 of every output file the six subcommands write on one data set.

    PYTHONPATH=src python scripts/output_digest.py OUT_DIR [--data DIR | --book SEED] [--seed N]
        [--workers N] [--samples N] [--dependence {on,off,both}] [--format {csv,json}]

Runs fit-frequency, fit-severity, price, simulate, summarize and both kinds
of gof (on ``severity_model.json`` and on the first priced protocol's
``freq_<id>.json``) on ``DIR`` (default ``tests/data``), which holds
``incidents.csv``, ``tvl.csv``, ``portfolio.json`` and
``portfolio_priced.json``; ``--book SEED`` instead runs on the book that
``perfbench/book.py`` generates for SEED, written to a temporary directory
outside ``OUT_DIR`` and deleted afterwards (``--seed`` stays the run's
seed).  Everything goes under ``OUT_DIR``, which should be empty because
every file in it is listed; the gof runs write to ``OUT_DIR/gof_severity``
and ``OUT_DIR/gof_frequency`` so neither overwrites the other's
``gof.json``.  Prints one ``<sha256>  <path>`` line per output file,
sorted by path, so two source trees are checked for byte-identical
outputs with one diff of their listings.  ``--workers`` is passed to
``simulate`` (by default it is not, so ``simulate`` uses its own default,
the CPUs the process may run on); outputs must not depend on it, so the
listings at two worker counts must not differ either.  ``--samples``
(default: the config's, 10^5) is passed to ``simulate`` too: the merge
of the retained tail takes its blocks of 65,536 paths in order at any
worker count, and 10^6 paths are 16 of them, which 3 workers do not
split evenly.  ``--dependence`` (default: the config's, both) is passed
to ``simulate`` as well: a single scenario is bootstrapped alone, and on
a pool the scenarios are drawn in another order, so each value's
listings must not depend on ``--workers`` either.  ``--format``
(default csv) is passed to every command, so the JSON form of each report
table is checked the same way.  BLAS runs on one
thread unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy loads: the last bits of some reductions
# (the logit-scale OLS, the correlation repair) follow the BLAS thread
# count, so listings from hosts with different core counts then compare.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from defirisk.cli import main  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run(args, fmt: str) -> None:
    code = main([str(a) for a in args] + ["--format", fmt])
    if code != 0:
        sys.exit(f"{args[0]} exited {code}")


def run_all(data: Path, out: Path, seed: int, simulate_flags: list, fmt: str) -> None:
    incidents, tvl = data / "incidents.csv", data / "tvl.csv"
    portfolio, priced = data / "portfolio.json", data / "portfolio_priced.json"
    first_priced = json.loads(priced.read_text(encoding="utf-8"))["protocols"][0]["id"]
    run(["fit-frequency", "--incidents", incidents, "--tvl", tvl, "--portfolio", portfolio,
         "--output", out], fmt)
    run(["fit-severity", "--incidents", incidents, "--output", out], fmt)
    run(["price", "--tvl", tvl, "--portfolio", priced, "--models", out, "--output", out,
         "--seed", seed], fmt)
    run(["simulate", "--tvl", tvl, "--portfolio", priced, "--models", out, "--output", out,
         "--seed", seed] + simulate_flags, fmt)
    run(["summarize", "--incidents", incidents, "--output", out], fmt)
    run(["gof", "--model", out / "severity_model.json", "--incidents", incidents,
         "--output", out / "gof_severity"], fmt)
    run(["gof", "--model", out / f"freq_{first_priced}.json", "--incidents", incidents,
         "--tvl", tvl, "--portfolio", portfolio, "--output", out / "gof_frequency"], fmt)


def main_digest() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--data", type=Path, default=ROOT / "tests" / "data")
    source.add_argument("--book", type=int, metavar="SEED")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--dependence", choices=("on", "off", "both"), default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()
    simulate_flags = []
    for flag in ("workers", "samples", "dependence"):
        if getattr(args, flag) is not None:
            simulate_flags += [f"--{flag}", getattr(args, flag)]
    with contextlib.ExitStack() as stack:
        data = args.data
        if args.book is not None:
            sys.path.insert(0, str(ROOT / "perfbench"))
            from book import make_book

            data = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            make_book(args.book, data)
        with contextlib.redirect_stdout(io.StringIO()):  # keep the "wrote" lines out of the listing
            run_all(data, args.out_dir, args.seed, simulate_flags, args.format)
    for path in sorted(p for p in args.out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out_dir).as_posix()}")


if __name__ == "__main__":
    main_digest()
