#!/usr/bin/env python3
"""Self-test of the output checks: each must reject a corrupted output.

    python3 perfbench/selftest.py --workload book --seed 1

Runs one round of the workload (as ``run.py`` does), confirms that the
clean outputs pass, then for each corruption copies the outputs, alters
one value and confirms that the check meant to catch it fails with the
expected message.  Prints one line per case and exits 1 if any case is
not caught.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

from run import Bench, WORKLOADS


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _scale(row: dict, key: str, factor: float) -> None:
    row[key] = repr(float(row[key]) * factor)


def cases(data):
    """(name, expected message fragment, corruption of an output directory)."""
    def nudge_alpha(out: Path) -> None:
        for pid in data.priced_ids:
            doc = json.loads((out / f"freq_{pid}.json").read_text(encoding="utf-8"))
            if doc["penalty"] is None and not doc["covariate_dropped"]:
                _edit_json(out / f"freq_{pid}.json", lambda d: d.__setitem__("alpha0", d["alpha0"] + 1e-3))
                return
        raise RuntimeError("no unpenalized frequency fit to corrupt")

    def shift_loss_pct(out: Path) -> None:
        # Move loss_pct by 1% and keep the premium identity consistent, so
        # only the quadrature comparison can notice.
        def edit(rows):
            row = rows[0]
            factor = 1.01
            for key in ("loss_pct", "expectation_usd", "expectation_pct"):
                _scale(row, key, factor)
        _edit_csv(out / "quotes.csv", edit)

    def bump_count(rows):
        row = next(r for r in rows if r["section"] == "events_by_chain" and int(r["value"]) > 0)
        row["value"] = str(int(row["value"]) + 1)

    return [
        ("frequency coefficient +1e-3", "score equations", nudge_alpha),
        ("attack_prob x (1 + 1e-9)", "attack_prob",
         lambda out: _edit_csv(out / "frequency_report.csv",
                               lambda rows: _scale(next(r for r in rows if r["attack_prob"]), "attack_prob", 1 + 1e-9))),
        ("severity beta[3] +1e-3", "beta: score equations",
         lambda out: _edit_json(out / "severity_model.json", lambda d: d["beta"].__setitem__(3, d["beta"][3] + 1e-3))),
        ("severity gamma[0] +1e-3", "normal equations",
         lambda out: _edit_json(out / "severity_model.json", lambda d: d["gamma"].__setitem__(0, d["gamma"][0] + 1e-3))),
        ("severity sigma2 x (1 + 1e-6)", "sigma2",
         lambda out: _edit_json(out / "severity_model.json", lambda d: d.__setitem__("sigma2", d["sigma2"] * (1 + 1e-6)))),
        ("severity n_partial + 1", "n_partial",
         lambda out: _edit_json(out / "severity_model.json", lambda d: d.__setitem__("n_partial", d["n_partial"] + 1))),
        ("loss_pct x 1.01", "MC standard errors", shift_loss_pct),
        ("expectation premium x (1 + 1e-9)", "expectation premium",
         lambda out: _edit_csv(out / "quotes.csv", lambda rows: _scale(rows[-1], "expectation_pct", 1 + 1e-9))),
        ("summarize count + 1", "summary.csv", lambda out: _edit_csv(out / "summary.csv", bump_count)),
        ("ingest rows_rejected + 1", "rows_rejected",
         lambda out: _edit_json(out / "ingest_report.json", lambda d: d.__setitem__("rows_rejected", d["rows_rejected"] + 1))),
        ("ingest rows_flagged - 1", "rows_flagged",
         lambda out: _edit_json(out / "ingest_report.json", lambda d: d.__setitem__("rows_flagged", d["rows_flagged"] - 1))),
        ("gof statistic x (1 + 1e-6)", "gof.json",
         lambda out: _edit_json(out / "gof.json", lambda d: d["hl"].__setitem__("stat", d["hl"]["stat"] * (1 + 1e-6)))),
        ("peer interval of a never-attacked protocol emptied", "peer interval",
         lambda out: _edit_csv(out / "frequency_report.csv",
                               lambda rows: next(r for r in rows if r["interval_low"]).__setitem__("interval_low", ""))),
    ], [
        ("VaR_dep@0.9 x 1.05", "VaR", lambda out: _edit_csv(out / "risk_report.csv", lambda rows: _scale(rows[0], "var_dep", 1.05))),
        ("VaR_indep@0.99 x 1.05", "VaR", lambda out: _edit_csv(out / "risk_report.csv", lambda rows: _scale(rows[-1], "var_indep", 1.05))),
        ("CTE_dep@0.9 x 1.05", "CTE", lambda out: _edit_csv(out / "risk_report.csv", lambda rows: _scale(rows[0], "cte_dep", 1.05))),
        ("CTE_indep@0.99 x 0.95", "CTE", lambda out: _edit_csv(out / "risk_report.csv", lambda rows: _scale(rows[-1], "cte_indep", 0.95))),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    bench = Bench(Path.cwd(), args.workload, args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    _, failures = bench.measure(0.0)
    if bench.failed or failures:
        print(f"clean run failed: {bench.failed} commands, checks {failures}")
        return 1
    data = bench.inputs()
    clean = bench.work / "round0"
    model_cases, risk_cases = cases(data)
    caught = 0
    total = 0
    for group in (model_cases, risk_cases):
        for name, fragment, corrupt in group:
            total += 1
            target = bench.work / "corrupt"
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(clean, target)
            corrupt(target)
            outs, sims = ([target], []) if group is model_cases else ([clean], [target])
            found = bench.check(data, outs, sims)
            hit = any(fragment in f for f in found)
            caught += hit
            print(f"{'CAUGHT' if hit else 'MISSED'}  {name}: {found[0] if found else 'no failure'}")
    print(f"{caught}/{total} corruptions caught")
    return 0 if caught == total else 1


if __name__ == "__main__":
    sys.exit(main())
