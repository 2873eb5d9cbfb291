#!/usr/bin/env python3
"""Dependence study: tail measures with and without the frequency copula.

Runs the eight-protocol reference portfolio (published attack
probabilities and two-part severity coefficients, synthetic TVLs) across
a grid of confidence levels and prints how much the similarity-driven
copula moves VaR and CTE.  At moderate levels the two scenarios are close;
the gap opens as the level approaches one.
"""

import functools
import sys
from datetime import date
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from reference_values import ATTACK_PROBS, PROP_LOSS_COEFS, PROTOCOL_IDS, SIMILARITY, TOTAL_LOSS_COEFS

from defirisk import glm, severity, tailrisk
from defirisk.datamodel import Chain, Month
from defirisk.dependence import build_copula
from defirisk.numerics import RngStream

CHAINS = dict(A="ETH", B="ETH", C="ETH", D="ETH", E="ETH", F="ETH", G="BSC", H="OTHER")
TVLS = {
    "A": 2.0e8, "B": 3.5e8, "C": 1.5e8, "D": 2.5e8,
    "E": 1.0e8, "F": 4.0e8, "G": 1.2e8, "H": 8.0e7,
}


def reference_severity() -> severity.SeverityModel:
    return severity.SeverityModel(
        total_loss_fit=glm.LogisticFit(
            coefficients=TOTAL_LOSS_COEFS,
            standard_errors=np.full(7, np.nan),
            converged=True,
            penalty=None,
        ),
        proportional_fit=glm.LinearLogitFit(coefficients=PROP_LOSS_COEFS, sigma2=2.0),
        time_origin=date(2020, 1, 1),
        training_window=(Month(2020, 1), Month(2023, 12)),
        hl=None,
        n_total=300,
        n_partial=240,
        low_partial_warning=False,
    )


def main(n_sims: int = 1_000_000, seed: int = 7) -> None:
    model = reference_severity()
    tvls = [TVLS[pid] for pid in PROTOCOL_IDS]
    laws = [
        severity.ratio_law(model, Chain.parse(CHAINS[pid]), tvl, date(2024, 1, 1))
        for pid, tvl in zip(PROTOCOL_IDS, tvls)
    ]
    report = tailrisk.risk_report(
        [ATTACK_PROBS[pid] for pid in PROTOCOL_IDS],
        tvls,
        laws,
        functools.partial(build_copula, SIMILARITY),
        levels=(0.90, 0.95, 0.99, 0.995, 0.999),
        n_sims=n_sims,
        rng=RngStream(seed, 0),
        workers=4,
        bootstrap_resamples=100,
    )
    print(f"paths per scenario: {n_sims:,}; total insured TVL: {report.total_tvl:,.0f}\n")
    head = f"{'level':>6} {'VaR dep':>15} {'VaR indep':>15} {'gap/se':>8}  {'CTE dep':>15} {'CTE indep':>15} {'gap/se':>8}"
    print(head)
    table = report.table
    for j, level in enumerate(table["level"]):
        var_dep, var_indep = table["var_dep"][j], table["var_indep"][j]
        cte_dep, cte_indep = table["cte_dep"][j], table["cte_indep"][j]
        var_se = max(np.hypot(table["se_var_dep"][j], table["se_var_indep"][j]), 1e-9)
        cte_se = max(np.hypot(table["se_cte_dep"][j], table["se_cte_indep"][j]), 1e-9)
        print(
            f"{level:>6g} {var_dep:>15,.0f} {var_indep:>15,.0f} "
            f"{(var_dep - var_indep) / var_se:>8.1f}  "
            f"{cte_dep:>15,.0f} {cte_indep:>15,.0f} "
            f"{(cte_dep - cte_indep) / cte_se:>8.1f}"
        )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    main(n_sims=n)
