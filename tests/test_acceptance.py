"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Every tolerance is pinned here, not configurable.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they complete).
"""

import functools
import json
import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from defirisk import frequency, glm, severity, tailrisk
from defirisk.cli import main as cli_main
from defirisk.datamodel import Chain, Month
from defirisk.dependence import build_copula
from defirisk.numerics import (
    RngStream,
    cholesky,
    nearest_correlation,
    std_normal_cdf,
    std_normal_quantile,
)

from oracles import bivariate_upper_orthant, joint_cdf_estimate, sample_frequencies
from reference_values import (
    ATTACK_PROBS,
    EXPECTATION_PREMIUM_PCT,
    FREQ_COEFS,
    LOSS_PCT,
    PROP_LOSS_COEFS,
    PROTOCOL_IDS,
    SIMILARITY,
    THETA,
    TOTAL_LOSS_COEFS,
)
from synth import frequency_panel, severity_incidents

DATA = Path(__file__).parent / "data"


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_expectation_premium_reproduction(tmp_path):
    """Published (attack probability, loss percentage) pairs reproduce the
    expectation-principle premium column within 0.5% relative."""
    override = {
        pid: {"attack_prob": ATTACK_PROBS[pid], "loss_pct": LOSS_PCT[pid]}
        for pid in PROTOCOL_IDS
    }
    path = tmp_path / "override.json"
    path.write_text(json.dumps(override))
    code = cli_main(
        ["price", "--override", str(path), "--output", str(tmp_path), "--theta", str(THETA)]
    )
    assert code == 0
    import csv

    with open(tmp_path / "quotes.csv", newline="") as fh:
        rows = {r["protocol_id"]: r for r in csv.DictReader(fh)}
    worst = 0.0
    for pid in PROTOCOL_IDS:
        got = float(rows[pid]["expectation_pct"])
        want = EXPECTATION_PREMIUM_PCT[pid]
        worst = max(worst, abs(got - want) / want)
    report(1, worst <= 0.005, f"worst relative premium error {worst:.4%} (tolerance 0.5%)")


@pytest.mark.parametrize("pid,n_months", [("A", 600), ("A", 100_000), ("F", 600), ("F", 100_000)])
def test_criterion_2_frequency_parametric_recovery(pid, n_months):
    """100 seeded replicates at each published truth recover both
    coefficients within 3 standard errors at least 95 times."""
    truth = np.array(FREQ_COEFS[pid][0])
    hits = 0
    for rep in range(100):
        panel = frequency_panel(truth, n_months, seed=rep * 7919 + ord(pid))
        try:
            model = frequency.fit_frequency(panel)
        except Exception:
            continue
        fit = model.fit
        if fit.penalty is not None:
            continue
        if np.all(np.abs(fit.coefficients - truth) <= 3.0 * fit.standard_errors):
            hits += 1
    report(2, hits >= 95, f"protocol {pid}, n={n_months}: {hits}/100 replicates within 3 SEs")


def test_criterion_3_severity_parametric_recovery():
    """100 seeded replicates at the published two-part truth recover every
    coefficient within 3 SEs and the residual variance within 10%."""
    sigma2 = 4.0
    hits = 0
    for rep in range(100):
        incidents = severity_incidents(
            10_000, seed=rep * 104729 + 1, betas=TOTAL_LOSS_COEFS,
            gammas=PROP_LOSS_COEFS, sigma2=sigma2,
        )
        model = severity.fit_severity(severity.training_set(incidents))
        tl, prop = model.total_loss_fit, model.proportional_fit
        if tl.penalty is not None:
            continue
        ok = (
            np.all(np.abs(tl.coefficients - TOTAL_LOSS_COEFS) <= 3.0 * tl.standard_errors)
            and np.all(np.abs(prop.coefficients - PROP_LOSS_COEFS) <= 3.0 * prop.standard_errors)
            and abs(prop.sigma2 - sigma2) / sigma2 <= 0.10
        )
        hits += ok
    report(3, hits >= 95, f"{hits}/100 replicates recovered all parameters")


def test_criterion_4_copula_correctness():
    """(a) marginal preservation, (b) pairwise joint successes against the
    quadrature oracle, (c) independence products under the identity."""
    n = 1_000_000
    pi = np.array([ATTACK_PROBS[p] for p in PROTOCOL_IDS])

    # (a) marginals under the full similarity matrix
    spec = build_copula(SIMILARITY)
    draws = sample_frequencies(pi, spec, RngStream(424, 1), size=n)
    rates = draws.mean(axis=0)
    margin_ok = all(
        abs(rates[j] - pi[j]) <= 3.0 * math.sqrt(pi[j] * (1 - pi[j]) / n) for j in range(8)
    )

    # (b) pairwise joint-success probability vs deterministic quadrature
    pair = (ATTACK_PROBS["A"], ATTACK_PROBS["D"])
    a = std_normal_quantile(1.0 - pair[0])
    b = std_normal_quantile(1.0 - pair[1])
    pair_ok = True
    pair_detail = []
    for rho in (0.0, 0.3, 0.8, 1.0):
        spec2 = build_copula(np.array([[1.0, rho], [rho, 1.0]]))
        draws2 = sample_frequencies(list(pair), spec2, RngStream(424, 10 + int(rho * 10)), size=n)
        both = float((draws2 == 1).all(axis=1).mean())
        expected = bivariate_upper_orthant(a, b, rho)
        se = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
        pair_ok &= abs(both - expected) <= 3.0 * se
        pair_detail.append(f"rho={rho:g}: |{both:.6f}-{expected:.6f}|<=3se")

    # (c) identity similarity reproduces independence products
    ident = build_copula(np.eye(8))
    indep_ok = True
    for bounds_seed in range(3):
        gen = np.random.default_rng(bounds_seed)
        bounds = gen.integers(0, 2, size=8)
        if np.all(bounds == 1):
            bounds[0] = 0
        est, se = joint_cdf_estimate(pi, ident, bounds, n_samples=n, rng=RngStream(424, 30 + bounds_seed))
        product = float(np.prod(np.where(bounds == 1, 1.0, 1.0 - pi)))
        indep_ok &= abs(est - product) <= 3.0 * max(se, 1e-6)

    passed = margin_ok and pair_ok and indep_ok
    report(4, passed, f"marginals={margin_ok}, quadrature={pair_ok}, independence={indep_ok}")


def test_criterion_5_tail_measures_exact_bernoulli():
    """Exact-mixture Bernoulli portfolio: VaR and CTE take their known
    values exactly."""
    tvl = 100.0
    n = 1_000_000
    k = int(0.05 * n)  # exact 5% atom
    sample = np.concatenate([np.zeros(n - k), np.full(k, tvl)])
    sample.sort()
    var90 = tailrisk.value_at_risk(sample, 0.90)
    var96 = tailrisk.value_at_risk(sample, 0.96)
    cte90 = tailrisk.conditional_tail_expectation(sample, 0.90)
    exact_ok = var90 == 0.0 and var96 == tvl and cte90 == tvl

    # Raw Monte Carlo counterpart: the atom mass stays within multinomial
    # fluctuation of 5%, so the 0.9 quantile still sits on the zero atom.
    freq_fit = glm.LogisticFit(
        coefficients=np.array([glm.logit(0.05), 0.0]),
        standard_errors=np.array([np.nan, np.nan]),
        converged=True,
        penalty=None,
    )
    freq_model = frequency.FrequencyModel(
        "P0", freq_fit, (Month(2020, 1), Month(2023, 12)), None, 0.0, 1.0
    )
    sev_model = severity.SeverityModel(
        total_loss_fit=None, proportional_fit=None, time_origin=date(2020, 1, 1),
        training_window=(Month(2020, 1), Month(2023, 12)), hl=None,
        n_total=1, n_partial=0, low_partial_warning=True,
    )
    mc = tailrisk.simulate_aggregate(
        [frequency.predict_attack_probability(freq_model, tvl)], [tvl],
        [severity.ratio_law(sev_model, Chain.ETH, tvl, date(2024, 1, 1))], None,
        n_sims=n, rng=RngStream(55, 0),
    )
    atom = float((mc == tvl).mean())
    fluct = 3.0 * math.sqrt(0.05 * 0.95 / n)
    mc_ok = (
        abs(atom - 0.05) <= fluct
        and tailrisk.value_at_risk(mc, 0.90) == 0.0
        and tailrisk.value_at_risk(mc, 0.96) == tvl
        and tailrisk.conditional_tail_expectation(mc, 0.90) == tvl
    )
    report(5, exact_ok and mc_ok, f"exact mixture ok={exact_ok}, raw MC atom={atom:.5f} ok={mc_ok}")


def test_criterion_6_dependence_raises_extreme_tail():
    """At the 99% level on the eight-protocol synthetic portfolio, the
    dependent VaR and CTE exceed the independent ones by more than two
    combined bootstrap standard errors (10^7 paths)."""
    chains = {
        "A": Chain.ETH, "B": Chain.ETH, "C": Chain.ETH, "D": Chain.ETH,
        "E": Chain.ETH, "F": Chain.ETH, "G": Chain.BSC, "H": Chain.OTHER,
    }
    tvls = {
        "A": 2.0e8, "B": 3.5e8, "C": 1.5e8, "D": 2.5e8,
        "E": 1.0e8, "F": 4.0e8, "G": 1.2e8, "H": 8.0e7,
    }
    sev_model = severity.SeverityModel(
        total_loss_fit=glm.LogisticFit(
            coefficients=TOTAL_LOSS_COEFS,
            standard_errors=np.full(7, np.nan),
            converged=True,
            penalty=None,
        ),
        proportional_fit=glm.LinearLogitFit(
            coefficients=PROP_LOSS_COEFS, sigma2=2.0, xtx_inverse=None
        ),
        time_origin=date(2020, 1, 1),
        training_window=(Month(2020, 1), Month(2023, 12)),
        hl=None, n_total=300, n_partial=240, low_partial_warning=False,
    )
    pi = [ATTACK_PROBS[p] for p in PROTOCOL_IDS]
    laws = [severity.ratio_law(sev_model, chains[p], tvls[p], date(2024, 1, 1)) for p in PROTOCOL_IDS]
    rep = tailrisk.risk_report(
        pi, [tvls[p] for p in PROTOCOL_IDS], laws, functools.partial(build_copula, SIMILARITY),
        levels=(0.99,), n_sims=10_000_000, rng=RngStream(2024, 0),
        workers=4, bootstrap_resamples=200,
    )
    row = {column: values[0] for column, values in rep.table.items()}
    var_gap = row["var_dep"] - row["var_indep"]
    var_se = math.hypot(row["se_var_dep"], row["se_var_indep"])
    cte_gap = row["cte_dep"] - row["cte_indep"]
    cte_se = math.hypot(row["se_cte_dep"], row["se_cte_indep"])
    passed = var_gap > 2.0 * var_se and cte_gap > 2.0 * cte_se
    report(
        6,
        passed,
        f"VaR99 gap {var_gap:.3e} vs 2se {2*var_se:.3e}; CTE99 gap {cte_gap:.3e} vs 2se {2*cte_se:.3e}",
    )


def test_criterion_7_hl_test_calibration():
    """Rejection rate at level 0.05 on well-specified data is 5% +/- 2%
    over 1000 replicates."""
    gen = np.random.default_rng(2024)
    rejections = 0
    n = 1000
    for _ in range(1000):
        x = gen.normal(size=n)
        y = (gen.random(n) < glm.invlogit(-2.0 + 0.5 * x)).astype(float)
        design = np.column_stack([np.ones(n), x])
        fit = glm.fit_logistic(design, y)
        hl = glm.hosmer_lemeshow(fit, design, y)
        rejections += hl.p_value < 0.05
    rate = rejections / 1000
    report(7, 0.03 <= rate <= 0.07, f"rejection rate {rate:.3f} (target 0.05 +/- 0.02)")


def test_criterion_8_numerics_kernel():
    """Round trips, Cholesky reconstruction, and repair idempotence at
    their pinned tolerances."""
    worst_rt = max(
        abs(std_normal_cdf(std_normal_quantile(float(p))) - float(p))
        for p in np.linspace(1e-6, 1 - 1e-6, 1000)
    )
    round_trip_ok = worst_rt <= 1e-10

    repaired = nearest_correlation(SIMILARITY)
    low = cholesky(repaired)
    recon = float(np.max(np.abs(low @ low.T - repaired)))
    chol_ok = recon <= 1e-12

    m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    once = nearest_correlation(m)
    twice = nearest_correlation(once)
    idem = float(np.max(np.abs(twice - once)))
    idem_ok = idem <= 1e-12

    passed = round_trip_ok and chol_ok and idem_ok
    report(8, passed, f"round-trip {worst_rt:.2e}, reconstruction {recon:.2e}, idempotence {idem:.2e}")


def test_criterion_9_cli_determinism(tmp_path):
    """Every command, run twice with identical config and seed (and with
    1 vs 8 workers for the simulator), produces byte-identical outputs."""
    incidents = str(DATA / "incidents.csv")
    tvl = str(DATA / "tvl.csv")
    portfolio = str(DATA / "portfolio.json")
    priced = str(DATA / "portfolio_priced.json")

    models = tmp_path / "models"
    assert cli_main(["fit-frequency", "--incidents", incidents, "--tvl", tvl,
                     "--portfolio", portfolio, "--output", str(models), "--seed", "9"]) == 0
    assert cli_main(["fit-severity", "--incidents", incidents,
                     "--output", str(models), "--seed", "9"]) == 0

    def run_all(out: Path, workers: int) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        cmds = [
            ["fit-frequency", "--incidents", incidents, "--tvl", tvl,
             "--portfolio", portfolio, "--output", str(out / "freq"), "--seed", "9"],
            ["fit-severity", "--incidents", incidents, "--output", str(out / "sev"), "--seed", "9"],
            ["price", "--tvl", tvl, "--portfolio", priced, "--models", str(models),
             "--output", str(out / "price"), "--seed", "9", "--samples", "20000"],
            ["simulate", "--tvl", tvl, "--portfolio", priced, "--models", str(models),
             "--output", str(out / "sim"), "--seed", "9", "--samples", "20000",
             "--bootstrap", "20"],
            ["gof", "--model", str(models / "freq_P1.json"), "--incidents", incidents,
             "--tvl", tvl, "--portfolio", portfolio, "--output", str(out / "gof")],
            ["summarize", "--incidents", incidents, "--output", str(out / "sum")],
        ]
        for cmd in cmds:
            assert cli_main(cmd + ["--workers", str(workers)]) == 0, cmd
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = run_all(tmp_path / "run1", workers=1)
    second = run_all(tmp_path / "run2", workers=1)
    eight = run_all(tmp_path / "run8", workers=8)
    same_rerun = first == second
    same_workers = first == eight
    report(
        9,
        same_rerun and same_workers,
        f"rerun identical={same_rerun}, workers 1 vs 8 identical={same_workers} "
        f"({len(first)} files compared)",
    )
