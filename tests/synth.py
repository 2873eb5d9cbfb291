"""Synthetic data generators shared by the unit and acceptance tests."""

from datetime import date, timedelta

import numpy as np

from defirisk import glm
from defirisk.datamodel import Chain, IncidentRecord, IssueType, Month, Panel


def frequency_panel(coefs, n_months, seed, protocol_id="SYN", x_mu=16.0, x_sd=1.5):
    """Monthly panel whose events follow a logistic law on standardized log TVL."""
    gen = np.random.default_rng(seed)
    log_tvl = gen.normal(x_mu, x_sd, size=n_months)
    z = (log_tvl - log_tvl.mean()) / log_tvl.std(ddof=1)
    p = glm.invlogit(coefs[0] + coefs[1] * z)
    events = (gen.random(n_months) < p).astype(float)
    return Panel(protocol_id, Month(1980, 1), events, log_tvl)


def severity_incidents(
    n,
    seed,
    betas,
    gammas,
    sigma2,
    origin=date(2020, 1, 1),
    chain_probs=(0.5, 0.3, 0.2),
):
    """Incidents drawn from the two-part loss-ratio law.

    Chains are sampled (ETH, BSC, OTHER); attack dates spread uniformly
    over four years from the origin; log TVL is normal(15, 2).
    """
    gen = np.random.default_rng(seed)
    chains = gen.choice(3, size=n, p=list(chain_probs))
    chain_enum = [Chain.ETH, Chain.BSC, Chain.OTHER]
    log_tvl = gen.normal(15.0, 2.0, size=n)
    t_years = gen.uniform(0.0, 4.0, size=n)
    d_eth = (chains == 0).astype(float)
    d_oth = (chains == 2).astype(float)
    eta_total = (
        betas[0]
        + betas[1] * d_eth
        + betas[2] * d_oth
        + betas[3] * log_tvl
        + betas[4] * t_years
        + betas[5] * d_eth * t_years
        + betas[6] * d_oth * t_years
    )
    total = gen.random(n) < glm.invlogit(eta_total)
    noise = gen.normal(0.0, np.sqrt(sigma2), size=n)
    partial_ratio = glm.invlogit(gammas[0] + gammas[1] * log_tvl + noise)

    records = []
    for i in range(n):
        tvl = float(np.exp(log_tvl[i]))
        when = origin + timedelta(days=float(t_years[i]) * 365.25)
        loss = tvl if total[i] else float(partial_ratio[i]) * tvl
        records.append(
            IncidentRecord(
                protocol_id=f"S{i}",
                date=when,
                chain=chain_enum[chains[i]],
                issue_type=IssueType.OTHER,
                loss_usd=loss,
                tvl_usd=tvl,
            )
        )
    return records
