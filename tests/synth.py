"""Synthetic data generators shared by the unit and acceptance tests."""

import math
from datetime import date, timedelta

import numpy as np

from defirisk import glm
from defirisk.datamodel import Chain, Incidents, IssueType, Month, Panel


def incident_table(rows):
    """``Incidents`` from ``(protocol_id, date, chain, issue_type, loss_usd,
    tvl_usd or None)`` rows, in order."""
    rows = list(rows)
    return Incidents(
        protocol_id=np.array([r[0] for r in rows], dtype=object),
        day=np.array([r[1] for r in rows], dtype="datetime64[D]"),
        chain=np.array([r[2] for r in rows], dtype=object),
        issue=np.array([r[3] for r in rows], dtype=object),
        loss_usd=np.array([r[4] for r in rows], dtype=float),
        tvl_usd=np.array([math.nan if r[5] is None else r[5] for r in rows], dtype=float),
    )


def incident_rows(incidents):
    """The ``incident_table`` rows of ``incidents``: the inverse of that function."""
    return [
        (pid, day, chain, issue, loss, None if math.isnan(tvl) else tvl)
        for pid, day, chain, issue, loss, tvl in zip(
            incidents.protocol_id.tolist(),
            incidents.day.tolist(),
            incidents.chain.tolist(),
            incidents.issue.tolist(),
            incidents.loss_usd.tolist(),
            incidents.tvl_usd.tolist(),
        )
    ]


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

    tvl = np.exp(log_tvl)
    days = [timedelta(days=t * 365.25).days for t in t_years.tolist()]
    return Incidents(
        protocol_id=np.array([f"S{i}" for i in range(n)], dtype=object),
        day=np.datetime64(origin, "D") + np.array(days, dtype=np.int64),
        chain=np.array(chain_enum, dtype=object)[chains],
        issue=np.full(n, IssueType.OTHER, dtype=object),
        loss_usd=np.where(total, tvl, partial_ratio * tvl),
        tvl_usd=tvl,
    )


def grouped_similarity(d, seed, groups=12):
    """A d x d similarity matrix: 0.55 within random groups, 0.15 across,
    plus symmetric U(-0.12, 0.12) noise, clipped to [0, 1].  It is
    usually indefinite, so the copula repairs it."""
    gen = np.random.default_rng(seed)
    label = gen.integers(0, groups, d)
    sim = np.where(label[:, None] == label[None, :], 0.55, 0.15)
    noise = gen.uniform(-0.12, 0.12, (d, d))
    sim = np.clip(sim + (noise + noise.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    return sim
