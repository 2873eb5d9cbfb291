"""Per-protocol premiums under the expectation and SD principles.

Monthly coverage of the full TVL with no deductible or limit; a coverage
fraction scales both premiums proportionally when partial cover is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import severity as sev
from .datamodel import ProtocolSpec
from .errors import DomainError
from .frequency import FrequencyModel, predict_attack_probability
from .numerics import RngStream

DEFAULT_THETA = 0.5


@dataclass(frozen=True)
class McMeta:
    """Simulation metadata attached to a quote."""

    n_samples: int
    seed: int
    stream_id: int
    variance_clamped: bool = False
    sd_below_expectation: bool = False


@dataclass(frozen=True)
class PremiumQuote:
    protocol_id: str
    attack_prob: float
    loss_pct: float
    tvl: float
    theta: float
    expectation_premium_usd: float
    sd_premium_usd: float
    expectation_premium_pct: float
    sd_premium_pct: float
    mc_meta: McMeta


def _check_prob(name: str, value: float) -> float:
    if not (0.0 <= value <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def expected_loss(attack_prob: float, tvl: float, total_loss_prob: float, mean_r: float) -> float:
    """E(L) = pi_F * TVL * ((1 - pi_S) * E(R*) + pi_S)."""
    pf = _check_prob("attack_prob", attack_prob)
    ps = _check_prob("total_loss_prob", total_loss_prob)
    mr = _check_prob("mean_r", mean_r)
    if not tvl > 0.0:
        raise DomainError(f"tvl must be positive, got {tvl}")
    return pf * tvl * ((1.0 - ps) * mr + ps)


def premiums(pi_f: float, e_y: float, e_y2: float, theta: float) -> tuple[float, float, bool]:
    """Expectation and SD premiums (1 + theta) E(L) and E(L) + theta SD(L).

    L = N Y with N ~ Bernoulli(pi_f), so E(N^2) = E(N) and
    Var(L) = pi_f E(Y^2) - pi_f^2 E(Y)^2.  A negative variance (Monte Carlo
    moments can produce one) is clamped to zero, which the third element
    reports.
    """
    e_l = pi_f * e_y
    variance = pi_f * e_y2 - pi_f * pi_f * e_y * e_y
    clamped = variance < 0.0
    if clamped:
        variance = 0.0
    return (1.0 + theta) * e_l, e_l + theta * math.sqrt(variance), clamped


def severity_second_moment(
    model: sev.SeverityModel,
    chain,
    tvl: float,
    when: date,
    n_samples: int = 100_000,
    rng: RngStream | np.random.Generator = RngStream(0),
) -> float:
    """E(Y^2) = TVL^2 * ((1 - pi_S) * E(R*^2) + pi_S)."""
    return tvl * tvl * sev.loss_moments(model, chain, tvl, when, n_samples=n_samples, rng=rng)[1]


def price(
    protocol: ProtocolSpec,
    tvl: float,
    when: date,
    frequency_model: FrequencyModel,
    severity_model: sev.SeverityModel,
    theta: float = DEFAULT_THETA,
    n_samples: int = 100_000,
    rng: RngStream = RngStream(0),
    coverage_fraction: float = 1.0,
) -> PremiumQuote:
    """Quote one protocol under both premium principles.

    The ratio moments come from a single Monte Carlo draw set, so the mean
    and second moment of the severity are internally consistent; the
    premiums come from ``premiums``.
    """
    if not theta > 0.0:
        raise DomainError(f"theta must be positive, got {theta}")
    if not 0.0 < coverage_fraction <= 1.0:
        raise DomainError(f"coverage_fraction must lie in (0, 1], got {coverage_fraction}")
    pi_f = predict_attack_probability(frequency_model, tvl)
    loss_pct, second_r, n_used = sev.loss_moments(
        severity_model, protocol.chain, tvl, when, n_samples=n_samples, rng=rng
    )
    expectation_usd, sd_usd, clamped = premiums(pi_f, tvl * loss_pct, tvl * tvl * second_r, theta)
    expectation_usd *= coverage_fraction
    sd_usd *= coverage_fraction
    meta = McMeta(
        n_samples=n_used,
        seed=rng.seed,
        stream_id=rng.stream_id,
        variance_clamped=clamped,
        sd_below_expectation=sd_usd < expectation_usd,
    )
    return PremiumQuote(
        protocol_id=protocol.id,
        attack_prob=pi_f,
        loss_pct=loss_pct,
        tvl=tvl,
        theta=theta,
        expectation_premium_usd=expectation_usd,
        sd_premium_usd=sd_usd,
        expectation_premium_pct=expectation_usd / tvl,
        sd_premium_pct=sd_usd / tvl,
        mc_meta=meta,
    )
