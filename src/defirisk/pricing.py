"""Per-protocol premiums under the expectation and SD principles.

Monthly coverage of the full TVL with no deductible or limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

from . import severity as sev
from .datamodel import ProtocolSpec
from .errors import DomainError
from .frequency import FrequencyModel, predict_attack_probability

DEFAULT_THETA = 0.5


@dataclass(frozen=True)
class PremiumQuote:
    """One protocol's premiums; ``n_samples`` is from ``severity.loss_moments``.

    A quote priced from supplied (attack_prob, loss_pct) pairs has
    ``n_samples`` 0, and no SD premium (None) without a second moment.
    """

    protocol_id: str
    attack_prob: float
    loss_pct: float
    tvl: float
    theta: float
    expectation_premium_usd: float
    sd_premium_usd: float | None
    expectation_premium_pct: float
    sd_premium_pct: float | None
    n_samples: int


def premiums(pi_f: float, e_y: float, e_y2: float, theta: float) -> tuple[float, float]:
    """Expectation and SD premiums (1 + theta) E(L) and E(L) + theta SD(L).

    L = N Y with N ~ Bernoulli(pi_f), so E(N^2) = E(N) and
    Var(L) = pi_f E(Y^2) - pi_f^2 E(Y)^2, clamped to zero where rounding
    leaves it a few ulps below (Y nearly constant).
    """
    e_l = pi_f * e_y
    variance = pi_f * e_y2 - pi_f * pi_f * e_y * e_y
    if variance < 0.0:
        variance = 0.0
    return (1.0 + theta) * e_l, e_l + theta * math.sqrt(variance)


def price(
    protocol: ProtocolSpec,
    tvl: float,
    when: date,
    frequency_model: FrequencyModel,
    severity_model: sev.SeverityModel,
    theta: float = DEFAULT_THETA,
) -> PremiumQuote:
    """Quote one protocol under both premium principles.

    The severity moments come from ``severity.loss_moments`` and the
    premiums from ``premiums``; nothing is drawn, so a quote depends only
    on its inputs.
    """
    if not theta > 0.0:
        raise DomainError(f"theta must be positive, got {theta}")
    pi_f = predict_attack_probability(frequency_model, tvl)
    loss_pct, second_r, n_points = sev.loss_moments(severity_model, protocol.chain, tvl, when)
    expectation_usd, sd_usd = premiums(pi_f, tvl * loss_pct, tvl * tvl * second_r, theta)
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
        n_samples=n_points,
    )
