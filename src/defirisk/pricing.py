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


def quote(
    protocol_id: str, attack_prob: float, tvl: float, loss_pct: float,
    second_pct: float | None, theta: float, n_samples: int,
) -> PremiumQuote:
    """The quote for loss Y = tvl R, with E(R) ``loss_pct`` and E(R^2) ``second_pct``;
    without ``second_pct`` the SD premium is None."""
    e_y2 = math.nan if second_pct is None else tvl * tvl * second_pct
    expectation_usd, sd_usd = premiums(attack_prob, tvl * loss_pct, e_y2, theta)
    if second_pct is None:
        sd_usd = None
    return PremiumQuote(
        protocol_id=protocol_id,
        attack_prob=attack_prob,
        loss_pct=loss_pct,
        tvl=tvl,
        theta=theta,
        expectation_premium_usd=expectation_usd,
        sd_premium_usd=sd_usd,
        expectation_premium_pct=expectation_usd / tvl,
        sd_premium_pct=None if sd_usd is None else sd_usd / tvl,
        n_samples=n_samples,
    )


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
    quote from ``quote``; nothing is drawn, so a quote depends only on its
    inputs.
    """
    if not theta > 0.0:
        raise DomainError(f"theta must be positive, got {theta}")
    pi_f = predict_attack_probability(frequency_model, tvl)
    loss_pct, second_r, n_points = sev.loss_moments(severity_model, protocol.chain, tvl, when)
    return quote(protocol.id, pi_f, tvl, loss_pct, second_r, theta, n_points)
