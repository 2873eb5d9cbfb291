"""Frequency-severity pricing and tail-risk engine for protocol portfolios.

Monthly Bernoulli attack frequencies with a logit link on standardized
log-TVL, a two-part loss-ratio severity model pooled across the ecosystem,
a Gaussian copula over the portfolio's similarity matrix, premium
principles, and Monte Carlo VaR/CTE.  See the README for the CLI surface.
"""

from .datamodel import (
    Chain,
    IncidentRecord,
    IssueType,
    Month,
    Panel,
    Portfolio,
    ProtocolSpec,
    build_monthly_panel,
    derive_loss_ratio,
    load_incidents,
    load_portfolio,
    load_tvl,
)
from .dependence import CopulaSpec, build_copula, joint_cdf_estimate, sample_frequencies
from .frequency import FrequencyModel, fit_frequency, peer_interval, predict_attack_probability
from .numerics import (
    CorrelationMatrix,
    RngStream,
    cholesky,
    mvn_sample,
    nearest_correlation,
    std_normal_cdf,
    std_normal_quantile,
)
from .pricing import PremiumQuote, premiums, price
from .severity import (
    RatioMoments,
    SeverityModel,
    fit_severity,
    loss_moments,
    predict_total_loss_prob,
    ratio_moments,
    sample_ratio,
)
from .tailrisk import (
    RiskReport,
    conditional_tail_expectation,
    risk_report,
    simulate_aggregate,
    value_at_risk,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "CopulaSpec",
    "CorrelationMatrix",
    "FrequencyModel",
    "IncidentRecord",
    "IssueType",
    "Month",
    "Panel",
    "Portfolio",
    "PremiumQuote",
    "ProtocolSpec",
    "RatioMoments",
    "RiskReport",
    "RngStream",
    "SeverityModel",
    "build_copula",
    "build_monthly_panel",
    "cholesky",
    "conditional_tail_expectation",
    "derive_loss_ratio",
    "fit_frequency",
    "fit_severity",
    "joint_cdf_estimate",
    "load_incidents",
    "load_portfolio",
    "load_tvl",
    "loss_moments",
    "mvn_sample",
    "nearest_correlation",
    "peer_interval",
    "predict_attack_probability",
    "predict_total_loss_prob",
    "premiums",
    "price",
    "ratio_moments",
    "risk_report",
    "sample_frequencies",
    "sample_ratio",
    "simulate_aggregate",
    "std_normal_cdf",
    "std_normal_quantile",
    "value_at_risk",
]
