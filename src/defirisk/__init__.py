"""Frequency-severity pricing and tail-risk engine for protocol portfolios.

Monthly Bernoulli attack frequencies with a logit link on standardized
log-TVL, a two-part loss-ratio severity model pooled across the ecosystem,
a Gaussian copula over the portfolio's similarity matrix, premium
principles, and Monte Carlo VaR/CTE.  See the README for the CLI surface;
the library API is in the submodules (``defirisk.tailrisk`` and so on).
"""
