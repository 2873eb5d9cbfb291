"""Independent numerical oracles used to check stochastic components."""

import math

import numpy as np

from defirisk.datamodel import Month
from defirisk.errors import DataError, DomainError, TvlGapError
from defirisk.glm import invlogit
from defirisk.numerics import std_normal_cdf
from defirisk.tailrisk import _order_index


def _phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def bivariate_upper_orthant(a: float, b: float, rho: float, n_nodes: int = 400) -> float:
    """P(Z1 > a, Z2 > b) for standard bivariate normals with correlation rho.

    Deterministic Gauss-Legendre quadrature of
    integral over z in (a, inf) of phi(z) * P(Z2 > b | Z1 = z) dz;
    the conditional law is normal(rho z, 1 - rho^2).  Exact limits are used
    for |rho| = 1 and rho = 0.
    """
    if not (-1.0 <= rho <= 1.0):
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if rho == 0.0:
        return (1.0 - std_normal_cdf(a)) * (1.0 - std_normal_cdf(b))
    if rho == 1.0:
        return 1.0 - std_normal_cdf(max(a, b))
    if rho == -1.0:
        # Z2 = -Z1: need Z1 > a and -Z1 > b.
        return max(0.0, std_normal_cdf(-b) - std_normal_cdf(a))
    hi = 9.0
    if a >= hi:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    # map [-1, 1] -> [a, hi]
    mid, half = 0.5 * (a + hi), 0.5 * (hi - a)
    z = mid + half * nodes
    denom = math.sqrt(1.0 - rho * rho)
    total = 0.0
    for zi, wi in zip(z, weights):
        tail = 1.0 - std_normal_cdf((b - rho * zi) / denom)
        total += wi * _phi(zi) * tail
    return half * total


def full_bootstrap_ses(sample: np.ndarray, levels, resamples: int, gen):
    """Bootstrap SEs of (VaR, CTE) at each level from full n-index resamples.

    The plain multinomial bootstrap the tail-only scheme in
    ``tailrisk._bootstrap_ses`` must agree with in law: every resample
    draws n indices into the sorted ``sample``.
    """
    n = sample.size
    ks = [_order_index(n, q) for q in levels]
    kth = sorted(set(k - 1 for k in ks))
    var_vals = np.empty((resamples, len(ks)))
    cte_vals = np.empty((resamples, len(ks)))
    for r in range(resamples):
        idx = gen.integers(0, n, n)
        x = sample[idx]
        part = np.partition(x, kth)
        for j, k in enumerate(ks):
            v = part[k - 1]
            tail = part[k - 1:]
            above = tail[tail > v]
            var_vals[r, j] = v
            cte_vals[r, j] = above.mean() if above.size else v
    return var_vals.std(axis=0, ddof=1), cte_vals.std(axis=0, ddof=1)


def mc_ratio_moments(eta: float, sigma: float, n_samples: int, gen):
    """Monte Carlo E(R*), E(R*^2) of R* = invlogit(eta + sigma Z) and their SEs.

    Returns (mean, second moment, SE of the mean, SE of the second
    moment) from ``n_samples`` standard normal draws of ``gen``.
    """
    vals = invlogit(eta + sigma * gen.standard_normal(n_samples))
    squares = vals * vals
    root_n = math.sqrt(n_samples)
    return (
        float(vals.mean()),
        float(squares.mean()),
        float(vals.std(ddof=1) / root_n),
        float(squares.std(ddof=1) / root_n),
    )


def exact_ratio_moments(eta: float, sigma2: float, dps: int = 30):
    """E(R*) and E(R*^2) of R* = invlogit(eta + sigma Z) by adaptive mpmath quadrature.

    The integrand is split at the mode of the normal density and at the
    midpoint of the logistic step, z = -eta / sigma.
    """
    import mpmath as mp

    with mp.workdps(dps):
        sigma = mp.sqrt(sigma2)
        breaks = sorted({mp.mpf(0), -mp.mpf(eta) / sigma})
        moments = []
        for k in (1, 2):
            def f(z, k=k):
                return (1 / (1 + mp.exp(-(eta + sigma * z)))) ** k * mp.npdf(z)

            moments.append(float(mp.quad(f, [-mp.inf, *breaks, mp.inf])))
    return moments[0], moments[1]


def monthly_panel_rows(incidents, series, protocol, window_end):
    """Row-by-row reference for ``datamodel.build_monthly_panel``.

    One ``(month, event, log TVL)`` per month from inception to
    ``window_end``, built a month at a time from the ``{month: tvl_usd}``
    ``series``, with the same errors for the first failing month.
    """
    if window_end < protocol.inception:
        raise DataError(
            f"protocol {protocol.id!r}: window end {window_end} precedes inception "
            f"{protocol.inception}"
        )
    months = [Month.from_index(i) for i in range(protocol.inception.index, window_end.index + 1)]
    event_months = {
        Month.of(rec.date)
        for rec in incidents
        if rec.protocol_id == protocol.id and protocol.inception <= Month.of(rec.date) <= window_end
    }
    rows = []
    for m in months:
        if m not in series:
            raise TvlGapError(protocol.id, str(m))
        value = series[m]
        if value <= 0.0:
            raise DomainError(f"protocol {protocol.id!r}: TVL for {m} is zero; log undefined")
        rows.append((m, 1 if m in event_months else 0, math.log(value)))
    return rows
