"""Portfolio aggregate-loss simulation and tail measures.

Aggregate monthly loss S is simulated replicate-by-replicate: draw the
attack indicators (through the copula, or independently), then an
independent severity ratio for each attacked protocol.  Replicates are
organized in fixed-size blocks with per-block counter offsets, so the
same seed yields byte-identical results for any worker count.

VaR uses the ceil(n q)-th order statistic, the exact sample analogue of
the generalized-inverse definition; CTE averages the strictly greater
tail and falls back to VaR (flagged) when the sample puts an atom at the
top.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import severity as sev
from .datamodel import Portfolio
from .dependence import CopulaSpec, event_thresholds
from .errors import ConfigError, DomainError
from .frequency import predict_attack_probability
from .numerics import RngStream, mvn_sample

_BLOCK = 1 << 16

# Stream offsets within a risk-report base stream.
_STREAM_DEP = 1
_STREAM_INDEP = 2
_STREAM_BOOT_DEP = 3
_STREAM_BOOT_INDEP = 4


def _resolve_inputs(portfolio, frequency_models, tvls):
    probs = []
    tvl_list = []
    for proto in portfolio.protocols:
        if proto.id not in tvls:
            raise ConfigError(f"no prediction TVL for protocol {proto.id!r}")
        tvl_list.append(float(tvls[proto.id]))
        if frequency_models is not None:
            if proto.id not in frequency_models:
                raise ConfigError(f"no frequency model for protocol {proto.id!r}")
            probs.append(predict_attack_probability(frequency_models[proto.id], tvl_list[-1]))
    return np.array(probs), np.array(tvl_list)


def simulate_aggregate(
    portfolio: Portfolio,
    frequency_models,
    severity_model: sev.SeverityModel,
    copula: CopulaSpec | None,
    tvls,
    when: date,
    n_sims: int,
    rng: RngStream,
    workers: int = 1,
    attack_probabilities=None,
) -> np.ndarray:
    """Sorted sample of the aggregate portfolio loss.

    ``attack_probabilities`` (one per protocol, in portfolio order)
    bypasses the frequency models, e.g. to rerun published probabilities.
    """
    if n_sims < 10_000:
        raise DomainError(f"n_sims must be at least 10^4, got {n_sims}")
    if attack_probabilities is not None:
        probs = np.asarray(attack_probabilities, dtype=float)
        if probs.shape != (portfolio.dim,):
            raise ConfigError(f"expected {portfolio.dim} attack probabilities")
        _, tvl_arr = _resolve_inputs(portfolio, None, tvls)
    else:
        probs, tvl_arr = _resolve_inputs(portfolio, frequency_models, tvls)
    thresholds = event_thresholds(probs, portfolio.dim)
    if copula is not None and copula.dim != portfolio.dim:
        raise ConfigError(
            f"copula dimension {copula.dim} does not match portfolio size {portfolio.dim}"
        )

    d = portfolio.dim
    chains = [proto.chain for proto in portfolio.protocols]

    def run_block(block: int) -> np.ndarray:
        start = block * _BLOCK
        m = min(_BLOCK, n_sims - start)
        gen = rng.block_generator(block)
        if copula is not None:
            events = mvn_sample(copula.chol, gen, size=m) > thresholds
        else:
            events = gen.random((m, d)) < probs
        s = np.zeros(m)
        for i in range(d):
            idx = np.flatnonzero(events[:, i])
            if idx.size == 0:
                continue
            ratios = sev.sample_ratio(
                severity_model, chains[i], tvl_arr[i], when, gen, size=idx.size
            )
            s[idx] += tvl_arr[i] * ratios
        return s

    n_blocks = (n_sims + _BLOCK - 1) // _BLOCK
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_block, range(n_blocks)))
    else:
        parts = [run_block(b) for b in range(n_blocks)]
    sample = np.concatenate(parts) if parts else np.empty(0)
    sample.sort(kind="stable")
    return sample


def _order_index(n: int, q: float) -> int:
    """1-based rank ceil(n q), guarded against float noise at boundaries."""
    t = n * q
    nearest = round(t)
    k = nearest if abs(t - nearest) < 1e-9 else math.ceil(t)
    return min(max(int(k), 1), n)


def value_at_risk(sample: np.ndarray, q: float) -> float:
    """Empirical VaR: the ceil(n q)-th order statistic of the sorted sample."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    s = np.asarray(sample, dtype=float)
    if s.size == 0:
        raise DomainError("empty sample")
    return float(s[_order_index(s.size, q) - 1])


def _tail(sample: np.ndarray, q: float) -> tuple[float, float, bool]:
    """VaR_q, CTE_q, and whether no sample value lies above VaR_q (then CTE_q = VaR_q)."""
    s = np.asarray(sample, dtype=float)
    var_q = value_at_risk(s, q)
    start = int(np.searchsorted(s, var_q, side="right"))
    if start >= s.size:
        return var_q, var_q, True
    return var_q, float(s[start:].mean()), False


def conditional_tail_expectation(sample: np.ndarray, q: float) -> float:
    """Mean of sample values strictly above VaR_q; VaR itself if none exceed it."""
    return _tail(sample, q)[1]


@dataclass(frozen=True)
class RiskRow:
    """All measures for one confidence level (USD and share of assets)."""

    level: float
    var_dep: float
    var_indep: float
    cte_dep: float
    cte_indep: float
    var_dep_pct: float
    var_indep_pct: float
    cte_dep_pct: float
    cte_indep_pct: float
    se_var_dep: float
    se_var_indep: float
    se_cte_dep: float
    se_cte_indep: float


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[RiskRow, ...]
    total_tvl: float
    n_sims: int
    seed: int
    base_stream: int
    bootstrap_resamples: int
    degenerate_tail: tuple[str, ...]

    @property
    def levels(self) -> tuple[float, ...]:
        return tuple(row.level for row in self.rows)


def _bootstrap_ses(sample: np.ndarray, levels, resamples: int, gen) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap SEs of (VaR, CTE) at each level via index resampling."""
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


def risk_report(
    portfolio: Portfolio,
    frequency_models,
    severity_model: sev.SeverityModel,
    copula: CopulaSpec,
    tvls,
    when: date,
    levels=(0.90, 0.95, 0.99),
    n_sims: int = 1_000_000,
    rng: RngStream = RngStream(0),
    workers: int = 1,
    bootstrap_resamples: int = 200,
    attack_probabilities=None,
) -> RiskReport:
    """VaR and CTE with and without frequency dependence, plus bootstrap SEs."""
    levels = tuple(float(q) for q in levels)
    if any(not (0.0 < q < 1.0) for q in levels):
        raise DomainError("confidence levels must lie in (0, 1)")
    common = dict(
        portfolio=portfolio,
        frequency_models=frequency_models,
        severity_model=severity_model,
        tvls=tvls,
        when=when,
        n_sims=n_sims,
        workers=workers,
        attack_probabilities=attack_probabilities,
    )
    s_dep = simulate_aggregate(copula=copula, rng=rng.child(_STREAM_DEP), **common)
    s_indep = simulate_aggregate(copula=None, rng=rng.child(_STREAM_INDEP), **common)

    se_var_dep, se_cte_dep = _bootstrap_ses(
        s_dep, levels, bootstrap_resamples, rng.child(_STREAM_BOOT_DEP).generator()
    )
    se_var_indep, se_cte_indep = _bootstrap_ses(
        s_indep, levels, bootstrap_resamples, rng.child(_STREAM_BOOT_INDEP).generator()
    )

    _, tvl_arr = _resolve_inputs(portfolio, None, tvls)
    total_tvl = float(tvl_arr.sum())
    rows = []
    degenerate = []
    for j, q in enumerate(levels):
        vd, cd, no_tail_dep = _tail(s_dep, q)
        vi, ci, no_tail_indep = _tail(s_indep, q)
        if no_tail_dep:
            degenerate.append(f"cte_dep@{q:g}")
        if no_tail_indep:
            degenerate.append(f"cte_indep@{q:g}")
        rows.append(
            RiskRow(
                level=q,
                var_dep=vd,
                var_indep=vi,
                cte_dep=cd,
                cte_indep=ci,
                var_dep_pct=vd / total_tvl,
                var_indep_pct=vi / total_tvl,
                cte_dep_pct=cd / total_tvl,
                cte_indep_pct=ci / total_tvl,
                se_var_dep=float(se_var_dep[j]),
                se_var_indep=float(se_var_indep[j]),
                se_cte_dep=float(se_cte_dep[j]),
                se_cte_indep=float(se_cte_indep[j]),
            )
        )
    return RiskReport(
        rows=tuple(rows),
        total_tvl=total_tvl,
        n_sims=n_sims,
        seed=rng.seed,
        base_stream=rng.stream_id,
        bootstrap_resamples=bootstrap_resamples,
        degenerate_tail=tuple(degenerate),
    )
