"""Portfolio aggregate-loss simulation and tail measures.

Aggregate monthly loss S is simulated replicate-by-replicate: draw the
attack indicators (through the copula, or independently), then an
independent severity ratio for each attacked protocol.  Replicates are
organized in fixed-size blocks with per-block counter offsets, so the
same seed yields byte-identical results for any worker count.

VaR uses the ceil(n q)-th order statistic, the exact sample analogue of
the generalized-inverse definition; CTE averages the strictly greater
tail and falls back to VaR (flagged) when the sample puts an atom at the
top.  A VaR that more than one sample value equals sits on an atom of the
sample and is flagged too.

Bootstrap standard errors resample only the top of the sorted sample
(Efron & Tibshirani, *An Introduction to the Bootstrap*, 1993).  In a
multinomial resample of n values, the count c of draws landing in the top
m order statistics is Binomial(n, m/n), and given c those draws are
uniform over the top m; the other n - c lie at or below all of them.  When
the deepest rank any level needs falls among the top c, the top c draws
alone fix every VaR and CTE; otherwise the other n - c draws are made as
well.  The resampled law is therefore exact, and each resample costs
O(m) instead of O(n) with m a little above n (1 - min level): the draws
are tallied per order statistic, and a running count of the tallies
gives each rank.

``risk_report`` therefore keeps only the top m losses of each scenario.
Each block drops its losses below the m-th largest merged so far, and the
merge keeps a buffer of 2m plus one block, so memory is O(m) plus at most
two blocks per worker in flight, and the top is byte-identical to the end
of the full sorted sample.  The rare resample that needs the rest redraws
the full sample from the same path stream, which gives the same losses.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import deque
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


def _in_order(fn, count: int, workers: int):
    """fn(0), ..., fn(count - 1) in that order, computed on ``workers`` threads.

    At most two calls per worker are in flight or waiting to be consumed,
    so the memory held by finished results does not depend on scheduling.
    """
    if workers <= 1:
        yield from map(fn, range(count))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for i in range(count):
            pending.append(pool.submit(fn, i))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


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
    top: int | None = None,
) -> np.ndarray:
    """The ``top`` largest values (default all) of the sorted sample of the
    aggregate portfolio loss.

    ``attack_probabilities`` (one per protocol, in portfolio order)
    bypasses the frequency models, e.g. to rerun published probabilities.
    The result is byte-identical to the last ``top`` values of the full
    sorted sample, and memory is O(top) plus two blocks per worker: each
    block drops its values below the ``top``-th largest merged so far.
    """
    if n_sims < 10_000:
        raise DomainError(f"n_sims must be at least 10^4, got {n_sims}")
    top = n_sims if top is None else top
    if not 1 <= top <= n_sims:
        raise DomainError(f"top must lie in [1, {n_sims}], got {top}")
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
    laws = [
        sev.ratio_law(severity_model, proto.chain, tvl_arr[i], when)
        for i, proto in enumerate(portfolio.protocols)
    ]
    floor = -math.inf  # the top-th largest value merged so far; it only rises
    # Each thread reuses one (block, d) buffer of draws.  A fresh one each
    # block can make malloc return it to the system and fault it in again:
    # at 10^7 paths on 2 threads that was 250,000 page faults, not 8,000,
    # and 0.8 s of system time.
    scratch = threading.local()

    def run_block(block: int) -> np.ndarray:
        start = block * _BLOCK
        m = min(_BLOCK, n_sims - start)
        gen = rng.block_generator(block)
        if not hasattr(scratch, "draws"):
            scratch.draws = np.empty((min(_BLOCK, n_sims), d))
        draws = scratch.draws[:m]
        if copula is not None:
            events = mvn_sample(copula.chol, gen, size=m, out=draws) > thresholds
        else:
            events = gen.random(out=draws) < probs
        s = np.zeros(m)
        for i, law in enumerate(laws):
            idx = np.flatnonzero(events[:, i])
            if idx.size == 0:
                continue
            s[idx] += tvl_arr[i] * law.draw(gen, idx.size)
        # A stale floor is still a valid cut; >= keeps the ties at it.
        return s[s >= floor]

    blocks = _in_order(run_block, (n_sims + _BLOCK - 1) // _BLOCK, workers)
    # Append the survivors; when the buffer is full, move its top values to
    # the front and raise the floor to the smallest of them.  numpy's sort is
    # vectorized and several times faster here than ndarray.partition.
    buf = np.empty(min(n_sims, 2 * top + _BLOCK))
    filled = 0
    for part in blocks:
        if filled + part.size > buf.size:
            buf[:filled].sort()
            floor = float(buf[filled - top])
            buf[:top] = buf[filled - top : filled]
            filled = top
            part = part[part >= floor]
        buf[filled : filled + part.size] = part
        filled += part.size
    buf[:filled].sort()
    return buf[filled - top : filled].copy()  # a view would keep the buffer alive


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


def _tail(top: np.ndarray, q: float, n: int) -> tuple[float, float, bool, bool]:
    """VaR_q, CTE_q, whether no sample value lies above VaR_q (then CTE_q = VaR_q),
    and whether VaR_q sits on an atom (more than one sample value equals it).

    ``top`` holds the largest values of a sorted n-sample: all of it, or at
    least its top n - ceil(n q) + 2, so the value below VaR_q is kept.
    """
    var_q = float(top[_order_index(n, q) - 1 - (n - top.size)])
    start = int(np.searchsorted(top, var_q, side="right"))
    on_atom = start - int(np.searchsorted(top, var_q, side="left")) > 1
    if start >= top.size:
        return var_q, var_q, True, on_atom
    return var_q, float(top[start:].mean()), False, on_atom


def conditional_tail_expectation(sample: np.ndarray, q: float) -> float:
    """Mean of sample values strictly above VaR_q; VaR itself if none exceed it."""
    s = np.asarray(sample, dtype=float)
    value_at_risk(s, q)  # rejects a bad level or an empty sample
    return _tail(s, q, s.size)[1]


# Scenarios simulated for each ``dependence`` value, in report-column order.
_SCENARIOS = {"on": ("dep",), "off": ("indep",), "both": ("dep", "indep")}

# Per scenario: whether paths draw through the copula, the path stream and
# the bootstrap stream (offsets within the report's base stream).
_STREAMS = {
    "dep": (True, _STREAM_DEP, _STREAM_BOOT_DEP),
    "indep": (False, _STREAM_INDEP, _STREAM_BOOT_INDEP),
}

# Measures of one scenario at one level, in report-column order.
_MEASURES = ("var_{}", "cte_{}", "var_{}_pct", "cte_{}_pct", "se_var_{}", "se_cte_{}")


@dataclass(frozen=True)
class RiskRow:
    """All measures for one confidence level (USD and share of assets).

    The measures of a scenario the report did not simulate are None.
    """

    level: float
    var_dep: float | None = None
    var_indep: float | None = None
    cte_dep: float | None = None
    cte_indep: float | None = None
    var_dep_pct: float | None = None
    var_indep_pct: float | None = None
    cte_dep_pct: float | None = None
    cte_indep_pct: float | None = None
    se_var_dep: float | None = None
    se_var_indep: float | None = None
    se_cte_dep: float | None = None
    se_cte_indep: float | None = None


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[RiskRow, ...]
    scenarios: tuple[str, ...]
    total_tvl: float
    n_sims: int
    seed: int
    base_stream: int
    bootstrap_resamples: int
    degenerate_tail: tuple[str, ...]
    var_on_atom: tuple[str, ...]

    @property
    def levels(self) -> tuple[float, ...]:
        return tuple(row.level for row in self.rows)

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of the measures the rows carry, in report-column order."""
        return tuple(m.format(s) for m in _MEASURES for s in self.scenarios)


def _tail_size(n: int, t: int) -> int:
    """How many top order statistics each resample draws from when it needs the top ``t``.

    The count of draws landing in the top m is Binomial(n, m/n), with mean
    m and sd below sqrt(m), so it falls short of t only about 10 sd below
    its mean: the full-resample fallback is there for exactness, not speed.
    m exceeds t unless it is n, so the top m also hold the value just
    below the deepest VaR, which ``_tail`` needs.
    """
    return min(n, t + math.ceil(10.0 * math.sqrt(t)) + 10)


def _tail_need(n: int, levels) -> tuple[list[int], int, int]:
    """The 1-based ranks ceil(n q) of the levels, the number t of top order
    statistics they reach, and the number m of them each resample draws from."""
    ks = [_order_index(n, q) for q in levels]
    t = n - min(ks) + 1
    return ks, t, _tail_size(n, t)


def _resample_counts(n: int, t: int, m: int, gen) -> tuple[np.ndarray, int]:
    """How often one multinomial resample of a sorted n-sample draws each order statistic it needs.

    Returns ``(counts, lo)``: ``counts[i]`` is the number of draws of the
    (lo + i)-th smallest value (0-based); every other draw lies below it,
    and at least ``t`` draws are counted, so the top ``t`` ranks of the
    resample are among them.  The count c of draws in the top ``m`` >= ``t``
    order statistics is drawn first; if c >= t only those c draws are made,
    else the other n - c draws from the rest of the sample too, so the law
    is exact for any such ``m``.
    """
    c = int(gen.binomial(n, m / n))
    top = np.bincount(gen.integers(0, m, c), minlength=m)
    if c >= t:
        return top, n - m
    return np.concatenate([np.bincount(gen.integers(0, n - m, n - c), minlength=n - m), top]), 0


def _resample_tail(top: np.ndarray, counts: np.ndarray, lo: int, ks, n: int) -> list[tuple]:
    """(VaR, CTE) at each 1-based rank in ``ks`` of a resample tallied by ``_resample_counts``.

    ``top`` holds the largest values of the sorted n-sample, from the
    (lo + 1)-th smallest on at least.  CTE is the mean of the resample's
    values strictly above VaR, or VaR when there are none.
    """
    values = top[lo - (n - top.size) :]
    rank = np.cumsum(counts)  # the resample's rank of the last draw of each value
    rank += n - rank[-1]
    out = []
    for k in ks:
        v = float(values[np.searchsorted(rank, k)])
        above = int(np.searchsorted(values, v, side="right"))
        weight = counts[above:]
        drawn = int(weight.sum())
        out.append((v, float((weight * values[above:]).sum()) / drawn if drawn else v))
    return out


def _bootstrap_ses(
    top: np.ndarray, levels, resamples: int, gen, n: int | None = None, redraw=None
) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap SEs of (VaR, CTE) at each level of a sorted n-sample, resampling its top.

    ``top`` holds the sample's largest values (all n by default), at least
    the m that ``_tail_need`` names.  A resample that falls back to the
    whole sample gets it from ``redraw()``, once.
    """
    n = top.size if n is None else n
    ks, t, m = _tail_need(n, levels)
    reps = []
    for _ in range(resamples):
        counts, lo = _resample_counts(n, t, m, gen)
        if lo < n - top.size:
            top = redraw()
        reps.append(_resample_tail(top, counts, lo, ks, n))
    reps = np.array(reps)
    # Deviations from the first replicate have the same SD, and an SD of
    # exactly 0 when every replicate agrees (a float mean of equal values
    # need not equal them).
    se = (reps - reps[0]).std(axis=0, ddof=1)
    return se[:, 0], se[:, 1]


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
    dependence: str = "both",
) -> RiskReport:
    """VaR and CTE with frequency dependence, without it, or both, plus bootstrap SEs.

    ``dependence`` is "on" (copula paths only), "off" (independent paths
    only) or "both".  Each scenario draws from its own streams, so its
    measures do not depend on whether the other one ran.
    """
    levels = tuple(float(q) for q in levels)
    if any(not (0.0 < q < 1.0) for q in levels):
        raise DomainError("confidence levels must lie in (0, 1)")
    if dependence not in _SCENARIOS:
        raise ConfigError(f"dependence must be on/off/both, got {dependence!r}")
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

    _, _, m = _tail_need(n_sims, levels)

    def measure(scenario: str) -> list[tuple]:
        """(VaR, CTE, no tail, on atom, SE VaR, SE CTE) per level, from the top of the sample.

        The rare bootstrap fallback redraws the full sample from the same stream.
        """
        with_copula, path_stream, boot_stream = _STREAMS[scenario]
        simulate = functools.partial(
            simulate_aggregate,
            copula=copula if with_copula else None,
            rng=rng.child(path_stream),
            **common,
        )
        top = simulate(top=m)
        se_var, se_cte = _bootstrap_ses(
            top, levels, bootstrap_resamples, rng.child(boot_stream).generator(), n_sims, simulate
        )
        return [(*_tail(top, q, n_sims), se_var[j], se_cte[j]) for j, q in enumerate(levels)]

    scenarios = _SCENARIOS[dependence]
    measured = {scenario: measure(scenario) for scenario in scenarios}

    _, tvl_arr = _resolve_inputs(portfolio, None, tvls)
    total_tvl = float(tvl_arr.sum())
    rows = []
    degenerate = []
    on_atom = []
    for j, q in enumerate(levels):
        values = {}
        for scenario in scenarios:
            var_q, cte_q, no_tail, atom, se_var, se_cte = measured[scenario][j]
            if no_tail:
                degenerate.append(f"cte_{scenario}@{q:g}")
            if atom:
                on_atom.append(f"var_{scenario}@{q:g}")
            names = (m.format(scenario) for m in _MEASURES)
            measures = (var_q, cte_q, var_q / total_tvl, cte_q / total_tvl, se_var, se_cte)
            values.update(zip(names, map(float, measures)))
        rows.append(RiskRow(level=q, **values))
    return RiskReport(
        rows=tuple(rows),
        scenarios=scenarios,
        total_tvl=total_tvl,
        n_sims=n_sims,
        seed=rng.seed,
        base_stream=rng.stream_id,
        bootstrap_resamples=bootstrap_resamples,
        degenerate_tail=tuple(degenerate),
        var_on_atom=tuple(on_atom),
    )
