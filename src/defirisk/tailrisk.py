"""Portfolio aggregate-loss simulation and tail measures.

Aggregate monthly loss S is simulated replicate-by-replicate: draw which
protocols each path attacks, then an independent severity ratio for each
attacked protocol.  Replicates are organized in fixed-size blocks, each
drawn from its own keyed stream (``RngStream.block_generator``), so the
same seed yields byte-identical results for any worker count.
``dependence`` draws the attacks: through the copula as a block's
bit-packed mask, from one ``EventSampler`` per worker that fills it
panel by panel, and without it as each protocol's attacked paths.  So
no block holds its normals in full, and the independent scenario holds
nothing per (protocol, path).

VaR uses the ceil(n q)-th order statistic, the exact sample analogue of
the generalized-inverse definition; CTE averages the strictly greater
tail and falls back to VaR (flagged) when the sample puts an atom at the
top.  A VaR that more than one sample value equals sits on an atom of the
sample and is flagged too.  ``risk_report`` returns the measures as one
table, ``{column name: one value per level}``, which the CLI writes as it
is.

Bootstrap standard errors resample only the top of the sorted sample
(Efron & Tibshirani, *An Introduction to the Bootstrap*, 1993).  In a
multinomial resample of n values, the count c of draws landing in the top
m order statistics is Binomial(n, m/n), and given c those draws are
uniform over the top m; the other n - c lie at or below all of them.  When
the deepest rank any level needs falls among the top c, the top c draws
alone fix every VaR and CTE; otherwise the other n - c draws are made as
well.  The resampled law is therefore exact, and each resample costs
O(m) instead of O(n) with m a little above n (1 - min level): the draws
are counted into one int32 tally of the top m, reused by every resample.
Every scenario's sample has the same n and m, so one tally is an exact
resample of each of them: a run draws each resample once, from one
stream, and applies it to the top of every scenario simulated (common
random numbers).  Each scenario's bootstrap law is unchanged, and its
SEs are those it would get alone.

``risk_report`` therefore keeps only the top m losses of each scenario,
all of them until the bootstrap is done (``footprint`` counts what a run
holds in memory).  The rare resample that needs the rest redraws the
same losses from the same streams.

The merge of those top m guesses its floor from block 0, as Floyd &
Rivest's selection guesses from a sample (*CACM* 18(3), 1975): the
block's value at rank 5 standard deviations beyond its share m/n from
the top, so that more than m values of the whole sample most likely lie
above it.  Every block drops what lies at or below the floor, so the
merge buffer rarely fills and one sort gives the top.  A guess that
turns out above the m-th largest value (fewer than m kept, with
probability about Phi(-5) per scenario) is dropped, and the blocks,
drawn again byte for byte, are merged from -inf.

A ``risk_report`` runs on one pool of worker threads, or inline at one
worker, and may build the copula on it while the independent scenario is
drawn.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dependence import CopulaSpec, EventSampler, attacked_paths, check_probabilities
from .errors import ConfigError, DomainError
from .numerics import RngStream
from .severity import RatioLaw

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

_BLOCK = 1 << 16
# Bytes a path of a block holds (``footprint``): while it is drawn, its
# losses and one protocol's attacked paths, ratios and their temporaries
# (42 under tracemalloc when every path is attacked); once drawn, the
# losses that survive the cut.
_DRAWING, _DRAWN = 42, 8
# Standard deviations by which the merge's guessed floor undershoots the
# top's share of its block (``_guessed_floor``).
_GUESS_SD = 5.0


@contextlib.contextmanager
def worker_pool(workers: int):
    """One pool of ``workers`` threads for a whole run, or None at one worker.

    ``concurrent.futures``, and the ``logging``, ``queue`` and ``traceback``
    modules it loads, are imported only here, when a pool starts, so a run
    at one worker loads none of them.  On leaving, the tasks not yet started
    are cancelled and the threads joined, so an error leaves no thread
    running.
    """
    if workers <= 1:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _in_order(fn, count: int, workers: int, pool: ThreadPoolExecutor | None = None):
    """fn(0), ..., fn(count - 1) in that order, computed on ``pool``'s ``workers``
    threads, inline at one worker.  Without a pool, one is started for this call.

    At most two calls per worker are in flight or waiting to be consumed,
    so the memory held by finished results does not depend on scheduling.
    """
    if workers <= 1:
        yield from map(fn, range(count))
        return
    with worker_pool(workers) if pool is None else contextlib.nullcontext(pool) as pool:
        pending = deque()
        for i in range(count):
            pending.append(pool.submit(fn, i))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _merge_size(n: int, top: int) -> int:
    """Values of the merge buffer that keeps the ``top`` largest of n."""
    return min(n, top + max(_BLOCK, top // 4))


def simulate_aggregate(
    probs,
    tvls,
    laws: list[RatioLaw],
    copula: CopulaSpec | None,
    n_sims: int,
    rng: RngStream,
    workers: int = 1,
    top: int | None = None,
    pool: ThreadPoolExecutor | None = None,
) -> np.ndarray:
    """The ``top`` largest values (default all) of the sorted sample of the
    aggregate portfolio loss.

    Protocol i is attacked with probability ``probs[i]`` and then loses
    ``tvls[i]`` times a ratio drawn from ``laws[i]``.  With a copula, a
    block's generator draws the ``EventSampler`` mask, then each protocol's
    ratios in turn; without one, each protocol's ``attacked_paths`` and
    then their ratios, one protocol after another.  The result is byte-identical
    to the last ``top`` values of the full sorted sample.  The blocks run
    on ``pool``, which has ``workers`` threads, or on a pool started for
    this call when none is given.  ``footprint`` counts the memory: a merge
    buffer shrunk in place to the result, and per worker an
    ``EventSampler`` (copula only) and two blocks of losses, each of which
    drops its values at or below the floor.

    The floor starts at block 0's guess (``_guessed_floor``) when ``top``
    is less than the sample and there is more than one block; a full
    buffer is sorted and the floor raised to its ``top``-th largest value.
    Fewer than ``top`` values above the guess means it was too high: the
    blocks are merged again, with the floor from -inf.
    """
    if n_sims < 10_000:
        raise DomainError(f"n_sims must be at least 10^4, got {n_sims}")
    top = n_sims if top is None else top
    if not 1 <= top <= n_sims:
        raise DomainError(f"top must lie in [1, {n_sims}], got {top}")
    tvls = np.asarray(tvls, dtype=float)
    d = tvls.size
    probs = check_probabilities(probs, d)
    if len(laws) != d:
        raise ConfigError(f"expected {d} ratio laws, got {len(laws)}")
    if copula is not None and copula.dim != d:
        raise ConfigError(f"copula dimension {copula.dim} does not match portfolio size {d}")

    blocks = (n_sims + _BLOCK - 1) // _BLOCK
    floor = -math.inf  # every value at or below it is dropped; it only rises within a merge
    # Each thread reuses one ``EventSampler``.  Fresh buffers each block
    # can make malloc return them to the system and fault them in again:
    # at 10^7 paths on 2 threads that was 250,000 page faults, not 8,000,
    # and 0.8 s of system time.
    scratch = threading.local()

    def run_block(block: int) -> tuple[np.ndarray, float]:  # the block's losses above the cut, and the cut
        cut = floor
        start = block * _BLOCK
        m = min(_BLOCK, n_sims - start)
        gen = rng.block_generator(block)
        if copula is None:
            # Lazy: protocol i's paths are drawn after protocol i - 1's ratios.
            attacked = (attacked_paths(gen, m, pi) for pi in probs)
        else:
            if not hasattr(scratch, "sampler"):
                scratch.sampler = EventSampler(copula, probs, min(_BLOCK, n_sims))
            events = scratch.sampler.draw(gen, m)
            # flatnonzero is about 3x faster on a bool view than on uint8.
            attacked = (np.flatnonzero(np.unpackbits(row, count=m).view(bool)) for row in events)
        s = np.zeros(m)
        for idx, tvl, law in zip(attacked, tvls, laws):
            if idx.size:  # distinct paths, so += adds each ratio once
                s[idx] += tvl * law.draw(gen, idx.size)
        # A stale floor is still a valid cut.  A value equal to a raised
        # floor cannot change the top, which already holds ``top`` values
        # at or above it.
        return s[s > cut], cut

    # A full buffer is compacted and the floor raised.  Less slack than top/4
    # compacts more often; numpy's vectorized sort is faster here than
    # ndarray.partition (13 against 20 ms on 1.26M fixture losses, 2 vCPUs).
    buf = np.empty(_merge_size(n_sims, top))

    def merge(guess: bool) -> int:
        """Merge every block into ``buf``; how many values it holds.  With ``guess``,
        the floor starts at block 0's guess of the ``top``-th largest value."""
        nonlocal floor
        floor = -math.inf
        filled = 0
        for block, (part, cut) in enumerate(_in_order(run_block, blocks, workers, pool)):
            if guess and block == 0:  # block 0 comes first at any worker count
                floor = _guessed_floor(part, top / n_sims)
            if cut < floor:
                part = part[part > floor]
            if filled + part.size > buf.size:  # then filled > top
                floor = _compact(buf, filled, top)
                filled = top
                part = part[part > floor]
            buf[filled : filled + part.size] = part
            filled += part.size
        return filled

    # Fewer than ``top`` values above the guessed floor means it lay above
    # the top-th largest value: the blocks are drawn again, byte for byte,
    # and merged from -inf.  A compaction leaves ``top`` values, so it
    # never hides a bad guess.
    filled = merge(guess=top < n_sims and blocks > 1)
    if filled < top:
        filled = merge(guess=False)
    _compact(buf, filled, top)
    buf.resize(top, refcheck=False)  # shrinks in place: no second copy of the top
    return buf


def _guessed_floor(block: np.ndarray, p: float) -> float:
    """A floor that a share p of the sample most likely exceeds, from one block of it.

    One ulp below the block's r-th largest value, r = ceil(b p + z sd) + 1 of
    its b values with sd = sqrt(b p (1 - p)) and z = ``_GUESS_SD``, so ties
    with it survive.  It lies above the sample's (p n)-th largest value
    with probability about Phi(-z) (Floyd & Rivest, "Expected time bounds
    for selection", CACM 18(3), 1975).  -inf when r exceeds b.  Partitions
    ``block`` in place.
    """
    b = block.size
    r = math.ceil(b * p + _GUESS_SD * math.sqrt(b * p * (1.0 - p))) + 1
    if r > b:
        return -math.inf
    block.partition(b - r)
    return float(np.nextafter(block[b - r], -math.inf))


def _compact(buf: np.ndarray, filled: int, top: int) -> float:
    """Sort ``buf[:filled]`` and move its top ``top`` values to ``buf[:top]``; the smallest of them."""
    buf[:filled].sort()
    buf[:top] = buf[filled - top : filled]  # a forward 1-D copy: no temporary when they overlap
    return float(buf[0])


def _tally_dtype(n: int) -> np.dtype:
    """The integer type of a bootstrap tally of draws from n values."""
    return np.dtype(np.int32 if n < 2**31 else np.int64)


def _order_index(n: int, q: float) -> int:
    """1-based rank ceil(n q), guarded against float noise at boundaries."""
    t = n * q
    nearest = round(t)
    k = nearest if abs(t - nearest) < 1e-9 else math.ceil(t)
    return min(max(int(k), 1), n)


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


# Scenarios simulated for each ``dependence`` value, in report-column order.
_SCENARIOS = {"on": ("dep",), "off": ("indep",), "both": ("dep", "indep")}

# Per scenario: whether paths draw through the copula, and the path stream
# (an offset within the report's base stream).
_STREAMS = {
    "dep": (True, 1),
    "indep": (False, 2),
}
# The bootstrap's stream, one for every scenario: each resample's tally
# resamples the top of each scenario simulated.
_BOOTSTRAP_STREAM = 3

# Measures of one scenario at one level, in report-column order.
_MEASURES = ("var_{}", "cte_{}", "var_{}_pct", "cte_{}_pct", "se_var_{}", "se_cte_{}")


@dataclass(frozen=True)
class RiskReport:
    """VaR and CTE at each confidence level, in USD and as a share of the total TVL.

    ``table`` maps each report column to its values, one per level: first
    ``level``, then for each of ``_MEASURES`` its column of each simulated
    scenario (``dep`` before ``indep``).  A scenario not simulated has no
    columns.  The flags name ``<measure>_<scenario>@<level>``, levels outer
    and scenarios inner.  ``copula`` is what the run's copula builder
    returned, or None when only the independent scenario was simulated.
    """

    table: dict[str, tuple[float, ...]]
    total_tvl: float
    bootstrap_resamples: int
    degenerate_tail: tuple[str, ...]
    var_on_atom: tuple[str, ...]
    copula: CopulaSpec | None = field(compare=False, repr=False)


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


def _tally(counts: np.ndarray, gen, draws: int) -> None:
    """Count ``draws`` uniform indices into ``counts``, drawn as one call draws them."""
    one = counts.dtype.type(1)  # np.add.at with a Python 1 is about 40 times slower
    for done in range(0, draws, _BLOCK):  # a named block would stay alive through the next draw
        np.add.at(counts, gen.integers(0, counts.size, min(_BLOCK, draws - done)), one)


def _resample_counts(n: int, t: int, m: int, gen, tally: np.ndarray) -> tuple[np.ndarray, int]:
    """How often one multinomial resample of a sorted n-sample draws each order statistic it needs.

    Returns ``(counts, lo)``: ``counts[i]`` is the number of draws of the
    (lo + i)-th smallest value (0-based); every other draw lies below it,
    and at least ``t`` draws are counted, so the top ``t`` ranks of the
    resample are among them.  The count c of draws in the top ``m`` >= ``t``
    order statistics is drawn first; if c >= t only those c draws are made,
    else the other n - c draws from the rest of the sample too, so the law
    is exact for any such ``m``.  ``tally`` (m integers) is zeroed and counts the top ``m``.
    """
    c = int(gen.binomial(n, m / n))
    tally.fill(0)
    _tally(tally, gen, c)
    if c >= t:
        return tally, n - m
    counts = np.concatenate([np.zeros(n - m, tally.dtype), tally])
    _tally(counts[: n - m], gen, n - c)
    return counts, 0


def _rank_cells(counts: np.ndarray, ks, n: int) -> list[int]:
    """The index into ``counts`` (tallied by ``_resample_counts``) of the value
    at each 1-based rank in ``ks`` of the resample it stands for."""
    width = 1024
    ends = np.cumsum(np.add.reduceat(counts, np.arange(0, counts.size, width), dtype=counts.dtype))
    ends += n - ends[-1]  # the rank of each block's last draw; no running count of all m
    cells = []
    for k in ks:
        b = int(np.searchsorted(ends, k))
        block = counts[b * width : (b + 1) * width]
        cells.append(b * width + int(np.searchsorted(np.cumsum(block), k - (ends[b] - block.sum()))))
    return cells


def _resample_tail(top: np.ndarray, counts: np.ndarray, lo: int, cells, n: int) -> list[tuple]:
    """(VaR, CTE) at each of ``cells`` (``_rank_cells``) of a resample tallied by ``_resample_counts``.

    ``top`` holds the largest values of the sorted n-sample, from the
    (lo + 1)-th smallest on at least.  CTE is the mean of the resample's
    values strictly above VaR, or VaR when there are none.
    """
    values = top[lo - (n - top.size) :]
    out = []
    for i in cells:
        v = float(values[i])
        above = int(np.searchsorted(values, v, side="right"))
        weight = counts[above:]
        drawn = int(weight.sum())
        # einsum sums the product in buffered chunks: no temporary of the tail.
        out.append((v, float(np.einsum("i,i->", weight, values[above:])) / drawn if drawn else v))
    return out


def _bootstrap_ses(
    tops: list[np.ndarray], levels, resamples: int, gen, n: int | None = None, redraws=None
) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap SEs of (VaR, CTE) at each level of sorted n-samples, resampling their tops.

    Each of ``tops`` holds a sample's largest values (all n by default), at
    least the m that ``_tail_need`` names.  The samples share n, so one
    tally per resample, drawn from ``gen``, is an exact multinomial
    resample of each of them (common random numbers): a sample's SEs are
    those it gets alone from the same ``gen``.  A resample that falls back
    to the whole samples gets sample j from ``redraws[j]()``, once.  Every
    resample reuses one tally.  The SEs are top-major: those of
    ``tops[j]`` at the i-th level sit at j * len(levels) + i.
    """
    if resamples < 2:
        raise DomainError(f"bootstrap_resamples must be at least 2, got {resamples}")
    n = tops[0].size if n is None else n
    ks, t, m = _tail_need(n, levels)
    tally = np.empty(m, _tally_dtype(n))
    reps = []
    for _ in range(resamples):
        counts, lo = _resample_counts(n, t, m, gen, tally)
        if lo < n - tops[0].size:
            tops = [redraw() for redraw in redraws]
        cells = _rank_cells(counts, ks, n)
        reps.append([tail for top in tops for tail in _resample_tail(top, counts, lo, cells, n)])
    reps = np.array(reps)
    # Deviations from the first replicate have the same SD, and an SD of
    # exactly 0 when every replicate agrees (a float mean of equal values
    # need not equal them).
    se = (reps - reps[0]).std(axis=0, ddof=1)
    return se[:, 0], se[:, 1]


def footprint(n_sims: int, levels, d: int, workers: int, dependence: str) -> dict[str, int]:
    """Bytes a ``risk_report`` of ``n_sims`` paths at ``levels`` holds at most, by part.

    The sorted top of m values (8m) of each scenario simulated, since each
    top lives from its merge through the one bootstrap; the merge buffer's
    slack beyond a top, max(65,536, m/4) values while merging; and the
    bootstrap's tally of m counts.  Each worker that draws a block holds
    an ``EventSampler`` of d protocols (copula scenarios only) and two
    blocks in flight, one being drawn and one drawn, beside the block
    being merged.  The bootstrap's draws, 65,536 at a time, come after the
    blocks are freed and take less than they did.  Not counted: the
    inputs, the copula, and the full-sample redraws of the rare resample
    that needs them (about 10 sd away).
    """
    _, _, m = _tail_need(n_sims, levels)
    block = min(_BLOCK, n_sims)
    busy = min(workers, (n_sims + _BLOCK - 1) // _BLOCK)
    return {
        "top": 8 * m * len(_SCENARIOS[dependence]),
        "merge_slack": 8 * (_merge_size(n_sims, m) - m),
        "tally": _tally_dtype(n_sims).itemsize * m,
        "samplers": busy * EventSampler.nbytes(d, block) if dependence != "off" else 0,
        "blocks": (busy * (_DRAWING + _DRAWN) + _DRAWN) * block,
    }


def risk_report(
    probs,
    tvls,
    laws: list[RatioLaw],
    copula: Callable[[], CopulaSpec],
    levels=(0.90, 0.95, 0.99),
    n_sims: int = 1_000_000,
    rng: RngStream = RngStream(0),
    workers: int = 1,
    bootstrap_resamples: int = 200,
    dependence: str = "both",
) -> RiskReport:
    """VaR and CTE with frequency dependence, without it, or both, plus bootstrap SEs.

    ``probs``, ``tvls`` and ``laws`` are as in ``simulate_aggregate``.
    ``copula`` is a function of no arguments that builds the ``CopulaSpec``;
    it is called once when the copula scenario runs, never otherwise, and
    the report carries what it built (None under "off").  ``dependence`` is "on" (copula paths
    only), "off" (independent paths only) or "both".  Each scenario draws
    its paths from its own stream, and one bootstrap (``_bootstrap_ses``)
    resamples the tops of all of them from one stream, so a scenario's
    measures do not depend on whether the other one ran, nor on the order
    they run in.

    One pool of ``workers`` threads serves the whole run, and none runs at
    one worker.  On a pool the copula is built as the pool's first task
    while the other workers draw the independent scenario, so the
    scenarios are drawn ``indep`` first; the columns keep ``dep`` first.
    At one worker it is built inline before any path is drawn, and ``dep``
    runs first.  The bootstrap runs once every top is drawn.
    """
    levels = tuple(float(q) for q in levels)
    if any(not (0.0 < q < 1.0) for q in levels):
        raise DomainError("confidence levels must lie in (0, 1)")
    if dependence not in _SCENARIOS:
        raise ConfigError(f"dependence must be on/off/both, got {dependence!r}")
    total_tvl = float(np.asarray(tvls, dtype=float).sum())
    _, _, m = _tail_need(n_sims, levels)

    def sampler(scenario: str) -> Callable[..., np.ndarray]:
        """``simulate_aggregate`` of the scenario's paths: its top, and the full
        sample that the rare bootstrap fallback redraws from the same stream."""
        with_copula, path_stream = _STREAMS[scenario]
        return functools.partial(
            simulate_aggregate,
            probs=probs,
            tvls=tvls,
            laws=laws,
            copula=spec() if with_copula else None,
            n_sims=n_sims,
            rng=rng.child(path_stream),
            workers=workers,
            pool=pool,
        )

    scenarios = _SCENARIOS[dependence]
    with worker_pool(workers) as pool:
        if "dep" not in scenarios:  # no path draws through the copula
            spec = lambda: None
        elif pool is None:  # built now, before any path is drawn
            built = copula()
            spec = lambda: built
        else:  # the pool's first task
            spec = pool.submit(copula).result
        # On a pool indep goes first, so that the workers the build leaves
        # free draw it.  Inline, dep first peaks lower: 41.0 against 41.8 MB
        # RSS at 10^6 fixture paths, from where glibc places the blocks.
        order = scenarios if pool is None else scenarios[::-1]
        redraws, tops = [], []
        for s in order:  # the sampler of dep waits for the copula only once indep is drawn
            redraws.append(sampler(s))
            tops.append(redraws[-1](top=m))
        ses = _bootstrap_ses(
            tops, levels, bootstrap_resamples, rng.child(_BOOTSTRAP_STREAM).generator(), n_sims, redraws
        )
        copula = spec()
    # Per scenario: its columns in ``_MEASURES`` order, one value per level, and per
    # level whether no sample value lies above VaR and whether VaR sits on an atom.
    measured = {}
    for s, top, se_var, se_cte in zip(order, tops, *(se.reshape(len(tops), -1) for se in ses)):
        var_q, cte_q, no_tail, on_atom = map(np.array, zip(*(_tail(top, q, n_sims) for q in levels)))
        columns = (var_q, cte_q, var_q / total_tvl, cte_q / total_tvl, se_var, se_cte)
        measured[s] = [tuple(c.tolist()) for c in columns], no_tail, on_atom
    table = {"level": levels}
    for k, name in enumerate(_MEASURES):
        table.update((name.format(s), measured[s][0][k]) for s in scenarios)

    def flagged(name: str, k: int) -> tuple[str, ...]:
        """``<name>_<scenario>@<level>`` where the k-th entry of ``measured`` flags it, levels outer."""
        return tuple(
            f"{name}_{s}@{q:g}"
            for j, q in enumerate(levels)
            for s in scenarios
            if measured[s][k][j]
        )

    return RiskReport(
        table=table,
        total_tvl=total_tvl,
        bootstrap_resamples=bootstrap_resamples,
        degenerate_tail=flagged("cte", 1),
        var_on_atom=flagged("var", 2),
        copula=copula,
    )
