"""Independent numerical oracles used to check stochastic components,
row-by-row references for the columnar code paths, and a field-by-field
comparison of fitted models."""

import csv
import dataclasses
import itertools
import math
from datetime import date

import numpy as np

from defirisk.datamodel import Chain, IssueType, Month
from defirisk.dependence import CopulaSpec, EventSampler, event_thresholds
from defirisk.errors import DataError, DomainError, SchemaError
from defirisk.glm import invlogit
from defirisk.numerics import RngStream
from defirisk.tailrisk import _order_index


def normal_cdf(x: float) -> float:
    """Standard normal CDF from ``math.erfc``."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def field_mismatches(a, b, path: str = "") -> list[str]:
    """The paths of the fields where ``a`` and ``b`` differ, in value or in
    type, walking dataclasses and tuples; a dataclass field declared with
    ``compare=False`` is skipped, and arrays match by ``np.array_equal``
    with NaN equal to NaN."""
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return [
            where
            for f in dataclasses.fields(a)
            if f.compare
            for where in field_mismatches(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
        ]
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return [where for k, pair in enumerate(zip(a, b)) for where in field_mismatches(*pair, f"{path}[{k}]")]
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        same = a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    else:
        same = type(a) is type(b) and a == b
    return [] if same else [path]


def linear_logit_ses(fit, design) -> np.ndarray:
    """Classical standard errors of a linear-on-logit fit on ``design``:
    sqrt(sigma^2 diag((X'X)^-1))."""
    x = np.asarray(design, dtype=float)
    return np.sqrt(fit.sigma2 * np.diag(np.linalg.inv(x.T @ x)))


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
        return (1.0 - normal_cdf(a)) * (1.0 - normal_cdf(b))
    if rho == 1.0:
        return 1.0 - normal_cdf(max(a, b))
    if rho == -1.0:
        # Z2 = -Z1: need Z1 > a and -Z1 > b.
        return max(0.0, normal_cdf(-b) - normal_cdf(a))
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
        tail = 1.0 - normal_cdf((b - rho * zi) / denom)
        total += wi * _phi(zi) * tail
    return half * total


def mvn_sample(chol: np.ndarray, rng, size: int | None = None) -> np.ndarray:
    """Multivariate normal draw(s) Z = L u with u iid standard normal.

    ``rng`` may be an RngStream (a fresh generator is materialized, so the
    same stream always yields the same draws) or a live numpy Generator to
    continue an existing sequence.  With ``size=None`` returns one vector
    of length d, otherwise an array of shape (size, d).  The attack
    indicators do not go through here: ``dependence.EventSampler`` streams
    the same draws through fixed panels.
    """
    low = np.asarray(chol, dtype=float)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    d = low.shape[0]
    if size is None:
        return low @ gen.standard_normal(d)
    # A C-contiguous L^T keeps the rounding independent of how the factor is
    # stored: BLAS rounds a product with a transposed view differently for
    # some shapes.
    return np.matmul(gen.standard_normal((int(size), d)), np.ascontiguousarray(low.T))


_CHUNK = 1 << 17


def sample_frequencies(
    probabilities,
    spec: CopulaSpec,
    rng: RngStream | np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Correlated Bernoulli attack indicators with the given marginals.

    Returns a length-d 0/1 vector, or a (size, d) matrix when ``size`` is
    given.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    events = np.unpackbits(EventSampler(spec, probabilities, n).draw(gen, n), axis=1, count=n)
    draws = events.T.astype(np.int8)
    return draws[0] if size is None else draws


def joint_cdf_estimate(
    probabilities,
    spec: CopulaSpec,
    indicator_bounds,
    n_samples: int = 1_000_000,
    rng: RngStream | np.random.Generator = RngStream(0),
) -> tuple[float, float]:
    """Monte Carlo estimate of P(N_1 <= n_1, ..., N_d <= n_d) with its SE."""
    bounds = np.asarray(indicator_bounds, dtype=int)
    if bounds.shape != (spec.dim,):
        raise DomainError(f"expected {spec.dim} indicator bounds, got shape {bounds.shape}")
    if np.any((bounds != 0) & (bounds != 1)):
        raise DomainError("indicator bounds must be 0 or 1")
    if np.all(bounds == 1):
        return (1.0, 0.0)  # every indicator is <= 1 by construction
    if n_samples < 1:
        raise DomainError("n_samples must be positive")

    gen = rng.generator() if isinstance(rng, RngStream) else rng
    # Only coordinates with bound 0 constrain the event: inside it, none of
    # them is attacked.
    active = np.flatnonzero(bounds == 0)
    hits = 0
    n_samples = int(n_samples)
    sampler = EventSampler(spec, probabilities, min(_CHUNK, n_samples))
    for start in range(0, n_samples, _CHUNK):
        n = min(_CHUNK, n_samples - start)
        events = np.unpackbits(sampler.draw(gen, n), axis=1, count=n).view(bool)
        hits += int((~events[active].any(axis=0)).sum())
    p_hat = hits / n_samples
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
    return (float(p_hat), se)


def whole_block_events(gen, size: int, probs, spec=None) -> np.ndarray:
    """Attack indicators of ``size`` paths, path-major, from whole-block draws.

    With a copula, the reference for ``dependence.EventSampler``: all the
    normals of the block at once, and all of Z.  Without one, the reference
    for ``dependence.attacked_paths`` called protocol by protocol: each
    protocol's Binomial count of attacked paths, then that many distinct
    paths, marked in a (size, d) array.
    """
    if spec is not None:
        return mvn_sample(spec.chol, gen, size=size) > event_thresholds(probs, spec.dim)
    hit = np.zeros((size, len(probs)), dtype=bool)
    for i, pi in enumerate(probs):
        hit[gen.choice(size, gen.binomial(size, pi), replace=False, shuffle=False), i] = True
    return hit


def _patterns(d: int):
    """The 2^d attack patterns in ``itertools.product`` order: pattern k attacks
    protocol i iff bit d - 1 - i of k is set."""
    return itertools.product((False, True), repeat=d)


def mixture_tail_law(weights, tvls, laws, levels, grid: int = 1 << 18, error: float = 0.0) -> list[tuple]:
    """The exact VaR_q and CTE_q of a portfolio loss whose attack pattern is drawn first, bracketed.

    Pattern k (``_patterns`` order) has probability ``weights[k]``; given
    it, S = sum over the attacked i of tvl_i R_i with independent R_i from
    ``laws[i]``.  Loss i has an atom at tvl_i (mass pi_S, or 1 for a
    total-loss-only law) and, for a logit-normal law, the rest spread over
    (0, tvl_i).  Each loss is put on the lattice h Z twice, rounded down
    and rounded up, its spectrum taken with ``numpy.fft`` (Embrechts & Frei
    2009, "Panjer recursion versus FFT for compound distributions"), and
    the law of S is the weighted sum over the patterns of the products of
    the attacked spectra, so S^- <= S <= S^+ path by path and VaR_q(S^-) <=
    VaR_q(S) <= VaR_q(S^+).  The atoms of S, each pattern's sum of its
    tvl_i when every attacked loss is total, are kept exactly (summed in
    portfolio order, as ``simulate_aggregate`` sums them); so it is decided
    whether VaR_q sits on one, and then VaR_q is that atom.  CTE_q =
    E[S | S > VaR_q] grows with VaR_q, and at a fixed v it is v +
    E[(S - v)^+] / P(S > v), bounded by the lattice sums.  ``error`` bounds
    the summed absolute error of the weights: every probability compared
    is widened by it, and each E[(S - v)^+] by it times the largest excess.

    Returns ``(var_lo, var_hi, cte_lo, cte_hi, on_atom)`` per level; an
    AssertionError when the lattice is too coarse to decide ``on_atom``.
    """
    from scipy.special import logit, ndtr

    tvls = np.asarray(tvls, dtype=float)
    d = tvls.size
    h = float(tvls.sum()) / (grid - d - 1)  # the sum of the rounded-up losses stays on the grid
    down, up = np.floor(tvls / h).astype(int), np.ceil(tvls / h).astype(int)
    spectra = np.empty((2, d, grid // 2 + 1), dtype=complex)  # each loss rounded down, rounded up
    total_mass = []  # per loss: P(R_i = 1)
    for i, (tvl, law, k_up) in enumerate(zip(tvls, laws, up)):
        total = 1.0 if law.eta is None else law.pi_s

        def cdf(y, strict):  # P(L < y) if strict, else P(L <= y), of L = tvl R
            inside = (y > 0.0) & (y < tvl)
            partial = 0.0
            if law.eta is not None:
                partial = ndtr((logit(np.where(inside, y / tvl, 0.5)) - law.eta) / law.sigma)
            partial = (1.0 - total) * np.where(inside, partial, y >= tvl)
            return partial + total * (y > tvl if strict else y >= tvl)

        y = h * np.arange(-1, k_up + 2)
        below, at_most = cdf(y, True), cdf(y, False)
        spectra[0, i] = np.fft.rfft(below[2:] - below[1:-1], grid)  # P(kh <= L < (k + 1)h)
        spectra[1, i] = np.fft.rfft(at_most[1:-1] - at_most[:-2], grid)  # P((k - 1)h < L <= kh)
        total_mass.append(total)

    def mixed(r, i=0, k=0, product=1.0):  # the weighted sum over the patterns below prefix k of length i
        if i == d:
            return weights[k] * product
        return mixed(r, i + 1, 2 * k, product) + mixed(r, i + 1, 2 * k + 1, product * spectra[r, i])

    pmf = [np.fft.irfft(mixed(r), grid) for r in (0, 1)]
    cdfs = [np.maximum.accumulate(np.cumsum(p)) for p in pmf]
    lattice = h * np.arange(grid)
    tol = 1e-9 + error  # 1e-9 is far above the FFT's rounding in a CDF

    def at(c, k):  # the lattice CDF at index k, 0 below the lattice
        return float(c[k]) if k >= 0 else 0.0

    atoms = {}  # value -> [(mass, rounded-down index, rounded-up index)]
    for k, pattern in enumerate(_patterns(d)):
        hit = list(pattern)
        mass = weights[k] * math.prod(m for m, attacked in zip(total_mass, pattern) if attacked)
        if mass > 0.0:
            x = sum(tvls[hit].tolist())  # left to right, in portfolio order
            atoms.setdefault(x, []).append((mass, int(down[hit].sum()), int(up[hit].sum())))

    def bounds(x):
        """Lower and upper bounds of P(S < x) and of P(S <= x)."""
        below_k, upto_k = math.ceil(x / h) - 1, math.floor(x / h)
        here = atoms.get(x, [])
        # S^- < x holds on an atom at x rounded below x, S^+ > x on one rounded above.
        lt_hi = at(cdfs[0], below_k) - sum(m for m, j, _ in here if j <= below_k)
        le_lo = at(cdfs[1], upto_k) + sum(m for m, _, k in here if k > upto_k)
        return at(cdfs[1], below_k), lt_hi, le_lo, at(cdfs[0], upto_k)

    def excess(r, v, sign):  # E[(X - v)^+] of lattice law r, moved by the weights' error
        return float(np.dot(pmf[r], np.maximum(lattice - v, 0.0))) + sign * error * (lattice[-1] - v)

    out = []
    for q in levels:
        on, undecided = [], []
        for x in atoms:
            lt_lo, lt_hi, le_lo, le_hi = bounds(x)
            if lt_hi + tol < q <= le_lo - tol:
                on.append(x)
            elif not (le_hi + tol < q or lt_lo - tol >= q):
                undecided.append(x)
        assert not undecided, f"lattice too coarse to place VaR_{q} against atoms {undecided}"
        if on:
            (var_lo,) = (var_hi,) = on
        else:
            var_lo = float(lattice[np.searchsorted(cdfs[0], q - tol)])
            var_hi = float(lattice[np.searchsorted(cdfs[1], q + tol)])
        cte_lo = var_lo + excess(0, var_lo, -1.0) / (1.0 - bounds(var_lo)[2] + tol)
        cte_hi = var_hi + excess(1, var_hi, 1.0) / (1.0 - bounds(var_hi)[3] - tol)
        out.append((var_lo, var_hi, cte_lo, cte_hi, bool(on)))
    return out


def independent_tail_law(probs, tvls, laws, levels, grid: int = 1 << 18) -> list[tuple]:
    """The exact VaR_q and CTE_q of the independent scenario, bracketed: ``mixture_tail_law``
    with each pattern's weight the product of pi_i over the attacked protocols
    and of 1 - pi_i over the others."""
    weights = [math.prod(p if attacked else 1.0 - p for p, attacked in zip(probs, pattern))
               for pattern in _patterns(len(probs))]
    return mixture_tail_law(weights, tvls, laws, levels, grid)


# Absolute error to which each attack pattern's orthant probability is computed.
ORTHANT_ABSEPS = 1e-7


def attack_pattern_law(probs, spec: CopulaSpec) -> np.ndarray:
    """The probability of each attack pattern (``_patterns`` order) under the copula.

    Pattern k attacks the protocols i with Z_i > z_i (``event_thresholds``)
    and no other, Z ~ N(0, psi).  Flipping the signs of the attacked
    coordinates, s_i = -1, turns that into the orthant P(s * Z <= s * z) of
    N(0, S psi S), S = diag(s), which scipy computes by Genz's randomized
    quasi-Monte Carlo rule (Genz 1992, "Numerical computation of
    multivariate normal probabilities", *J. Comput. Graph. Stat.* 1(2)) on
    a fixed generator until 3 SEs of the estimate fall under
    ``ORTHANT_ABSEPS``.  So the 2^d weights err by at most 2^d
    ``ORTHANT_ABSEPS`` in all, and their sum lies that close to 1.
    """
    from scipy.stats import multivariate_normal

    z = event_thresholds(probs, spec.dim)
    weights = []
    for pattern in _patterns(spec.dim):
        s = np.where(pattern, -1.0, 1.0)
        weights.append(float(multivariate_normal.cdf(
            s * z, cov=spec.psi * np.outer(s, s), abseps=ORTHANT_ABSEPS, releps=0.0,
            rng=np.random.default_rng(0),
        )))
    weights = np.array(weights)
    assert abs(weights.sum() - 1.0) <= weights.size * ORTHANT_ABSEPS, weights.sum()
    return weights


def copula_tail_law(patterns, tvls, laws, levels, grid: int = 1 << 18) -> list[tuple]:
    """The exact VaR_q and CTE_q of the copula scenario, bracketed: ``mixture_tail_law``
    over the pattern weights ``attack_pattern_law`` returned, on the lattice
    of the independent scenario, widened by the weights' summed error."""
    return mixture_tail_law(patterns, tvls, laws, levels, grid, error=len(patterns) * ORTHANT_ABSEPS)


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
        Month(day.year, day.month)
        for pid, day in zip(incidents.protocol_id.tolist(), incidents.day.tolist())
        if pid == protocol.id and protocol.inception <= Month(day.year, day.month) <= window_end
    }
    rows = []
    for m in months:
        if m not in series:
            raise DataError(f"protocol {protocol.id!r}: no TVL observation for {m}")
        value = series[m]
        if value <= 0.0:
            raise DomainError(f"protocol {protocol.id!r}: TVL for {m} is zero; log undefined")
        rows.append((m, 1 if m in event_months else 0, math.log(value)))
    return rows


def _csv_rows(path, header, what):
    """(line, cells) of each non-blank row, ``line`` its first physical line."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise SchemaError(f"{path}: empty {what} file")
            if [h.strip() for h in first] != header:
                raise SchemaError(f"{path}: bad {what} header {first!r}, expected {header}")
            line = reader.line_num + 1
            for row in reader:
                if row and any(cell.strip() for cell in row):
                    yield line, row
                line = reader.line_num + 1
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: not a readable {what} CSV: {exc}") from exc


def _parse_amount(name, raw):
    try:
        value = float(raw)
    except ValueError:
        return None, f"bad {name} {raw!r}"
    if not math.isfinite(value):
        return None, f"non-finite {name} {raw}"
    if value < 0.0:
        return None, f"negative {name} {raw}"
    return value, None


INCIDENTS_HEADER = ["protocol_id", "date", "chain", "issue_type", "loss_usd", "tvl_usd"]
TVL_HEADER = ["protocol_id", "month", "tvl_usd"]


def incident_file_rows(path):
    """Row-by-row reference for ``datamodel.load_incidents``.

    Returns (accepted, rejected, flagged): accepted rows as ``(protocol_id,
    date, Chain, IssueType, loss_usd, tvl_usd or None)`` and the reports
    as ``(line, raw cells, reason)``, each in file order.
    """
    accepted, rejected, flagged = [], [], []
    for line, row in _csv_rows(path, INCIDENTS_HEADER, "incidents"):
        if len(row) != len(INCIDENTS_HEADER):
            rejected.append((line, tuple(row), "wrong number of fields"))
            continue
        pid, date_raw, chain_raw, issue_raw, loss_raw, tvl_raw = (c.strip() for c in row)
        if not pid:
            rejected.append((line, tuple(row), "empty protocol_id"))
            continue
        try:
            when = date.fromisoformat(date_raw)
        except ValueError:
            rejected.append((line, tuple(row), f"bad date {date_raw!r}"))
            continue
        loss, reason = _parse_amount("loss_usd", loss_raw)
        tvl = None
        if reason is None and tvl_raw:
            tvl, reason = _parse_amount("tvl_usd", tvl_raw)
        if reason is not None:
            rejected.append((line, tuple(row), reason))
            continue
        try:
            chain = Chain[chain_raw.upper()]
        except KeyError:
            chain = Chain.OTHER
        issue = next((m for m in IssueType if m.value == issue_raw.lower()), IssueType.OTHER)
        if loss == 0.0:
            flagged.append((line, tuple(row), "zero loss: excluded from severity fitting"))
        accepted.append((pid, when, chain, issue, loss, tvl))
    return accepted, rejected, flagged


def tvl_file_series(path):
    """Row-by-row reference for ``datamodel.load_tvl``: ``{protocol_id:
    {month: tvl_usd}}``, or the error for the first failing line."""
    out = {}
    for line, row in _csv_rows(path, TVL_HEADER, "tvl"):
        if len(row) != len(TVL_HEADER):
            raise SchemaError(f"{path}:{line}: wrong number of fields")
        pid, month_raw, tvl_raw = (c.strip() for c in row)
        if not pid:
            raise SchemaError(f"{path}:{line}: empty protocol_id")
        try:
            month = Month.parse(month_raw)
        except SchemaError as exc:
            raise SchemaError(f"{path}:{line}: {exc}") from exc
        tvl, reason = _parse_amount("tvl_usd", tvl_raw)
        if reason is None and tvl == 0.0:
            reason = f"zero tvl_usd {tvl_raw}: log TVL undefined"
        if reason is not None:
            raise SchemaError(f"{path}:{line}: {reason}")
        series = out.setdefault(pid, {})
        if month in series:
            raise DataError(f"{path}:{line}: duplicate TVL observation for {pid} {month}")
        series[month] = tvl
    return out
