"""Output checks for the benchmark, computed apart from the program.

Every check recomputes what an output must be from the input files (or
the generator's own record of them) and plain numpy, or tests a property
the method must have.  None compares against a stored copy of earlier
output.  A failed check raises ``CheckFailed`` naming the file, the row
and both values.

- ``check_frequency``: score equations of each unpenalized logistic fit,
  the standardization it records, and each ``attack_prob`` as the inverse
  logit of the model JSON at the latest TVL; never-attacked protocols get
  a peer interval and no model.
- ``check_severity``: the training counts, the score equations of the
  seven-coefficient total-loss fit, the normal equations of the
  logit-normal fit and ``sigma2 = RSS / (n - p)``.
- ``check_quotes``: ``attack_prob`` recomputed, ``loss_pct`` within a few
  Monte Carlo standard errors of a Gauss-Hermite quadrature of the
  logit-normal mean, and the expectation premium identity.
- ``check_risk``: each VaR inside the q-quantile bracket of a reference
  aggregate-loss sample drawn here, each CTE within a few standard errors
  of the reference, and monotone levels.
- ``check_counts``: ``summarize`` tallies and the ingest report against
  the counts of the accepted, malformed and zero-loss rows.
- ``check_gof``: the Hosmer-Lemeshow result of ``gof`` equals the one
  stored by ``fit-frequency`` for the same model and panel.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from datetime import date
from pathlib import Path
from statistics import NormalDist

import numpy as np

from book import CHAINS, ISSUE_TYPES, Book

SEVERITY_WINDOW = ((2020, 1), (2023, 12))
TIME_ORIGIN = date(2020, 1, 1)
SCORE_TOL = 1e-7         # max |X'(y - mu)| / n of a converged IRLS fit (stops at 1e-8)
NORMAL_EQ_TOL = 1e-9     # |X'(z - X gamma)| relative to sum |X| |z|
REL_TOL = 1e-12          # recomputed closed forms
MC_SIGMAS = 5.0          # Monte Carlo agreement, in standard errors
QUADRATURE_NODES = 128
REFERENCE_CHUNK = 1 << 13


class CheckFailed(AssertionError):
    pass


def _fail(where: str, what: str) -> None:
    raise CheckFailed(f"{where}: {what}")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


ETA_CLIP = 36.0  # the program's inverse link clips the linear predictor here


def invlogit(x):
    x = np.clip(np.asarray(x, dtype=float), -ETA_CLIP, ETA_CLIP)
    return np.exp(-np.logaddexp(0.0, -x))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


# ---------------------------------------------------------------------------
# inputs


def _parse_month(raw: str) -> tuple[int, int]:
    y, m = raw.split("-")
    return int(y), int(m)


def read_inputs(directory: Path) -> Book:
    """Parse a committed data set (incidents, TVL, both portfolios) into a Book.

    The validity rules are the file format's: six fields, a protocol id,
    an ISO date, a finite nonnegative loss and an empty or finite
    nonnegative TVL.  Unknown chains count as OTHER and unknown issue
    types as other.
    """
    accepted, malformed, zero, missing = [], 0, 0, 0
    with open(directory / "incidents.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            try:
                pid, d_raw, chain, issue, loss_raw, tvl_raw = (c.strip() for c in row)
                when = date.fromisoformat(d_raw)
                loss = float(loss_raw)
                tvl = float(tvl_raw) if tvl_raw else None
            except ValueError:
                malformed += 1
                continue
            if not pid or not math.isfinite(loss) or loss < 0.0 or (
                tvl is not None and (not math.isfinite(tvl) or tvl < 0.0)
            ):
                malformed += 1
                continue
            chain = chain.upper() if chain.upper() in CHAINS else "OTHER"
            issue = issue.lower() if issue.lower() in ISSUE_TYPES else "other"
            zero += loss == 0.0
            missing += tvl is None
            accepted.append((pid, when, chain, issue, loss, tvl))
    tvl: dict[str, dict[tuple[int, int], float]] = {}
    with open(directory / "tvl.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            tvl.setdefault(row["protocol_id"], {})[_parse_month(row["month"])] = float(row["tvl_usd"])
    full = _read_json(directory / "portfolio.json")
    priced = _read_json(directory / "portfolio_priced.json")
    protocols = [
        {"id": p["id"], "chain": p["chain"], "inception": _parse_month(p["inception"])}
        for p in full["protocols"]
    ]
    attacked = {rec[0] for rec in accepted}
    return Book(
        directory=directory,
        protocols=protocols,
        tvl=tvl,
        incidents=accepted,
        priced_ids=[p["id"] for p in priced["protocols"]],
        priced_similarity=np.asarray(priced["similarity"], dtype=float),
        theta=float(priced["theta"]),
        n_malformed=malformed,
        n_missing_tvl=missing,
        n_zero_loss=zero,
        never_attacked=[p["id"] for p in protocols if p["id"] not in attacked],
    )


def _latest(book: Book, pid: str) -> tuple[tuple[int, int], float]:
    month = max(book.tvl[pid])
    return month, book.tvl[pid][month]


def _next_month_first_day(month: tuple[int, int]) -> date:
    y, m = month
    return date(y + 1, 1, 1) if m == 12 else date(y, m + 1, 1)


def panel(book: Book, protocol: dict) -> tuple[np.ndarray, np.ndarray]:
    """(log TVL, event) per month from inception to the latest TVL month."""
    pid = protocol["id"]
    end = max(book.tvl[pid])
    months = sorted(m for m in book.tvl[pid] if protocol["inception"] <= m <= end)
    hit = {(rec[1].year, rec[1].month) for rec in book.incidents if rec[0] == pid}
    x = np.array([math.log(book.tvl[pid][m]) for m in months])
    y = np.array([1.0 if m in hit else 0.0 for m in months])
    return x, y


def _chain_of(book: Book, pid: str) -> str:
    return next(p["chain"] for p in book.protocols if p["id"] == pid)


# ---------------------------------------------------------------------------
# frequency


def frequency_probability(doc: dict, tvl: float) -> float:
    z = (math.log(tvl) - doc["cov_mean"]) / doc["cov_sd"]
    return float(invlogit(doc["alpha0"] + doc["alpha1"] * z))


def check_frequency(out: Path, book: Book) -> dict[str, dict]:
    """Check every frequency output; returns the model JSONs by protocol id."""
    report = {row["protocol_id"]: row for row in _read_csv(out / "frequency_report.csv")}
    if list(report) != [p["id"] for p in book.protocols]:
        _fail("frequency_report.csv", "protocol rows differ from the portfolio")
    models = {}
    never = set(book.never_attacked)
    for proto in book.protocols:
        pid = proto["id"]
        row = report[pid]
        _, tvl = _latest(book, pid)
        if float(row["prediction_tvl"]) != tvl:
            _fail(f"frequency_report.csv {pid}", f"prediction_tvl {row['prediction_tvl']} != {tvl!r}")
        path = out / f"freq_{pid}.json"
        if pid in never:
            lo, hi = _num(row["interval_low"]), _num(row["interval_high"])
            if path.exists() or row["alpha0"] != "":
                _fail(f"frequency_report.csv {pid}", "never-attacked protocol got a fitted model")
            if lo is None or hi is None or not 0.0 < lo < hi < 1.0:
                _fail(f"frequency_report.csv {pid}", f"bad peer interval ({lo}, {hi})")
            continue
        doc = models[pid] = _read_json(path)
        x, y = panel(book, proto)
        if doc.get("covariate_dropped"):
            continue
        if not (_close(doc["cov_mean"], float(x.mean()), 1e-12)
                and _close(doc["cov_sd"], float(x.std(ddof=1)), 1e-12)):
            _fail(f"freq_{pid}.json", "recorded standardization differs from the panel's")
        if doc["penalty"] is None:
            z = (x - doc["cov_mean"]) / doc["cov_sd"]
            resid = y - invlogit(doc["alpha0"] + doc["alpha1"] * z)
            score = max(abs(resid.sum()), abs(resid @ z)) / len(y)
            if not score <= SCORE_TOL:
                _fail(f"freq_{pid}.json", f"score equations off by {score:.3e} (tolerance {SCORE_TOL})")
        expected = frequency_probability(doc, tvl)
        if not _close(float(row["attack_prob"]), expected):
            _fail(f"frequency_report.csv {pid}", f"attack_prob {row['attack_prob']} != {expected!r}")
    return models


# ---------------------------------------------------------------------------
# severity


def _in_window(when: date) -> bool:
    return SEVERITY_WINDOW[0] <= (when.year, when.month) <= SEVERITY_WINDOW[1]


def _years(when: date) -> float:
    return (when - TIME_ORIGIN).days / 365.25


def _total_loss_row(chain: str, log_tvl: float, t: float) -> list[float]:
    """(intercept, D_ETH, D_OTHER, log TVL, t, D_ETH t, D_OTHER t), BSC the reference."""
    e, o = float(chain == "ETH"), float(chain == "OTHER")
    return [1.0, e, o, log_tvl, t, e * t, o * t]


def severity_data(book: Book):
    """Total-loss design and response, partial design and logit response, zero losses."""
    rows, total, prow, pz = [], [], [], []
    zero = 0
    for pid, when, chain, _issue, loss, tvl in book.incidents:
        if not _in_window(when):
            continue
        if loss == 0.0:
            zero += 1
            continue
        if tvl is None or tvl == 0.0:
            ratio, eff = 1.0, loss
        else:
            ratio, eff = min(loss / tvl, 1.0), tvl
        rows.append(_total_loss_row(chain, math.log(eff), _years(when)))
        total.append(1.0 if ratio == 1.0 else 0.0)
        if ratio < 1.0:
            prow.append([1.0, math.log(eff)])
            pz.append(math.log(ratio / (1.0 - ratio)))
    return np.array(rows), np.array(total), np.array(prow), np.array(pz), zero


def check_severity(out: Path, data) -> dict:
    """``data`` is ``severity_data(book)``; returns the model JSON."""
    doc = _read_json(out / "severity_model.json")
    x1, y1, x2, z2, zero = data
    for key, want in (("n_total", int(y1.sum())), ("n_partial", len(z2)), ("zero_loss_skipped", zero)):
        if doc[key] != want:
            _fail("severity_model.json", f"{key} {doc[key]} != {want}")
    if doc["penalty"] is None:
        resid = y1 - invlogit(x1 @ np.asarray(doc["beta"]))
        score = float(np.max(np.abs(x1.T @ resid))) / len(y1)
        if not score <= SCORE_TOL:
            _fail("severity_model.json beta", f"score equations off by {score:.3e} (tolerance {SCORE_TOL})")
    gamma = np.asarray(doc["gamma"])
    r = z2 - x2 @ gamma
    normal = np.abs(x2.T @ r) / (np.abs(x2).T @ np.abs(z2))
    if not float(normal.max()) <= NORMAL_EQ_TOL:
        _fail("severity_model.json gamma", f"normal equations off by {normal.max():.3e} relative")
    sigma2 = float(r @ r) / (len(z2) - x2.shape[1])
    if not _close(doc["sigma2"], sigma2, 1e-10):
        _fail("severity_model.json sigma2", f"{doc['sigma2']!r} != RSS/(n-p) = {sigma2!r}")
    return doc


def total_loss_probability(sev: dict, chain: str, tvl: float, when: date) -> float:
    if sev["beta"] is None:
        return 1.0
    return float(invlogit(np.dot(sev["beta"], _total_loss_row(chain, math.log(tvl), _years(when)))))


def ratio_moments(sev: dict, tvl: float) -> tuple[float, float]:
    """E(R*) and E(R*^2) of the logit-normal part by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(QUADRATURE_NODES)
    eta = sev["gamma"][0] + sev["gamma"][1] * math.log(tvl)
    r = invlogit(eta + math.sqrt(2.0 * sev["sigma2"]) * nodes)
    w = weights / math.sqrt(math.pi)
    return float(w @ r), float(w @ (r * r))


# ---------------------------------------------------------------------------
# pricing


def check_quotes(out: Path, book: Book, models: dict[str, dict], sev: dict) -> None:
    rows = _read_csv(out / "quotes.csv")
    if [r["protocol_id"] for r in rows] != book.priced_ids:
        _fail("quotes.csv", "protocol rows differ from the priced portfolio")
    for row in rows:
        pid = row["protocol_id"]
        month, tvl = _latest(book, pid)
        when = _next_month_first_day(month)
        pi_f = frequency_probability(models[pid], tvl)
        if not _close(float(row["attack_prob"]), pi_f):
            _fail(f"quotes.csv {pid}", f"attack_prob {row['attack_prob']} != {pi_f!r}")
        pi_s = total_loss_probability(sev, _chain_of(book, pid), tvl, when)
        m1, m2 = ratio_moments(sev, tvl)
        expected = (1.0 - pi_s) * m1 + pi_s
        se = (1.0 - pi_s) * math.sqrt(max(m2 - m1 * m1, 0.0) / int(row["n_samples"]))
        loss_pct = float(row["loss_pct"])
        if not abs(loss_pct - expected) <= MC_SIGMAS * se + 1e-12:
            _fail(
                f"quotes.csv {pid}",
                f"loss_pct {loss_pct!r} is {abs(loss_pct - expected) / se:.1f} MC standard errors "
                f"from the quadrature {expected!r}",
            )
        if float(row["theta"]) != book.theta:
            _fail(f"quotes.csv {pid}", f"theta {row['theta']} is not the portfolio's {book.theta!r}")
        premium = (1.0 + book.theta) * float(row["attack_prob"]) * loss_pct
        if not (_close(float(row["expectation_pct"]), premium)
                and _close(float(row["expectation_usd"]), premium * tvl)):
            _fail(f"quotes.csv {pid}", f"expectation premium {row['expectation_pct']} != (1+theta) pi L = {premium!r}")


# ---------------------------------------------------------------------------
# tail risk


def nearest_correlation(a: np.ndarray, floor: float = 2e-8, tol: float = 1e-10) -> np.ndarray:
    """Higham's alternating projections with Dykstra's correction."""
    y = a.copy()
    correction = np.zeros_like(a)
    for _ in range(2000):
        r = y - correction
        w, v = np.linalg.eigh(r)
        x = (v * np.maximum(w, floor)) @ v.T
        x = 0.5 * (x + x.T)
        correction = x - r
        y = x.copy()
        np.fill_diagonal(y, 1.0)
        if np.linalg.norm(x - y) <= tol * max(1.0, float(np.linalg.norm(a))):
            return y
    raise RuntimeError("reference nearest-correlation repair did not converge")


def reference_losses(book: Book, models: dict[str, dict], sev: dict, n: int, seed: int) -> dict[str, np.ndarray]:
    """Sorted aggregate-loss samples with and without the copula, drawn with numpy."""
    ids = book.priced_ids
    latest = [_latest(book, pid) for pid in ids]
    when = max(_next_month_first_day(m) for m, _ in latest)
    tvl = np.array([v for _, v in latest])
    pf = np.array([frequency_probability(models[pid], v) for pid, v in zip(ids, tvl)])
    ps = np.array([total_loss_probability(sev, _chain_of(book, pid), v, when) for pid, v in zip(ids, tvl)])
    eta = sev["gamma"][0] + sev["gamma"][1] * np.log(tvl)
    sigma = math.sqrt(sev["sigma2"])
    corr = book.priced_similarity
    if np.linalg.eigvalsh(corr).min() < 1e-8:
        corr = nearest_correlation(corr)
    chol_t = np.linalg.cholesky(corr).T
    thresholds = np.array([NormalDist().inv_cdf(1.0 - p) for p in pf])
    gen = np.random.default_rng([seed, 7_000_001])
    d = len(ids)
    out = {}
    for scenario in ("dep", "indep"):
        parts = []
        for start in range(0, n, REFERENCE_CHUNK):
            m = min(REFERENCE_CHUNK, n - start)
            if scenario == "dep":
                events = gen.standard_normal((m, d)) @ chol_t > thresholds
            else:
                events = gen.random((m, d)) < pf
            rows, cols = np.nonzero(events)
            total = gen.random(rows.size) < ps[cols]
            ratio = np.where(total, 1.0, invlogit(eta[cols] + sigma * gen.standard_normal(rows.size)))
            parts.append(np.bincount(rows, weights=ratio * tvl[cols], minlength=m))
        out[scenario] = np.sort(np.concatenate(parts))
    return out


def _cte_se(tail: np.ndarray, var_q: float, q: float, n: int) -> float:
    """Asymptotic standard error of an empirical CTE at level q from n draws."""
    if tail.size < 2:
        return 0.0
    return math.sqrt((float(tail.var(ddof=1)) + q * (float(tail.mean()) - var_q) ** 2) / (n * (1.0 - q)))


def check_risk(out: Path, reference: dict[str, np.ndarray], n_sims: int) -> None:
    rows = _read_csv(out / "risk_report.csv")
    for scenario, ref in reference.items():
        m = ref.size
        prev_var = prev_cte = -math.inf
        for row in rows:
            q = float(row["level"])
            v = float(row[f"var_{scenario}"])
            cte = float(row[f"cte_{scenario}"])
            where = f"risk_report.csv {scenario}@{q:g}"
            below = np.searchsorted(ref, v, side="left") / m
            at_or_below = np.searchsorted(ref, v, side="right") / m
            slack = MC_SIGMAS * math.sqrt(q * (1.0 - q) * (1.0 / n_sims + 1.0 / m))
            if not (below <= q + slack and at_or_below >= q - slack):
                _fail(where, f"VaR {v!r} sits at reference quantiles [{below:.5f}, {at_or_below:.5f}], "
                             f"outside {q} +- {slack:.5f}")
            tail = ref[np.searchsorted(ref, v, side="right"):]
            if tail.size == 0:
                if cte != v:
                    _fail(where, f"CTE {cte!r} above a VaR {v!r} with no reference mass above it")
            else:
                ref_cte = float(tail.mean())
                se = math.hypot(_cte_se(tail, v, q, n_sims), _cte_se(tail, v, q, m))
                if not abs(cte - ref_cte) <= MC_SIGMAS * se:
                    _fail(where, f"CTE {cte!r} is {abs(cte - ref_cte) / se:.1f} standard errors "
                                 f"from the reference {ref_cte!r}")
            if not (v >= prev_var and cte >= prev_cte and cte >= v):
                _fail(where, "VaR/CTE not monotone in the level, or CTE below VaR")
            prev_var, prev_cte = v, cte


# ---------------------------------------------------------------------------
# counts and diagnostics


def check_counts(out: Path, book: Book) -> None:
    report = _read_json(out / "ingest_report.json")
    for key, want in (
        ("rows_accepted", len(book.incidents)),
        ("rows_rejected", book.n_malformed),
        ("rows_flagged", book.n_zero_loss),
    ):
        if report[key] != want:
            _fail("ingest_report.json", f"{key} {report[key]} != {want}")
    want = Counter()
    for _pid, when, chain, issue, _loss, _tvl in book.incidents:
        want[("events_by_year", str(when.year))] += 1
        want[("events_by_chain", chain)] += 1
        want[("events_by_issue_type", issue)] += 1
    want[("severity_usd", "all")] = len(book.incidents)
    got = Counter()
    for row in _read_csv(out / "summary.csv"):
        if row["metric"] == "count" and row["section"] in (
            "events_by_year", "events_by_chain", "events_by_issue_type", "severity_usd"
        ):
            got[(row["section"], row["key"])] = int(row["value"])
    want = Counter({k: v for k, v in want.items() if v})
    got = Counter({k: v for k, v in got.items() if v})
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        _fail("summary.csv", f"counts differ from the input rows: {diff[:6]}")


def check_gof(out: Path, model: dict) -> None:
    got = _read_json(out / "gof.json")["hl"]
    want = model["hl"]
    if got["df"] != want["df"] or got["groups"] != want["groups"] or not _close(got["stat"], want["stat"], 1e-9):
        _fail("gof.json", f"Hosmer-Lemeshow {got} != the fitted model's {want}")
