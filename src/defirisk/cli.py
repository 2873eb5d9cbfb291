"""Command-line surface for the pricing and risk engine.

Subcommands: fit-frequency, fit-severity, price, simulate, gof, summarize.
Every command is a pure function of (input files, config, seed): reruns
with the same inputs produce byte-identical output files, and the
``--workers`` flag never changes results, only wall time.  Its default is
the number of CPUs the process may run on (``usable_cpus``).  simulate
checks ``tailrisk.footprint`` against physical memory before it starts
its one pool of workers, and passes the copula build to that pool.

Only simulate draws random numbers, from stream 1000 of --seed and its
children.  price is deterministic: its quotes depend on neither --seed nor
--samples.  No output depends on a protocol's position in the portfolio.

Each command builds one ordered ``{file name: content}`` dict, and one
writer, ``_write_outputs``, writes it under --output in that order: a name
without a suffix is a report table, ``{column name: values}`` in column
order, written in --format (CSV, or JSON as a list of one object per row);
a ``.json`` name is a JSON payload; a ``.csv`` name is a CSV table whatever
--format says.  Every file is built before the first is written, so a
command whose work fails writes none of them.
Each setting is declared once, in ``_SETTINGS``: its cast, its flag help
and the command that takes its flag.  Flag values and config-file values
take the same casts and the same checks (``RunConfig.validate``).

Importing this module loads only what parsing, dispatch and the writer
need, and the readers of ``datamodel`` and ``build_copula``, which a
tracer may wrap here.  Each command imports the model modules it runs
(``frequency``, ``glm``, ``pricing``, ``severity``, ``tailrisk``) when it
starts, so ``summarize`` loads none of them.

Exit codes: 0 success, 2 configuration/schema error, 3 numerical failure;
errors are emitted as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .datamodel import (
    Chain,
    Incidents,
    IngestResult,
    IssueType,
    Month,
    RejectedRow,
    build_monthly_panel,
    load_incidents,
    load_portfolio,
    load_tvl,
    read_json_object,
)
from .dependence import build_copula
from .errors import ConfigError, DataError, EngineError, NoEventError, SchemaError
from .errors import finite, integer, real
from .numerics import RngStream, std_normal_quantile

if TYPE_CHECKING:
    from . import pricing, severity

_SIMULATE_STREAM = 1000


def usable_cpus() -> int:
    """The CPUs this process may run on, the default ``workers``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class RunConfig:
    """Resolved run configuration (defaults < config file < CLI flags)."""

    incidents: Path | None = None
    tvl: Path | None = None
    portfolio: Path | None = None
    models: Path | None = None
    output: Path = Path("out")
    seed: int = 0
    samples: int = 100_000
    theta: float | None = None
    levels: tuple[float, ...] = (0.90, 0.95, 0.99)
    format: str = "csv"
    workers: int = field(default_factory=usable_cpus)
    dependence: str = "both"
    window_end: Month | None = None
    bootstrap: int = 200
    override: Path | None = None
    model: Path | None = None

    def validate(self, needs: tuple[str, ...]) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.samples < 10_000:
            raise ConfigError(f"samples must be at least 10^4, got {self.samples}")
        if not self.levels or any(not (0.0 < q < 1.0) for q in self.levels):
            raise ConfigError(f"levels must be one or more in (0, 1), got {self.levels}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format}")
        if self.dependence not in ("on", "off", "both"):
            raise ConfigError(f"dependence must be on/off/both, got {self.dependence}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.bootstrap < 2:
            raise ConfigError(f"bootstrap must be at least 2, got {self.bootstrap}")
        for name in needs:
            value = getattr(self, name)
            if value is None:
                raise ConfigError(f"missing required path --{name}")
            if not Path(value).exists():
                raise ConfigError(f"{name} path does not exist: {value}")


def _parse_levels(raw) -> tuple[float, ...]:
    """A JSON list of levels, or a flag's comma-separated text."""
    parts = raw if isinstance(raw, list) else [p for p in str(raw).split(",") if p.strip()]
    return tuple(map(real, parts))


def _month(raw) -> Month:
    """The window_end setting: YYYY-MM, else a ConfigError with the month parser's reason."""
    try:
        return Month.parse(str(raw))
    except SchemaError as exc:
        raise ConfigError(f"bad window_end: {exc}") from exc


# Each setting, keyed by its config-file key and RunConfig field:
# (conversion of the raw value, flag help, the one command taking the flag or None for all).
# The flag is the key with "-" for "_".
_SETTINGS = {
    "incidents": (Path, "incidents CSV path", None),
    "tvl": (Path, "monthly TVL CSV path", None),
    "portfolio": (Path, "portfolio JSON path", None),
    "models": (Path, "directory holding fitted model files", None),
    "output": (Path, "output directory", None),
    "seed": (integer, "base RNG seed (u64)", None),
    "samples": (integer, "simulation paths", None),
    "theta": (finite(0.0, math.inf, above=True), "premium loading", None),
    "levels": (_parse_levels, "comma-separated confidence levels", None),
    "format": (str, "report format: csv or json", None),
    "workers": (integer, "simulation worker threads", None),
    "window_end": (_month, "training window end YYYY-MM", "fit-frequency"),
    "override": (Path, "JSON of (attack_prob, loss_pct) pairs to price", "price"),
    "dependence": (str, "scenarios to simulate: on, off or both", "simulate"),
    "bootstrap": (integer, "bootstrap resamples for SEs", "simulate"),
    "model": (Path, "fitted model JSON to diagnose", "gof"),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by the flags given."""
    cfg = RunConfig()
    doc = read_json_object(Path(args.config)) if args.config else {}
    unknown = sorted(set(doc) - set(_SETTINGS))
    if unknown:
        raise ConfigError(f"{Path(args.config)}: unknown config keys {unknown}")
    for source in (doc, vars(args)):
        for key, (cast, _, _) in _SETTINGS.items():
            if source.get(key) is not None:
                try:
                    setattr(cfg, key, cast(source[key]))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"bad {key} {source[key]!r:.60}: {exc!s:.80}") from exc
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers


def _cells(column) -> list[str]:
    """CSV text of one column: None as "", a float as its shortest round-trip repr, else str."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return list(map(repr, column.tolist()))
    return ["" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in column]


def _write_outputs(cfg: RunConfig, outputs: dict) -> list[Path]:
    """Write each ``{file name: content}`` entry under --output, in order, and
    return the paths written.

    A name without a suffix is a report table, written in --format: CSV, or
    JSON as a list of one object per row.  A ``.json`` name is a JSON
    payload, and a ``.csv`` name a CSV table whatever --format says.
    """
    cfg.output.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in outputs.items():
        path = cfg.output / name
        if not path.suffix:
            path = path.with_suffix("." + cfg.format)
            if cfg.format == "json":
                content = [dict(zip(content, row)) for row in zip(*content.values())]
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            if path.suffix == ".csv":
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(content)
                writer.writerows(zip(*map(_cells, content.values())))
            else:
                json.dump(content, fh, indent=2, allow_nan=False)
                fh.write("\n")
        written.append(path)
    return written


def _row_table(header: list[str], rows: list[list]) -> dict[str, tuple]:
    """The table of ``rows``, each holding its cells in ``header`` order."""
    return dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())


# ---------------------------------------------------------------------------
# shared data assembly


def _by_protocol(incidents: Incidents, ids: list[str]) -> dict[str, Incidents]:
    """The incidents of each protocol in ``ids``, in input order."""
    position = {pid: k for k, pid in enumerate(ids)}
    owner = np.array([position.get(pid, -1) for pid in incidents.protocol_id.tolist()], np.int64)
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner, np.arange(len(ids) + 1), sorter=order).tolist()
    return {pid: incidents[order[bounds[k] : bounds[k + 1]]] for k, pid in enumerate(ids)}


def _latest_month(series: dict[Month, float], protocol_id: str) -> Month:
    """Latest month of one protocol's TVL series."""
    if not series:
        raise ConfigError(f"no TVL observations for protocol {protocol_id!r}")
    return max(series)


def _report_row(r: RejectedRow) -> dict:
    return {"line": r.line, "row": list(r.raw), "reason": r.reason}


def _ingest_report_payload(result: IngestResult) -> dict:
    return {
        "rows_total": result.total_rows,
        "rows_accepted": len(result.records),
        "rows_rejected": len(result.rejected),
        "rows_flagged": len(result.flagged),
        "rejected": [_report_row(r) for r in result.rejected],
        "flagged": [_report_row(r) for r in result.flagged],
    }


def _prediction_point(cfg: RunConfig, series, protocol_id: str) -> tuple[float, date]:
    """TVL snapshot feeding predictions and the first day of the month being predicted.

    ``series`` maps the protocol's months to its TVL.  The snapshot is at
    --window-end when the series has that month, else at its latest month.
    """
    month = cfg.window_end if cfg.window_end in series else _latest_month(series, protocol_id)
    if month == Month(9999, 12):
        raise DataError(f"protocol {protocol_id!r}: no calendar month after {month} to predict")
    return series[month], month.plus(1).first_day()


# ---------------------------------------------------------------------------
# commands


def cmd_fit_frequency(cfg: RunConfig) -> list[Path]:
    from . import frequency
    cfg.validate(needs=("incidents", "tvl", "portfolio"))
    ingest = load_incidents(cfg.incidents)
    tvl = load_tvl(cfg.tvl)
    portfolio = load_portfolio(cfg.portfolio)
    incidents_by = _by_protocol(ingest.records, [p.id for p in portfolio.protocols])
    panels = {}
    for proto in portfolio.protocols:
        series = tvl.get(proto.id, {})
        window_end = cfg.window_end or _latest_month(series, proto.id)
        panels[proto.id] = build_monthly_panel(incidents_by[proto.id], series, proto, window_end)

    models: dict[str, frequency.FrequencyModel] = {}
    for proto in portfolio.protocols:
        try:
            models[proto.id] = frequency.fit_frequency(panels[proto.id])
        except NoEventError:
            pass  # reported below through the peer-interval path

    # One pooled fit over the attacked protocols serves every never-attacked one.
    pooled = None
    if len(models) < portfolio.dim:
        with contextlib.suppress(EngineError):  # no pooled fit: no interval
            pooled = frequency.pooled_fit([panels[pid] for pid in sorted(models)])

    header = [
        "protocol_id",
        "alpha0",
        "alpha1",
        "se_alpha0",
        "se_alpha1",
        "penalized",
        "hl_p",
        "prediction_tvl",
        "attack_prob",
        "interval_low",
        "interval_high",
        "note",
    ]
    rows, outputs = [], {}
    for proto in portfolio.protocols:
        tvl_next, _ = _prediction_point(cfg, tvl.get(proto.id, {}), proto.id)
        if proto.id in models:
            model = models[proto.id]
            doc = outputs[f"freq_{proto.id}.json"] = frequency.to_dict(model)
            rows.append(
                [
                    proto.id,
                    doc["alpha0"],
                    doc["alpha1"],
                    doc["se_alpha0"],
                    doc["se_alpha1"],
                    int(doc["penalty"] is not None),
                    None if model.hl is None else model.hl.p_value,
                    tvl_next,
                    frequency.predict_attack_probability(model, tvl_next),
                    None,
                    None,
                    "covariate_dropped" if model.covariate_dropped else "",
                ]
            )
        else:
            lo = hi = None
            if pooled is not None:
                with contextlib.suppress(EngineError):
                    lo, hi = frequency.peer_interval(pooled, tvl_next)
            note = "no events: peer interval"
            if lo is None:
                note = "no events anywhere: interval unavailable"
            rows.append(
                [proto.id, None, None, None, None, None, None, tvl_next, None, lo, hi, note]
            )

    outputs["frequency_report"] = _row_table(header, rows)
    outputs["ingest_report.json"] = _ingest_report_payload(ingest)
    return _write_outputs(cfg, outputs)


def cmd_fit_severity(cfg: RunConfig) -> list[Path]:
    from . import severity
    cfg.validate(needs=("incidents",))
    ingest = load_incidents(cfg.incidents)
    data = severity.training_set(ingest.records)
    model = severity.fit_severity(data)
    if model.low_partial_warning:
        print(
            f"warning: only {model.n_partial} partial-loss observations "
            f"(fewer than {severity.MIN_PARTIAL_OBS}); proportional-loss fit is weakly identified",
            file=sys.stderr,
        )
    kept = data.incidents
    return _write_outputs(cfg, {
        "severity_model.json": severity.to_dict(model),
        "loss_ratios.csv": {
            "index": range(len(kept)),
            "protocol_id": kept.protocol_id.tolist(),
            "date": np.datetime_as_string(kept.day).tolist(),
            "ratio": data.ratios,
        },
        **_qq_table("quantile_residuals.csv", model, data),
        "ingest_report.json": _ingest_report_payload(ingest),
    })


def _load_model(path: Path, what: str, from_dict):
    """``from_dict`` of the JSON object in the fitted-model file at ``path``,
    naming the file in a SchemaError."""
    if not path.exists():
        raise ConfigError(f"missing {what}: {path}")
    doc = read_json_object(path)
    try:
        return from_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _predictions(cfg: RunConfig):
    """What ``price`` and ``simulate`` predict from: the portfolio with its
    protocols in id order, so that no output depends on their order in the
    file; the ids in the file's order, the order of report rows; each
    protocol's ``_prediction_point``; the frequency model of each protocol
    and the severity model, the models from --models else --output.  Each
    frequency model must be its protocol's, and the severity model must
    start by the earliest prediction date."""
    from . import frequency, severity
    cfg.validate(needs=("tvl", "portfolio"))
    loaded = load_portfolio(cfg.portfolio)
    order = sorted(range(loaded.dim), key=lambda k: loaded.protocols[k].id)
    portfolio = replace(loaded, protocols=tuple(loaded.protocols[k] for k in order),
                        similarity=loaded.similarity[np.ix_(order, order)])
    tvl = load_tvl(cfg.tvl)
    points = [_prediction_point(cfg, tvl.get(p.id, {}), p.id) for p in portfolio.protocols]
    earliest = min(when for _, when in points)
    models = Path(cfg.models or cfg.output)

    freq_models = {}
    for p in portfolio.protocols:
        path = models / f"freq_{p.id}.json"
        model = _load_model(path, f"frequency model for protocol {p.id!r}", frequency.from_dict)
        if model.protocol_id != p.id:
            raise SchemaError(f"{path}: 'protocol_id' is {model.protocol_id!r}, not {p.id!r}")
        freq_models[p.id] = model
    path = models / "severity_model.json"
    sev_model = _load_model(path, "severity model file", severity.from_dict)
    if sev_model.time_origin > earliest:
        raise SchemaError(f"{path}: 'time_origin' is after the prediction date {earliest}")
    return portfolio, [p.id for p in loaded.protocols], points, freq_models, sev_model


def cmd_price(cfg: RunConfig) -> list[Path]:
    from . import pricing
    if cfg.override is not None:
        quotes = _override_quotes(cfg)
    else:
        portfolio, rows, points, freq_models, sev_model = _predictions(cfg)
        theta = cfg.theta if cfg.theta is not None else portfolio.loading_theta
        by_id = {
            p.id: pricing.price(p, tvl_next, when, freq_models[p.id], sev_model, theta=theta)
            for p, (tvl_next, when) in zip(portfolio.protocols, points)
        }
        quotes = [by_id[pid] for pid in rows]
    return _write_outputs(cfg, {"quotes": {
        "protocol_id": [q.protocol_id for q in quotes],
        "attack_prob": [q.attack_prob for q in quotes],
        "loss_pct": [q.loss_pct for q in quotes],
        "expectation_usd": [q.expectation_premium_usd for q in quotes],
        "expectation_pct": [q.expectation_premium_pct for q in quotes],
        "sd_usd": [q.sd_premium_usd for q in quotes],
        "sd_pct": [q.sd_premium_pct for q in quotes],
        "theta": [q.theta for q in quotes],
        "n_samples": [q.n_samples for q in quotes],
        "seed": [cfg.seed] * len(quotes),
    }})


def _override_quotes(cfg: RunConfig) -> list[pricing.PremiumQuote]:
    """Quotes from externally supplied (attack_prob, loss_pct) pairs.

    Lets published probability/loss-percentage pairs be priced without the
    training data.  SD-principle columns need a second_moment_pct entry
    per protocol and stay empty otherwise.
    """
    from . import pricing
    cfg.validate(needs=("override",) if cfg.portfolio is None else ("override", "portfolio"))
    doc = read_json_object(cfg.override)
    theta = cfg.theta if cfg.theta is not None else pricing.DEFAULT_THETA
    if cfg.portfolio is not None:
        portfolio = load_portfolio(cfg.portfolio)
        order = [p.id for p in portfolio.protocols]
        if cfg.theta is None:
            theta = portfolio.loading_theta
    else:
        order = list(doc.keys())

    quotes = []
    unit, positive = finite(0.0, 1.0), finite(0.0, math.inf, above=True)
    for pid in order:
        if pid not in doc:
            raise ConfigError(f"override file has no entry for protocol {pid!r}")
        entry = doc[pid]
        try:
            attack_prob, loss_pct = unit(entry["attack_prob"]), unit(entry["loss_pct"])
            tvl = positive(entry.get("tvl", 1.0))
            second = entry.get("second_moment_pct")
            second = None if second is None else real(second)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"override entry for {pid!r} needs numeric attack_prob and loss_pct in [0, 1] "
                "and a positive finite tvl"
            ) from exc
        if second is not None and not loss_pct * loss_pct <= second <= loss_pct:
            raise ConfigError(
                f"override entry for {pid!r} needs second_moment_pct in [loss_pct^2, loss_pct] "
                f"= [{loss_pct * loss_pct!r}, {loss_pct!r}], got {second!r}"
            )
        q = pricing.quote(pid, attack_prob, tvl, loss_pct, second, theta, n_samples=0)
        if not all(math.isfinite(v or 0.0) for v in (q.expectation_premium_usd, q.sd_premium_usd)):
            raise ConfigError(f"override entry for {pid!r} gives a premium that is not finite")
        quotes.append(q)
    return quotes


def cmd_simulate(cfg: RunConfig) -> list[Path]:
    from . import frequency, severity, tailrisk
    portfolio, _, points, freq_models, sev_model = _predictions(cfg)
    parts = tailrisk.footprint(cfg.samples, cfg.levels, portfolio.dim, cfg.workers, cfg.dependence)
    need, memory = sum(parts.values()), os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ConfigError(
            f"samples {cfg.samples} at {cfg.workers} workers needs about {need:,} bytes, "
            f"more than the {memory:,} bytes of physical memory"
        )
    tvls = [float(tvl_next) for tvl_next, _ in points]
    probs, laws = [], []
    for p, (tvl_next, when) in zip(portfolio.protocols, points):
        probs.append(frequency.predict_attack_probability(freq_models[p.id], tvl_next))
        laws.append(severity.ratio_law(sev_model, p.chain, tvl_next, when))

    report = tailrisk.risk_report(
        probs,
        tvls,
        laws,
        # Built on the run's pool; called through this module's name, which a tracer may wrap.
        functools.partial(build_copula, portfolio.similarity),
        levels=cfg.levels,
        n_sims=cfg.samples,
        rng=RngStream(cfg.seed, _SIMULATE_STREAM),
        workers=cfg.workers,
        bootstrap_resamples=cfg.bootstrap,
        dependence=cfg.dependence,
    )
    copula = report.copula  # None under --dependence off, which builds none
    return _write_outputs(cfg, {
        "risk_report": report.table,
        "risk_report_meta.json": {
            "n_sims": cfg.samples,
            "seed": cfg.seed,
            "base_stream": _SIMULATE_STREAM,
            "bootstrap_resamples": report.bootstrap_resamples,
            "total_tvl": report.total_tvl,
            "repaired_similarity": None if copula is None else copula.repaired,
            "frobenius_shift": None if copula is None else copula.frobenius_shift,
            "degenerate_tail": list(report.degenerate_tail),
            "var_on_atom": list(report.var_on_atom),
            "dependence": cfg.dependence,
            "workers_independent": True,
        },
    })


def _qq_table(name: str, model: severity.SeverityModel, data: severity.TrainingSet) -> dict:
    """``{name: table}`` of the QQ coordinates of the partial-loss quantile residuals.

    Empty when there are none: no partial losses, or a zero residual variance.
    """
    from . import glm
    design, ratios = data.partial()
    fit = model.proportional_fit
    if fit is None or not len(ratios) or fit.sigma2 == 0.0:
        return {}
    resid = np.sort(glm.quantile_residuals(fit, design, ratios), kind="stable")
    n = len(resid)
    return {name: {
        "index": range(n),
        "theoretical_quantile": [std_normal_quantile((k + 0.5) / n) for k in range(n)],
        "sample_quantile": resid,
    }}


def cmd_gof(cfg: RunConfig) -> list[Path]:
    from . import frequency, glm, severity
    cfg.validate(needs=("model", "incidents"))

    def from_dict(doc: dict):
        if "alpha0" in doc:
            return frequency.from_dict(doc)
        if "beta" in doc or "gamma" in doc:
            return severity.from_dict(doc)
        raise ConfigError(f"{cfg.model}: unrecognized model file")

    model = _load_model(cfg.model, "model file", from_dict)
    if isinstance(model, frequency.FrequencyModel):
        cfg.validate(needs=("tvl", "portfolio"))
        portfolio = load_portfolio(cfg.portfolio)
        matches = [p for p in portfolio.protocols if p.id == model.protocol_id]
        if not matches:
            raise ConfigError(f"portfolio has no protocol {model.protocol_id!r}")
        ingest = load_incidents(cfg.incidents)
        series = load_tvl(cfg.tvl).get(model.protocol_id, {})
        panel = build_monthly_panel(ingest.records, series, matches[0], model.training_window[1])
        hl = frequency.panel_hl(model, panel)
        outputs = {"gof.json": {
            "model": "frequency",
            "protocol_id": model.protocol_id,
            "hl": None if hl is None else hl.to_dict(),
        }}
    else:
        ingest = load_incidents(cfg.incidents)
        data = severity.training_set(ingest.records, model.training_window, model.time_origin)
        total = data.total
        hl = None
        if model.total_loss_fit is not None and len(total):
            hl = glm.hosmer_lemeshow(model.total_loss_fit, data.design, total.astype(float))
        outputs = {**_qq_table("gof_quantile_residuals.csv", model, data), "gof.json": {
            "model": "severity",
            "n_total": int(total.sum()),
            "n_partial": int((~total).sum()),
            "hl": None if hl is None else hl.to_dict(),
        }}
    return _write_outputs(cfg, outputs)


def cmd_summarize(cfg: RunConfig) -> list[Path]:
    cfg.validate(needs=("incidents",))
    records = load_incidents(cfg.incidents).records
    header = ["section", "key", "metric", "value"]
    if not len(records):
        return _write_outputs(cfg, {"summary": _row_table(header, [["notice", "", "empty", 0]])})

    def _stats(values: np.ndarray) -> list[tuple[str, float | None]]:
        # Scaling by a power of two is exact, and it keeps the sums of
        # losses near the float maximum finite.
        k = math.frexp(float(np.abs(values).max()))[1]
        arr = np.ldexp(values, -k)
        sd = math.ldexp(float(arr.std(ddof=1)), k) if arr.size > 1 else None
        return [
            ("count", int(arr.size)),
            ("median", math.ldexp(float(np.median(arr)), k)),
            ("mean", math.ldexp(float(arr.mean()), k)),
            ("sd", sd),
        ]

    year = records.day.astype("datetime64[Y]").astype(np.int64) + 1970
    by_year = [(str(y), year == y) for y in np.unique(year).tolist()]
    by_issue = [(issue.value, records.issue == issue) for issue in IssueType]
    by_chain = [(chain.value, records.chain == chain) for chain in Chain]
    rows: list[list] = []
    for section, groups in zip(
        ("events_by_year", "events_by_issue_type", "events_by_chain"), (by_year, by_issue, by_chain)
    ):
        rows += [[section, key, "count", int(np.count_nonzero(mask))] for key, mask in groups]
    rows += [["severity_usd", "all", metric, value] for metric, value in _stats(records.loss_usd)]
    positive = records.loss_usd > 0.0
    log_loss = np.fromiter(map(math.log, records.loss_usd[positive].tolist()), float)
    for section, groups in (("log_severity_by_chain", by_chain), ("log_severity_by_year", by_year)):
        for key, mask in groups:
            vals = log_loss[mask[positive]]
            if vals.size:
                rows += [[section, key, metric, value] for metric, value in _stats(vals)]
    return _write_outputs(cfg, {"summary": _row_table(header, rows)})


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "fit-frequency": cmd_fit_frequency,
    "fit-severity": cmd_fit_severity,
    "price": cmd_price,
    "simulate": cmd_simulate,
    "gof": cmd_gof,
    "summarize": cmd_summarize,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a rejected flag exits 2 with a JSON error; subparsers inherit it
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="defirisk",
        description="Frequency-severity pricing and tail-risk engine for protocol portfolios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, (_, help_text, command) in _SETTINGS.items():
            if command in (None, name):
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        cfg = build_config(args)
        written = _COMMANDS[args.command](cfg)
        for path in written:
            print(f"wrote {path}")
        return 0
    except (EngineError, OSError) as exc:
        code = exc.code if isinstance(exc, EngineError) else 2
        payload = {"error": {"type": type(exc).__name__, "message": str(exc), "code": code}}
        print(json.dumps(payload), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
