"""Command-line surface for the pricing and risk engine.

Subcommands: fit-frequency, fit-severity, price, simulate, gof, summarize.
Every command is a pure function of (input files, config, seed): reruns
with the same inputs produce byte-identical output files, and the
``--workers`` flag never changes results, only wall time.

Only simulate draws random numbers, from stream 1000 of --seed and its
children.  price is deterministic: its quotes depend on neither --seed nor
--samples nor a protocol's position in the portfolio.

Exit codes: 0 success, 2 configuration/schema error, 3 numerical failure;
errors are emitted as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from . import frequency, glm, pricing, severity, tailrisk
from .datamodel import (
    Chain,
    IngestResult,
    IssueType,
    Month,
    Portfolio,
    RejectedRow,
    build_monthly_panel,
    load_incidents,
    load_portfolio,
    load_tvl,
    read_json_object,
)
from .dependence import build_copula
from .errors import ConfigError, DataError, EngineError, NoEventError, SchemaError
from .numerics import RngStream, std_normal_quantile

_SIMULATE_STREAM = 1000

@dataclass
class RunConfig:
    """Resolved run configuration (defaults < config file < CLI flags)."""

    incidents: Path | None = None
    tvl: Path | None = None
    portfolio: Path | None = None
    models: Path | None = None
    output: Path = Path("out")
    seed: int = 0
    n_samples: int = 100_000
    theta: float | None = None
    levels: tuple[float, ...] = (0.90, 0.95, 0.99)
    output_format: str = "csv"
    workers: int = 1
    dependence: str = "both"
    window_end: Month | None = None
    bootstrap: int = 200
    override: Path | None = None
    model: Path | None = None

    def validate(self, needs: tuple[str, ...]) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.n_samples < 10_000:
            raise ConfigError(f"samples must be at least 10^4, got {self.n_samples}")
        if self.theta is not None and not 0.0 < self.theta < math.inf:
            raise ConfigError(f"theta must be positive and finite, got {self.theta}")
        if not self.levels or any(not (0.0 < q < 1.0) for q in self.levels):
            raise ConfigError(f"levels must be one or more in (0, 1), got {self.levels}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.output_format}")
        if self.dependence not in ("on", "off", "both"):
            raise ConfigError(f"dependence must be on/off/both, got {self.dependence}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.bootstrap < 2:
            raise ConfigError(f"bootstrap must be at least 2, got {self.bootstrap}")
        for name in needs:
            value = getattr(self, name)
            if value is None:
                raise ConfigError(f"missing required path --{name.replace('_', '-')}")
            if not Path(value).exists():
                raise ConfigError(f"{name} path does not exist: {value}")


def _load_config_file(path: Path) -> dict:
    doc = read_json_object(path)
    unknown = set(doc) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return doc


def _parse_levels(raw) -> tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(float(v) for v in raw)
    try:
        return tuple(float(part) for part in str(raw).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad levels {raw!r}") from exc


# Each setting a config-file key and the flag of the same name can give:
# key -> (RunConfig field, conversion of the raw value).
_SETTINGS = {
    "incidents": ("incidents", Path),
    "tvl": ("tvl", Path),
    "portfolio": ("portfolio", Path),
    "models": ("models", Path),
    "output": ("output", Path),
    "override": ("override", Path),
    "model": ("model", Path),
    "seed": ("seed", int),
    "samples": ("n_samples", int),
    "theta": ("theta", float),
    "levels": ("levels", _parse_levels),
    "format": ("output_format", str),
    "workers": ("workers", int),
    "dependence": ("dependence", str),
    "bootstrap": ("bootstrap", int),
    "window_end": ("window_end", lambda raw: Month.parse(str(raw))),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by the flags given."""
    cfg = RunConfig()
    doc = _load_config_file(Path(args.config)) if args.config else {}
    for source in (doc, vars(args)):
        for key, (attr, cast) in _SETTINGS.items():
            if source.get(key) is not None:
                try:
                    setattr(cfg, attr, cast(source[key]))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"bad {key} {source[key]!r:.60}") from exc
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, numpy scalars included
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _rows_to_json(header: list[str], rows: list[list]) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def _emit_table(cfg: RunConfig, stem: str, header: list[str], rows: list[list]) -> Path:
    cfg.output.mkdir(parents=True, exist_ok=True)
    if cfg.output_format == "csv":
        path = cfg.output / f"{stem}.csv"
        _write_csv(path, header, rows)
    else:
        path = cfg.output / f"{stem}.json"
        _write_json(path, _rows_to_json(header, rows))
    return path


# ---------------------------------------------------------------------------
# shared data assembly


def _by_protocol(records) -> dict[str, list]:
    """Incident records grouped by ``protocol_id``, in input order."""
    groups: dict[str, list] = {}
    for rec in records:
        groups.setdefault(rec.protocol_id, []).append(rec)
    return groups


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


def _prediction_point(cfg: RunConfig, series, protocol_id: str) -> tuple[float, Month]:
    """TVL snapshot feeding predictions and the month being predicted.

    ``series`` maps the protocol's months to its TVL.  The snapshot is at
    --window-end when the series has that month, else at its latest month.
    """
    month = cfg.window_end if cfg.window_end in series else _latest_month(series, protocol_id)
    if month == Month(9999, 12):
        raise DataError(f"protocol {protocol_id!r}: no calendar month after {month} to predict")
    return series[month], month.plus(1)


# ---------------------------------------------------------------------------
# commands


def cmd_fit_frequency(cfg: RunConfig) -> list[Path]:
    cfg.validate(needs=("incidents", "tvl", "portfolio"))
    ingest = load_incidents(cfg.incidents)
    tvl = load_tvl(cfg.tvl)
    portfolio = load_portfolio(cfg.portfolio)
    incidents_by = _by_protocol(ingest.records)
    panels = {}
    for proto in portfolio.protocols:
        series = tvl.get(proto.id, {})
        window_end = cfg.window_end or _latest_month(series, proto.id)
        panels[proto.id] = build_monthly_panel(
            incidents_by.get(proto.id, []), series, proto, window_end
        )

    cfg.output.mkdir(parents=True, exist_ok=True)
    written = []
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
            pooled = frequency.pooled_fit([panels[pid] for pid in models])

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
    rows = []
    for proto in portfolio.protocols:
        tvl_next, _ = _prediction_point(cfg, tvl.get(proto.id, {}), proto.id)
        if proto.id in models:
            model = models[proto.id]
            path = cfg.output / f"freq_{proto.id}.json"
            doc = frequency.to_dict(model)
            _write_json(path, doc)
            written.append(path)
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

    written.append(_emit_table(cfg, "frequency_report", header, rows))
    report_path = cfg.output / "ingest_report.json"
    _write_json(report_path, _ingest_report_payload(ingest))
    written.append(report_path)
    return written


def cmd_fit_severity(cfg: RunConfig) -> list[Path]:
    cfg.validate(needs=("incidents",))
    ingest = load_incidents(cfg.incidents)
    data = severity.training_set(ingest.records)
    model = severity.fit_severity(data)
    cfg.output.mkdir(parents=True, exist_ok=True)
    written = []

    model_path = cfg.output / "severity_model.json"
    _write_json(model_path, severity.to_dict(model))
    written.append(model_path)

    # Plot-ready diagnostics are always CSV regardless of --format.
    ratios_rows = [
        [index, rec.protocol_id, rec.date.isoformat(), float(ratio)]
        for index, (rec, ratio) in enumerate(zip(data.records, data.ratios))
    ]
    ratios_path = cfg.output / "loss_ratios.csv"
    _write_csv(ratios_path, ["index", "protocol_id", "date", "ratio"], ratios_rows)
    written.append(ratios_path)

    qq_path = _write_qq_table(cfg.output / "quantile_residuals.csv", model, data)
    if qq_path is not None:
        written.append(qq_path)

    if model.low_partial_warning:
        print(
            f"warning: only {model.n_partial} partial-loss observations "
            f"(fewer than {severity.MIN_PARTIAL_OBS}); proportional-loss fit is weakly identified",
            file=sys.stderr,
        )

    report_path = cfg.output / "ingest_report.json"
    _write_json(report_path, _ingest_report_payload(ingest))
    written.append(report_path)
    return written


def _read_model(path: Path, what: str) -> dict:
    """The JSON object of a fitted-model file."""
    if not path.exists():
        raise ConfigError(f"missing {what}: {path}")
    return read_json_object(path)


def _rebuild_model(path: Path, doc: dict, from_dict):
    """``from_dict(doc)``, naming the file in a schema error."""
    try:
        return from_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _load_model(cfg: RunConfig, name: str, what: str, from_dict):
    path = Path(cfg.models or cfg.output) / name
    return _rebuild_model(path, _read_model(path, what), from_dict)


def _load_frequency_models(cfg: RunConfig, portfolio: Portfolio):
    return {
        proto.id: _load_model(
            cfg,
            f"freq_{proto.id}.json",
            f"frequency model for protocol {proto.id!r}",
            frequency.from_dict,
        )
        for proto in portfolio.protocols
    }


def _load_severity_model(cfg: RunConfig, earliest: date) -> severity.SeverityModel:
    """The severity model, which must start by ``earliest``, its first prediction date."""
    model = _load_model(cfg, "severity_model.json", "severity model file", severity.from_dict)
    if model.time_origin > earliest:
        path = Path(cfg.models or cfg.output) / "severity_model.json"
        raise SchemaError(f"{path}: 'time_origin' is after the prediction date {earliest}")
    return model


_QUOTE_HEADER = [
    "protocol_id",
    "attack_prob",
    "loss_pct",
    "expectation_usd",
    "expectation_pct",
    "sd_usd",
    "sd_pct",
    "theta",
    "n_samples",
    "seed",
]


def cmd_price(cfg: RunConfig) -> list[Path]:
    if cfg.override is not None:
        return _price_from_override(cfg)
    cfg.validate(needs=("tvl", "portfolio"))
    portfolio = load_portfolio(cfg.portfolio)
    tvl = load_tvl(cfg.tvl)
    points = [_prediction_point(cfg, tvl.get(p.id, {}), p.id) for p in portfolio.protocols]
    freq_models = _load_frequency_models(cfg, portfolio)
    sev_model = _load_severity_model(cfg, min(month for _, month in points).first_day())
    theta = cfg.theta if cfg.theta is not None else portfolio.loading_theta

    rows = []
    for proto, (tvl_next, pred_month) in zip(portfolio.protocols, points):
        quote = pricing.price(
            proto, tvl_next, pred_month.first_day(), freq_models[proto.id], sev_model, theta=theta
        )
        rows.append(
            [
                quote.protocol_id,
                quote.attack_prob,
                quote.loss_pct,
                quote.expectation_premium_usd,
                quote.expectation_premium_pct,
                quote.sd_premium_usd,
                quote.sd_premium_pct,
                quote.theta,
                quote.n_samples,
                cfg.seed,
            ]
        )
    return [_emit_table(cfg, "quotes", _QUOTE_HEADER, rows)]


def _price_from_override(cfg: RunConfig) -> list[Path]:
    """Quotes from externally supplied (attack_prob, loss_pct) pairs.

    Lets published probability/loss-percentage pairs be priced without the
    training data.  SD-principle columns need a second_moment_pct entry
    per protocol and stay empty otherwise.
    """
    cfg.validate(needs=("override",))
    doc = read_json_object(cfg.override)
    theta = cfg.theta if cfg.theta is not None else pricing.DEFAULT_THETA
    if cfg.portfolio is not None and Path(cfg.portfolio).exists():
        portfolio = load_portfolio(cfg.portfolio)
        order = [p.id for p in portfolio.protocols]
        if cfg.theta is None:
            theta = portfolio.loading_theta
    else:
        order = list(doc.keys())

    rows = []
    for pid in order:
        if pid not in doc:
            raise ConfigError(f"override file has no entry for protocol {pid!r}")
        entry = doc[pid]
        try:
            attack_prob = float(entry["attack_prob"])
            loss_pct = float(entry["loss_pct"])
            tvl = float(entry.get("tvl", 1.0))
            second = entry.get("second_moment_pct")
            second = None if second is None else float(second)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"override entry for {pid!r} needs numeric attack_prob and loss_pct"
            ) from exc
        if not (0.0 <= attack_prob <= 1.0 and 0.0 <= loss_pct <= 1.0 and 0.0 < tvl < math.inf):
            raise ConfigError(
                f"override entry for {pid!r} needs attack_prob and loss_pct in [0, 1] "
                "and a positive finite tvl"
            )
        if second is not None and not loss_pct * loss_pct <= second <= loss_pct:
            raise ConfigError(
                f"override entry for {pid!r} needs second_moment_pct in [loss_pct^2, loss_pct] "
                f"= [{loss_pct * loss_pct!r}, {loss_pct!r}], got {second!r}"
            )
        e_y2 = math.nan if second is None else tvl * tvl * second
        expectation_usd, sd_usd = pricing.premiums(attack_prob, tvl * loss_pct, e_y2, theta)
        if not math.isfinite(expectation_usd) or (second is not None and not math.isfinite(sd_usd)):
            raise ConfigError(f"override entry for {pid!r} gives a premium that is not finite")
        if second is None:
            sd_usd = None  # no second moment supplied: the SD premium is undefined
        rows.append(
            [
                pid,
                attack_prob,
                loss_pct,
                expectation_usd,
                expectation_usd / tvl,
                sd_usd,
                None if sd_usd is None else sd_usd / tvl,
                theta,
                0,
                cfg.seed,
            ]
        )
    return [_emit_table(cfg, "quotes", _QUOTE_HEADER, rows)]


def cmd_simulate(cfg: RunConfig) -> list[Path]:
    cfg.validate(needs=("tvl", "portfolio"))
    portfolio = load_portfolio(cfg.portfolio)
    tvl = load_tvl(cfg.tvl)
    points = [_prediction_point(cfg, tvl.get(p.id, {}), p.id) for p in portfolio.protocols]
    tvls = {p.id: tvl_next for p, (tvl_next, _) in zip(portfolio.protocols, points)}
    when = max(month for _, month in points).first_day()
    freq_models = _load_frequency_models(cfg, portfolio)
    sev_model = _load_severity_model(cfg, when)
    copula = build_copula(portfolio.similarity)

    report = tailrisk.risk_report(
        portfolio,
        freq_models,
        sev_model,
        copula,
        tvls,
        when,
        levels=cfg.levels,
        n_sims=cfg.n_samples,
        rng=RngStream(cfg.seed, _SIMULATE_STREAM),
        workers=cfg.workers,
        bootstrap_resamples=cfg.bootstrap,
        dependence=cfg.dependence,
    )
    header = ["level", *report.columns]
    rows = [[getattr(row, c) for c in header] for row in report.rows]
    paths = [_emit_table(cfg, "risk_report", header, rows)]
    meta_path = cfg.output / "risk_report_meta.json"
    _write_json(
        meta_path,
        {
            "n_sims": report.n_sims,
            "seed": report.seed,
            "base_stream": report.base_stream,
            "bootstrap_resamples": report.bootstrap_resamples,
            "total_tvl": report.total_tvl,
            "repaired_similarity": copula.repaired,
            "frobenius_shift": copula.frobenius_shift,
            "degenerate_tail": list(report.degenerate_tail),
            "var_on_atom": list(report.var_on_atom),
            "dependence": cfg.dependence,
            "workers_independent": True,
        },
    )
    paths.append(meta_path)
    return paths


def _write_qq_table(
    path: Path, model: severity.SeverityModel, data: severity.TrainingSet
) -> Path | None:
    """QQ coordinates of the partial-loss quantile residuals.

    None when there are none: no partial losses, or a zero residual variance.
    """
    design, ratios = data.partial()
    fit = model.proportional_fit
    if fit is None or not len(ratios) or fit.sigma2 == 0.0:
        return None
    resid = np.sort(glm.quantile_residuals(fit, design, ratios), kind="stable")
    n = len(resid)
    rows = [[k, std_normal_quantile((k + 0.5) / n), float(resid[k])] for k in range(n)]
    _write_csv(path, ["index", "theoretical_quantile", "sample_quantile"], rows)
    return path


def cmd_gof(cfg: RunConfig) -> list[Path]:
    cfg.validate(needs=("model", "incidents"))
    doc = _read_model(cfg.model, "model file")
    cfg.output.mkdir(parents=True, exist_ok=True)
    written = []
    if "alpha0" in doc:
        cfg.validate(needs=("tvl", "portfolio"))
        model = _rebuild_model(cfg.model, doc, frequency.from_dict)
        portfolio = load_portfolio(cfg.portfolio)
        matches = [p for p in portfolio.protocols if p.id == model.protocol_id]
        if not matches:
            raise ConfigError(f"portfolio has no protocol {model.protocol_id!r}")
        ingest = load_incidents(cfg.incidents)
        series = load_tvl(cfg.tvl).get(model.protocol_id, {})
        panel = build_monthly_panel(ingest.records, series, matches[0], model.training_window[1])
        hl = glm.hosmer_lemeshow(model.fit, *frequency.panel_design(panel))
        payload = {
            "model": "frequency",
            "protocol_id": model.protocol_id,
            "hl": None if hl is None else hl.to_dict(),
        }
    elif "beta" in doc or "gamma" in doc:
        model = _rebuild_model(cfg.model, doc, severity.from_dict)
        ingest = load_incidents(cfg.incidents)
        data = severity.training_set(ingest.records, model.training_window, model.time_origin)
        total = data.total
        hl = None
        if model.total_loss_fit is not None and len(total):
            hl = glm.hosmer_lemeshow(model.total_loss_fit, data.design, total.astype(float))
        payload = {
            "model": "severity",
            "n_total": int(total.sum()),
            "n_partial": int((~total).sum()),
            "hl": None if hl is None else hl.to_dict(),
        }
        qq_path = _write_qq_table(cfg.output / "gof_quantile_residuals.csv", model, data)
        if qq_path is not None:
            written.append(qq_path)
    else:
        raise ConfigError(f"{cfg.model}: unrecognized model file")
    out = cfg.output / "gof.json"
    _write_json(out, payload)
    written.append(out)
    return written


def cmd_summarize(cfg: RunConfig) -> list[Path]:
    cfg.validate(needs=("incidents",))
    ingest = load_incidents(cfg.incidents)
    records = ingest.records
    rows: list[list] = []
    if not records:
        rows.append(["notice", "", "empty", 0])
        return [_emit_table(cfg, "summary", ["section", "key", "metric", "value"], rows)]

    years = sorted({rec.date.year for rec in records})
    for year in years:
        rows.append(
            ["events_by_year", str(year), "count", sum(1 for r in records if r.date.year == year)]
        )
    for issue in IssueType:
        rows.append(
            [
                "events_by_issue_type",
                issue.value,
                "count",
                sum(1 for r in records if r.issue_type is issue),
            ]
        )
    for chain in Chain:
        rows.append(
            ["events_by_chain", chain.value, "count", sum(1 for r in records if r.chain is chain)]
        )

    def _stats(values: list[float]) -> list[tuple[str, float | None]]:
        # Scaling by a power of two is exact, and it keeps the sums of
        # losses near the float maximum finite.
        k = math.frexp(max(map(abs, values)))[1]
        arr = np.ldexp(np.asarray(values, dtype=float), -k)
        sd = math.ldexp(float(arr.std(ddof=1)), k) if arr.size > 1 else None
        return [
            ("count", int(arr.size)),
            ("median", math.ldexp(float(np.median(arr)), k)),
            ("mean", math.ldexp(float(arr.mean()), k)),
            ("sd", sd),
        ]

    losses = [rec.loss_usd for rec in records]
    for metric, value in _stats(losses):
        rows.append(["severity_usd", "all", metric, value])

    positive = [rec for rec in records if rec.loss_usd > 0.0]
    for chain in Chain:
        vals = [math.log(rec.loss_usd) for rec in positive if rec.chain is chain]
        if vals:
            for metric, value in _stats(vals):
                rows.append(["log_severity_by_chain", chain.value, metric, value])
    for year in years:
        vals = [math.log(rec.loss_usd) for rec in positive if rec.date.year == year]
        if vals:
            for metric, value in _stats(vals):
                rows.append(["log_severity_by_year", str(year), metric, value])

    return [_emit_table(cfg, "summary", ["section", "key", "metric", "value"], rows)]


# ---------------------------------------------------------------------------
# entry point


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="base RNG seed (u64)")
    parser.add_argument("--samples", type=int, help="simulation paths")
    parser.add_argument("--theta", type=float, help="premium loading")
    parser.add_argument("--levels", help="comma-separated confidence levels")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument("--workers", type=int, help="simulation worker threads")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--incidents", help="incidents CSV path")
    parser.add_argument("--tvl", help="monthly TVL CSV path")
    parser.add_argument("--portfolio", help="portfolio JSON path")
    parser.add_argument("--models", help="directory holding fitted model files")


_COMMANDS = {
    "fit-frequency": cmd_fit_frequency,
    "fit-severity": cmd_fit_severity,
    "price": cmd_price,
    "simulate": cmd_simulate,
    "gof": cmd_gof,
    "summarize": cmd_summarize,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defirisk",
        description="Frequency-severity pricing and tail-risk engine for protocol portfolios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _add_common_flags(p)
        if name == "fit-frequency":
            p.add_argument("--window-end", dest="window_end", help="training window end YYYY-MM")
        if name == "price":
            p.add_argument("--override", help="JSON of (attack_prob, loss_pct) pairs to price")
        if name == "simulate":
            p.add_argument("--dependence", choices=("on", "off", "both"))
            p.add_argument("--bootstrap", type=int, help="bootstrap resamples for SEs")
        if name == "gof":
            p.add_argument("--model", help="fitted model JSON to diagnose")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        written = _COMMANDS[args.command](cfg)
        for path in written:
            print(f"wrote {path}")
        return 0
    except EngineError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc), "code": exc.code}}
        print(json.dumps(payload), file=sys.stderr)
        return exc.code
    except OSError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc), "code": 2}}
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
