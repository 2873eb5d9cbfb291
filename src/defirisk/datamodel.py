"""Domain types, file ingestion, monthly panel construction, loss ratios.

All types are immutable values; ingestion is loss-free in the sense that
every input row lands either in the accepted records or in the parse
report with a reason.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date
from enum import Enum

import numpy as np

from .errors import DataError, DomainError, SchemaError, TvlGapError
from .numerics import check_similarity


class Chain(Enum):
    ETH = "ETH"
    BSC = "BSC"
    OTHER = "OTHER"

    @classmethod
    def parse(cls, raw: str) -> "Chain":
        """Known chains map to themselves, everything else to OTHER."""
        try:
            return cls[raw.strip().upper()]
        except KeyError:
            return cls.OTHER


class IssueType(Enum):
    ACCESS_CONTROL = "access_control"
    FLASH_LOAN = "flash_loan"
    ORACLE = "oracle"
    PHISHING = "phishing"
    REENTRANCY = "reentrancy"
    OTHER = "other"

    @classmethod
    def parse(cls, raw: str) -> "IssueType":
        key = raw.strip().lower()
        for member in cls:
            if member.value == key:
                return member
        return cls.OTHER


@dataclass(frozen=True, order=True, slots=True)
class Month:
    """Calendar month with integer arithmetic and ISO parsing."""

    year: int
    month: int

    def __post_init__(self):
        if not (1 <= self.month <= 12):
            raise DomainError(f"month must be 1..12, got {self.month}")

    @classmethod
    def parse(cls, raw: str) -> "Month":
        parts = raw.strip().split("-")
        if len(parts) != 2:
            raise SchemaError(f"month must be YYYY-MM, got {raw!r}")
        try:
            month = cls(int(parts[0]), int(parts[1]))
        except (ValueError, DomainError) as exc:
            raise SchemaError(f"month must be YYYY-MM with MM in 01..12, got {raw!r}") from exc
        if not 1 <= month.year <= 9999:
            raise SchemaError(f"month must be YYYY-MM with YYYY in 0001..9999, got {raw!r}")
        return month

    @classmethod
    def of(cls, d: date) -> "Month":
        return cls(d.year, d.month)

    @classmethod
    def from_index(cls, index: int) -> "Month":
        return cls(index // 12, index % 12 + 1)

    @property
    def index(self) -> int:
        return self.year * 12 + self.month - 1

    def first_day(self) -> date:
        return date(self.year, self.month, 1)

    def plus(self, months: int) -> "Month":
        return Month.from_index(self.index + months)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def parse_window(raw) -> tuple[Month, Month]:
    """A training window stored as a ``[start, end]`` pair of YYYY-MM strings."""
    start, end = raw
    start, end = Month.parse(start), Month.parse(end)
    if end < start:
        raise ValueError(f"window end {end} precedes its start {start}")
    return start, end


def month_range(start: Month, end: Month) -> list[Month]:
    """All months from start to end inclusive."""
    if end < start:
        raise DomainError(f"month range end {end} precedes start {start}")
    return [Month.from_index(i) for i in range(start.index, end.index + 1)]


@dataclass(frozen=True, slots=True)
class IncidentRecord:
    """One security event: where, when, how, and how much was lost."""

    protocol_id: str
    date: date
    chain: Chain
    issue_type: IssueType
    loss_usd: float
    tvl_usd: float | None  # snapshot one day before the attack; may be absent


@dataclass(frozen=True, slots=True)
class TvlObservation:
    protocol_id: str
    month: Month
    tvl_usd: float


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    id: str
    chain: Chain
    inception: Month
    description: str = ""


@dataclass(frozen=True)
class Portfolio:
    """Ordered protocols plus their similarity matrix and loading."""

    protocols: tuple[ProtocolSpec, ...]
    similarity: np.ndarray
    loading_theta: float

    def __post_init__(self):
        ids = [p.id for p in self.protocols]
        if len(set(ids)) != len(ids):
            raise DataError("protocol ids must be unique within a portfolio")
        sim = np.asarray(self.similarity, dtype=float)
        d = len(self.protocols)
        if sim.shape != (d, d):
            raise DataError(f"similarity must be {d}x{d}, got {sim.shape}")
        sim = check_similarity(sim)
        if not 0.0 < self.loading_theta < math.inf:
            raise DataError(f"loading theta must be positive and finite, got {self.loading_theta}")
        sim = sim.copy()
        sim.setflags(write=False)
        object.__setattr__(self, "similarity", sim)

    @property
    def dim(self) -> int:
        return len(self.protocols)


@dataclass(frozen=True, slots=True)
class MonthlyPanelRow:
    protocol_id: str
    month: Month
    event: int  # 1 iff at least one incident that month
    log_tvl: float


@dataclass(frozen=True, slots=True)
class RejectedRow:
    line: int
    raw: tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class IngestResult:
    """Accepted records plus the full parse report.

    ``flagged`` rows were accepted but carry a caveat (currently: zero-loss
    incidents, which count for frequency but have no severity observation).
    """

    records: tuple[IncidentRecord, ...]
    rejected: tuple[RejectedRow, ...]
    flagged: tuple[RejectedRow, ...]

    @property
    def total_rows(self) -> int:
        return len(self.records) + len(self.rejected)


INCIDENTS_HEADER = ["protocol_id", "date", "chain", "issue_type", "loss_usd", "tvl_usd"]
TVL_HEADER = ["protocol_id", "month", "tvl_usd"]


def _parse_amount(name: str, raw: str) -> tuple[float | None, str | None]:
    """(value, None) for a finite nonnegative USD amount, else (None, reason)."""
    try:
        value = float(raw)
    except ValueError:
        return None, f"bad {name} {raw!r}"
    if not math.isfinite(value):
        return None, f"non-finite {name} {raw}"
    if value < 0.0:
        return None, f"negative {name} {raw}"
    return value, None


def _csv_rows(path, header: list[str], what: str):
    """(line, cells) of each non-blank row of a CSV file under ``header``.

    An empty file, another header, or bytes that are not UTF-8 text are a
    SchemaError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise SchemaError(f"{path}: empty {what} file")
            if [h.strip() for h in first] != header:
                raise SchemaError(f"{path}: bad {what} header {first!r}, expected {header}")
            for line, row in enumerate(reader, start=2):
                if row and any(cell.strip() for cell in row):
                    yield line, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: not a readable {what} CSV: {exc}") from exc


def load_incidents(path) -> IngestResult:
    """Parse an incidents CSV; bad rows land in the report, never vanish."""
    records: list[IncidentRecord] = []
    rejected: list[RejectedRow] = []
    flagged: list[RejectedRow] = []
    for line, row in _csv_rows(path, INCIDENTS_HEADER, "incidents"):
        if len(row) != len(INCIDENTS_HEADER):
            rejected.append(RejectedRow(line, tuple(row), "wrong number of fields"))
            continue
        pid, date_raw, chain_raw, issue_raw, loss_raw, tvl_raw = (c.strip() for c in row)
        if not pid:
            rejected.append(RejectedRow(line, tuple(row), "empty protocol_id"))
            continue
        try:
            when = date.fromisoformat(date_raw)
        except ValueError:
            rejected.append(RejectedRow(line, tuple(row), f"bad date {date_raw!r}"))
            continue
        loss, reason = _parse_amount("loss_usd", loss_raw)
        tvl = None
        if reason is None and tvl_raw:
            tvl, reason = _parse_amount("tvl_usd", tvl_raw)
        if reason is not None:
            rejected.append(RejectedRow(line, tuple(row), reason))
            continue
        record = IncidentRecord(
            protocol_id=pid,
            date=when,
            chain=Chain.parse(chain_raw),
            issue_type=IssueType.parse(issue_raw),
            loss_usd=loss,
            tvl_usd=tvl,
        )
        if loss == 0.0:
            flagged.append(
                RejectedRow(line, tuple(row), "zero loss: excluded from severity fitting")
            )
        records.append(record)
    return IngestResult(tuple(records), tuple(rejected), tuple(flagged))


def load_tvl(path) -> tuple[TvlObservation, ...]:
    """Parse a monthly TVL CSV; a zero TVL, or two for one (protocol, month), is an error."""
    out: list[TvlObservation] = []
    seen: set[tuple[str, Month]] = set()
    for line, row in _csv_rows(path, TVL_HEADER, "tvl"):
        if len(row) != len(TVL_HEADER):
            raise SchemaError(f"{path}:{line}: wrong number of fields")
        pid, month_raw, tvl_raw = (c.strip() for c in row)
        try:
            month = Month.parse(month_raw)
        except SchemaError as exc:
            raise SchemaError(f"{path}:{line}: {exc}") from exc
        tvl, reason = _parse_amount("tvl_usd", tvl_raw)
        if reason is None and tvl == 0.0:
            reason = f"zero tvl_usd {tvl_raw}: log TVL undefined"
        if reason is not None:
            raise SchemaError(f"{path}:{line}: {reason}")
        key = (pid, month)
        if key in seen:
            raise DataError(f"{path}:{line}: duplicate TVL observation for {pid} {month}")
        seen.add(key)
        out.append(TvlObservation(pid, month, tvl))
    return tuple(out)


def read_json_object(path) -> dict:
    """The JSON object a portfolio, config, override or fitted-model file holds."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_portfolio(path) -> Portfolio:
    """Parse the portfolio JSON: protocols, similarity matrix, theta."""
    doc = read_json_object(path)
    for key in ("protocols", "similarity", "theta"):
        if key not in doc:
            raise SchemaError(f"{path}: missing portfolio key {key!r}")
    if not isinstance(doc["protocols"], list):
        raise SchemaError(f"{path}: protocols must be a list")
    protocols = []
    for entry in doc["protocols"]:
        try:
            protocols.append(
                ProtocolSpec(
                    id=str(entry["id"]),
                    chain=Chain.parse(str(entry["chain"])),
                    inception=Month.parse(str(entry["inception"])),
                    description=str(entry.get("description", "")),
                )
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"{path}: bad protocol entry {entry!r}") from exc
    try:
        return Portfolio(
            protocols=tuple(protocols),
            similarity=np.asarray(doc["similarity"], dtype=float),
            loading_theta=float(doc["theta"]),
        )
    except (ValueError, TypeError, OverflowError, DomainError) as exc:
        raise SchemaError(f"{path}: bad portfolio payload: {exc}") from exc


def build_monthly_panel(
    incidents,
    tvl,
    protocol: ProtocolSpec,
    window_end: Month,
) -> tuple[MonthlyPanelRow, ...]:
    """One row per month from inception to window_end.

    Multiple incidents inside one month collapse to a single event; a
    missing or zero TVL month is an error, never interpolated.
    """
    if window_end < protocol.inception:
        raise DataError(
            f"protocol {protocol.id!r}: window end {window_end} precedes inception "
            f"{protocol.inception}"
        )
    months = month_range(protocol.inception, window_end)
    tvl_by_month = {obs.month: obs.tvl_usd for obs in tvl if obs.protocol_id == protocol.id}
    event_months = {
        Month.of(rec.date)
        for rec in incidents
        if rec.protocol_id == protocol.id and protocol.inception <= Month.of(rec.date) <= window_end
    }
    rows = []
    for m in months:
        if m not in tvl_by_month:
            raise TvlGapError(protocol.id, str(m))
        value = tvl_by_month[m]
        if value <= 0.0:
            raise DomainError(f"protocol {protocol.id!r}: TVL for {m} is zero; log undefined")
        rows.append(
            MonthlyPanelRow(
                protocol_id=protocol.id,
                month=m,
                event=1 if m in event_months else 0,
                log_tvl=math.log(value),
            )
        )
    return tuple(rows)


def derive_loss_ratio(incident: IncidentRecord) -> float:
    """Loss as a fraction of TVL, in (0, 1].

    Missing or zero TVL means the lost funds stand in for the TVL, i.e. a
    total loss; recorded losses above TVL clip to 1.
    """
    if incident.loss_usd <= 0.0:
        raise DomainError(
            f"incident {incident.protocol_id} {incident.date}: zero loss has no severity observation"
        )
    if incident.tvl_usd is None or incident.tvl_usd == 0.0:
        return 1.0
    return min(incident.loss_usd / incident.tvl_usd, 1.0)


def effective_tvl(incident: IncidentRecord) -> float:
    """TVL used as the severity covariate; the loss itself when TVL is absent."""
    if incident.tvl_usd is None or incident.tvl_usd == 0.0:
        return incident.loss_usd
    return incident.tvl_usd
