"""Domain types, columnar file ingestion and monthly panel construction.

All types are immutable values; ingestion is loss-free in the sense that
every input row lands either in the accepted incidents or in the parse
report with a reason.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import closing
from dataclasses import dataclass, fields
from datetime import date
from enum import Enum
from operator import itemgetter

import numpy as np

from .errors import DataError, DomainError, SchemaError, file_name, json_field, real, string
from .numerics import check_unit_symmetric


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
        """Known issue types map to themselves, everything else to OTHER."""
        try:
            return cls(raw.strip().lower())
        except ValueError:
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


@dataclass(frozen=True)
class Incidents:
    """Security events as columns, one entry per event in input order.

    ``day`` holds the dates as ``datetime64[D]``, ``chain`` and ``issue``
    ``Chain`` and ``IssueType`` members, and ``tvl_usd`` the snapshot one
    day before the attack, NaN where absent.
    """

    protocol_id: np.ndarray  # object arrays: ids, chains and issue types
    day: np.ndarray
    chain: np.ndarray
    issue: np.ndarray
    loss_usd: np.ndarray
    tvl_usd: np.ndarray

    def __len__(self) -> int:
        return len(self.loss_usd)

    def __getitem__(self, index) -> "Incidents":
        """The events a boolean mask or an index array selects."""
        return Incidents(*(getattr(self, f.name)[index] for f in fields(self)))

    def month_index(self) -> np.ndarray:
        """``Month.index`` of each event's date."""
        return self.day.astype("datetime64[M]").astype(np.int64) + 1970 * 12


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    id: str
    chain: Chain
    inception: Month
    description: str = ""


@dataclass(frozen=True)
class Portfolio:
    """Ordered protocols plus their similarity matrix and loading.

    The one check of the similarity: d x d, ``check_unit_symmetric`` and
    every entry in [0, 1], positive definite or not.  It is kept as a
    read-only copy.
    """

    protocols: tuple[ProtocolSpec, ...]
    similarity: np.ndarray
    loading_theta: float

    def __post_init__(self):
        ids = [p.id for p in self.protocols]
        if len(set(ids)) != len(ids):
            raise DataError("protocol ids must be unique within a portfolio")
        sim = check_unit_symmetric(self.similarity, "similarity matrix").copy()
        if sim.shape != (self.dim, self.dim):
            raise DataError(f"similarity must be {self.dim}x{self.dim}, got {sim.shape}")
        if sim.min() < 0.0 or sim.max() > 1.0:
            i, j = np.argwhere((sim < 0.0) | (sim > 1.0))[0]
            raise DataError(f"similarity row {i}, column {j} is {sim[i, j]}, outside [0, 1]")
        if not 0.0 < self.loading_theta < math.inf:
            raise DataError(f"loading theta must be positive and finite, got {self.loading_theta}")
        sim.setflags(write=False)
        object.__setattr__(self, "similarity", sim)

    @property
    def dim(self) -> int:
        return len(self.protocols)


@dataclass(frozen=True)
class Panel:
    """One protocol's monthly panel, a float array entry per month from ``start``.

    ``events`` is 1.0 for a month with at least one incident, else 0.0.
    """

    protocol_id: str
    start: Month
    events: np.ndarray
    log_tvl: np.ndarray

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True, slots=True)
class RejectedRow:
    line: int
    raw: tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class IngestResult:
    """Accepted incidents plus the full parse report.

    ``flagged`` rows were accepted but carry a caveat (currently: zero-loss
    incidents, which count for frequency but have no severity observation).
    """

    records: Incidents
    rejected: tuple[RejectedRow, ...]
    flagged: tuple[RejectedRow, ...]

    @property
    def total_rows(self) -> int:
        return len(self.records) + len(self.rejected)


INCIDENTS_HEADER = ["protocol_id", "date", "chain", "issue_type", "loss_usd", "tvl_usd"]
TVL_HEADER = ["protocol_id", "month", "tvl_usd"]


def _parse_amount(name: str, raw: str) -> float:
    """A finite nonnegative USD amount; a SchemaError giving the reason otherwise."""
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"bad {name} {raw!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"non-finite {name} {raw}")
    if value < 0.0:
        raise SchemaError(f"negative {name} {raw}")
    return value


_CSV_BLOCK = 2048  # rows held at once while a CSV file is read


def _csv_rows(path, header: list[str], what: str):
    """Blocks of at most _CSV_BLOCK rows of a CSV file under ``header``: the
    line and the cells of each row, and the cells of each column, where a
    row of another width reads as blank.  The last block may be empty.

    A row's line is its first physical line, which a quoted newline can
    make span several.  Blank rows are included.  An empty file, another
    header, or bytes that are not UTF-8 text are a SchemaError naming the
    file, raised when the reader reaches them.
    """
    blank = ("",) * len(header)

    def block(lines, rows):
        padded = [row if len(row) == len(header) else blank for row in rows]
        return lines, rows, [list(map(itemgetter(k), padded)) for k in range(len(header))]

    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise SchemaError(f"{path}: empty {what} file")
            if [h.strip() for h in first] != header:
                raise SchemaError(f"{path}: bad {what} header {first!r}, expected {header}")
            lines: list[int] = []
            rows: list[tuple[str, ...]] = []
            line = reader.line_num + 1
            for row in reader:
                lines.append(line)
                rows.append(tuple(row))
                line = reader.line_num + 1
                if len(rows) == _CSV_BLOCK:
                    yield block(lines, rows)
                    lines, rows = [], []
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: not a readable {what} CSV: {exc}") from exc
    yield block(lines, rows)


def _each_distinct(
    table: dict, cells: list[str], parse, dtype, error=(), default=None
) -> np.ndarray:
    """``parse`` of each cell, called once per distinct cell not yet in
    ``table``, which keeps the results; ``default`` where it raises ``error``."""
    for raw in set(cells).difference(table):
        try:
            table[raw] = parse(raw)
        except error:
            table[raw] = default
    return np.fromiter(map(table.__getitem__, cells), dtype, len(cells))


def _amounts(cells: list[str]) -> np.ndarray:
    """``float`` of each cell, NaN where it refuses the cell."""

    def parse(text: str) -> float:
        try:
            return float(text) if text else math.nan  # an empty TVL costs no exception
        except ValueError:
            return math.nan

    return np.fromiter(map(parse, cells), np.float64, len(cells))


def _incident_row(row: tuple[str, ...]) -> tuple:
    """(protocol_id, date, chain, issue type, loss, tvl or NaN) of one
    incidents row; a SchemaError giving the reason it is rejected."""
    if len(row) != len(INCIDENTS_HEADER):
        raise SchemaError("wrong number of fields")
    pid, date_raw, chain_raw, issue_raw, loss_raw, tvl_raw = (c.strip() for c in row)
    if not pid:
        raise SchemaError("empty protocol_id")
    try:
        when = date.fromisoformat(date_raw)
    except ValueError:
        raise SchemaError(f"bad date {date_raw!r}") from None
    loss = _parse_amount("loss_usd", loss_raw)
    tvl = _parse_amount("tvl_usd", tvl_raw) if tvl_raw else math.nan
    return pid, when, Chain.parse(chain_raw), IssueType.parse(issue_raw), loss, tvl


def load_incidents(path) -> IngestResult:
    """Parse an incidents CSV; bad rows land in the report, never vanish.

    The file is read a block of rows at a time.  Each column of a block is
    converted whole, and dates, chains and issue types once per distinct
    cell.  A row that fails a column's test goes through ``_incident_row``,
    which accepts it or gives the reason it is rejected.
    """
    dates: dict = {}
    chains: dict = {}
    issues: dict = {}
    parts: list[Incidents] = []
    rejected: list[RejectedRow] = []
    flagged: list[RejectedRow] = []
    for lines, rows, columns in _csv_rows(path, INCIDENTS_HEADER, "incidents"):
        pid, date_raw, chain_raw, issue_raw, loss_raw, tvl_raw = columns
        # Only the ids are stripped here: the parsers strip the other cells,
        # and a cell ``float`` reads with its blanks it reads the same without.
        pid = np.fromiter(map(str.strip, pid), object, len(rows))
        ordinal = _each_distinct(  # 0 where the date is refused
            dates, date_raw, lambda cell: date.fromisoformat(cell.strip()).toordinal(), np.int64,
            ValueError, 0,
        )
        day = (ordinal - date(1970, 1, 1).toordinal()).astype("datetime64[D]")
        chain = _each_distinct(chains, chain_raw, Chain.parse, object)
        issue = _each_distinct(issues, issue_raw, IssueType.parse, object)
        loss, tvl = _amounts(loss_raw), _amounts(tvl_raw)
        tvl_ok = (np.array(tvl_raw, dtype=object) == "") | ((tvl >= 0.0) & (tvl < math.inf))
        accepted = (pid != "") & (ordinal > 0) & (loss >= 0.0) & (loss < math.inf) & tvl_ok
        for i in np.flatnonzero(~accepted).tolist():
            if not "".join(rows[i]).strip():
                continue  # a blank row, which has an empty protocol_id
            try:
                pid[i], day[i], chain[i], issue[i], loss[i], tvl[i] = _incident_row(rows[i])
                accepted[i] = True
            except SchemaError as exc:
                rejected.append(RejectedRow(lines[i], rows[i], str(exc)))
        flagged.extend(
            RejectedRow(lines[i], rows[i], "zero loss: excluded from severity fitting")
            for i in np.flatnonzero(accepted & (loss == 0.0)).tolist()
        )
        parts.append(Incidents(pid, day, chain, issue, loss, tvl)[accepted])
    columns = zip(*([getattr(part, f.name) for f in fields(Incidents)] for part in parts))
    records = Incidents(*map(np.concatenate, columns))
    return IngestResult(records, tuple(rejected), tuple(flagged))


def _tvl_row(path, line: int, row: tuple[str, ...]) -> tuple[str, Month, float]:
    """(protocol_id, month, tvl_usd) of one TVL row; a SchemaError naming
    ``path`` and ``line`` when the row is malformed."""
    try:
        if len(row) != len(TVL_HEADER):
            raise SchemaError("wrong number of fields")
        pid, month_raw, tvl_raw = (c.strip() for c in row)
        if not pid:
            raise SchemaError("empty protocol_id")
        month, tvl = Month.parse(month_raw), _parse_amount("tvl_usd", tvl_raw)
        if tvl == 0.0:
            raise SchemaError(f"zero tvl_usd {tvl_raw}: log TVL undefined")
    except SchemaError as exc:
        raise SchemaError(f"{path}:{line}: {exc}") from exc
    return pid, month, tvl


def load_tvl(path) -> dict[str, dict[Month, float]]:
    """Parse a monthly TVL CSV into ``{protocol_id: {month: tvl_usd}}``.

    An empty protocol_id, a zero TVL, or two for one (protocol, month),
    is an error, and the first failing line in file order is reported.
    The file is read a block of rows at a time; months are parsed once per
    distinct cell and amounts a column at a time; a row that fails those
    goes through ``_tvl_row``, which raises.
    """
    parsed: dict = {}
    out: dict[str, dict[Month, float]] = {}
    # closing: a bad row ends the loop early, and the file closes with it.
    with closing(_csv_rows(path, TVL_HEADER, "tvl")) as blocks:
        for lines, rows, (pid, month_raw, tvl_raw) in blocks:
            months = _each_distinct(parsed, month_raw, Month.parse, object, SchemaError).tolist()
            tvl = _amounts(tvl_raw)
            fast = (np.isfinite(tvl) & (tvl > 0.0)).tolist()
            for i, (key, month, value) in enumerate(zip(map(str.strip, pid), months, tvl.tolist())):
                if not (fast[i] and key and month is not None):
                    if not "".join(rows[i]).strip():
                        continue  # a blank row, which has an empty protocol_id
                    key, month, value = _tvl_row(path, lines[i], rows[i])
                series = out.setdefault(key, {})
                if month in series:
                    raise DataError(
                        f"{path}:{lines[i]}: duplicate TVL observation for {key} {month}"
                    )
                series[month] = value
    return out


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
    """Parse the portfolio JSON: protocols, similarity matrix, theta.

    A protocol's id, chain, inception and description are JSON strings, and
    its id, which names its model file ``freq_<id>.json``, is a ``file_name``.
    Each similarity entry is a ``real``; ``Portfolio`` tests the matrix.
    Every error, ``Portfolio``'s included, is a SchemaError naming the file.
    """
    doc = read_json_object(path)
    for key in ("protocols", "similarity", "theta"):
        if key not in doc:
            raise SchemaError(f"{path}: missing portfolio key {key!r}")
    if not isinstance(doc["protocols"], list):
        raise SchemaError(f"{path}: protocols must be a list")
    protocols = []
    for index, entry in enumerate(doc["protocols"]):
        name = f"protocol entry {index}"
        try:
            pid = json_field(entry, "id", file_name)
            name += f" ({pid!r})"
            protocols.append(
                ProtocolSpec(
                    id=pid,
                    chain=Chain.parse(json_field(entry, "chain", string)),
                    inception=json_field(entry, "inception", lambda raw: Month.parse(string(raw))),
                    description=json_field(entry, "description", string, ""),
                )
            )
        except SchemaError as exc:
            raise SchemaError(f"{path}: {name}: {exc}") from exc
    try:
        return Portfolio(
            protocols=tuple(protocols),
            similarity=json_field(
                doc, "similarity", lambda raw: np.array([list(map(real, row)) for row in raw])
            ),
            loading_theta=json_field(doc, "theta", real),
        )
    except (DataError, DomainError, SchemaError) as exc:
        raise SchemaError(f"{path}: bad portfolio payload: {exc}") from exc


def build_monthly_panel(
    incidents: Incidents,
    series: dict[Month, float],
    protocol: ProtocolSpec,
    window_end: Month,
) -> Panel:
    """The protocol's panel from inception to window_end, from its TVL ``series``.

    Incidents of other protocols or outside the window are ignored, and
    several inside one month collapse to a single event.  A missing or
    zero TVL month is an error, never interpolated; the first in calendar
    order is reported.
    """
    if window_end < protocol.inception:
        raise DataError(
            f"protocol {protocol.id!r}: window end {window_end} precedes inception "
            f"{protocol.inception}"
        )
    first = protocol.inception.index
    n = window_end.index - first + 1
    log_tvl = np.empty(n)
    for k in range(n):
        month = protocol.inception.plus(k)
        value = series.get(month)
        if value is None:
            raise DataError(f"protocol {protocol.id!r}: no TVL observation for {month}")
        if value <= 0.0:
            raise DomainError(f"protocol {protocol.id!r}: TVL for {month} is zero; log undefined")
        log_tvl[k] = math.log(value)
    events = np.zeros(n)
    k = incidents.month_index()[incidents.protocol_id == protocol.id] - first
    events[k[(k >= 0) & (k < n)]] = 1.0
    return Panel(protocol.id, protocol.inception, events, log_tvl)

