import csv
import io
import math
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defirisk import datamodel, severity
from defirisk.datamodel import (
    Chain,
    IssueType,
    Month,
    Portfolio,
    ProtocolSpec,
    build_monthly_panel,
    load_incidents,
    load_portfolio,
    load_tvl,
)
from defirisk.errors import DataError, DomainError, SchemaError

from oracles import incident_file_rows, monthly_panel_rows, tvl_file_series
from synth import incident_rows, incident_table


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


INCIDENTS_HEADER = "protocol_id,date,chain,issue_type,loss_usd,tvl_usd\n"


class TestMonth:
    def test_parse_and_str(self):
        m = Month.parse("2022-03")
        assert (m.year, m.month) == (2022, 3)
        assert str(m) == "2022-03"

    def test_ordering_and_index(self):
        assert Month(2021, 12) < Month(2022, 1)
        assert Month.from_index(Month(2022, 1).index) == Month(2022, 1)

    def test_range_inclusive(self):
        months = [Month(2020, 11).plus(i) for i in range(4)]
        assert [str(m) for m in months] == ["2020-11", "2020-12", "2021-01", "2021-02"]

    def test_bad_parse(self):
        with pytest.raises(SchemaError):
            Month.parse("2022/03")
        with pytest.raises(DomainError):
            Month(2022, 13)

    @pytest.mark.parametrize("raw", ["2022-13", "2022-00", "0000-01", "10000-01", "999999999-01"])
    def test_month_out_of_range_is_schema_error(self, raw):
        with pytest.raises(SchemaError):
            Month.parse(raw)


class TestLoadIncidents:
    def test_optional_tvl_parses_as_absent(self, tmp_path):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + "P1,2022-03-29,ETH,other,600000000,\n")
        result = load_incidents(path)
        assert len(result.records) == 1
        rec = result.records
        assert math.isnan(rec.tvl_usd[0])
        assert rec.loss_usd[0] == 600000000.0
        assert rec.chain[0] is Chain.ETH
        assert rec.issue[0] is IssueType.OTHER

    def test_unknown_chain_maps_to_other(self, tmp_path):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + "P1,2022-01-01,SOLANA,phishing,5,\n")
        result = load_incidents(path)
        assert result.records.chain[0] is Chain.OTHER

    def test_unknown_issue_maps_to_other(self, tmp_path):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + "P1,2022-01-01,BSC,rugpull,5,\n")
        assert load_incidents(path).records.issue[0] is IssueType.OTHER

    def test_negative_loss_rejected_with_reason(self, tmp_path):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + "P1,2022-01-01,ETH,oracle,-5,\n")
        result = load_incidents(path)
        assert len(result.records) == 0
        assert len(result.rejected) == 1
        assert "loss" in result.rejected[0].reason

    @pytest.mark.parametrize(
        "amounts,reason",
        [
            ("nan,", "non-finite loss_usd nan"),
            ("-inf,", "non-finite loss_usd -inf"),
            ("5,inf", "non-finite tvl_usd inf"),
            ("-5,", "negative loss_usd -5"),
            ("5,-1e6", "negative tvl_usd -1e6"),
        ],
    )
    def test_bad_amount_reason(self, tmp_path, amounts, reason):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + f"P1,2022-01-01,ETH,oracle,{amounts}\n")
        result = load_incidents(path)
        assert not result.records
        assert [r.reason for r in result.rejected] == [reason]

    def test_zero_loss_kept_but_flagged(self, tmp_path):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + "P1,2022-01-01,ETH,oracle,0,\n")
        result = load_incidents(path)
        assert len(result.records) == 1
        assert len(result.flagged) == 1
        assert "severity" in result.flagged[0].reason

    def test_bad_date_rejected(self, tmp_path):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + "P1,29-03-2022,ETH,oracle,5,\n")
        result = load_incidents(path)
        assert len(result.rejected) == 1

    def test_ingestion_is_loss_free(self, tmp_path):
        body = (
            "P1,2022-03-29,ETH,other,600000000,\n"
            "P2,2022-01-01,SOLANA,phishing,5,10\n"
            "P3,bad-date,ETH,oracle,5,\n"
            "P4,2022-01-01,ETH,oracle,-5,\n"
            "P5,2022-01-01,ETH,oracle,5,abc\n"
            "P6,2022-01-01,ETH,oracle,5\n"
        )
        result = load_incidents(write(tmp_path, "i.csv", INCIDENTS_HEADER + body))
        assert result.total_rows == 6
        assert len(result.records) == 2
        assert len(result.rejected) == 4

    def test_rejected_line_is_the_physical_line(self, tmp_path):
        body = 'P1,2022-01-01,ETH,"multi\nline",5,\nP2,bad-date,ETH,oracle,5,\n'
        result = load_incidents(write(tmp_path, "i.csv", INCIDENTS_HEADER + body))
        assert len(result.records) == 1
        assert [r.line for r in result.rejected] == [4]

    def test_malformed_header(self, tmp_path):
        path = write(tmp_path, "i.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError):
            load_incidents(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_incidents(tmp_path / "nope.csv")

    @pytest.mark.parametrize("loader", [load_incidents, load_tvl])
    def test_bytes_that_are_not_utf8_are_schema_error(self, tmp_path, loader):
        path = tmp_path / "x.csv"
        path.write_bytes(b"protocol_id,month,tvl_usd\nP1,2022-01,\xff100\n")
        with pytest.raises(SchemaError, match="x.csv"):
            loader(path)


class TestLoadTvl:
    def test_roundtrip(self, tmp_path):
        path = write(
            tmp_path, "t.csv", "protocol_id,month,tvl_usd\nP1,2022-01,100\nP1,2022-02,200\n"
        )
        tvl = load_tvl(path)
        assert tvl["P1"][Month(2022, 1)] == 100.0
        assert len(tvl["P1"]) == 2

    def test_duplicate_month_rejected(self, tmp_path):
        path = write(
            tmp_path, "t.csv", "protocol_id,month,tvl_usd\nP1,2022-01,100\nP1,2022-01,200\n"
        )
        with pytest.raises(DataError):
            load_tvl(path)

    def test_bad_month_names_file_and_line(self, tmp_path):
        rows = "protocol_id,month,tvl_usd\nP1,2022-01,100\nP1,2022-13,100\n"
        path = write(tmp_path, "t.csv", rows)
        with pytest.raises(SchemaError, match="t.csv:3: month must be YYYY-MM"):
            load_tvl(path)

    def test_error_names_the_physical_line(self, tmp_path):
        rows = 'protocol_id,month,tvl_usd\n"P\n1",2022-01,100\nP1,2022-13,100\n'
        path = write(tmp_path, "t.csv", rows)
        with pytest.raises(SchemaError, match="t.csv:4: month must be YYYY-MM"):
            load_tvl(path)

    @pytest.mark.parametrize("value", ["0", "-0", "0.00"])
    def test_zero_tvl_rejected_with_line(self, tmp_path, value):
        rows = f"protocol_id,month,tvl_usd\nP1,2022-01,100\nP1,2022-02,{value}\n"
        path = write(tmp_path, "t.csv", rows)
        with pytest.raises(SchemaError, match=f"t.csv:3: zero tvl_usd {value}"):
            load_tvl(path)


class TestLoadPortfolio:
    def test_roundtrip(self, tmp_path):
        doc = {
            "protocols": [
                {"id": "A", "chain": "ETH", "inception": "2020-05", "description": "lending"},
                {"id": "B", "chain": "BSC", "inception": "2018-11", "description": "dex"},
            ],
            "similarity": [[1.0, 0.3], [0.3, 1.0]],
            "theta": 0.5,
        }
        import json

        path = write(tmp_path, "p.json", json.dumps(doc))
        portfolio = load_portfolio(path)
        assert portfolio.dim == 2
        assert portfolio.loading_theta == 0.5
        assert portfolio.protocols[0].inception == Month(2020, 5)

    def test_asymmetric_similarity_rejected(self, tmp_path):
        import json

        doc = {
            "protocols": [
                {"id": "A", "chain": "ETH", "inception": "2020-05"},
                {"id": "B", "chain": "BSC", "inception": "2018-11"},
            ],
            "similarity": [[1.0, 0.4], [0.3, 1.0]],
            "theta": 0.5,
        }
        with pytest.raises((DataError, SchemaError)):
            load_portfolio(write(tmp_path, "p.json", json.dumps(doc)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            Portfolio(
                protocols=(
                    ProtocolSpec("A", Chain.ETH, Month(2020, 1)),
                    ProtocolSpec("A", Chain.BSC, Month(2020, 2)),
                ),
                similarity=np.eye(2),
                loading_theta=0.5,
            )

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(DataError):
            Portfolio(
                protocols=(ProtocolSpec("A", Chain.ETH, Month(2020, 1)),),
                similarity=np.eye(1),
                loading_theta=0.0,
            )


def incident(pid="P1", when=date(2021, 8, 5), loss=1000.0, tvl=None, chain=Chain.ETH):
    return (pid, when, chain, IssueType.OTHER, loss, tvl)


NO_INCIDENTS = incident_table([])


def tvl_series(start, values):
    start = Month.parse(start)
    return {start.plus(i): v for i, v in enumerate(values)}


class TestBuildMonthlyPanel:
    def test_three_quiet_months(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 5))
        panel = build_monthly_panel(
            NO_INCIDENTS, tvl_series("2020-05", [10.0, 20.0, 30.0]), proto, Month(2020, 7)
        )
        assert len(panel) == 3
        assert all(event == 0 for event in panel.events)

    def test_same_month_incidents_collapse_to_one_event(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2021, 7))
        incidents = incident_table([incident(when=date(2021, 8, d)) for d in (3, 20)])
        panel = build_monthly_panel(
            incidents, tvl_series("2021-07", [5.0, 5.0, 5.0]), proto, Month(2021, 9)
        )
        events = {str(panel.start.plus(k)): event for k, event in enumerate(panel.events)}
        assert events == {"2021-07": 0, "2021-08": 1, "2021-09": 0}

    def test_log_identity(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1))
        panel = build_monthly_panel(
            NO_INCIDENTS, tvl_series("2020-01", [math.exp(10.0)]), proto, Month(2020, 1)
        )
        assert panel.log_tvl[0] == pytest.approx(10.0, abs=1e-12)

    def test_missing_month_is_gap_error_naming_month(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1))
        obs = {Month(2020, 1): 5.0, Month(2020, 3): 5.0}
        with pytest.raises(DataError) as err:
            build_monthly_panel(NO_INCIDENTS, obs, proto, Month(2020, 3))
        assert str(err.value) == "protocol 'P1': no TVL observation for 2020-02"

    def test_zero_tvl_is_domain_error(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1))
        obs = {Month(2020, 1): 0.0}
        with pytest.raises(DomainError):
            build_monthly_panel(NO_INCIDENTS, obs, proto, Month(2020, 1))

    @given(st.integers(min_value=0, max_value=48))
    def test_row_count_equals_window_length(self, extra):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1))
        values = [float(i + 1) for i in range(extra + 1)]
        panel = build_monthly_panel(
            NO_INCIDENTS,
            tvl_series("2020-01", values),
            proto,
            Month.from_index(Month(2020, 1).index + extra),
        )
        assert len(panel) == extra + 1


# The TVL strategy covers 2019-10 .. 2023-09; windows start in 2020-01 ..
# 2022-01 and may end before they start or after the TVL does.
_TVL_FROM = Month(2019, 10)


class TestBuildMonthlyPanelOracle:
    @given(
        inception=st.integers(0, 24),
        length=st.integers(-2, 40),
        values=st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=48,
            max_size=48,
        ),
        gaps=st.lists(st.integers(0, 47), max_size=2),
        zeros=st.lists(st.integers(0, 47), max_size=2),
        events=st.lists(
            st.tuples(st.sampled_from(["P1", "P2"]), st.dates(date(2019, 6, 1), date(2024, 6, 30))),
            max_size=20,
        ),
    )
    # On some SIMD builds np.log(9170.0) differs from math.log(9170.0) in the
    # last bit; the panel must keep math.log's value.
    @example(inception=0, length=12, values=[9170.0] * 48, gaps=[], zeros=[], events=[])
    def test_matches_the_row_by_row_builder(self, inception, length, values, gaps, zeros, events):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1).plus(inception))
        window_end = proto.inception.plus(length - 1)
        series = {_TVL_FROM.plus(k): v for k, v in enumerate(values) if k not in gaps}
        series.update({_TVL_FROM.plus(k): 0.0 for k in zeros if k not in gaps})
        incidents = incident_table(incident(pid=pid, when=when) for pid, when in events)
        try:
            rows = monthly_panel_rows(incidents, series, proto, window_end)
        except (DataError, DomainError) as exc:
            with pytest.raises(type(exc)) as err:
                build_monthly_panel(incidents, series, proto, window_end)
            assert type(err.value) is type(exc)
            assert str(err.value) == str(exc)
            return
        panel = build_monthly_panel(incidents, series, proto, window_end)
        assert panel.protocol_id == "P1"
        assert [panel.start.plus(k) for k in range(len(panel))] == [m for m, _, _ in rows]
        assert panel.events.tolist() == [event for _, event, _ in rows]
        assert panel.log_tvl.tobytes() == np.array([x for _, _, x in rows]).tobytes()


def loss_ratio(rec) -> float:
    """The severity training ratio of one incident."""
    return float(severity.training_set(incident_table([rec])).ratios[0])


class TestDeriveLossRatio:
    def test_missing_tvl_means_total_loss(self):
        assert loss_ratio(incident(loss=5e6, tvl=None)) == 1.0

    def test_zero_tvl_means_total_loss(self):
        assert loss_ratio(incident(loss=5e6, tvl=0.0)) == 1.0

    def test_simple_division(self):
        assert loss_ratio(incident(loss=2e6, tvl=8e6)) == 0.25

    def test_loss_above_tvl_clips_to_one(self):
        # Keeps the ratio inside the two-part model's (0, 1] domain.
        assert loss_ratio(incident(loss=9e6, tvl=8e6)) == 1.0

    def test_zero_loss_has_no_ratio(self):
        data = severity.training_set(incident_table([incident(loss=0.0, tvl=5.0)]))
        assert len(data.ratios) == 0
        assert data.zero_loss == 1

    @given(
        st.floats(min_value=1e-6, max_value=1e12),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e12)),
    )
    def test_ratio_always_in_unit_interval(self, loss, tvl):
        r = loss_ratio(incident(loss=loss, tvl=tvl))
        assert 0.0 < r <= 1.0
        if tvl is None or tvl == 0.0 or loss >= tvl:
            assert r == 1.0

    def test_effective_tvl_substitutes_loss(self):
        rows = [incident(loss=7.0, tvl=tvl) for tvl in (None, 0.0, 9.0)]
        data = severity.training_set(incident_table(rows))
        assert data.design[:, 3].tolist() == [math.log(7.0), math.log(7.0), math.log(9.0)]


# Cells the columnar loaders must read exactly as the row-by-row ones do.
_IDS = ["P1", "P2", " P3 ", "", "  ", "a\nb", "P1\x00"]
_DATES = [
    "2022-01-05", "2020-02-29", "2021-02-29", "2022-13-01", "0001-01-01", "9999-12-31",
    " 2022-03-04 ", "20190102", "2019-W01-1", "2019-01-02T00:00", "0000-01-01", "2019-01",
    "\uff12\uff10\uff11\uff19-01-02", "2022-01-05\x00", "2022-01-5", "",
]
_AMOUNTS = [
    "1000", "2.5e6", "0", "-0", "0.00", " 7 ", "1_0", "\uff11\uff12", "1.5\xa0", "1.5\x1c",
    "nan", "inf", "-5", "1e400", "n/a", "0x10", ".5", "5\x00", "",
]
_CHAINS = ["ETH", "eth", " BSC ", "Polygon", "", "OTHER"]
_ISSUES = ["oracle", "FLASH_LOAN", " phishing ", "rugpull", ""]
_MONTHS = [
    "2022-01", "2022-02", "2022-1", " 2022-03 ", "2022-13", "0000-01", "2022/01", "2022-01-01", "",
]


def _csv_text(header, rows, blank_lines):
    """The CSV text of ``rows`` under ``header``, quoted as needed, with a
    blank line before each row whose index is in ``blank_lines``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for k, row in enumerate(rows):
        if k in blank_lines:
            out.write("\n")
        writer.writerow(row)
    return out.getvalue()


def _cells(pools):
    """A row of one cell from each pool, with a cell dropped or one added at times."""
    row = st.tuples(*(st.sampled_from(pool) for pool in pools)).map(list)
    return st.one_of(
        row,
        row.map(lambda cells: cells[:-1]),
        row.map(lambda cells: cells + ["extra"]),
        st.just(["", " "] + [""] * (len(pools) - 2)),
    )


def _same_incidents(path):
    accepted, rejected, flagged = incident_file_rows(path)
    result = load_incidents(path)
    assert [repr(r) for r in incident_rows(result.records)] == [repr(r) for r in accepted]
    assert [(r.line, r.raw, r.reason) for r in result.rejected] == rejected
    assert [(r.line, r.raw, r.reason) for r in result.flagged] == flagged
    assert result.total_rows == len(accepted) + len(rejected)


def _same_tvl(path):
    try:
        expected = tvl_file_series(path)
    except (SchemaError, DataError) as exc:
        with pytest.raises(type(exc)) as err:
            load_tvl(path)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    got = load_tvl(path)
    assert {p: {m: repr(v) for m, v in s.items()} for p, s in got.items()} == {
        p: {m: repr(v) for m, v in s.items()} for p, s in expected.items()
    }


class TestLoaderOracle:
    @settings(max_examples=300)
    @given(
        rows=st.lists(_cells([_IDS, _DATES, _CHAINS, _ISSUES, _AMOUNTS, _AMOUNTS]), max_size=30),
        blank_lines=st.sets(st.integers(0, 30), max_size=3),
    )
    def test_incidents_match_the_row_by_row_loader(self, tmp_path_factory, rows, blank_lines):
        path = tmp_path_factory.mktemp("inc") / "i.csv"
        path.write_text(_csv_text(INCIDENTS_HEADER.strip().split(","), rows, blank_lines), "utf-8")
        _same_incidents(path)

    @settings(max_examples=300)
    @given(
        rows=st.lists(_cells([_IDS, _MONTHS, _AMOUNTS]), max_size=30),
        blank_lines=st.sets(st.integers(0, 30), max_size=3),
    )
    def test_tvl_matches_the_row_by_row_loader(self, tmp_path_factory, rows, blank_lines):
        path = tmp_path_factory.mktemp("tvl") / "t.csv"
        path.write_text(_csv_text(["protocol_id", "month", "tvl_usd"], rows, blank_lines), "utf-8")
        _same_tvl(path)

    # Blocks of 3 rows put block edges inside these files, between a row
    # and its duplicate, a blank line or a rejected row.
    @settings(max_examples=200)
    @given(
        rows=st.lists(_cells([_IDS, _DATES, _CHAINS, _ISSUES, _AMOUNTS, _AMOUNTS]), max_size=30),
        blank_lines=st.sets(st.integers(0, 30), max_size=3),
    )
    def test_incidents_read_in_small_blocks_match(self, tmp_path_factory, rows, blank_lines):
        path = tmp_path_factory.mktemp("inc") / "i.csv"
        path.write_text(_csv_text(INCIDENTS_HEADER.strip().split(","), rows, blank_lines), "utf-8")
        with mock.patch.object(datamodel, "_CSV_BLOCK", 3):
            _same_incidents(path)

    @settings(max_examples=200)
    @given(
        rows=st.lists(_cells([_IDS, _MONTHS, _AMOUNTS]), max_size=30),
        blank_lines=st.sets(st.integers(0, 30), max_size=3),
    )
    def test_tvl_read_in_small_blocks_matches(self, tmp_path_factory, rows, blank_lines):
        path = tmp_path_factory.mktemp("tvl") / "t.csv"
        path.write_text(_csv_text(["protocol_id", "month", "tvl_usd"], rows, blank_lines), "utf-8")
        with mock.patch.object(datamodel, "_CSV_BLOCK", 3):
            _same_tvl(path)

    def test_tvl_blocks_share_the_series_and_the_duplicate_check(self, tmp_path):
        rows = [f"P{k % 3},2022-{k // 3 + 1:02d},{1000 + k}" for k in range(12)]
        header = "protocol_id,month,tvl_usd\n"
        whole = write(tmp_path, "t.csv", header + "\n".join(rows) + "\n")
        duplicated = write(tmp_path, "d.csv", header + "\n".join(rows + ["P1,2022-02,5"]) + "\n")
        with mock.patch.object(datamodel, "_CSV_BLOCK", 3):
            _same_tvl(whole)
            assert sum(map(len, load_tvl(whole).values())) == 12
            with pytest.raises(DataError, match=r"d\.csv:14: duplicate TVL observation for P1"):
                load_tvl(duplicated)

    @pytest.mark.parametrize(
        "cell",
        [
            "20190102", "2019-W01-1", "2019-01-02T00:00", "0000-01-01", "2019-01",
            "2021-02-29", "2020-02-29", "2022-04-31", "2022-13-01", "2022-00-10", "2022-01-00",
        ],
    )
    def test_date_cell_read_as_fromisoformat_reads_it(self, tmp_path, cell):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + f"P1,{cell},ETH,oracle,5,\n")
        _same_incidents(path)
        try:
            expected = [np.datetime64(date.fromisoformat(cell), "D")]
        except ValueError:
            expected = []
        assert load_incidents(path).records.day.tolist() == [d.item() for d in expected]

    @pytest.mark.parametrize("column", ["loss_usd", "tvl_usd"])
    @pytest.mark.parametrize("cell", ["1_0", "\uff11\uff12", "1.5\xa0", "nan", "inf", "-0", ""])
    def test_amount_cell_read_as_float_reads_it(self, tmp_path, column, cell):
        loss, tvl = (cell, "5") if column == "loss_usd" else ("5", cell)
        row = f"P1,2022-01-05,ETH,oracle,{loss},{tvl}\n"
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + row)
        _same_incidents(path)
        records = load_incidents(path).records
        if column == "tvl_usd" and cell == "":
            assert math.isnan(records.tvl_usd[0])  # an empty tvl_usd is an absent snapshot
            return
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        accepted = math.isfinite(value) and value >= 0.0
        assert len(records) == int(accepted)
        if accepted:
            got = getattr(records, column)[0]
            assert repr(float(got)) == repr(value)
