import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defirisk.datamodel import (
    Chain,
    IncidentRecord,
    IssueType,
    Month,
    Portfolio,
    ProtocolSpec,
    TvlObservation,
    build_monthly_panel,
    derive_loss_ratio,
    effective_tvl,
    load_incidents,
    load_portfolio,
    load_tvl,
    month_range,
)
from defirisk.errors import DataError, DomainError, SchemaError, TvlGapError


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
        months = month_range(Month(2020, 11), Month(2021, 2))
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
        rec = result.records[0]
        assert rec.tvl_usd is None
        assert rec.loss_usd == 600000000.0
        assert rec.chain is Chain.ETH
        assert rec.issue_type is IssueType.OTHER

    def test_unknown_chain_maps_to_other(self, tmp_path):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + "P1,2022-01-01,SOLANA,phishing,5,\n")
        result = load_incidents(path)
        assert result.records[0].chain is Chain.OTHER

    def test_unknown_issue_maps_to_other(self, tmp_path):
        path = write(tmp_path, "i.csv", INCIDENTS_HEADER + "P1,2022-01-01,BSC,rugpull,5,\n")
        assert load_incidents(path).records[0].issue_type is IssueType.OTHER

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
        obs = load_tvl(path)
        assert obs[0] == TvlObservation("P1", Month(2022, 1), 100.0)
        assert len(obs) == 2

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
    return IncidentRecord(pid, when, chain, IssueType.OTHER, loss, tvl)


def tvl_series(pid, start, values):
    start = Month.parse(start)
    return [
        TvlObservation(pid, Month.from_index(start.index + i), v) for i, v in enumerate(values)
    ]


class TestBuildMonthlyPanel:
    def test_three_quiet_months(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 5))
        panel = build_monthly_panel(
            [], tvl_series("P1", "2020-05", [10.0, 20.0, 30.0]), proto, Month(2020, 7)
        )
        assert len(panel) == 3
        assert all(row.event == 0 for row in panel)

    def test_same_month_incidents_collapse_to_one_event(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2021, 7))
        incidents = [incident(when=date(2021, 8, 3)), incident(when=date(2021, 8, 20))]
        panel = build_monthly_panel(
            incidents, tvl_series("P1", "2021-07", [5.0, 5.0, 5.0]), proto, Month(2021, 9)
        )
        events = {str(row.month): row.event for row in panel}
        assert events == {"2021-07": 0, "2021-08": 1, "2021-09": 0}

    def test_log_identity(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1))
        panel = build_monthly_panel(
            [], tvl_series("P1", "2020-01", [math.exp(10.0)]), proto, Month(2020, 1)
        )
        assert panel[0].log_tvl == pytest.approx(10.0, abs=1e-12)

    def test_missing_month_is_gap_error_naming_month(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1))
        obs = [TvlObservation("P1", Month(2020, 1), 5.0), TvlObservation("P1", Month(2020, 3), 5.0)]
        with pytest.raises(TvlGapError) as err:
            build_monthly_panel([], obs, proto, Month(2020, 3))
        assert err.value.month == "2020-02"

    def test_zero_tvl_is_domain_error(self):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1))
        obs = [TvlObservation("P1", Month(2020, 1), 0.0)]
        with pytest.raises(DomainError):
            build_monthly_panel([], obs, proto, Month(2020, 1))

    @given(st.integers(min_value=0, max_value=48))
    def test_row_count_equals_window_length(self, extra):
        proto = ProtocolSpec("P1", Chain.ETH, Month(2020, 1))
        values = [float(i + 1) for i in range(extra + 1)]
        panel = build_monthly_panel(
            [], tvl_series("P1", "2020-01", values), proto, Month.from_index(Month(2020, 1).index + extra)
        )
        assert len(panel) == extra + 1


class TestDeriveLossRatio:
    def test_missing_tvl_means_total_loss(self):
        assert derive_loss_ratio(incident(loss=5e6, tvl=None)) == 1.0

    def test_zero_tvl_means_total_loss(self):
        assert derive_loss_ratio(incident(loss=5e6, tvl=0.0)) == 1.0

    def test_simple_division(self):
        assert derive_loss_ratio(incident(loss=2e6, tvl=8e6)) == 0.25

    def test_loss_above_tvl_clips_to_one(self):
        # Keeps the ratio inside the two-part model's (0, 1] domain.
        assert derive_loss_ratio(incident(loss=9e6, tvl=8e6)) == 1.0

    def test_zero_loss_is_domain_error(self):
        with pytest.raises(DomainError):
            derive_loss_ratio(incident(loss=0.0, tvl=5.0))

    @given(
        st.floats(min_value=1e-6, max_value=1e12),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e12)),
    )
    def test_ratio_always_in_unit_interval(self, loss, tvl):
        r = derive_loss_ratio(incident(loss=loss, tvl=tvl))
        assert 0.0 < r <= 1.0
        if tvl is None or tvl == 0.0 or loss >= tvl:
            assert r == 1.0

    def test_effective_tvl_substitutes_loss(self):
        assert effective_tvl(incident(loss=7.0, tvl=None)) == 7.0
        assert effective_tvl(incident(loss=7.0, tvl=0.0)) == 7.0
        assert effective_tvl(incident(loss=7.0, tvl=9.0)) == 9.0
