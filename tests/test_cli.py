import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import defirisk
from defirisk.cli import _SETTINGS, main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

INCIDENTS = str(DATA / "incidents.csv")
TVL = str(DATA / "tvl.csv")
PORTFOLIO = str(DATA / "portfolio.json")
PORTFOLIO_PRICED = str(DATA / "portfolio_priced.json")


def run(args):
    return main([str(a) for a in args])


def fit_models(out_dir) -> None:
    assert run(["fit-frequency", "--incidents", INCIDENTS, "--tvl", TVL,
                "--portfolio", PORTFOLIO, "--output", out_dir, "--seed", 7]) == 0
    assert run(["fit-severity", "--incidents", INCIDENTS, "--output", out_dir, "--seed", 7]) == 0


# Relative bound on each float in a golden report across numpy/BLAS builds.
# The fitted models are defined only to the IRLS gradient tolerance, and
# their last ulps follow the BLAS kernels and SIMD exp/log of the build:
# on the fixture, reordering the sums in X @ beta, X.T @ r and X.T W X, or
# switching solve/lstsq/Cholesky, moves the total-loss coefficients by at
# most 2.3e-14 relative (two builds differ by 2.6e-15), while the fit sits
# 3.1e-11 from the 50-digit MLE and one more Newton step moves it by that
# much.  1e-12 is about 40x the reordering drift and 30x below a real
# algorithm change.  Within one build every output is byte-identical
# (TestDeterminism, acceptance criterion 9).
GOLDEN_RTOL = 1e-12

# A float literal as repr() writes one; integers, ids, dates, booleans,
# nan/inf and empty cells do not match and are compared as text.
_FLOAT_TOKEN = re.compile(r"-?(?:\d+\.\d*(?:e[+-]?\d+)?|\d+e[+-]?\d+)\Z")


def _leaf_mismatch(where: str, got, want) -> str | None:
    """Compare one scalar: finite non-zero floats within GOLDEN_RTOL, all else exactly."""
    if (type(got) is float and type(want) is float and got != 0.0 and want != 0.0
            and math.isfinite(got) and math.isfinite(want)):
        rel = abs(got - want) / max(abs(got), abs(want))
        if rel <= GOLDEN_RTOL:
            return None
        return f"{where}: got {got!r}, golden {want!r}, rel diff {rel:.3g} > {GOLDEN_RTOL:g}"
    if type(got) is type(want) and repr(got) == repr(want):
        return None
    return f"{where}: got {got!r}, golden {want!r}"


def _csv_mismatches(produced: Path, reference: Path) -> list[str]:
    def read(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    got, want = read(produced), read(reference)
    if not want or got[:1] != want[:1]:
        return [f"header: got {got[:1]}, golden {want[:1]}"]
    header = want[0]
    out = []
    if len(got) != len(want):
        out.append(f"row count: got {len(got) - 1}, golden {len(want) - 1}")
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g) != len(w):
            out.append(f"row {row}: got {len(g)} cells, golden {len(w)}")
            continue
        for column, gt, wt in zip(header, g, w):
            g_val = float(gt) if _FLOAT_TOKEN.match(gt) else gt
            w_val = float(wt) if _FLOAT_TOKEN.match(wt) else wt
            problem = _leaf_mismatch(f"row {row}, column {column}", g_val, w_val)
            if problem:
                out.append(problem)
    return out


def _json_mismatches(got, want, path: str = "$") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            missing = [k for k in want if k not in got]
            extra = [k for k in got if k not in want]
            return [f"{path}: keys {list(got)}, golden {list(want)} "
                    f"(missing {missing}, extra {extra})"]
        return [p for key in want for p in _json_mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)}, golden {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _json_mismatches(g, w, f"{path}[{i}]")]
    problem = _leaf_mismatch(path, got, want)
    return [problem] if problem else []


def golden_mismatches(produced: Path, reference: Path) -> list[str]:
    """Field-by-field differences of a produced CSV or JSON report from its golden copy."""
    if produced.read_bytes() == reference.read_bytes():
        return []
    if reference.suffix == ".json":
        return _json_mismatches(json.loads(produced.read_text()), json.loads(reference.read_text()))
    return _csv_mismatches(produced, reference)


def check_golden(produced: Path, name: str, regen: bool) -> None:
    reference = GOLDEN / name
    if regen:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(produced, reference)
        return
    assert reference.exists(), f"golden file {name} missing; run pytest --regen-golden"
    problems = golden_mismatches(produced, reference)
    shown = "\n".join(f"  {name} {p}" for p in problems[:10])
    more = f"\n  ... and {len(problems) - 10} more" if len(problems) > 10 else ""
    assert not problems, f"{name} drifted from golden copy:\n{shown}{more}"


@pytest.fixture(scope="module")
def fitted_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fitted")
    fit_models(str(out))
    return out


@pytest.fixture
def regen(request):
    return request.config.getoption("--regen-golden")


class TestGoldenReports:
    def test_frequency_report(self, fitted_dir, regen):
        check_golden(fitted_dir / "frequency_report.csv", "frequency_report.csv", regen)

    def test_severity_model(self, fitted_dir, regen):
        check_golden(fitted_dir / "severity_model.json", "severity_model.json", regen)

    def test_quantile_residuals(self, fitted_dir, regen):
        check_golden(fitted_dir / "quantile_residuals.csv", "quantile_residuals.csv", regen)

    def test_quotes(self, fitted_dir, regen, tmp_path):
        assert run(["price", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                    "--models", fitted_dir, "--output", tmp_path,
                    "--seed", 7, "--samples", 20000]) == 0
        check_golden(tmp_path / "quotes.csv", "quotes.csv", regen)

    def test_risk_report(self, fitted_dir, regen, tmp_path):
        assert run(["simulate", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                    "--models", fitted_dir, "--output", tmp_path,
                    "--seed", 7, "--samples", 50000, "--bootstrap", 40]) == 0
        check_golden(tmp_path / "risk_report.csv", "risk_report.csv", regen)

    def test_summary(self, regen, tmp_path):
        assert run(["summarize", "--incidents", INCIDENTS, "--output", tmp_path]) == 0
        check_golden(tmp_path / "summary.csv", "summary.csv", regen)


_X = 0.1040923065746222


class TestGoldenComparator:
    """The golden comparison passes rounding noise and fails everything else."""

    CSV = ("id,date,flag,count,x,zero,empty\n"
           f"P1,2020-01,True,7,{_X!r},0.0,\n"
           "P2,2021-06,False,8,-3.5e-07,0.0,\n")
    DOC = {"beta": [_X, -1.25], "n": 3, "ok": False, "name": "P1",
           "penalty": None, "hl": {"p": 0.40586199310017285, "df": 8}}

    def mismatches(self, tmp_path, produced: str, reference: str, suffix: str):
        got, want = tmp_path / f"produced{suffix}", tmp_path / f"golden{suffix}"
        got.write_text(produced)
        want.write_text(reference)
        return golden_mismatches(got, want)

    def csv_with(self, tmp_path, old: str, new: str):
        assert old in self.CSV
        return self.mismatches(tmp_path, self.CSV.replace(old, new, 1), self.CSV, ".csv")

    def json_with(self, tmp_path, edit):
        doc = json.loads(json.dumps(self.DOC))
        edit(doc)
        return self.mismatches(tmp_path, json.dumps(doc, indent=2), json.dumps(self.DOC), ".json")

    def test_one_ulp_passes(self, tmp_path):
        assert self.csv_with(tmp_path, repr(_X), repr(math.nextafter(_X, 1.0))) == []
        assert self.csv_with(tmp_path, "-3.5e-07", repr(math.nextafter(-3.5e-07, 0.0))) == []

        def nudge(doc):
            doc["beta"][1] = math.nextafter(-1.25, 0.0)
            doc["hl"]["p"] = math.nextafter(doc["hl"]["p"], 1.0)

        assert self.json_with(tmp_path, nudge) == []

    def test_relative_change_beyond_bound_fails(self, tmp_path):
        problems = self.csv_with(tmp_path, repr(_X), repr(_X * (1 + 1e-10)))
        assert problems == [f"row 1, column x: got {_X * (1 + 1e-10)!r}, golden {_X!r}, "
                            f"rel diff 1e-10 > 1e-12"]

        def scale(doc):
            doc["beta"][1] *= 1 + 1e-10

        problems = self.json_with(tmp_path, scale)
        assert len(problems) == 1 and problems[0].startswith("$.beta[1]: ")
        assert "rel diff 1e-10" in problems[0]

    @pytest.mark.parametrize("old,new", [
        ("P1,", "P9,"),          # id
        ("2020-01", "2020-02"),  # date
        ("True", "False"),       # boolean
        (",7,", ",6,"),          # int
        (",7,", ",7.0,"),        # int turned float
        ("0.0,", "1e-300,"),     # exact zero
        ("0.0,\n", "0.0,x\n"),   # empty cell
    ])
    def test_changed_token_fails(self, tmp_path, old, new):
        assert len(self.csv_with(tmp_path, old, new)) == 1

    @pytest.mark.parametrize("old,new", [
        ("P2,2021-06,False,8,-3.5e-07,0.0,\n", ""),  # missing row
        (",empty\n", "\n"),                          # missing column in the header
        (",0.0,\nP2", "\nP2"),                       # missing cell in a row
    ])
    def test_changed_shape_fails(self, tmp_path, old, new):
        assert self.csv_with(tmp_path, old, new)

    @pytest.mark.parametrize("edit", [
        lambda d: d.__setitem__("n", 4),
        lambda d: d.__setitem__("n", 3.0),
        lambda d: d.__setitem__("ok", True),
        lambda d: d.__setitem__("name", "P2"),
        lambda d: d.__setitem__("penalty", 0.0),
        lambda d: d["hl"].__setitem__("df", 9),
        lambda d: d.pop("name"),
        lambda d: d["hl"].pop("p"),
        lambda d: d["beta"].pop(),
    ], ids=["int", "int-to-float", "bool", "string", "null", "nested-int",
            "missing-key", "missing-nested-key", "missing-element"])
    def test_changed_json_value_fails(self, tmp_path, edit):
        assert self.json_with(tmp_path, edit)

    def test_failure_names_file_and_field(self, tmp_path, monkeypatch):
        monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
        (tmp_path / "report.csv").write_text(self.CSV)
        produced = tmp_path / "produced.csv"
        produced.write_text(self.CSV.replace("-3.5e-07", "-3.6e-07"))
        with pytest.raises(AssertionError) as err:
            check_golden(produced, "report.csv", regen=False)
        assert "report.csv row 2, column x: got -3.6e-07, golden -3.5e-07, rel diff 0.0278" in str(err.value)


class TestDeterminism:
    def test_fit_frequency_reruns_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["fit-frequency", "--incidents", INCIDENTS, "--tvl", TVL,
                        "--portfolio", PORTFOLIO, "--output", out, "--seed", 3]) == 0
            outs.append(out)
        for name in sorted(p.name for p in outs[0].iterdir()):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_simulate_workers_do_not_change_bytes(self, fitted_dir, tmp_path):
        # 200,000 paths are four blocks, so 8 workers merge tops across threads.
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            assert run(["simulate", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                        "--models", fitted_dir, "--output", out, "--seed", 5,
                        "--samples", 200_000, "--bootstrap", 20, "--workers", workers]) == 0
            outs.append(out)
        assert (outs[0] / "risk_report.csv").read_bytes() == (outs[1] / "risk_report.csv").read_bytes()

    def test_price_reruns_byte_identical(self, fitted_dir, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["price", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                        "--models", fitted_dir, "--output", out,
                        "--seed", 11, "--samples", 10000]) == 0
            outs.append(out)
        assert (outs[0] / "quotes.csv").read_bytes() == (outs[1] / "quotes.csv").read_bytes()

    def test_quotes_depend_on_neither_seed_nor_position(self, fitted_dir, tmp_path):
        doc = json.loads(Path(PORTFOLIO_PRICED).read_text())
        reversed_doc = {
            **doc,
            "protocols": doc["protocols"][::-1],
            "similarity": [row[::-1] for row in doc["similarity"][::-1]],
        }
        reversed_path = tmp_path / "portfolio_reversed.json"
        reversed_path.write_text(json.dumps(reversed_doc))

        def quotes(portfolio, seed):
            out = tmp_path / f"{Path(portfolio).stem}_{seed}"
            assert run(["price", "--tvl", TVL, "--portfolio", portfolio, "--models", fitted_dir,
                        "--output", out, "--seed", seed]) == 0
            lines = (out / "quotes.csv").read_text().splitlines()
            return {line.split(",")[0]: line for line in lines[1:]}

        forward = quotes(PORTFOLIO_PRICED, 1)
        assert quotes(reversed_path, 1) == forward
        other_seed = quotes(PORTFOLIO_PRICED, 2)
        assert list(other_seed) == list(forward)
        for pid, line in forward.items():
            assert line.endswith(",1") and other_seed[pid] == line[:-1] + "2"


class TestFormats:
    def test_json_and_csv_quotes_agree(self, fitted_dir, tmp_path):
        import csv as csv_mod

        for fmt in ("csv", "json"):
            assert run(["price", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                        "--models", fitted_dir, "--output", tmp_path / fmt,
                        "--seed", 7, "--samples", 10000, "--format", fmt]) == 0
        with open(tmp_path / "csv" / "quotes.csv", newline="") as fh:
            csv_rows = list(csv_mod.DictReader(fh))
        json_rows = json.loads((tmp_path / "json" / "quotes.json").read_text())
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert c["protocol_id"] == j["protocol_id"]
            assert float(c["expectation_usd"]) == j["expectation_usd"]
            assert float(c["sd_usd"]) == j["sd_usd"]

    def test_dependence_column_filter(self, fitted_dir, tmp_path):
        assert run(["simulate", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                    "--models", fitted_dir, "--output", tmp_path, "--seed", 5,
                    "--samples", 20000, "--bootstrap", 10, "--dependence", "off"]) == 0
        header = (tmp_path / "risk_report.csv").read_text().splitlines()[0]
        assert "var_indep" in header and "var_dep" not in header

    def test_single_scenario_matches_its_columns_of_both(self, fitted_dir, tmp_path):
        def report(dependence):
            out = tmp_path / dependence
            assert run(["simulate", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                        "--models", fitted_dir, "--output", out, "--seed", 5,
                        "--samples", 20000, "--bootstrap", 10, "--dependence", dependence]) == 0
            with open(out / "risk_report.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            meta = json.loads((out / "risk_report_meta.json").read_text())
            return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}, meta

        both, both_meta = report("both")
        for dependence, scenario in (("off", "indep"), ("on", "dep")):
            single, meta = report(dependence)
            assert list(single) == ["level"] + [c for c in both if scenario in c.split("_")]
            for column, cells in single.items():
                assert cells == both[column], column
            for flags in ("degenerate_tail", "var_on_atom"):
                assert meta[flags] == [f for f in both_meta[flags] if f"_{scenario}@" in f]

    def test_levels_flag_sets_report_rows(self, fitted_dir, tmp_path):
        assert run(["simulate", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                    "--models", fitted_dir, "--output", tmp_path, "--seed", 5,
                    "--samples", 20000, "--bootstrap", 10, "--levels", "0.5,0.8"]) == 0
        lines = (tmp_path / "risk_report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "0.8"]


class TestOverridePricing:
    def test_override_quotes_match_direct_arithmetic(self, tmp_path):
        from reference_values import ATTACK_PROBS, LOSS_PCT

        override = {
            pid: {"attack_prob": ATTACK_PROBS[pid], "loss_pct": LOSS_PCT[pid]}
            for pid in ATTACK_PROBS
        }
        path = tmp_path / "override.json"
        path.write_text(json.dumps(override, indent=2))
        assert run(["price", "--override", path, "--output", tmp_path,
                    "--theta", 0.5, "--seed", 1]) == 0
        import csv as csv_mod

        with open(tmp_path / "quotes.csv", newline="") as fh:
            rows = {r["protocol_id"]: r for r in csv_mod.DictReader(fh)}
        for pid in ATTACK_PROBS:
            expected = 1.5 * ATTACK_PROBS[pid] * LOSS_PCT[pid]
            assert float(rows[pid]["expectation_pct"]) == pytest.approx(expected, rel=1e-12)
            assert rows[pid]["sd_usd"] == ""  # no second moment supplied

    @pytest.mark.parametrize(
        "entry, code",
        [
            ({"second_moment_pct": -1.0}, 2),
            ({"second_moment_pct": 0.25}, 2),  # above loss_pct
            ({"second_moment_pct": 0.03}, 2),  # below loss_pct^2
            ({"second_moment_pct": math.nan}, 2),
            ({"attack_prob": 1.2}, 2),
            ({"second_moment_pct": 0.2 * 0.2}, 0),
            ({"second_moment_pct": 0.2}, 0),
        ],
        ids=["negative", "above-loss-pct", "below-loss-pct-squared", "nan",
             "attack-prob-above-1", "at-loss-pct-squared", "at-loss-pct"],
    )
    def test_second_moment_range(self, tmp_path, capsys, entry, code):
        path = tmp_path / "override.json"
        path.write_text(json.dumps({"P9": {"attack_prob": 0.1, "loss_pct": 0.2, **entry}}))
        assert run(["price", "--override", path, "--output", tmp_path]) == code
        if code:
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["type"] == "ConfigError" and "'P9'" in error["message"]

    def test_theta_zero_would_be_rejected(self, tmp_path):
        path = tmp_path / "override.json"
        path.write_text(json.dumps({"A": {"attack_prob": 0.1, "loss_pct": 0.2}}))
        assert run(["price", "--override", path, "--output", tmp_path, "--theta", 0]) == 2


class TestErrorSurface:
    def test_missing_incidents_file_exits_2(self, tmp_path, capsys):
        code = run(["summarize", "--incidents", tmp_path / "nope.csv", "--output", tmp_path])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 2

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        code = run(["summarize", "--incidents", bad, "--output", tmp_path])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # No usable incidents inside the severity window.
        stale = tmp_path / "stale.csv"
        stale.write_text(
            "protocol_id,date,chain,issue_type,loss_usd,tvl_usd\n"
            "P1,2019-06-01,ETH,other,1000000,\n"
        )
        code = run(["fit-severity", "--incidents", stale, "--output", tmp_path])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 3

    def test_invalid_model_json_exits_2(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("{not json")
        code = run(["gof", "--model", model, "--incidents", INCIDENTS, "--output", tmp_path])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 2

    @pytest.mark.parametrize("command", ["simulate", "gof"])
    @pytest.mark.parametrize(
        "name, edit, key",
        [
            ("freq_P1.json", lambda doc: {"alpha0": 1.0}, "alpha1"),
            ("freq_P1.json", lambda doc: {**doc, "cov_sd": "wide"}, "cov_sd"),
            ("severity_model.json", lambda doc: {"beta": [1.0]}, "beta"),
            ("severity_model.json", lambda doc: {**doc, "hl": [1]}, "hl"),
            ("severity_model.json", lambda doc: {**doc, "sigma2": -1.0}, "sigma2"),
        ],
        ids=["freq-missing", "freq-mistyped", "severity-short-beta", "severity-bad-hl",
             "severity-negative-sigma2"],
    )
    def test_malformed_model_json_exits_2(
        self, fitted_dir, tmp_path, capsys, command, name, edit, key
    ):
        models = tmp_path / "models"
        shutil.copytree(fitted_dir, models)
        path = models / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        inputs = ["--tvl", TVL, "--output", tmp_path / "out"]
        if command == "simulate":
            args = ["simulate", "--portfolio", PORTFOLIO_PRICED, "--models", models,
                    "--samples", 10000, "--bootstrap", 2]
        else:
            args = ["gof", "--model", path, "--incidents", INCIDENTS, "--portfolio", PORTFOLIO]
        assert run(args + inputs) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "SchemaError"
        assert str(path) in error["message"] and repr(key) in error["message"]

    @pytest.mark.parametrize("command", ["price", "simulate"])
    def test_time_origin_after_prediction_exits_2(self, fitted_dir, tmp_path, capsys, command):
        models = tmp_path / "models"
        shutil.copytree(fitted_dir, models)
        path = models / "severity_model.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "time_origin": "9999-12-31"}))
        args = [command, "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED, "--models", models,
                "--output", tmp_path / "out"]
        if command == "simulate":
            args += ["--samples", 10000, "--bootstrap", 2]
        assert run(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "SchemaError"
        assert str(path) in error["message"] and "'time_origin'" in error["message"]

    def test_empty_incidents_routes_all_to_no_event_notice(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("protocol_id,date,chain,issue_type,loss_usd,tvl_usd\n")
        assert run(["fit-frequency", "--incidents", empty, "--tvl", TVL,
                    "--portfolio", PORTFOLIO, "--output", tmp_path, "--seed", 1]) == 0
        report = (tmp_path / "frequency_report.csv").read_text()
        assert report.count("no events anywhere") == 8

    def test_bad_samples_rejected(self, tmp_path):
        assert run(["summarize", "--incidents", INCIDENTS, "--output", tmp_path,
                    "--samples", 100]) == 2


def _set_entry(value):
    def edit(doc):
        doc["similarity"][0][1] = doc["similarity"][1][0] = value
    return edit


def _asymmetric(doc):
    doc["similarity"][0][1] += 0.1


def _non_square(doc):
    doc["similarity"] = [row[:-1] for row in doc["similarity"]]


def _bad_inception(doc):
    doc["protocols"][0]["inception"] = "2020-13"


def _late_inception(doc):
    doc["protocols"][0]["inception"] = "2030-01"


# (extra tvl.csv rows, portfolio edit, extra flags) of fit-frequency runs
# whose input is malformed.
MALFORMED = {
    "tvl-month-13": ("P1,2020-13,100\n", None, []),
    "tvl-nan": ("P1,2031-01,nan\n", None, []),
    "tvl-inf": ("P1,2031-01,inf\n", None, []),
    "inception-month-13": ("", _bad_inception, []),
    "inception-after-window": ("", _late_inception, []),
    "window-end-month-13": ("", None, ["--window-end", "2020-13"]),
    "similarity-asymmetric": ("", _asymmetric, []),
    "similarity-entry-1.5": ("", _set_entry(1.5), []),
    "similarity-entry-nan": ("", _set_entry(math.nan), []),
    "similarity-non-square": ("", _non_square, []),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_with_one_json_error_line(self, case, tmp_path, capsys):
        tvl_rows, edit, flags = MALFORMED[case]
        tvl = tmp_path / "tvl.csv"
        tvl.write_text(Path(TVL).read_text() + tvl_rows)
        doc = json.loads(Path(PORTFOLIO).read_text())
        if edit is not None:
            edit(doc)
        portfolio = tmp_path / "portfolio.json"
        portfolio.write_text(json.dumps(doc))
        code = run(["fit-frequency", "--incidents", INCIDENTS, "--tvl", tvl,
                    "--portfolio", portfolio, "--output", tmp_path / "out", *flags])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == 2


class TestConfigFile:
    def test_config_file_supplies_paths(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "incidents": INCIDENTS,
            "output": str(tmp_path / "out"),
            "seed": 4,
        }))
        assert run(["summarize", "--config", cfg]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"incidents": "/nonexistent.csv"}))
        assert run(["summarize", "--config", cfg, "--incidents", INCIDENTS,
                    "--output", tmp_path]) == 0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"incidnets": "x"}))
        assert run(["summarize", "--config", cfg, "--incidents", INCIDENTS,
                    "--output", tmp_path]) == 2


# Arbitrary JSON as Python's json module reads it: NaN, the infinities and
# integers no double holds included, nested a few levels.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=10)
    | st.integers(min_value=-(10**400), max_value=10**400),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=10,
)


def json_objects(keys):
    """JSON objects keyed by names from ``keys`` or by arbitrary text."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=10), JSON_VALUES, max_size=6)


def exits_cleanly(args) -> None:
    """Run one command in-process: exit 0, or exit 2 with exactly one JSON error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(args)
    lines = err.getvalue().splitlines()
    assert code in (0, 2), (code, lines)
    if code == 2:
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"]["code"] == 2


OVERRIDE_ENTRY_KEYS = ["attack_prob", "loss_pct", "tvl", "second_moment_pct"]

# The keys of fitted frequency and severity model files.
MODEL_KEYS = [
    "alpha0", "alpha1", "beta", "beta_se", "converged", "cov_mean", "cov_sd", "covariate_dropped",
    "gamma",
    "hl", "low_partial_warning", "n_partial", "n_total", "penalty", "protocol_id", "se_alpha0",
    "se_alpha1", "sigma2", "time_origin", "total_loss_only", "window", "zero_loss_skipped",
]
# Top-level keys of a portfolio file, and keys of its protocol entries.
PORTFOLIO_KEYS = ["protocols", "similarity", "theta"]
PROTOCOL_KEYS = ["id", "chain", "inception", "description"]
REMOVE = object()


def set_or_remove(doc: dict, key: str, value) -> None:
    if value is REMOVE:
        doc.pop(key, None)
    else:
        doc[key] = value


@pytest.fixture(scope="module")
def override_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("override") / "override.json"
    path.write_text(json.dumps({"P1": {"attack_prob": 0.02, "loss_pct": 0.3}}))
    return path


def command_args(command: str, models: Path, override: Path) -> list:
    """A run of ``command`` on the fixture that exits 0 as it stands."""
    return {
        "summarize": ["summarize", "--incidents", INCIDENTS],
        "price": ["price", "--override", override],
        "simulate": ["simulate", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                     "--models", models, "--samples", 10000, "--bootstrap", 2, "--workers", 1],
    }[command]


class TestJsonInputs:
    """Any JSON value as a config, override, fitted-model or portfolio file exits 0 or 2."""

    @pytest.mark.parametrize("command, role", [("summarize", "config"), ("price", "config"),
                                               ("simulate", "config"), ("price", "override")])
    @pytest.mark.parametrize("content", [5, ["seed"], [1, 2], "seed", None],
                             ids=["number", "list-of-key", "list", "string", "null"])
    def test_non_object_file_names_the_file(self, fitted_dir, override_file, tmp_path, capsys,
                                            command, role, content):
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(content))
        if role == "override":
            override_file = path
        args = command_args(command, fitted_dir, override_file)
        if role == "config":
            args += ["--config", path]
        assert run(args + ["--output", tmp_path / "out"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == 2 and str(path) in error["message"]

    def test_deeply_nested_file_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run(["summarize", "--incidents", INCIDENTS, "--config", path,
                    "--output", tmp_path / "out"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and str(path) in json.loads(lines[0])["error"]["message"]

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["summarize", "price", "simulate"]),
           doc=JSON_VALUES | json_objects(sorted(_SETTINGS)))
    @example(command="summarize", doc=5)
    @example(command="summarize", doc=["seed"])
    @example(command="summarize", doc={"samples": math.inf})
    @example(command="price", doc={"levels": [10**400]})
    @example(command="price", doc={"theta": math.inf, "format": "json"})
    @example(command="simulate", doc={"seed": -1})
    @example(command="simulate", doc={"levels": []})
    def test_config_file(self, fitted_dir, override_file, command, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc))
            exits_cleanly(command_args(command, fitted_dir, override_file)
                          + ["--config", path, "--output", Path(tmp) / "out"])

    @settings(max_examples=150, deadline=None)
    @given(doc=JSON_VALUES | st.dictionaries(
               st.sampled_from(["P1", "P2", "P3"]) | st.text(max_size=10),
               JSON_VALUES | json_objects(OVERRIDE_ENTRY_KEYS), max_size=4),
           with_portfolio=st.booleans())
    @example(doc=[1, 2], with_portfolio=False)
    @example(doc={"P1": {"attack_prob": 10**400, "loss_pct": 0.1}}, with_portfolio=False)
    def test_override_file(self, doc, with_portfolio):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "override.json"
            path.write_text(json.dumps(doc))
            args = ["price", "--override", path, "--output", Path(tmp) / "out"]
            if with_portfolio:
                args += ["--portfolio", PORTFOLIO_PRICED]
            exits_cleanly(args)

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["freq_P1.json", "severity_model.json"]),
           command=st.sampled_from(["gof", "simulate"]),
           key=st.none() | st.sampled_from(MODEL_KEYS), value=JSON_VALUES | st.just(REMOVE))
    @example(name="freq_P1.json", command="gof", key="alpha0", value=10**400)
    @example(name="freq_P1.json", command="gof", key="alpha0", value=math.nan)
    @example(name="freq_P1.json", command="gof", key="alpha1", value=1e300)
    @example(name="freq_P1.json", command="simulate", key="cov_sd", value=0)
    @example(name="freq_P1.json", command="gof", key="window", value=["2020-05", "2019-01"])
    @example(name="freq_P1.json", command="simulate", key="hl",
             value={"stat": 1.0, "df": math.inf, "p": 0.5, "groups": 3})
    @example(name="severity_model.json", command="gof", key="sigma2", value=0)
    @example(name="severity_model.json", command="gof", key="beta", value=[1e300] * 7)
    @example(name="severity_model.json", command="simulate", key="zero_loss_skipped",
             value=math.inf)
    def test_model_file(self, fitted_dir, name, command, key, value):
        """The file holds ``value`` (REMOVE: nothing), or the fitted model with ``key``
        set to ``value`` or removed."""
        if key is None:
            text = "" if value is REMOVE else json.dumps(value)
        else:
            doc = json.loads((fitted_dir / name).read_text())
            set_or_remove(doc, key, value)
            text = json.dumps(doc)
        with tempfile.TemporaryDirectory() as tmp:
            models = Path(tmp) / "models"
            shutil.copytree(fitted_dir, models)
            (models / name).write_text(text)
            if command == "gof":
                args = ["gof", "--model", models / name, "--incidents", INCIDENTS,
                        "--tvl", TVL, "--portfolio", PORTFOLIO]
            else:
                args = ["simulate", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED,
                        "--models", models, "--samples", 10000, "--bootstrap", 2]
            exits_cleanly(args + ["--output", Path(tmp) / "out"])

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["fit-frequency", "simulate"]),
           key=st.none() | st.sampled_from(PORTFOLIO_KEYS + PROTOCOL_KEYS),
           value=JSON_VALUES | st.just(REMOVE))
    @example(command="simulate", key=None, value=5)
    @example(command="simulate", key=None, value=["protocols", "similarity", "theta"])
    @example(command="fit-frequency", key="protocols", value=5)
    @example(command="simulate", key="theta", value=10**400)
    def test_portfolio_file(self, fitted_dir, command, key, value):
        """The portfolio holds ``value`` (REMOVE: nothing), or the fixture portfolio with
        ``key`` of the file or of its first protocol set to ``value`` or removed."""
        source = PORTFOLIO if command == "fit-frequency" else PORTFOLIO_PRICED
        if key is None:
            text = "" if value is REMOVE else json.dumps(value)
        else:
            doc = json.loads(Path(source).read_text())
            set_or_remove(doc if key in PORTFOLIO_KEYS else doc["protocols"][0], key, value)
            text = json.dumps(doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "portfolio.json"
            path.write_text(text)
            if command == "fit-frequency":
                args = ["fit-frequency", "--incidents", INCIDENTS, "--tvl", TVL]
            else:
                args = ["simulate", "--tvl", TVL, "--models", fitted_dir, "--samples", 10000,
                        "--bootstrap", 2, "--workers", 1]
            exits_cleanly(args + ["--portfolio", path, "--output", Path(tmp) / "out"])


# Cell values that parse in one column and not in another, or that no
# column takes, besides arbitrary text.
CSV_CELLS = st.sampled_from([
    "", " ", "0", "-1", "1e-300", "1e308", "1e400", "nan", "inf", "-0", "0x10", "1_000",
    "2020-13", "2020-00", "0000-01", "9999-12", "10000-01", "-2020-01", "2020-1-1", "2022-02-30",
    "ETH", "P1", '"', "a,b", "\x00", "\u00e9",
]) | st.text(max_size=12) | st.floats().map(repr)


@st.composite
def corrupted_csv(draw, path: str) -> bytes:
    """The fixture CSV at ``path`` with one row or cell replaced, cut short,
    under a wrong header, or empty."""
    raw = Path(path).read_bytes()
    lines = raw.splitlines(keepends=True)
    kind = draw(st.sampled_from(["cell", "row", "bytes", "truncate", "header", "empty"]))
    if kind == "empty":
        return b""
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    i = 0 if kind == "header" else draw(st.integers(1, len(lines) - 1))
    if kind == "cell":
        cells = lines[i].decode().rstrip("\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(CSV_CELLS)
        lines[i] = (",".join(cells) + "\n").encode("utf-8", "surrogatepass")
    elif kind == "bytes":
        lines[i] = draw(st.binary(max_size=40)) + b"\n"
    else:
        lines[i] = (draw(st.text(max_size=40)) + "\n").encode("utf-8", "surrogatepass")
    return b"".join(lines)


def replace_row(path: str, index: int, row: bytes) -> bytes:
    """The file at ``path`` with its line ``index`` replaced by ``row``."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    lines[index] = row + b"\n"
    return b"".join(lines)


class TestCsvInputs:
    """Any corrupted incidents or TVL file exits 0 or 2 with at most one JSON error line."""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["summarize", "fit-frequency"]),
           text=corrupted_csv(INCIDENTS))
    @example(command="summarize", text=replace_row(INCIDENTS, 1, b"\x80"))
    @example(command="fit-frequency",
             text=replace_row(INCIDENTS, 5, b"P1,2022-01-01,ETH,x,1,\x00"))
    def test_incidents_file(self, command, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "incidents.csv"
            path.write_bytes(text)
            args = [command, "--incidents", path]
            if command == "fit-frequency":
                args += ["--tvl", TVL, "--portfolio", PORTFOLIO]
            exits_cleanly(args + ["--output", Path(tmp) / "out"])

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["fit-frequency", "simulate"]), text=corrupted_csv(TVL))
    @example(command="simulate", text=replace_row(TVL, 1, b"\x80"))
    @example(command="fit-frequency", text=replace_row(TVL, -1, b"P8,2023-12,0"))
    @example(command="simulate", text=replace_row(TVL, -1, b"P8,2023-12,-0"))
    @example(command="simulate", text=replace_row(TVL, -1, b"P8,9999-12,85361574.92"))
    @example(command="fit-frequency", text=replace_row(TVL, -1, b"P8,0000-01,85361574.92"))
    def test_tvl_file(self, fitted_dir, command, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tvl.csv"
            path.write_bytes(text)
            if command == "fit-frequency":
                args = ["fit-frequency", "--incidents", INCIDENTS, "--portfolio", PORTFOLIO]
            else:
                args = ["simulate", "--portfolio", PORTFOLIO_PRICED, "--models", fitted_dir,
                        "--samples", 10000, "--bootstrap", 2, "--workers", 1]
            exits_cleanly(args + ["--tvl", path, "--output", Path(tmp) / "out"])


# Runs fit-frequency and gof in a fresh interpreter and prints the scipy
# modules loaded by then.
_IMPORT_PROBE = """
import json, sys
from defirisk.cli import main
data, out = sys.argv[1:3]
assert main(["fit-frequency", "--incidents", data + "/incidents.csv", "--tvl",
             data + "/tvl.csv", "--portfolio", data + "/portfolio.json", "--output", out]) == 0
assert main(["gof", "--model", out + "/freq_P1.json", "--incidents", data + "/incidents.csv",
             "--tvl", data + "/tvl.csv", "--portfolio", data + "/portfolio.json",
             "--output", out + "/gof"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


class TestImportGraph:
    def test_cli_runs_without_scipy(self, tmp_path):
        src = str(Path(defirisk.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(DATA), str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_cli_import_leaves_quadrature_unbuilt(self):
        # The ratio-moment quadrature loads numpy.polynomial on first use only.
        src = str(Path(defirisk.__file__).resolve().parent.parent)
        probe = "import sys, defirisk.cli; print('numpy.polynomial' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestGof:
    def test_frequency_gof(self, fitted_dir, tmp_path):
        assert run(["gof", "--model", fitted_dir / "freq_P1.json", "--incidents", INCIDENTS,
                    "--tvl", TVL, "--portfolio", PORTFOLIO, "--output", tmp_path]) == 0
        doc = json.loads((tmp_path / "gof.json").read_text())
        assert doc["model"] == "frequency"
        assert doc["hl"]["df"] == doc["hl"]["groups"] - 2

    def test_severity_gof_matches_fit_severity(self, fitted_dir, tmp_path):
        # gof and fit-severity select the same training incidents.
        assert run(["gof", "--model", fitted_dir / "severity_model.json",
                    "--incidents", INCIDENTS, "--output", tmp_path]) == 0
        assert ((tmp_path / "gof_quantile_residuals.csv").read_bytes()
                == (fitted_dir / "quantile_residuals.csv").read_bytes())
        model = json.loads((fitted_dir / "severity_model.json").read_text())
        doc = json.loads((tmp_path / "gof.json").read_text())
        for key in ("hl", "n_total", "n_partial"):
            assert doc[key] == model[key], key

    def test_frequency_gof_matches_fit_frequency(self, fitted_dir, tmp_path):
        checked = 0
        for path in sorted(fitted_dir.glob("freq_*.json")):
            model = json.loads(path.read_text())
            if model["hl"] is None:
                continue
            out = tmp_path / path.stem
            assert run(["gof", "--model", path, "--incidents", INCIDENTS, "--tvl", TVL,
                        "--portfolio", PORTFOLIO, "--output", out]) == 0
            assert json.loads((out / "gof.json").read_text())["hl"] == model["hl"]
            checked += 1
        assert checked > 0

    def test_severity_gof_emits_residuals(self, fitted_dir, tmp_path):
        assert run(["gof", "--model", fitted_dir / "severity_model.json",
                    "--incidents", INCIDENTS, "--output", tmp_path]) == 0
        doc = json.loads((tmp_path / "gof.json").read_text())
        assert doc["model"] == "severity"
        lines = (tmp_path / "gof_quantile_residuals.csv").read_text().splitlines()
        assert lines[0] == "index,theoretical_quantile,sample_quantile"
        assert len(lines) == doc["n_partial"] + 1


class TestSummarize:
    def test_single_incident_stats(self, tmp_path):
        single = tmp_path / "one.csv"
        single.write_text(
            "protocol_id,date,chain,issue_type,loss_usd,tvl_usd\n"
            "P1,2022-07-15,ETH,oracle,5000000,\n"
        )
        assert run(["summarize", "--incidents", single, "--output", tmp_path]) == 0
        import csv as csv_mod

        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        by = {(r["section"], r["key"], r["metric"]): r["value"] for r in rows}
        assert by[("events_by_year", "2022", "count")] == "1"
        assert by[("events_by_chain", "ETH", "count")] == "1"
        assert float(by[("severity_usd", "all", "median")]) == 5000000.0
        assert float(by[("severity_usd", "all", "mean")]) == 5000000.0
        assert by[("severity_usd", "all", "sd")] == ""

    @pytest.mark.filterwarnings("error")
    def test_losses_near_the_float_maximum_stay_finite(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            "protocol_id,date,chain,issue_type,loss_usd,tvl_usd\n"
            "P1,2022-07-15,ETH,oracle,1e308,\n"
            "P2,2022-08-15,ETH,oracle,1e308,\n"
        )
        assert run(["summarize", "--incidents", path, "--output", tmp_path]) == 0
        with open(tmp_path / "summary.csv", newline="") as fh:
            by = {(r["section"], r["key"], r["metric"]): r["value"] for r in csv.DictReader(fh)}
        assert float(by[("severity_usd", "all", "median")]) == 1e308
        assert float(by[("severity_usd", "all", "mean")]) == 1e308
        assert float(by[("severity_usd", "all", "sd")]) == 0.0

    def test_year_bucketing_across_boundaries(self, tmp_path):
        csv_text = (
            "protocol_id,date,chain,issue_type,loss_usd,tvl_usd\n"
            "P1,2021-12-31,ETH,oracle,100,\n"
            "P2,2022-01-01,ETH,oracle,100,\n"
        )
        path = tmp_path / "i.csv"
        path.write_text(csv_text)
        assert run(["summarize", "--incidents", path, "--output", tmp_path]) == 0
        text = (tmp_path / "summary.csv").read_text()
        assert "events_by_year,2021,count,1" in text
        assert "events_by_year,2022,count,1" in text

    def test_ratio_csv_row_count_matches_window_incidents(self, fitted_dir):
        model = json.loads((fitted_dir / "severity_model.json").read_text())
        lines = (fitted_dir / "loss_ratios.csv").read_text().splitlines()
        assert len(lines) - 1 == model["n_total"] + model["n_partial"]
