import functools
import importlib.util
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defirisk import severity, tailrisk
from defirisk.datamodel import Chain
from defirisk.dependence import EventSampler, build_copula
from defirisk.errors import ConfigError, DomainError
from defirisk.numerics import RngStream

from oracles import (
    ORTHANT_ABSEPS,
    attack_pattern_law,
    copula_tail_law,
    full_bootstrap_ses,
    independent_tail_law,
)
from synth import grouped_similarity
from test_cli import PORTFOLIO_PRICED, TVL, fit_models, run
from test_pricing import flat_severity_model
from test_severity import total_loss_only_model

WHEN = date(2024, 1, 1)


def inputs(probs, tvls, sev_model=None) -> dict:
    """``simulate_aggregate``'s per-protocol inputs: the ratio laws of
    ``sev_model`` (total loss only by default) at each TVL, on ETH at WHEN."""
    sev_model = total_loss_only_model() if sev_model is None else sev_model
    laws = [severity.ratio_law(sev_model, Chain.ETH, tvl, WHEN) for tvl in tvls]
    return dict(probs=list(probs), tvls=list(tvls), laws=laws)


samples = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=1, max_size=200
)


class TestValueAtRisk:
    def test_exact_bernoulli_mixture(self):
        # Single protocol, attack probability 0.05, certain total loss of
        # 100: an exact-mixture sample makes the quantile boundary crisp.
        n = 1_000_000
        k = int(0.05 * n)
        sample = np.concatenate([np.zeros(n - k), np.full(k, 100.0)])
        sample.sort()
        assert tailrisk.value_at_risk(sample, 0.90) == 0.0
        assert tailrisk.value_at_risk(sample, 0.96) == 100.0
        assert tailrisk.conditional_tail_expectation(sample, 0.90) == 100.0

    def test_constant_sample(self):
        sample = np.full(1000, 7.5)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert tailrisk.value_at_risk(sample, q) == 7.5
            assert tailrisk.conditional_tail_expectation(sample, q) == 7.5

    def test_order_statistic_boundaries(self):
        sample = np.arange(1.0, 11.0)  # 10 distinct values
        # q just above k/n picks the (k+1)-th order statistic
        assert tailrisk.value_at_risk(sample, 0.3001) == 4.0
        # q exactly at k/n picks the k-th
        assert tailrisk.value_at_risk(sample, 0.3) == 3.0

    @given(samples, st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_cte_dominates_var(self, values, q):
        sample = np.sort(np.asarray(values))
        assert tailrisk.conditional_tail_expectation(sample, q) >= tailrisk.value_at_risk(
            sample, q
        )

    @given(samples)
    @settings(max_examples=40, deadline=None)
    def test_var_monotone_in_level(self, values):
        sample = np.sort(np.asarray(values))
        levels = [0.05, 0.25, 0.5, 0.75, 0.95]
        vars_ = [tailrisk.value_at_risk(sample, q) for q in levels]
        assert all(a <= b for a, b in zip(vars_, vars_[1:]))

    @given(samples, st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_translation_property(self, values, shift):
        sample = np.sort(np.asarray(values))
        q = 0.8
        shifted = np.sort(sample + shift)
        assert tailrisk.value_at_risk(shifted, q) == pytest.approx(
            tailrisk.value_at_risk(sample, q) + shift, abs=1e-6
        )
        assert tailrisk.conditional_tail_expectation(shifted, q) == pytest.approx(
            tailrisk.conditional_tail_expectation(sample, q) + shift, abs=1e-6
        )

    def test_empty_and_bad_level(self):
        with pytest.raises(DomainError):
            tailrisk.value_at_risk(np.empty(0), 0.5)
        with pytest.raises(DomainError):
            tailrisk.value_at_risk(np.ones(3), 1.0)


class TestSimulateAggregate:
    def test_zero_probabilities_give_zero_losses(self):
        sample = tailrisk.simulate_aggregate(
            **inputs([0.0, 0.0], [1e6, 2e6]), copula=None, n_sims=20_000, rng=RngStream(1, 0)
        )
        assert np.all(sample == 0.0)

    def test_tiny_probabilities_give_zero_losses_with_the_copula(self):
        # 1 - 1e-17 rounds to 1, whose normal quantile is undefined; the
        # threshold must come from pi itself.
        sample = tailrisk.simulate_aggregate(
            **inputs([1e-17, 1e-300], [1e6, 2e6]),
            copula=build_copula([[1.0, 0.5], [0.5, 1.0]]),
            n_sims=20_000,
            rng=RngStream(1, 0),
        )
        assert np.all(sample == 0.0)

    def test_single_protocol_bernoulli_total_loss(self):
        tvl = 100.0
        n = 100_000
        sample = tailrisk.simulate_aggregate(
            **inputs([0.05], [tvl]), copula=None, n_sims=n, rng=RngStream(2, 0)
        )
        hit = float((sample == tvl).mean())
        assert abs(hit - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / n)
        assert set(np.unique(sample)) <= {0.0, tvl}

    def test_identity_copula_matches_independent_law(self):
        args = inputs(
            [0.1 + 0.05 * i for i in range(3)],
            [1e6 * (i + 1) for i in range(3)],
            flat_severity_model(pi_s=0.3, mean_r=0.4),
        )
        n = 200_000
        with_copula = tailrisk.simulate_aggregate(
            **args, copula=build_copula(np.eye(3)), n_sims=n, rng=RngStream(3, 1)
        )
        without = tailrisk.simulate_aggregate(**args, copula=None, n_sims=n, rng=RngStream(3, 2))
        se = math.hypot(
            float(with_copula.std(ddof=1)) / math.sqrt(n),
            float(without.std(ddof=1)) / math.sqrt(n),
        )
        assert abs(float(with_copula.mean()) - float(without.mean())) <= 4.0 * se

    def test_worker_count_does_not_change_output(self):
        args = inputs([0.2, 0.2], [1e6, 3e6], flat_severity_model(pi_s=0.3, mean_r=0.4))
        for copula in (build_copula([[1.0, 0.5], [0.5, 1.0]]), None):
            runs = [
                tailrisk.simulate_aggregate(
                    **args, copula=copula, n_sims=150_000, rng=RngStream(4, 7), workers=w
                )
                for w in (1, 4)
            ]
            assert np.array_equal(runs[0], runs[1])

    def test_mismatched_inputs_are_rejected(self):
        # One probability, TVL and ratio law per protocol, and a copula of
        # that dimension: a mismatch is rejected before any path is drawn.
        args = inputs([0.1, 0.1], [1e6, 1e6])
        for bad, error, message in (
            (dict(args, probs=[0.1]), DomainError, "expected 2 probabilities"),
            (dict(args, tvls=[1e6, 1e6, 1e6]), DomainError, "expected 3 probabilities"),
            (dict(args, laws=args["laws"][:1]), ConfigError, "expected 2 ratio laws"),
        ):
            with pytest.raises(error, match=message):
                tailrisk.simulate_aggregate(**bad, copula=None, n_sims=10_000, rng=RngStream(5))
        with pytest.raises(ConfigError, match="copula dimension 3"):
            tailrisk.simulate_aggregate(
                **args, copula=build_copula(np.eye(3)), n_sims=10_000, rng=RngStream(5)
            )

    def test_minimum_path_count_enforced(self):
        with pytest.raises(DomainError):
            tailrisk.simulate_aggregate(
                **inputs([0.1], [1e6]), copula=None, n_sims=5000, rng=RngStream(6)
            )


class TestStreamingTop:
    SIMILARITY = [[1, 0.4, 0.2], [0.4, 1, 0.3], [0.2, 0.3, 1]]

    @staticmethod
    def total_loss_inputs():
        """Three protocols whose losses are total: the sample takes eight values,
        so many paths tie at any cut."""
        return inputs([0.004 + 0.003 * i for i in range(3)], [1e6, 2e6, 4e6])

    @pytest.mark.parametrize(
        "workers, n, q",
        [(1, 10**6, 0.99), (3, 10**6, 0.99), (1, 10**6, 0.90), (3, 10**6, 0.90),
         (1, 10**5, 0.99), (3, 10**5, 0.99)],
        ids=["1", "3", "1-q0.90", "3-q0.90", "1-n1e5", "3-n1e5"],
    )
    def test_top_is_the_top_of_the_full_sample(self, workers, n, q):
        # The cut falls inside an atom of the sample.  At q = 0.99, at 10^6
        # paths and at 10^5 (two blocks), block 0's guessed floor sits
        # below the atom, so every tie with it survives and the one sort is
        # the last.  At q = 0.90 the cut falls in the zero atom: the guess
        # is 0, the floor one ulp below it, so the zeros survive it, the
        # buffer fills and a compaction raises the floor to 0, after which
        # every later zero, a tie with it, is dropped.
        m = tailrisk._tail_need(n, [q])[2]
        args = self.total_loss_inputs()
        for copula in (build_copula(self.SIMILARITY), None):
            full = tailrisk.simulate_aggregate(
                **args, copula=copula, n_sims=n, rng=RngStream(40, 1), workers=workers
            )
            top = tailrisk.simulate_aggregate(
                **args, copula=copula, n_sims=n, rng=RngStream(40, 1), workers=workers, top=m
            )
            assert full[-m - 1] == full[-m]  # the cut falls inside an atom
            assert top.tobytes() == full[-m:].tobytes()

    @staticmethod
    def partial_loss_inputs():
        """Three protocols attacked often, with partial losses: the top 1% of
        the sample lies among continuously distributed values."""
        return inputs([0.2, 0.3, 0.25], [1e6, 2e6, 4e6], flat_severity_model(pi_s=0.3, mean_r=0.4))

    def merge(self, monkeypatch, args, q, workers) -> list[tuple[int, int]]:
        """Check that the merged top m of 10^6 paths is the top of the full
        sample, with the copula and without it; per copula, the sorts of the
        merge (``_compact`` calls) and the blocks it drew."""
        n = 10**6
        m = tailrisk._tail_need(n, [q])[2]
        compact, block_generator = tailrisk._compact, RngStream.block_generator
        calls = []

        def counted_compact(*a):
            calls.append("sort")
            return compact(*a)

        def counted_blocks(self, block):
            calls.append("block")
            return block_generator(self, block)

        monkeypatch.setattr(tailrisk, "_compact", counted_compact)
        monkeypatch.setattr(RngStream, "block_generator", counted_blocks)
        seen = []
        for copula in (build_copula(self.SIMILARITY), None):
            run = functools.partial(
                tailrisk.simulate_aggregate,
                **args, copula=copula, n_sims=n, rng=RngStream(40, 1), workers=workers,
            )
            full = run()
            calls.clear()
            top = run(top=m)
            assert top.tobytes() == full[-m:].tobytes()
            seen.append((calls.count("sort"), calls.count("block")))
        return seen

    @pytest.mark.parametrize("workers", [1, 3])
    def test_guessed_floor_holds_and_the_merge_sorts_once(self, monkeypatch, workers):
        # About 1.3% of the sample lies above block 0's guess, fewer values
        # than the buffer holds, so no compaction runs before the last sort.
        assert self.merge(monkeypatch, self.partial_loss_inputs(), 0.99, workers) == [(1, 16)] * 2

    @pytest.mark.parametrize("workers", [1, 3])
    def test_floor_in_the_zero_atom_still_compacts(self, monkeypatch, workers):
        # At q = 0.90 about 2% of the paths lose anything, so the guess is 0.
        for sorts, blocks in self.merge(monkeypatch, self.total_loss_inputs(), 0.90, workers):
            assert sorts > 1 and blocks == 16

    @pytest.mark.parametrize("workers", [1, 3])
    def test_wide_margin_compacts(self, monkeypatch, workers):
        # 1,000 sd puts the guess near block 0's 40th percentile from the
        # top, so the buffer of m + 65,536 values fills several times.
        monkeypatch.setattr(tailrisk, "_GUESS_SD", 1000.0)
        for sorts, blocks in self.merge(monkeypatch, self.partial_loss_inputs(), 0.99, workers):
            assert sorts > 1 and blocks == 16

    @pytest.mark.parametrize("workers", [1, 3])
    def test_guess_above_the_top_merges_again(self, monkeypatch, workers):
        # 20 sd above the mean puts the guess near the top 0.3%, so fewer
        # than m values lie above it: the blocks are drawn again and merged
        # from -inf.
        monkeypatch.setattr(tailrisk, "_GUESS_SD", -20.0)
        for sorts, blocks in self.merge(monkeypatch, self.partial_loss_inputs(), 0.99, workers):
            assert sorts > 1 and blocks == 32

    def test_guessed_floor_keeps_ties(self):
        # The block's r-th largest value is 1, an atom of 100: the floor
        # lies one ulp below it, so all 100 lie above it.  Of b = 1,010
        # values at p = 0.01, r = ceil(10.1 + 5 sqrt(10.1 * 0.99)) + 1 = 27.
        block = np.concatenate([np.zeros(900), np.ones(100), np.full(10, 2.0)])
        floor = tailrisk._guessed_floor(block, 0.01)
        assert floor == np.nextafter(1.0, -math.inf)
        assert int((block > floor).sum()) == 110  # partitioned in place, not dropped
        assert tailrisk._guessed_floor(np.arange(10.0), 0.5) == -math.inf  # r = 11 > 10

    def test_top_bounds_are_checked(self):
        args = self.total_loss_inputs()
        for top in (0, 10_001):
            with pytest.raises(DomainError):
                tailrisk.simulate_aggregate(
                    **args, copula=None, n_sims=10_000, rng=RngStream(1), top=top
                )

    def test_forced_fallback_matches_the_full_sample_report(self, monkeypatch):
        # With m = t + 1, the least that keeps the value below the deepest
        # VaR, about half the resamples draw fewer than t values from the
        # top and fall back to the whole sample, which the report must
        # redraw from the path stream: every field must equal the report of
        # the full sample.
        monkeypatch.setattr(tailrisk, "_tail_size", lambda n, t: min(n, t + 1))
        simulate = tailrisk.simulate_aggregate
        calls = []

        def counted(**kwargs):
            calls.append(kwargs.get("top"))
            return simulate(**kwargs)

        def full_only(**kwargs):
            kwargs.pop("top", None)
            return simulate(**kwargs)

        reports = []
        for stand_in in (counted, full_only):
            monkeypatch.setattr(tailrisk, "simulate_aggregate", stand_in)
            reports.append(TestRiskReport.small_report(seed=17, n=40_000, bootstrap=20))
        assert reports[0] == reports[1]
        t = 40_000 - tailrisk._order_index(40_000, 0.90) + 1
        assert calls == [t + 1, t + 1, None, None]  # one redraw per scenario

    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_pool_per_run(self, monkeypatch, workers):
        # One report starts one pool of ``workers`` threads, and none at one
        # worker, also when the bootstrap falls back to the full sample.  A
        # pool per ``simulate_aggregate`` call, or a thread of its own for the
        # copula build, gives glibc more allocating threads, each with its
        # own malloc arena, and raised the peak RSS of ``simulate``.
        monkeypatch.setattr(tailrisk, "_tail_size", lambda n, t: min(n, t + 1))
        started = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        simulate = tailrisk.simulate_aggregate
        calls = []

        def counted(**kwargs):
            calls.append(kwargs.get("top"))
            return simulate(**kwargs)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Counted)
        monkeypatch.setattr(tailrisk, "simulate_aggregate", counted)
        threads = threading.active_count()
        report = TestRiskReport.small_report(seed=17, n=40_000, bootstrap=20, workers=workers)
        assert started == ([] if workers == 1 else [workers])
        assert None in calls  # the full-sample redraw ran on the same pool
        assert threading.active_count() == threads
        assert report == TestRiskReport.small_report(seed=17, n=40_000, bootstrap=20)

    def test_risk_report_memory_follows_the_tail(self):
        # Holding the sorted sample and the blocks it is concatenated from
        # takes at least 16 bytes a path.  At q = 0.9 the top is m = 0.1n
        # values, 0.8n bytes, its merge buffer 1.25 times that and the
        # bootstrap tally 0.4n, beside two blocks in flight per worker.
        n = 2_000_000
        tracemalloc.start()
        try:
            tailrisk.risk_report(
                **self.total_loss_inputs(), copula=functools.partial(build_copula, self.SIMILARITY),
                n_sims=n, rng=RngStream(41, 0), bootstrap_resamples=5,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n

    @staticmethod
    def simulate_peak(with_copula: bool, d: int = 230) -> tuple[int, int]:
        """Traced peak of ``simulate_aggregate`` over two blocks at d protocols, and d."""
        n = 131_072
        copula = build_copula(grouped_similarity(d, seed=4)) if with_copula else None
        probs = np.random.default_rng(4).uniform(0.01, 0.2, d)
        args = inputs(probs, [1e7] * d, flat_severity_model(pi_s=0.3, mean_r=0.4))
        tracemalloc.start()
        try:
            tailrisk.simulate_aggregate(**args, copula=copula, n_sims=n, rng=RngStream(42))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, d

    @pytest.mark.parametrize("with_copula", [True, False])
    def test_simulate_memory_follows_the_mask_not_the_normals(self, with_copula):
        # Holding the whole block of normals and Z in float64 would take 16
        # bytes per (protocol, path) entry, 9 without the copula.
        peak, d = self.simulate_peak(with_copula)
        assert peak < 4 * tailrisk._BLOCK * d

    @pytest.mark.parametrize("with_copula", [True, False])
    def test_simulate_memory_is_packed(self, with_copula):
        # A block's events are a bit-packed (d, 65,536) mask, 1/8 byte per
        # entry, filled from panels of at most 4,096 paths and 2^17 normals.
        # A one-byte-per-entry mask and two full (d, 4,096) float panels
        # take over twice the block's entries.
        peak, d = self.simulate_peak(with_copula)
        assert peak < 1.5 * tailrisk._BLOCK * d

    def test_copula_memory_is_the_mask_and_capped_panels(self):
        # With the copula a worker holds the block's mask (1/8 byte per
        # entry) and panels capped at 2^17 normals, about 1.3 MB at d = 230
        # (0.09 byte per entry), beside the losses.  Panels of 4,096 paths
        # whatever d is peaked at 0.96 byte per entry.
        peak, d = self.simulate_peak(True)
        assert peak < 0.5 * tailrisk._BLOCK * d

    def test_independent_memory_does_not_follow_the_portfolio(self):
        # Without the copula a block holds its losses and one protocol's
        # attacked paths and ratios at a time, nothing per (protocol, path):
        # 230 protocols peak within 1.25 times the peak of 7.
        narrow, _ = self.simulate_peak(False, d=7)
        wide, _ = self.simulate_peak(False, d=230)
        assert wide <= 1.25 * narrow


def report_rows(report) -> list[dict]:
    """The rows of a report's table, one dict per level."""
    return [dict(zip(report.table, cells)) for cells in zip(*report.table.values())]


class TestRiskReport:
    @staticmethod
    def small_report(seed=9, n=50_000, bootstrap=40, workers=1):
        """A three-protocol report whose copula is built by ``risk_report``."""
        similarity = [[1, 0.5, 0.3], [0.5, 1, 0.2], [0.3, 0.2, 1]]
        return tailrisk.risk_report(
            **inputs(
                [0.05 + 0.03 * i for i in range(3)],
                [1e7] * 3,
                flat_severity_model(pi_s=0.4, mean_r=0.5),
            ),
            copula=functools.partial(build_copula, similarity),
            levels=(0.90, 0.95, 0.99),
            n_sims=n,
            rng=RngStream(seed, 100),
            workers=workers,
            bootstrap_resamples=bootstrap,
        )

    def test_shape_and_invariants(self):
        report = self.small_report()
        assert report.table["level"] == (0.90, 0.95, 0.99)
        assert report.total_tvl == 3e7
        for row in report_rows(report):
            assert row["cte_dep"] >= row["var_dep"]
            assert row["cte_indep"] >= row["var_indep"]
            assert row["var_dep_pct"] == pytest.approx(row["var_dep"] / report.total_tvl)
            assert row["se_var_dep"] >= 0.0
        var_dep = list(report.table["var_dep"])
        var_indep = list(report.table["var_indep"])
        assert var_dep == sorted(var_dep)
        assert var_indep == sorted(var_indep)

    def test_deterministic(self):
        a = self.small_report(seed=13)
        b = self.small_report(seed=13)
        assert a == b

    def test_zero_probability_portfolio_reports_zeros(self):
        report = tailrisk.risk_report(
            **inputs([0.0, 0.0], [1e6, 1e6]),
            copula=functools.partial(build_copula, np.eye(2)),
            levels=(0.9, 0.99),
            n_sims=20_000,
            rng=RngStream(3, 50),
            bootstrap_resamples=10,
        )
        for row in report_rows(report):
            measures = (row["var_dep"], row["var_indep"], row["cte_dep"], row["cte_indep"])
            assert measures == (0, 0, 0, 0)
        assert set(report.degenerate_tail) == {
            "cte_dep@0.9",
            "cte_indep@0.9",
            "cte_dep@0.99",
            "cte_indep@0.99",
        }

    def test_bootstrap_se_tracks_asymptotic_quantile_error(self):
        # For a continuous law the bootstrap VaR standard error should sit
        # near sqrt(q(1-q)/n) / f(VaR); normal sample, q = 0.95.
        from defirisk.tailrisk import _bootstrap_ses

        n = 100_000
        sample = np.sort(RngStream(1, 0).generator().standard_normal(n))
        se_var, _ = _bootstrap_ses([sample], [0.95], 200, RngStream(1, 1).generator())
        z = 1.6448536269514722
        theory = math.sqrt(0.95 * 0.05 / n) / (math.exp(-z * z / 2) / math.sqrt(2 * math.pi))
        assert 0.7 < se_var[0] / theory < 1.4

    def test_var_on_atom_flags(self, monkeypatch):
        # Criterion 5's exact Bernoulli mixture puts VaR on the zero atom at
        # 0.90 and on the total-loss atom at 0.96; a continuous sample never.
        n = 1_000_000
        k = int(0.05 * n)
        mixture = np.concatenate([np.zeros(n - k), np.full(k, 100.0)])
        continuous = np.sort(RngStream(8, 0).generator().standard_normal(n))
        for sample, flagged in (
            (mixture, ("var_dep@0.9", "var_indep@0.9", "var_dep@0.96", "var_indep@0.96")),
            (continuous, ()),
        ):
            monkeypatch.setattr(tailrisk, "simulate_aggregate", lambda **_: sample)
            report = tailrisk.risk_report(
                **inputs([0.05], [100.0]),
                copula=functools.partial(build_copula, np.eye(1)),
                levels=(0.90, 0.96),
                n_sims=n,
                rng=RngStream(4, 0),
                bootstrap_resamples=10,
            )
            assert report.var_on_atom == flagged

    def test_single_scenario_report_carries_only_its_columns(self):
        report = tailrisk.risk_report(
            **inputs([0.1, 0.1], [1e6, 2e6]),
            copula=functools.partial(build_copula, np.eye(2)),
            levels=(0.9,),
            n_sims=20_000,
            rng=RngStream(3, 50),
            bootstrap_resamples=10,
            dependence="off",
        )
        assert tuple(report.table) == (
            "level", "var_indep", "cte_indep", "var_indep_pct", "cte_indep_pct",
            "se_var_indep", "se_cte_indep",
        )
        assert "var_dep" not in report.table and report.table["var_indep"][0] > 0.0
        assert report.copula is None  # the builder is not called
        with pytest.raises(ConfigError):
            tailrisk.risk_report(
                **inputs([0.1], [1e6]),
                copula=functools.partial(build_copula, np.eye(1)),
                n_sims=10_000,
                rng=RngStream(1),
                dependence="sometimes",
            )

    def test_bad_levels_rejected(self):
        with pytest.raises(DomainError):
            tailrisk.risk_report(
                **inputs([0.1], [1e6]),
                copula=functools.partial(build_copula, np.eye(1)),
                levels=(0.9, 1.0),
                n_sims=10_000,
                rng=RngStream(1),
            )

    @pytest.mark.parametrize("resamples", [0, 1])
    def test_fewer_than_two_resamples_rejected(self, resamples):
        # The SD of fewer than two replicates is undefined.
        with pytest.raises(DomainError, match="at least 2"):
            self.small_report(n=10_000, bootstrap=resamples)

    def test_one_tally_per_resample_serves_both_scenarios(self, monkeypatch):
        real = tailrisk._resample_counts
        calls = []

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(tailrisk, "_resample_counts", counted)
        self.small_report(n=20_000, bootstrap=15)
        assert calls == [20_000] * 15


@pytest.fixture(scope="module")
def fixture_simulate(tmp_path_factory):
    """The per-protocol inputs that ``simulate`` passes to ``risk_report`` on
    the fixture, and its report, in the golden run (seed 7, 50,000 paths,
    40 resamples)."""
    out = tmp_path_factory.mktemp("simulate")
    fit_models(str(out))
    seen = []
    real = tailrisk.risk_report

    def spy(*args, **kwargs):
        seen.append((dict(zip(("probs", "tvls", "laws"), args[:3])), real(*args, **kwargs)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tailrisk, "risk_report", spy)
        assert run(["simulate", "--tvl", TVL, "--portfolio", PORTFOLIO_PRICED, "--models", out,
                    "--output", out, "--seed", 7, "--samples", 50_000, "--bootstrap", 40]) == 0
    (args, report), = seen
    return args, report


class TestExactIndependentLaw:
    """The independent scenario against its exact law, bracketed on a lattice."""

    LEVELS = (0.90, 0.95, 0.99)

    def test_bracket_of_a_bernoulli_total_loss(self):
        # Criterion 5's law, attack probability 0.05 and a total loss of 100:
        # VaR sits on the zero atom at 0.90 and on the loss at 0.96, and CTE
        # is the loss at both.
        (var_lo, var_hi, cte_lo, cte_hi, on_atom), top = independent_tail_law(
            **inputs([0.05], [100.0]), levels=(0.90, 0.96), grid=1 << 10
        )
        assert (var_lo, var_hi, on_atom) == (0.0, 0.0, True)
        assert cte_lo <= 100.0 <= cte_hi and cte_hi - cte_lo < 1e-5
        assert top == (100.0, 100.0, 100.0, 100.0, True)

    @pytest.mark.parametrize("paths", ["golden", "1e6"])
    def test_fixture_report_lies_in_the_bracket(self, fixture_simulate, paths):
        # The golden run, and 10^6 paths on their own streams.  Each VaR and
        # CTE lies within 4 of its bootstrap SEs of the exact bracket (an SE
        # of 0 asks for the bracket itself), and ``var_on_atom`` is set
        # exactly where the exact law puts VaR on an atom: on a total loss
        # at 0.95 and 0.99, in the continuous part at 0.90.
        args, report = fixture_simulate
        if paths == "1e6":
            report = tailrisk.risk_report(
                **args, copula=functools.partial(build_copula, np.eye(len(args["tvls"]))),
                levels=self.LEVELS, n_sims=1_000_000, rng=RngStream(11, 0),
                bootstrap_resamples=100, dependence="off",
            )
        exact = independent_tail_law(**args, levels=self.LEVELS)
        assert [on_atom for *_, on_atom in exact] == [False, True, True]
        for j, (q, (var_lo, var_hi, cte_lo, cte_hi, on_atom)) in enumerate(zip(self.LEVELS, exact)):
            for name, lo, hi in (("var", var_lo, var_hi), ("cte", cte_lo, cte_hi)):
                value, se = report.table[f"{name}_indep"][j], report.table[f"se_{name}_indep"][j]
                assert lo - 4.0 * se <= value <= hi + 4.0 * se, (name, q, value, se, lo, hi)
            assert (f"var_indep@{q:g}" in report.var_on_atom) == on_atom


def _study():
    """``scripts/dependence_study.py`` as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "dependence_study.py"
    spec = importlib.util.spec_from_file_location("dependence_study", path)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    return study


class TestExactCopulaLaw:
    """The copula scenario against its exact law: the independent scenario's
    lattice mixed over the attack patterns' orthant probabilities."""

    LEVELS = (0.90, 0.95, 0.99)
    SE_BOUND = 4.0  # bootstrap SEs, as in TestExactIndependentLaw
    # Pattern frequencies: P(|Z| > 4.5) over 2^7 patterns is below 1e-3.
    PATTERN_SE_BOUND = 4.5

    @pytest.fixture(scope="class")
    def fixture_patterns(self, fixture_simulate):
        args, report = fixture_simulate
        return attack_pattern_law(args["probs"], report.copula)

    @pytest.fixture(scope="class")
    def reference(self):
        """The eight-protocol reference portfolio's inputs, copula and pattern law."""
        study = _study()
        tvls = [study.TVLS[pid] for pid in study.PROTOCOL_IDS]
        args = inputs([study.ATTACK_PROBS[pid] for pid in study.PROTOCOL_IDS], tvls,
                      study.reference_severity())
        spec = build_copula(study.SIMILARITY)
        return args, spec, attack_pattern_law(args["probs"], spec)

    def check(self, report, exact):
        """Each VaR and CTE of the copula scenario within SE_BOUND of its bootstrap
        SEs of the exact bracket (an SE of 0 asks for the bracket itself), and
        ``var_on_atom`` set exactly where the exact law puts VaR on an atom."""
        for j, (q, (var_lo, var_hi, cte_lo, cte_hi, on_atom)) in enumerate(zip(self.LEVELS, exact)):
            for name, lo, hi in (("var", var_lo, var_hi), ("cte", cte_lo, cte_hi)):
                value, se = report.table[f"{name}_dep"][j], report.table[f"se_{name}_dep"][j]
                bound = self.SE_BOUND * se
                assert lo - bound <= value <= hi + bound, (name, q, value, se, lo, hi)
            assert (f"var_dep@{q:g}" in report.var_on_atom) == on_atom

    @pytest.mark.parametrize("paths", ["golden", "1e6"])
    def test_fixture_report_lies_in_the_bracket(self, fixture_simulate, fixture_patterns, paths):
        # The golden run, and 10^6 paths on their own streams.  The fixture's
        # copula law is continuous at every level.
        args, report = fixture_simulate
        spec = report.copula
        if paths == "1e6":
            report = tailrisk.risk_report(
                **args, copula=lambda: spec, levels=self.LEVELS, n_sims=1_000_000,
                rng=RngStream(12, 0), bootstrap_resamples=100, dependence="on",
            )
        exact = copula_tail_law(fixture_patterns, args["tvls"], args["laws"], self.LEVELS)
        assert [on_atom for *_, on_atom in exact] == [False, False, False]
        self.check(report, exact)

    def test_reference_var_on_an_atom(self, reference):
        # On the reference portfolio the copula puts VaR_0.99 on the total
        # loss of protocol F alone (4 x 10^8), which the independent law
        # does not; 10^6 paths on their own streams.
        args, spec, patterns = reference
        exact = copula_tail_law(patterns, args["tvls"], args["laws"], self.LEVELS)
        assert [on_atom for *_, on_atom in exact] == [False, False, True]
        assert exact[2][:2] == (4e8, 4e8)
        assert not any(on_atom for *_, on_atom in independent_tail_law(**args, levels=self.LEVELS))
        report = tailrisk.risk_report(
            **args, copula=lambda: spec, levels=self.LEVELS, n_sims=1_000_000,
            rng=RngStream(14, 0), bootstrap_resamples=100, dependence="on",
        )
        self.check(report, exact)

    def test_event_sampler_pattern_frequencies(self, fixture_simulate, fixture_patterns):
        # 10^6 paths drawn block by block, as ``simulate_aggregate`` draws
        # them: each attack pattern with probability above 1e-5 is seen at
        # that rate within PATTERN_SE_BOUND binomial SEs, plus the orthant
        # probability's own error.
        args, report = fixture_simulate
        d, n = report.copula.dim, 1_000_000
        sampler = EventSampler(report.copula, args["probs"], tailrisk._BLOCK)
        rng = RngStream(13, 0)
        place = (1 << np.arange(d - 1, -1, -1))[:, None]  # protocol 0 is the leading bit
        counts = np.zeros(2**d, dtype=np.int64)
        for block, start in enumerate(range(0, n, tailrisk._BLOCK)):
            m = min(tailrisk._BLOCK, n - start)
            bits = np.unpackbits(sampler.draw(rng.block_generator(block), m), axis=1, count=m)
            counts += np.bincount((place * bits).sum(axis=0), minlength=2**d)
        p = fixture_patterns
        seen = p > 1e-5
        assert seen.sum() > 2**d // 2
        bound = self.PATTERN_SE_BOUND * np.sqrt(p * (1.0 - p) / n) + ORTHANT_ABSEPS
        assert np.all(np.abs(counts / n - p)[seen] <= bound[seen])


class TestTailOnlyBootstrap:
    @staticmethod
    def atoms_sample(n=20_000):
        """A zero atom (89%), a continuous middle (8%) and a total-loss atom (3%)."""
        middle = 1e6 * np.exp(RngStream(21, 0).generator().standard_normal(int(0.08 * n)))
        zeros = np.zeros(int(0.89 * n))
        return np.sort(np.concatenate([zeros, middle, np.full(n - zeros.size - middle.size, 1e9)]))

    def test_standard_errors_agree_with_full_bootstrap(self):
        # Levels on the zero atom's edge, inside the continuous part, on the
        # total-loss atom's edge and inside that atom.  The mean SE over 40
        # bootstrap seeds must agree with the full resampling oracle's within
        # 4 combined standard errors of the two means.
        sample = self.atoms_sample()
        levels = (0.89, 0.95, 0.97, 0.99)
        seeds = range(40)
        tail = np.array([
            np.concatenate(tailrisk._bootstrap_ses([sample], levels, 40, RngStream(s, 1).generator()))
            for s in seeds
        ])
        full = np.array([
            np.concatenate(full_bootstrap_ses(sample, levels, 40, RngStream(s, 2).generator()))
            for s in seeds
        ])
        gap = np.abs(tail.mean(axis=0) - full.mean(axis=0))
        se = np.hypot(tail.std(axis=0, ddof=1), full.std(axis=0, ddof=1)) / math.sqrt(len(seeds))
        assert np.all(gap <= 4.0 * se), (gap / np.where(se > 0, se, np.nan)).round(2)
        assert np.all(tail[:, :3] > 0.0) and np.all(tail[:, 3] == 0.0)

    def test_short_top_draw_falls_back_to_an_exact_full_resample(self):
        # With m = t the binomial count of draws in the top m falls below t
        # in P(Bin(10, 0.3) < 3) = 38% of resamples, which then draw the
        # rest of the sample too.  Either way rank k of the resample must
        # follow its exact law: P(X_(k) <= x_j) = P(Bin(n, j/n) >= k).
        n, t, draws = 10, 3, 20_000
        gen = RngStream(30, 0).generator()
        ranks = (8, 10)
        seen = np.empty((draws, len(ranks)))
        fallbacks = 0
        tally = np.empty(t, np.int32)
        for r in range(draws):
            counts, lo = tailrisk._resample_counts(n, t, t, gen, tally)
            fallbacks += lo == 0
            drawn = np.repeat(np.arange(lo + 1, n + 1), counts)  # the counted x_j, ascending
            seen[r] = [drawn[k - 1 - (n - drawn.size)] for k in ranks]
        p_fall = sum(math.comb(n, c) * 0.3**c * 0.7 ** (n - c) for c in range(t))
        assert abs(fallbacks / draws - p_fall) <= 5.0 * math.sqrt(p_fall * (1 - p_fall) / draws)
        for i, k in enumerate(ranks):
            for j in range(1, n):
                p = j / n
                exact = sum(math.comb(n, c) * p**c * (1 - p) ** (n - c) for c in range(k, n + 1))
                got = float((seen[:, i] <= j).mean())
                assert abs(got - exact) <= 5.0 * math.sqrt(exact * (1 - exact) / draws) + 1e-12

    def test_tallied_resample_measures_match_the_explicit_resample(self):
        # Expand each tally into the resample it stands for (the draws not
        # tallied lie below index lo) and recompute VaR and CTE from it,
        # on the tail path (m from _tail_size) and on the fallback (m = t).
        # At n = 20,000 the ranks are found across several 1,024-count blocks.
        for n in (2_000, 20_000):
            sample = self.atoms_sample(n)
            levels = (0.89, 0.95, 0.97, 0.99)
            ks = [tailrisk._order_index(n, q) for q in levels]
            t = n - min(ks) + 1
            gen = RngStream(32, 0).generator()
            paths = set()
            for m in (tailrisk._tail_size(n, t), t):
                tally = np.empty(m, np.int32)
                for _ in range(40):
                    counts, lo = tailrisk._resample_counts(n, t, m, gen, tally)
                    paths.add(lo)
                    below = np.full(n - int(counts.sum()), sample[lo - 1] if lo else 0.0)
                    resample = np.concatenate([below, np.repeat(sample[lo:], counts)])
                    tails = tailrisk._resample_tail(sample, counts, lo, tailrisk._rank_cells(counts, ks, n), n)
                    for (v, cte), q in zip(tails, levels):
                        want_var, want_cte, *_ = tailrisk._tail(resample, q, n)
                        assert v == want_var
                        assert cte == pytest.approx(want_cte, rel=1e-12)
            assert 0 in paths and len(paths) > 1

    @pytest.mark.parametrize("fallback", [False, True], ids=["tail", "fallback"])
    def test_joint_bootstrap_gives_each_top_its_own_ses(self, monkeypatch, fallback):
        # One tally per resample serves every top, so each top's SEs from the
        # joint bootstrap are, byte for byte, those it gets alone from the
        # same stream.  With m = t + 1 about half the resamples draw fewer
        # than t values from the top and redraw every sample once.
        if fallback:
            monkeypatch.setattr(tailrisk, "_tail_size", lambda n, t: min(n, t + 1))
        n, levels = 20_000, (0.89, 0.95, 0.97, 0.99)
        fulls = [self.atoms_sample(n), np.sort(RngStream(37, 0).generator().lognormal(15.0, 2.0, n))]
        m = tailrisk._tail_need(n, levels)[2]
        redrawn = []

        def redraw(j):
            redrawn.append(j)
            return fulls[j]

        def ses(js):
            tops = [fulls[j][-m:] for j in js]
            redraws = [functools.partial(redraw, j) for j in js]
            gen = RngStream(38, 0).generator()
            se_var, se_cte = tailrisk._bootstrap_ses(tops, levels, 40, gen, n, redraws)
            return [(se_var[i * 4 : i * 4 + 4], se_cte[i * 4 : i * 4 + 4]) for i in range(len(js))]

        joint = ses([0, 1])
        assert redrawn == ([0, 1] if fallback else [])
        for j in (0, 1):
            alone = ses([j])[0]
            assert [a.tobytes() for a in joint[j]] == [a.tobytes() for a in alone]
            assert np.all(alone[0][:3] > 0.0)  # not a comparison of zeros

    def test_var_on_an_atom_in_every_resample_has_zero_se(self):
        # 20% of the sample on one total loss: VaR at 0.9, 0.95 and 0.99
        # lands on it in every resample.  numpy's axis-0 SD of 200 copies of
        # 459252161.86 in three columns is 5.4e-07, not 0, so the SD must be
        # taken around a replicate.
        rest = np.sort(RngStream(31, 0).generator().random(16_000)) * 1e8
        sample = np.concatenate([rest, np.full(4_000, 459252161.86)])
        levels = (0.90, 0.95, 0.99)
        se_var, se_cte = tailrisk._bootstrap_ses([sample], levels, 200, RngStream(31, 1).generator())
        assert np.all(se_var == 0.0) and np.all(se_cte == 0.0)

    @pytest.mark.parametrize("m", [7, 65_537, 2**31 - 1, 2**32, 2**33 + 7])
    def test_chunked_draws_equal_one_call(self, m):
        # The tally draws its indices a block at a time; chunks of any size,
        # odd ones too, must give the draws of one call and leave the
        # generator where that call leaves it.
        c = 150_001
        whole, chunked = RngStream(33, 0).generator(), RngStream(33, 0).generator()
        want = whole.integers(0, m, c)
        sizes = [65_536, 4_095, 7, 1]
        parts, done = [], 0
        while done < c:
            k = min(sizes[len(parts) % len(sizes)], c - done)
            parts.append(chunked.integers(0, m, k))
            done += k
        assert np.array_equal(np.concatenate(parts), want)
        assert chunked.random(4).tobytes() == whole.random(4).tobytes()

    @pytest.mark.parametrize("block", [tailrisk._BLOCK, 1_001])
    def test_tally_equals_the_bincount_of_one_call(self, block, monkeypatch):
        monkeypatch.setattr(tailrisk, "_BLOCK", block)
        m, c = 50_003, 210_007
        ours, ref = RngStream(34, 0).generator(), RngStream(34, 0).generator()
        tally = np.zeros(m, np.int32)
        tailrisk._tally(tally, ours, c)
        assert np.array_equal(tally, np.bincount(ref.integers(0, m, c), minlength=m))
        assert ours.random() == ref.random()

    def test_bootstrap_memory_follows_the_tally(self):
        # One int32 tally of the top m is 4m bytes, reused by every
        # resample; the draws, the rank search and the CTE sums hold
        # 65,536-value blocks.  An int64 bincount of the draws, the draws
        # themselves and a running count of them take 24m.
        n = 10_000_000
        ks, t, m = tailrisk._tail_need(n, [0.90, 0.99])
        top = np.sort(RngStream(36, 0).generator().lognormal(15.0, 2.0, m))
        gen = RngStream(36, 1).generator()
        tracemalloc.start()
        try:
            tailrisk._bootstrap_ses([top], [0.90, 0.99], 3, gen, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * m


class TestFootprint:
    @staticmethod
    def traced_peak(n, d, workers, dependence, low, high) -> int:
        probs = np.random.default_rng(4).uniform(low, high, d)
        args = inputs(probs, [1e7] * d, flat_severity_model(pi_s=0.3, mean_r=0.4))
        spec = build_copula(grouped_similarity(d, seed=4))  # built before the trace starts
        tracemalloc.start()
        try:
            tailrisk.risk_report(
                **args, copula=lambda: spec, n_sims=n, rng=RngStream(43), workers=workers,
                bootstrap_resamples=3, dependence=dependence,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize(
        "n, d, workers, dependence, low, high",
        [(200_000, 230, 1, "both", 0.01, 0.2), (200_000, 30, 2, "both", 0.9, 1.0),
         (1_000_000, 7, 4, "on", 0.9, 1.0), (100_000, 2, 1, "off", 0.99, 1.0),
         (2_000_000, 7, 1, "off", 0.01, 0.2)],
        ids=["d230", "d30-w2-busy", "d7-w4", "d2-off-busy", "n2e6-off"],
    )
    def test_bounds_the_traced_peak(self, n, d, workers, dependence, low, high):
        # Protocols attacked on nearly every path make the blocks' attacked
        # paths and ratios as large as they get.  The footprint holds the
        # run, and is within 3 times its peak, so it tells what a run needs.
        peak = self.traced_peak(n, d, workers, dependence, low, high)
        need = sum(tailrisk.footprint(n, (0.90, 0.95, 0.99), d, workers, dependence).values())
        assert peak <= need <= 3 * peak

    def test_parts(self):
        # At 10^7 paths and a 0.90 level m is 1,010,012: 8m of top, m/4 of
        # merge slack and an int32 tally; 10^10 paths need an int64 tally.
        part = tailrisk.footprint(10**7, (0.90,), 230, 2, "off")
        m = tailrisk._tail_need(10**7, (0.90,))[2]
        assert (part["top"], part["merge_slack"], part["tally"]) == (8 * m, 8 * (m // 4), 4 * m)
        assert part["samplers"] == 0
        with_copula = tailrisk.footprint(10**7, (0.90,), 230, 2, "both")
        assert with_copula["samplers"] == 2 * EventSampler.nbytes(230, tailrisk._BLOCK)
        m = tailrisk._tail_need(10**10, (0.90,))[2]
        assert tailrisk.footprint(10**10, (0.90,), 230, 2, "off")["tally"] == 8 * m


def test_dependence_study_prints_a_row_per_level(capsys):
    # The study script calls ``risk_report`` itself; a change of its
    # signature must not leave the script broken.
    _study().main(n_sims=20_000)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("paths per scenario: 20,000; total insured TVL: 1,650,000,000")
    assert lines[1] == ""
    assert lines[2].split() == [
        "level", "VaR", "dep", "VaR", "indep", "gap/se", "CTE", "dep", "CTE", "indep", "gap/se"
    ]
    rows = [line.split() for line in lines[3:]]
    assert [row[0] for row in rows] == ["0.9", "0.95", "0.99", "0.995", "0.999"]
    assert all(len(row) == 7 for row in rows)
