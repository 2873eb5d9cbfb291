import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, kstest

from defirisk import glm
from defirisk.errors import DomainError

from reference_values import FREQ_COEFS, PROP_LOSS_COEFS


def simulate_logistic(coefs, n, seed, x_sd=1.0):
    """Events from a logistic model on a standardized covariate."""
    gen = np.random.default_rng(seed)
    x = gen.normal(0.0, x_sd, size=n)
    z = (x - x.mean()) / x.std(ddof=1)
    p = glm.invlogit(coefs[0] + coefs[1] * z)
    y = (gen.random(n) < p).astype(float)
    return np.column_stack([np.ones(n), x]), y


class TestInvlogit:
    @staticmethod
    def three_exp_form(eta):
        """The former ``glm.invlogit``, which took three ``exp`` per entry."""
        eta = np.clip(eta, -36.0, 36.0)
        out = np.where(eta >= 0, 1.0 / (1.0 + np.exp(-eta)), np.exp(eta) / (1.0 + np.exp(eta)))
        return float(out) if np.ndim(eta) == 0 else out

    def test_one_exp_matches_the_three_exp_form_bit_for_bit(self):
        edges = np.array([0.0, -0.0, 36.0, -36.0, 37.0, -37.0, 1e-300, -1e-300])
        wide = np.random.default_rng(61).normal(0.0, 20.0, 100_000)
        for eta in (edges, wide):
            new, old = glm.invlogit(eta), self.three_exp_form(eta)
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
            in_place = eta.copy()  # ``out`` may be the argument itself
            assert glm.invlogit(in_place, out=in_place) is in_place
            assert np.array_equal(in_place.view(np.uint64), old.view(np.uint64))
        for x in edges.tolist():
            new, old = glm.invlogit(x), self.three_exp_form(x)
            assert isinstance(new, float)
            assert np.float64(new).view(np.uint64) == np.float64(old).view(np.uint64)


class TestFitLogistic:
    def test_balanced_intercept_only(self):
        y = np.array([0.0, 1.0] * 50)
        fit = glm.fit_logistic(np.ones((100, 1)), y)
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-6)
        assert fit.penalty is None

    def test_parametric_recovery_protocol_a(self):
        truth = np.array(FREQ_COEFS["A"][0])
        design, y = simulate_logistic(truth, 100_000, seed=101)
        fit = glm.fit_logistic(design, y)
        assert fit.penalty is None
        assert np.all(np.abs(fit.coefficients - truth) <= 3.0 * fit.standard_errors)

    def test_matches_independent_optimizer(self):
        from scipy.optimize import minimize

        design, y = simulate_logistic((-1.0, 0.7), 5000, seed=3)
        x = design[:, 1]
        xs = np.column_stack([np.ones(len(y)), (x - x.mean()) / x.std(ddof=1)])
        fit = glm.fit_logistic(xs, y)

        def nll(b):
            eta = xs @ b
            return np.sum(np.logaddexp(0.0, eta) - y * eta)

        res = minimize(nll, np.zeros(2), method="BFGS", options={"gtol": 1e-10})
        assert fit.coefficients == pytest.approx(res.x, abs=1e-6)

    def test_separation_triggers_penalty(self):
        n = 200
        x = np.linspace(-2, 2, n)
        y = (x > 0).astype(float)
        fit = glm.fit_logistic(np.column_stack([np.ones(n), x]), y)
        assert fit.penalty is not None
        assert np.all(np.isfinite(fit.coefficients))
        assert np.all(np.isnan(fit.standard_errors))

    def test_rank_deficient_falls_back(self):
        n = 60
        gen = np.random.default_rng(5)
        x = gen.normal(size=n)
        design = np.column_stack([np.ones(n), x, x])  # duplicated column
        y = (gen.random(n) < glm.invlogit(-1 + x)).astype(float)
        fit = glm.fit_logistic(design, y)
        assert fit.penalty is not None
        assert np.all(np.isfinite(fit.coefficients))

    def test_degenerate_response(self):
        with pytest.raises(DomainError, match="response is constant"):
            glm.fit_logistic(np.ones((20, 1)), np.zeros(20))
        with pytest.raises(DomainError, match="response is constant"):
            glm.fit_logistic(np.ones((20, 1)), np.ones(20))

    def test_objective_monotone_over_accepted_iterations(self):
        design, y = simulate_logistic((-2.5, 0.4), 5000, seed=11)
        fit = glm.fit_logistic(design, y)
        trace = np.array(fit.nll_trace)
        slack = 1e-8 * max(1.0, np.abs(trace).max())
        assert np.all(np.diff(trace) <= slack)

    def test_standardization_invariance(self):
        design, y = simulate_logistic((-1.5, 0.3), 4000, seed=13)
        x = design[:, 1]
        m, s = x.mean(), x.std(ddof=1)
        pre = np.column_stack([np.ones(len(y)), (x - m) / s])
        fit_raw = glm.fit_logistic(design, y)
        fit_pre = glm.fit_logistic(pre, y)
        for xv in (-1.0, 0.0, 2.5, m):
            p_raw = glm.predict_logistic(fit_raw, [xv])
            p_pre = glm.predict_logistic(fit_pre, [(xv - m) / s])
            assert p_raw == pytest.approx(p_pre, abs=1e-10)

    def test_iteration_budget_exhausted_falls_back(self, monkeypatch):
        design, y = simulate_logistic((-1.0, 0.2), 500, seed=17)
        assert glm.fit_logistic(design, y).penalty is None
        monkeypatch.setattr(glm, "_IRLS_MAX_ITER", 1)
        fit = glm.fit_logistic(design, y)
        assert fit.penalty is not None
        assert len(fit.nll_trace) == 2  # the start and the one step the budget allows
        assert np.all(np.isnan(fit.standard_errors)) and fit.covariance is None

    def test_intercept_shape_checks(self):
        with pytest.raises(DomainError):
            glm.fit_logistic(np.zeros((10, 1)), np.array([0, 1] * 5))


class TestPredictLogistic:
    def test_reference_point_prediction(self):
        fit = glm.LogisticFit(
            coefficients=np.array([-3.7792, 0.2164]),
            standard_errors=np.array([1.0318, 1.2308]),
            converged=True,
            penalty=None,
        )
        # At the covariate mean the slope term vanishes.
        assert glm.predict_logistic(fit, [0.0]) == pytest.approx(0.02233, abs=1e-4)
        # Standardized covariate 0.3458 reproduces the next-month prediction.
        assert glm.predict_logistic(fit, [0.3458]) == pytest.approx(0.024025, abs=1e-4)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=50)
    def test_predictions_strictly_inside_unit_interval(self, xv):
        fit = glm.LogisticFit(
            coefficients=np.array([-3.0, 2.0]),
            standard_errors=np.array([1.0, 1.0]),
            converged=True,
            penalty=None,
        )
        p = glm.predict_logistic(fit, [xv])
        assert 0.0 < p < 1.0

    def test_dimension_mismatch(self):
        design, y = simulate_logistic((-2.0, 0.5), 100, seed=1)
        fit = glm.fit_logistic(design, y)
        with pytest.raises(DomainError):
            glm.predict_logistic(fit, [1.0, 2.0])


class TestFitLinearOnLogit:
    def test_noiseless_recovery(self):
        x = np.linspace(-3, 3, 200)
        y = glm.invlogit(2.0 - 0.5 * x)
        fit = glm.fit_linear_on_logit(np.column_stack([np.ones(200), x]), y)
        assert fit.coefficients == pytest.approx([2.0, -0.5], abs=1e-10)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-10)

    def test_parametric_recovery_proportional_losses(self):
        gen = np.random.default_rng(211)
        n = 10_000
        ltv = gen.normal(15.0, 2.0, size=n)
        sigma2 = 4.0
        noise = gen.normal(0.0, np.sqrt(sigma2), size=n)
        y = glm.invlogit(PROP_LOSS_COEFS[0] + PROP_LOSS_COEFS[1] * ltv + noise)
        fit = glm.fit_linear_on_logit(np.column_stack([np.ones(n), ltv]), y)
        assert np.all(np.abs(fit.coefficients - PROP_LOSS_COEFS) <= 3.0 * fit.standard_errors)
        assert fit.sigma2 == pytest.approx(sigma2, rel=0.1)

    def test_residuals_sum_to_zero_with_intercept(self):
        gen = np.random.default_rng(31)
        x = gen.normal(size=500)
        y = glm.invlogit(0.5 + x + gen.normal(size=500))
        design = np.column_stack([np.ones(500), x])
        fit = glm.fit_linear_on_logit(design, y)
        residuals = glm.logit(y) - design @ fit.coefficients
        assert abs(residuals.sum()) <= 1e-8

    def test_sigma2_is_rss_over_dof(self):
        gen = np.random.default_rng(37)
        x = gen.normal(size=100)
        y = glm.invlogit(1.0 - x + gen.normal(size=100))
        design = np.column_stack([np.ones(100), x])
        fit = glm.fit_linear_on_logit(design, y)
        residuals = glm.logit(y) - design @ fit.coefficients
        assert fit.sigma2 == pytest.approx(float(residuals @ residuals) / 98)

    def test_boundary_response_rejected(self):
        design = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        with pytest.raises(DomainError):
            glm.fit_linear_on_logit(design, np.array([0.2, 1.0, 0.4]))
        with pytest.raises(DomainError):
            glm.fit_linear_on_logit(design, np.array([0.2, 0.0, 0.4]))

    def test_constant_column_raises_rank_error(self):
        design = np.column_stack([np.ones(50), np.full(50, 2.0)])
        y = np.linspace(0.1, 0.9, 50)
        with pytest.raises(DomainError, match="design matrix is rank deficient"):
            glm.fit_linear_on_logit(design, y)

    def test_collinear_slopes_raise_rank_error(self):
        # No constant column besides the intercept: the third is twice the second.
        x = np.linspace(-1.0, 1.0, 50)
        design = np.column_stack([np.ones(50), x, 2.0 * x])
        with pytest.raises(DomainError, match="design matrix is rank deficient"):
            glm.fit_linear_on_logit(design, np.linspace(0.1, 0.9, 50))

    def test_too_few_rows(self):
        with pytest.raises(DomainError, match="need more than 2 observations, got 2"):
            glm.fit_linear_on_logit(np.ones((2, 2)), np.array([0.5, 0.6]))


class TestHosmerLemeshow:
    @staticmethod
    def saturated_fit():
        """Five covariate levels whose fitted rates exactly match the data."""
        levels = 5
        per = 40
        events = [4, 8, 12, 16, 20]
        rows, y = [], []
        for lvl in range(levels):
            dummies = [1.0 if j == lvl else 0.0 for j in range(1, levels)]
            for i in range(per):
                rows.append([1.0] + dummies)
                y.append(1.0 if i < events[lvl] else 0.0)
        design = np.array(rows)
        y = np.array(y)
        fit = glm.fit_logistic(design, y)
        return fit, design, y

    def test_perfect_calibration_gives_zero_statistic(self):
        fit, design, y = self.saturated_fit()
        hl = glm.hosmer_lemeshow(fit, design, y, groups=5)
        assert hl.statistic == pytest.approx(0.0, abs=1e-8)
        assert hl.p_value == pytest.approx(1.0, abs=1e-8)
        assert hl.groups_used == 5
        assert hl.df == 3

    def test_df_is_groups_minus_two(self):
        gen = np.random.default_rng(41)
        n = 2000
        x = gen.normal(size=n)
        y = (gen.random(n) < glm.invlogit(-1.0 + 0.8 * x)).astype(float)
        design = np.column_stack([np.ones(n), x])
        fit = glm.fit_logistic(design, y)
        hl = glm.hosmer_lemeshow(fit, design, y, groups=10)
        assert hl.groups_used == 10
        assert hl.df == 8

    def test_row_order_invariance(self):
        gen = np.random.default_rng(43)
        n = 500
        x = gen.normal(size=n)
        y = (gen.random(n) < glm.invlogit(-0.5 + x)).astype(float)
        design = np.column_stack([np.ones(n), x])
        fit = glm.fit_logistic(design, y)
        base = glm.hosmer_lemeshow(fit, design, y)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(n)
            shuffled = glm.hosmer_lemeshow(fit, design[perm], y[perm])
            assert shuffled.statistic == pytest.approx(base.statistic, rel=1e-12)
            assert shuffled.groups_used == base.groups_used

    def test_calibration_smoke(self):
        # Quick 30-replicate sanity check; the full 1000-replicate study
        # runs in the acceptance suite.
        gen = np.random.default_rng(47)
        rejections = 0
        for _ in range(30):
            n = 800
            x = gen.normal(size=n)
            y = (gen.random(n) < glm.invlogit(-2.0 + 0.5 * x)).astype(float)
            design = np.column_stack([np.ones(n), x])
            fit = glm.fit_logistic(design, y)
            hl = glm.hosmer_lemeshow(fit, design, y)
            rejections += hl.p_value < 0.05
        assert rejections <= 6

    def test_too_few_groups_rejected(self):
        fit, design, y = self.saturated_fit()
        with pytest.raises(DomainError):
            glm.hosmer_lemeshow(fit, design, y, groups=2)

    def test_one_tied_group_is_not_applicable(self):
        # An intercept-only fit ties every probability, so one group remains.
        design = np.ones((50, 1))
        y = np.array([1.0] * 10 + [0.0] * 40)
        fit = glm.fit_logistic(design, y)
        assert glm.hosmer_lemeshow(fit, design, y) is None


class TestChi2Tail:
    # Tiny, unit-scale, the Hosmer-Lemeshow range and deep in the tail.
    XS = [1e-8, 1e-3, 0.5, 1.0, *np.linspace(2.0, 200.0, 100).tolist(), 700.0]
    DFS = range(1, 31)

    def test_matches_mpmath(self):
        worst = 0.0
        with mpmath.workdps(40):
            for df in self.DFS:
                for x in self.XS:
                    exact = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                            regularized=True)
                    if exact >= mpmath.mpf("1e-300"):
                        rel = abs(mpmath.mpf(glm._chi2_sf(x, df)) - exact) / exact
                        worst = max(worst, float(rel))
        assert worst <= 1e-13

    def test_matches_scipy(self):
        for df in self.DFS:
            for x in self.XS:
                want = chi2.sf(x, df)
                if want >= 1e-300:
                    assert glm._chi2_sf(x, df) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_never_above_one(self):
        # A fitted model's HL p must reload as a probability; at df = 6 and
        # x = 3e-8 the Poisson sum rounded to 1.0000000000000002.
        for df in self.DFS:
            for x in np.logspace(-12, -4, 400).tolist():
                assert glm._chi2_sf(x, df) <= 1.0, (x, df)

    @pytest.mark.parametrize("x", [0.0, -0.0, -1e-300, -3.5, -math.inf])
    def test_nonpositive_x_is_exactly_one(self, x):
        for df in self.DFS:
            assert glm._chi2_sf(x, df) == 1.0


class TestQuantileResiduals:
    @staticmethod
    def fitted():
        gen = np.random.default_rng(53)
        n = 10_000
        x = gen.normal(size=n)
        y = glm.invlogit(0.5 - 0.8 * x + gen.normal(0, 1.5, size=n))
        design = np.column_stack([np.ones(n), x])
        return glm.fit_linear_on_logit(design, y), design, y

    def test_zero_at_fitted_mean(self):
        fit, design, _ = self.fitted()
        eta = design[:5] @ fit.coefficients
        y_at_mean = glm.invlogit(eta)
        resid = glm.quantile_residuals(fit, design[:5], y_at_mean)
        assert resid == pytest.approx(np.zeros(5), abs=1e-12)

    def test_length_matches_input(self):
        fit, design, y = self.fitted()
        assert len(glm.quantile_residuals(fit, design, y)) == len(y)

    def test_standard_normal_under_correct_model(self):
        fit, design, y = self.fitted()
        resid = glm.quantile_residuals(fit, design, y)
        assert kstest(resid, "norm").pvalue > 0.01

    def test_boundary_response_rejected(self):
        fit, design, _ = self.fitted()
        with pytest.raises(DomainError):
            glm.quantile_residuals(fit, design[:2], np.array([0.5, 1.0]))
