import math
from datetime import date

import numpy as np
import pytest

from defirisk import glm, pricing, severity
from defirisk.datamodel import Chain, Month, ProtocolSpec
from defirisk.errors import DomainError
from defirisk.frequency import FrequencyModel
from defirisk.numerics import RngStream

from oracles import mc_ratio_moments
from reference_values import (
    ATTACK_PROBS,
    EXPECTATION_PREMIUM_PCT,
    LOSS_PCT,
    PROP_LOSS_COEFS,
    THETA,
)
from test_severity import reference_model, total_loss_only_model

WHEN = date(2024, 1, 1)


def flat_frequency_model(p: float, protocol_id="X") -> FrequencyModel:
    """Frequency model predicting probability p at any TVL."""
    fit = glm.LogisticFit(
        coefficients=np.array([glm.logit(p), 0.0]),
        standard_errors=np.array([np.nan, np.nan]),
        converged=True,
        penalty=None,
    )
    return FrequencyModel(protocol_id, fit, (Month(2020, 1), Month(2023, 12)), None, 0.0, 1.0)


def flat_severity_model(pi_s: float, mean_r: float) -> severity.SeverityModel:
    """Severity model with TVL-free total-loss probability and ratio mean."""
    return reference_model(
        betas=[glm.logit(pi_s), 0, 0, 0, 0, 0, 0],
        gammas=[glm.logit(mean_r), 0.0],
        sigma2=0.0,
    )


def protocol(pid="X", chain=Chain.ETH):
    return ProtocolSpec(pid, chain, Month(2020, 1))


def expected_loss(pi_f, tvl, model, chain=Chain.BSC, theta=THETA):
    """E(L) through the one premium path: ``loss_moments`` then ``premiums``."""
    e_r, e_r2, _ = severity.loss_moments(model, chain, tvl, WHEN)
    expectation, _ = pricing.premiums(pi_f, tvl * e_r, tvl * tvl * e_r2, theta)
    return expectation / (1.0 + theta)


class TestExpectedLoss:
    def test_reference_arithmetic(self):
        value = expected_loss(0.024025, 1.0, flat_severity_model(pi_s=1e-17, mean_r=0.043901))
        assert value == pytest.approx(0.0010548, abs=1e-7)

    def test_zero_attack_probability(self):
        assert expected_loss(0.0, 1e9, flat_severity_model(pi_s=0.5, mean_r=0.3)) == 0.0

    def test_certain_total_loss(self):
        assert expected_loss(0.07, 2e8, total_loss_only_model()) == pytest.approx(0.07 * 2e8)

    def test_probability_validation(self):
        # An attack probability outside [0, 1] can only come from an
        # override file; TestOverridePricing rejects one with exit 2.
        with pytest.raises(DomainError):
            expected_loss(0.5, -1.0, flat_severity_model(pi_s=0.5, mean_r=0.5))
        with pytest.raises(DomainError):
            pricing.price(protocol(), -1.0, WHEN, flat_frequency_model(0.5),
                          flat_severity_model(pi_s=0.5, mean_r=0.5))


class TestSeveritySecondMoment:
    """E(Y^2) = TVL^2 E(R^2) from ``loss_moments``."""

    def test_certain_total_loss_is_tvl_squared(self):
        model = total_loss_only_model()
        tvl = 3e7
        assert tvl * tvl * severity.loss_moments(model, Chain.ETH, tvl, WHEN)[1] == tvl * tvl

    def test_degenerate_ratio(self):
        model = flat_severity_model(pi_s=1e-17, mean_r=0.3)
        tvl = 1e6
        got = tvl * tvl * severity.loss_moments(model, Chain.BSC, tvl, WHEN)[1]
        assert got == pytest.approx(tvl * tvl * 0.09, rel=1e-9)

    def test_against_independent_redraw(self):
        model = reference_model(sigma2=4.0)
        tvl = 5e7
        pi_s = severity.predict_total_loss_prob(model, Chain.ETH, tvl, WHEN)
        got = tvl * tvl * severity.loss_moments(model, Chain.ETH, tvl, WHEN)[1]
        # Independent high-resolution draw of the same law.
        eta = PROP_LOSS_COEFS[0] + PROP_LOSS_COEFS[1] * math.log(tvl)
        _, m2, _, se_m2 = mc_ratio_moments(eta, 2.0, 10_000_000, RngStream(31, 2).generator())
        expected = tvl * tvl * ((1.0 - pi_s) * m2 + pi_s)
        assert abs(got - expected) <= 4.0 * tvl * tvl * (1.0 - pi_s) * se_m2


class TestPrice:
    def quote(self, pid, tvl=1e8, theta=THETA):
        freq = flat_frequency_model(ATTACK_PROBS[pid], pid)
        sev_model = flat_severity_model(pi_s=1e-17, mean_r=LOSS_PCT[pid])
        return pricing.price(protocol(pid), tvl, WHEN, freq, sev_model, theta=theta)

    @pytest.mark.parametrize("pid", ["A", "F"])
    def test_reference_expectation_premiums(self, pid):
        quote = self.quote(pid)
        assert quote.expectation_premium_pct == pytest.approx(
            EXPECTATION_PREMIUM_PCT[pid], rel=0.005
        )

    def test_all_reference_rows_sd_above_expectation(self):
        for pid in ATTACK_PROBS:
            quote = self.quote(pid)
            assert quote.sd_premium_pct > quote.expectation_premium_pct

    def test_loading_scales_expectation_premium(self):
        base = self.quote("A", theta=1.0)
        e_l = base.expectation_premium_usd / 2.0
        for theta in (0.25, 0.5, 2.0, 5.0):
            quote = self.quote("A", theta=theta)
            assert quote.expectation_premium_usd == pytest.approx((1 + theta) * e_l, rel=1e-12)

    def test_homogeneous_in_tvl(self):
        base = self.quote("C", tvl=1e8)
        scaled = self.quote("C", tvl=5e8)
        assert scaled.expectation_premium_usd == pytest.approx(
            5.0 * base.expectation_premium_usd, rel=1e-12
        )
        assert scaled.sd_premium_usd == pytest.approx(5.0 * base.sd_premium_usd, rel=1e-12)
        assert scaled.expectation_premium_pct == pytest.approx(
            base.expectation_premium_pct, rel=1e-12
        )

    def test_certain_total_loss_closed_form(self):
        pi = 0.05
        tvl = 1e8
        quote = pricing.price(
            protocol("T"), tvl, WHEN, flat_frequency_model(pi, "T"), total_loss_only_model(),
            theta=0.5,
        )
        assert quote.loss_pct == 1.0
        assert quote.sd_premium_usd == pytest.approx(
            tvl * (pi + 0.5 * math.sqrt(pi * (1 - pi))), rel=1e-12
        )

    def test_deterministic(self):
        a = self.quote("B")
        b = self.quote("B")
        assert a == b

    def test_quote_consistency_invariant(self):
        quote = self.quote("D")
        assert quote.expectation_premium_usd == pytest.approx(
            quote.expectation_premium_pct * quote.tvl, rel=1e-12
        )

    def test_theta_validation(self):
        with pytest.raises(DomainError):
            self.quote("A", theta=0.0)
