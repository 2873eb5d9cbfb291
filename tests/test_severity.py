import json
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defirisk import glm, severity
from defirisk.datamodel import Chain, IssueType, Month
from defirisk.errors import DomainError, SchemaError
from defirisk.numerics import RngStream

from oracles import exact_ratio_moments, field_mismatches, linear_logit_ses, mc_ratio_moments
from reference_values import PROP_LOSS_COEFS, TOTAL_LOSS_COEFS
from synth import incident_rows, incident_table, severity_incidents

SIGMA2_TRUTH = 4.0


def reference_model(betas=None, gammas=None, sigma2=1.0):
    """Severity model assembled directly from coefficient values."""
    betas = TOTAL_LOSS_COEFS if betas is None else np.asarray(betas, dtype=float)
    gammas = PROP_LOSS_COEFS if gammas is None else np.asarray(gammas, dtype=float)
    total = glm.LogisticFit(
        coefficients=betas,
        standard_errors=np.full(len(betas), np.nan),
        converged=True,
        penalty=None,
    )
    prop = glm.LinearLogitFit(coefficients=gammas, sigma2=sigma2)
    return severity.SeverityModel(
        total_loss_fit=total,
        proportional_fit=prop,
        time_origin=date(2020, 1, 1),
        training_window=(Month(2020, 1), Month(2023, 12)),
        hl=None,
        n_total=100,
        n_partial=100,
        low_partial_warning=False,
    )


def total_loss_only_model():
    return severity.SeverityModel(
        total_loss_fit=None,
        proportional_fit=None,
        time_origin=date(2020, 1, 1),
        training_window=(Month(2020, 1), Month(2023, 12)),
        hl=None,
        n_total=50,
        n_partial=0,
        low_partial_warning=True,
    )


class TestFitSeverity:
    def test_parametric_recovery(self):
        incidents = severity_incidents(10_000, 301, TOTAL_LOSS_COEFS, PROP_LOSS_COEFS, SIGMA2_TRUTH)
        data = severity.training_set(incidents)
        model = severity.fit_severity(data)
        tl = model.total_loss_fit
        assert tl.penalty is None
        assert np.all(np.abs(tl.coefficients - TOTAL_LOSS_COEFS) <= 3.0 * tl.standard_errors)
        prop = model.proportional_fit
        ses = linear_logit_ses(prop, data.partial()[0])
        assert np.all(np.abs(prop.coefficients - PROP_LOSS_COEFS) <= 3.0 * ses)
        assert prop.sigma2 == pytest.approx(SIGMA2_TRUTH, rel=0.10)

    def test_chain_separated_dataset(self):
        # All BSC incidents are total losses, all ETH lose exactly half:
        # the chain dummy separates the total-loss response, so the
        # penalized fallback must fire; the proportional part sees only ETH.
        model = severity.fit_severity(severity.training_set(incident_table(separated_rows())))
        assert model.total_loss_fit.penalty is not None
        assert np.all(np.isfinite(model.total_loss_fit.coefficients))
        assert model.n_partial == 60
        assert model.n_total == 60

    def test_all_total_losses_flags_pi_s_only(self):
        incidents = incident_table(
            (f"P{i}", date(2022, 1, 1), Chain.ETH, IssueType.OTHER, 1e6, None) for i in range(40)
        )
        model = severity.fit_severity(severity.training_set(incidents))
        assert model.total_loss_only
        assert severity.predict_total_loss_prob(model, Chain.ETH, 1e6, date(2023, 1, 1)) == 1.0

    def test_window_filter_and_zero_loss_skip(self):
        inside = severity_incidents(50, 303, TOTAL_LOSS_COEFS, PROP_LOSS_COEFS, 1.0)
        outside = [
            ("OLD", date(2019, 6, 1), Chain.ETH, IssueType.OTHER, 1e6, 1e7),
            ("ZERO", date(2021, 6, 1), Chain.ETH, IssueType.OTHER, 0.0, 1e7),
        ]
        incidents = incident_table(incident_rows(inside) + outside)
        model = severity.fit_severity(severity.training_set(incidents))
        assert model.n_total + model.n_partial == 50
        assert model.zero_loss_skipped == 1

    def test_low_partial_warning(self):
        incidents = severity_incidents(40, 307, TOTAL_LOSS_COEFS, PROP_LOSS_COEFS, 1.0)
        model = severity.fit_severity(severity.training_set(incidents))
        if model.n_partial < severity.MIN_PARTIAL_OBS:
            assert model.low_partial_warning

    def test_hl_calibration_on_total_loss_part(self):
        # Well-specified data should rarely reject; 20 seeded replicates.
        passes = 0
        for seed in range(20):
            incidents = severity_incidents(
                2000, 400 + seed, TOTAL_LOSS_COEFS, PROP_LOSS_COEFS, SIGMA2_TRUTH
            )
            model = severity.fit_severity(severity.training_set(incidents))
            if model.hl is not None and model.hl.p_value > 0.05:
                passes += 1
        assert passes >= 18


class TestPredictTotalLossProb:
    def test_reference_chain_direct_substitution(self):
        model = reference_model()
        tvl = 2e7
        expected = glm.invlogit(TOTAL_LOSS_COEFS[0] + TOTAL_LOSS_COEFS[3] * math.log(tvl))
        got = severity.predict_total_loss_prob(model, Chain.BSC, tvl, date(2020, 1, 1))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_decreasing_in_tvl(self):
        model = reference_model()
        when = date(2022, 6, 1)
        grid = [1e5, 1e6, 1e7, 1e9, 1e11]
        probs = [severity.predict_total_loss_prob(model, Chain.BSC, tvl, when) for tvl in grid]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_eth_below_reference_chain_at_origin(self):
        model = reference_model()
        when = date(2020, 1, 1)
        eth = severity.predict_total_loss_prob(model, Chain.ETH, 1e7, when)
        bsc = severity.predict_total_loss_prob(model, Chain.BSC, 1e7, when)
        assert eth < bsc

    def test_preconditions(self):
        model = reference_model()
        with pytest.raises(DomainError):
            severity.predict_total_loss_prob(model, Chain.ETH, 0.0, date(2022, 1, 1))
        with pytest.raises(DomainError):
            severity.predict_total_loss_prob(model, Chain.ETH, 1e6, date(2019, 12, 31))


# eta grid of the quadrature check, spanning [-12, 6]; it includes -10.5,
# where the plain 128-node rule misses E(R*^2) at sigma^2 = 9 by 1.1e-8.
QUAD_ETAS = (-12.0, -10.5, -8.0, -5.0, -2.5, -1.0, 0.0, 1.5, 3.0, 6.0)


class TestRatioMoments:
    def test_zero_variance_is_exact(self):
        model = reference_model(sigma2=0.0)
        tvl = 3e7
        eta = PROP_LOSS_COEFS[0] + PROP_LOSS_COEFS[1] * math.log(tvl)
        moments = severity.ratio_moments(model, tvl)
        assert moments.mean_r == glm.invlogit(eta)
        assert moments.second_moment_r == glm.invlogit(eta) ** 2

    def test_symmetric_predictor_centers_at_half(self):
        model = reference_model(gammas=[0.0, 0.0], sigma2=2.0)
        moments = severity.ratio_moments(model, 1e7)
        assert abs(moments.mean_r - 0.5) <= 1e-15

    @pytest.mark.parametrize("sigma2", [0.01, 0.5, 2.0, 4.0, 6.0, 9.0])
    def test_matches_exact_integration(self, sigma2):
        for eta in QUAD_ETAS:
            moments = severity.ratio_moments(reference_model(gammas=[eta, 0.0], sigma2=sigma2), 1e7)
            mean, second = exact_ratio_moments(eta, sigma2)
            assert moments.mean_r == pytest.approx(mean, rel=1e-12, abs=0.0), eta
            assert moments.second_moment_r == pytest.approx(second, rel=1e-12, abs=0.0), eta
            assert moments.n_samples == severity.QUADRATURE_NODES

    def test_matches_higher_resolution_redraw(self):
        model = reference_model(sigma2=SIGMA2_TRUTH)
        tvl = 5e7
        moments = severity.ratio_moments(model, tvl)
        eta = PROP_LOSS_COEFS[0] + PROP_LOSS_COEFS[1] * math.log(tvl)
        mean, second, se_mean, se_second = mc_ratio_moments(
            eta, math.sqrt(SIGMA2_TRUTH), 10_000_000, RngStream(3, 2).generator()
        )
        assert abs(moments.mean_r - mean) <= 4.0 * se_mean
        assert abs(moments.second_moment_r - second) <= 4.0 * se_second

    def test_determinism(self):
        model = reference_model(sigma2=2.0)
        assert severity.ratio_moments(model, 1e6) == severity.ratio_moments(model, 1e6)

    @given(
        g0=st.floats(min_value=-4, max_value=4),
        g1=st.floats(min_value=-1, max_value=0.5),
        sigma2=st.floats(min_value=0.0, max_value=9.0),
        tvl=st.floats(min_value=1e3, max_value=1e12),
    )
    @settings(max_examples=25, deadline=None)
    def test_moment_inequalities(self, g0, g1, sigma2, tvl):
        model = reference_model(gammas=[g0, g1], sigma2=sigma2)
        m = severity.ratio_moments(model, tvl)
        assert m.mean_r**2 <= m.second_moment_r + 1e-15
        assert m.second_moment_r <= m.mean_r


class TestRatioLawDraw:
    # eta = +-30 with sigma = 4 sends about 7% of the logit arguments past
    # invlogit's clip at +-36; sigma = 0 gives a point mass; pi_s = 0 and 1
    # take one branch only.
    @pytest.mark.parametrize(
        "pi_s, eta, sigma",
        [(0.3, -0.8, 1.7), (0.05, 30.0, 4.0), (0.5, -30.0, 4.0), (0.2, 1.3, 0.0), (0.0, -2.0, 60.0),
         (1.0, 0.5, 1.0)],
    )
    @pytest.mark.parametrize("k", [0, 1, 20_000])
    def test_matches_one_where_over_the_inverse_logit_bit_for_bit(self, pi_s, eta, sigma, k):
        law = severity.RatioLaw(pi_s, eta, sigma)
        gen, ref_gen = RngStream(55, 1).generator(), RngStream(55, 1).generator()
        got = law.draw(gen, k)
        u, z = ref_gen.random(k), ref_gen.standard_normal(k)
        want = np.where(u < pi_s, 1.0, glm.invlogit(eta + sigma * z))
        assert got.shape == (k,) and got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # The generator ends where the uniform and normal draws leave it.
        assert np.array_equal(gen.integers(0, 2**63, 4), ref_gen.integers(0, 2**63, 4))


class TestSampleRatio:
    def test_total_loss_only_always_one(self):
        model = total_loss_only_model()
        draws = severity.sample_ratio(model, Chain.ETH, 1e6, date(2022, 1, 1), RngStream(1), size=1000)
        assert np.all(draws == 1.0)

    def test_never_total_with_zero_noise_is_deterministic(self):
        # Intercept -40 pins the total-loss probability at ~0.
        model = reference_model(betas=[-40, 0, 0, 0, 0, 0, 0], sigma2=0.0)
        tvl = 1e7
        eta = PROP_LOSS_COEFS[0] + PROP_LOSS_COEFS[1] * math.log(tvl)
        draws = severity.sample_ratio(model, Chain.BSC, tvl, date(2022, 1, 1), RngStream(2), size=500)
        assert draws == pytest.approx(np.full(500, glm.invlogit(eta)), abs=1e-15)

    def test_atom_mass_matches_total_loss_probability(self):
        model = reference_model(sigma2=1.0)
        tvl, when = 2e7, date(2021, 6, 15)
        pi_s = severity.predict_total_loss_prob(model, Chain.ETH, tvl, when)
        n = 1_000_000
        draws = severity.sample_ratio(model, Chain.ETH, tvl, when, RngStream(7), size=n)
        frac = float((draws == 1.0).mean())
        se = math.sqrt(pi_s * (1 - pi_s) / n)
        assert abs(frac - pi_s) <= 3.0 * se

    def test_outputs_in_unit_interval(self):
        model = reference_model(sigma2=3.0)
        draws = severity.sample_ratio(model, Chain.OTHER, 1e5, date(2023, 1, 1), RngStream(8), size=10_000)
        assert np.all(draws > 0.0)
        assert np.all(draws <= 1.0)


class TestPredictedLossPercentage:
    """E(R), the expected fraction of TVL lost given an attack, from ``loss_moments``."""

    def test_certain_total_loss(self):
        model = total_loss_only_model()
        assert severity.loss_moments(model, Chain.ETH, 1e6, date(2022, 1, 1))[0] == 1.0

    def test_two_part_arithmetic(self):
        # pi_S = 0.02 and E(R*) = 0.024 combine to 0.98*0.024 + 0.02.
        model = reference_model(
            betas=[glm.logit(0.02), 0, 0, 0, 0, 0, 0],
            gammas=[glm.logit(0.024), 0.0],
            sigma2=0.0,
        )
        got = severity.loss_moments(model, Chain.BSC, 1e7, date(2020, 1, 1))[0]
        assert got == pytest.approx(0.04352, abs=1e-12)

    def test_nonincreasing_in_tvl(self):
        model = reference_model(sigma2=SIGMA2_TRUTH)
        when = date(2022, 1, 1)
        grid = [10**k for k in range(5, 13)]
        vals = [severity.loss_moments(model, Chain.ETH, tvl, when)[0] for tvl in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def separated_rows() -> list:
    """Incidents whose chain separates total losses (BSC) from partial ones (ETH)."""
    rows = []
    for i in range(60):
        tvl = 1e6 * (1.0 + i)
        rows.append((f"B{i}", date(2021, 3, 1), Chain.BSC, IssueType.OTHER, tvl, tvl))
        rows.append((f"E{i}", date(2021, 3, 1), Chain.ETH, IssueType.OTHER, tvl / 2, tvl))
    return rows


class TestSerialization:
    @pytest.mark.parametrize("kind", ["two-part", "penalized", "total-loss-only"])
    def test_every_field_survives_the_file(self, kind):
        incidents = {
            "two-part": lambda: severity_incidents(800, 311, TOTAL_LOSS_COEFS, PROP_LOSS_COEFS, 2.0),
            "penalized": lambda: incident_table(separated_rows()),
            "total-loss-only": lambda: incident_table(
                (f"P{i}", date(2022, 1, 1), Chain.ETH, IssueType.OTHER, 1e6, None) for i in range(40)
            ),
        }[kind]()
        model = severity.fit_severity(severity.training_set(incidents))
        assert model.total_loss_only is (kind == "total-loss-only")
        if kind == "penalized":
            assert model.total_loss_fit.penalty is not None
        back = severity.from_dict(json.loads(json.dumps(severity.to_dict(model))))
        assert field_mismatches(model, back) == []

    def test_round_trip(self):
        import json

        incidents = severity_incidents(800, 311, TOTAL_LOSS_COEFS, PROP_LOSS_COEFS, 2.0)
        model = severity.fit_severity(severity.training_set(incidents))
        back = severity.from_dict(json.loads(json.dumps(severity.to_dict(model))))
        when = date(2023, 5, 1)
        for chain in (Chain.ETH, Chain.BSC, Chain.OTHER):
            assert severity.predict_total_loss_prob(
                back, chain, 1e7, when
            ) == severity.predict_total_loss_prob(model, chain, 1e7, when)
        assert back.sigma2 == model.sigma2
        assert back.training_window == model.training_window

    def test_converged_flag_round_trips(self):
        import dataclasses
        import json

        incidents = severity_incidents(800, 311, TOTAL_LOSS_COEFS, PROP_LOSS_COEFS, 2.0)
        model = severity.fit_severity(severity.training_set(incidents))
        for converged in (False, True):
            fit = dataclasses.replace(model.total_loss_fit, converged=converged)
            doc = severity.to_dict(dataclasses.replace(model, total_loss_fit=fit))
            back = severity.from_dict(json.loads(json.dumps(doc)))
            assert doc["converged"] is converged and back.total_loss_fit.converged is converged
        for key in ("converged", "low_partial_warning"):
            with pytest.raises(SchemaError, match=key):
                severity.from_dict({**doc, key: "false"})

    def test_round_trip_total_loss_only(self):
        import json

        model = total_loss_only_model()
        back = severity.from_dict(json.loads(json.dumps(severity.to_dict(model))))
        assert back.total_loss_only
