import json
import math

import numpy as np
import pytest

from defirisk import frequency, glm
from defirisk.datamodel import Month, Panel
from defirisk.errors import DomainError, NoEventError, SchemaError

from oracles import field_mismatches
from reference_values import FREQ_COEFS
from synth import frequency_panel


def constant_tvl_panel(n, events, log_tvl=15.0):
    flags = np.array([float(i in events) for i in range(n)])
    return Panel("P", Month(2019, 1), flags, np.full(n, log_tvl))


class TestFitFrequency:
    def test_parametric_recovery_protocol_f(self):
        truth = np.array(FREQ_COEFS["F"][0])
        panel = frequency_panel(truth, 600, seed=71)
        model = frequency.fit_frequency(panel)
        fit = model.fit
        assert fit.penalty is None
        assert np.all(np.abs(fit.coefficients - truth) <= 3.0 * fit.standard_errors)

    def test_window_and_hl_attached(self):
        panel = frequency_panel((-2.0, 0.3), 240, seed=73)
        model = frequency.fit_frequency(panel)
        assert model.training_window == (Month(1980, 1), Month(1999, 12))
        assert model.hl is not None
        assert model.hl.df == model.hl.groups_used - 2

    def test_no_events_routes_to_peer_interval(self):
        panel = constant_tvl_panel(36, events=set())
        with pytest.raises(NoEventError):
            frequency.fit_frequency(panel)

    def test_single_month_insufficient(self):
        panel = constant_tvl_panel(1, events={0})
        with pytest.raises(DomainError, match="a single panel month cannot identify the model"):
            frequency.fit_frequency(panel)

    def test_empty_panel(self):
        with pytest.raises(DomainError, match="empty monthly panel"):
            frequency.fit_frequency(constant_tvl_panel(0, events=set()))

    def test_constant_tvl_drops_covariate(self):
        events = {3, 10, 17, 24}
        panel = constant_tvl_panel(40, events)
        model = frequency.fit_frequency(panel)
        assert model.covariate_dropped
        assert model.fit.coefficients[1] == 0.0
        rate = len(events) / 40
        # Prediction is flat in TVL and equals the empirical event rate.
        for tvl in (1e3, 1e9, 1e15):
            assert frequency.predict_attack_probability(model, tvl) == pytest.approx(
                rate, abs=1e-6
            )

    def test_refit_is_deterministic(self):
        panel = frequency_panel((-2.5, 0.5), 300, seed=79)
        a = frequency.fit_frequency(panel)
        b = frequency.fit_frequency(panel)
        assert np.array_equal(a.fit.coefficients, b.fit.coefficients)
        assert np.array_equal(a.fit.standard_errors, b.fit.standard_errors)


class TestPredictAttackProbability:
    @staticmethod
    def fitted(seed=83):
        return frequency.fit_frequency(frequency_panel((-2.2, 0.6), 400, seed=seed))

    def test_strictly_inside_unit_interval(self):
        model = self.fitted()
        for tvl in (1e-6, 1.0, 1e6, 1e18):
            p = frequency.predict_attack_probability(model, tvl)
            assert 0.0 < p < 1.0

    def test_monotone_when_slope_positive(self):
        model = self.fitted()
        assert model.fit.coefficients[1] > 0
        grid = [1e6, 1e7, 1e8, 1e9, 1e10]
        probs = [frequency.predict_attack_probability(model, tvl) for tvl in grid]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_prediction_at_training_mean(self):
        model = self.fitted()
        tvl_at_mean = math.exp(model.cov_mean)
        assert frequency.predict_attack_probability(model, tvl_at_mean) == pytest.approx(
            glm.invlogit(model.fit.coefficients[0]), abs=1e-12
        )

    def test_nonpositive_tvl_rejected(self):
        model = self.fitted()
        with pytest.raises(DomainError):
            frequency.predict_attack_probability(model, 0.0)
        with pytest.raises(DomainError):
            frequency.predict_attack_probability(model, -5.0)


class TestPeerInterval:
    def test_single_peer_contains_its_point_prediction(self):
        panel = frequency_panel((-2.0, 0.4), 500, seed=89)
        model = frequency.fit_frequency(panel)
        tvl = 2e7
        point = frequency.predict_attack_probability(model, tvl)
        lo, hi = frequency.peer_interval(frequency.pooled_fit([panel]), tvl)
        assert 0.0 <= lo < point < hi <= 1.0

    def test_flat_pool_interval_contains_true_rate(self):
        # Events independent of TVL at rate 0.03.
        gen = np.random.default_rng(97)
        panels = []
        for pid in range(4):
            draws = [(gen.random() < 0.03, gen.normal(16.0, 1.0)) for _ in range(400)]
            events, log_tvl = np.array(draws, dtype=float).T
            panels.append(Panel(f"P{pid}", Month(2015, 1), events, log_tvl))
        lo, hi = frequency.peer_interval(frequency.pooled_fit(panels), 1e7)
        assert lo < 0.03 < hi

    def test_interval_ordering_on_random_pools(self):
        for seed in range(20):
            panel = frequency_panel((-2.0, 0.3), 300, seed=1000 + seed)
            tvl = float(np.exp(16.0))
            lo, hi = frequency.peer_interval(frequency.pooled_fit([panel]), tvl)
            pooled_fit = frequency.fit_frequency(panel)
            point = frequency.predict_attack_probability(pooled_fit, tvl)
            assert lo <= point <= hi

    def test_no_events_anywhere(self):
        panel = constant_tvl_panel(24, events=set())
        with pytest.raises(NoEventError):
            frequency.pooled_fit([panel])

    def test_penalized_fallback_raises(self, monkeypatch):
        # A penalized fit has no covariance for a Wald interval.
        panel = frequency_panel((-2.0, 0.4), 500, seed=89)
        monkeypatch.setattr(glm, "_IRLS_MAX_ITER", 1)
        with pytest.raises(DomainError, match="penalized path"):
            frequency.pooled_fit([panel])


class TestSerialization:
    @pytest.mark.parametrize("kind", ["slope", "covariate-dropped"])
    def test_every_field_survives_the_file(self, kind):
        panel = {"slope": frequency_panel((-2.8, 0.2), 350, seed=91),
                 "covariate-dropped": constant_tvl_panel(40, {3, 10, 17, 24})}[kind]
        model = frequency.fit_frequency(panel)
        assert model.covariate_dropped is (kind == "covariate-dropped")
        back = frequency.from_dict(json.loads(json.dumps(frequency.to_dict(model))))
        assert field_mismatches(model, back) == []

    def test_round_trip(self):
        varying = frequency.fit_frequency(frequency_panel((-2.8, 0.2), 350, seed=91))
        constant = frequency.fit_frequency(constant_tvl_panel(40, {3, 10, 17, 24}))
        for model in (varying, constant):
            back = frequency.from_dict(frequency.to_dict(model))
            assert back.protocol_id == model.protocol_id
            assert np.allclose(back.fit.coefficients, model.fit.coefficients)
            assert back.training_window == model.training_window
            assert back.hl == model.hl
            assert (back.cov_mean, back.cov_sd) == (model.cov_mean, model.cov_sd)
            assert back.covariate_dropped == model.covariate_dropped
            # Identical predictions after the round trip.
            for tvl in (1e5, 1e9):
                assert frequency.predict_attack_probability(
                    back, tvl
                ) == frequency.predict_attack_probability(model, tvl)
        assert constant.covariate_dropped and constant.cov_sd == 1.0

    def test_converged_flag_round_trips(self):
        import dataclasses
        import json

        model = frequency.fit_frequency(frequency_panel((-2.8, 0.2), 350, seed=91))
        for converged in (False, True):
            fit = dataclasses.replace(model.fit, converged=converged)
            doc = json.loads(json.dumps(frequency.to_dict(dataclasses.replace(model, fit=fit))))
            assert doc["converged"] is converged
            assert frequency.from_dict(doc).fit.converged is converged
        for key in ("converged", "covariate_dropped"):
            with pytest.raises(SchemaError, match=key):
                frequency.from_dict({**doc, key: "false"})

    def test_round_trip_json_types(self):
        import json

        model = frequency.fit_frequency(frequency_panel((-2.8, 0.2), 350, seed=93))
        payload = json.dumps(frequency.to_dict(model))
        back = frequency.from_dict(json.loads(payload))
        assert back.fit.coefficients[0] == model.fit.coefficients[0]
