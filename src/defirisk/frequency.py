"""Per-protocol monthly attack-frequency model.

A Bernoulli event-per-month model with a logit link on standardized
log-TVL, plus a pooled-peer interval path for protocols that have never
been attacked.  A ``FrequencyModel`` survives its JSON file field for
field (``to_dict``, ``from_dict``); a ``PooledFit`` is never written, and
it alone keeps a covariance, the one ``peer_interval`` needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import glm
from .datamodel import Month, Panel, parse_window
from .errors import DomainError, NoEventError, finite, json_bool, json_field
from .numerics import std_normal_quantile


@dataclass(frozen=True)
class FrequencyModel:
    """Fitted attack-frequency model for one protocol.

    ``fit`` always carries two coefficients: the intercept ``alpha0`` and
    ``alpha1``, the slope on log TVL standardized as (log TVL - ``cov_mean``)
    / ``cov_sd``, the mean and sample sd (ddof=1) of the training months.
    When the panel's TVL never varies the slope is pinned to zero,
    ``cov_sd`` is 1 and ``covariate_dropped`` is set; the HL test is then
    not applicable and ``hl`` is None.
    """

    protocol_id: str
    fit: glm.LogisticFit
    training_window: tuple[Month, Month]
    hl: glm.HLResult | None
    cov_mean: float
    cov_sd: float
    covariate_dropped: bool = False


@dataclass(frozen=True)
class PooledFit:
    """Logistic fit over pooled peer panels, on their own log-TVL scale, with
    the inverse of its observed information: the coefficients' covariance."""

    fit: glm.LogisticFit
    cov_mean: float
    cov_sd: float
    covariance: np.ndarray


def panel_design(*panels: Panel) -> tuple[np.ndarray, np.ndarray]:
    """Design (intercept, log TVL) and 0/1 event response of the panels' months."""
    x = np.concatenate([panel.log_tvl for panel in panels])
    y = np.concatenate([panel.events for panel in panels])
    return np.column_stack([np.ones(len(y)), x]), y


def _log_tvl_scale(design: np.ndarray) -> tuple[float, float]:
    """Mean and sample sd (ddof=1) of the design's log-TVL column."""
    covariate = design[:, 1:]
    return float(covariate.mean(axis=0)[0]), float(covariate.std(axis=0, ddof=1)[0])


def _standardized(design: np.ndarray, mean: float, sd: float) -> np.ndarray:
    x = design.copy()
    x[:, 1] = (x[:, 1] - mean) / sd
    return x


def _standardized_log_tvl(model: FrequencyModel | PooledFit, tvl: float) -> float:
    if not tvl > 0.0:
        raise DomainError(f"tvl_next must be positive, got {tvl}")
    return (math.log(tvl) - model.cov_mean) / model.cov_sd


def fit_frequency(panel: Panel) -> FrequencyModel:
    """Fit event-on-log-TVL logistic regression over one protocol's panel."""
    if not len(panel):
        raise DomainError("empty monthly panel")
    if len(panel) < 2:
        raise DomainError("a single panel month cannot identify the model")
    design, y = panel_design(panel)
    if y.sum() == 0:
        raise NoEventError(
            f"protocol {panel.protocol_id!r} has no event months; "
            "use pooled_fit and peer_interval for an interval approximation"
        )
    window = (panel.start, panel.start.plus(len(panel) - 1))
    protocol_id = panel.protocol_id

    mean, sd = _log_tvl_scale(design)
    if sd == 0.0:
        # Constant TVL: standardization is undefined, so drop the covariate
        # and report an intercept-only model with a zero slope.
        base = glm.fit_logistic(np.ones((len(y), 1)), y)
        fit = replace(
            base,
            coefficients=np.array([base.coefficients[0], 0.0]),
            standard_errors=np.array([base.standard_errors[0], math.nan]),
        )
        return FrequencyModel(protocol_id, fit, window, None, mean, 1.0, covariate_dropped=True)

    x = _standardized(design, mean, sd)
    fit = glm.fit_logistic(x, y)
    return FrequencyModel(protocol_id, fit, window, glm.hosmer_lemeshow(fit, x, y), mean, sd)


def panel_hl(model: FrequencyModel, panel: Panel) -> glm.HLResult | None:
    """Hosmer-Lemeshow test of the model on a panel, standardized on the model's scale."""
    design, y = panel_design(panel)
    return glm.hosmer_lemeshow(model.fit, _standardized(design, model.cov_mean, model.cov_sd), y)


def predict_attack_probability(model: FrequencyModel, tvl_next: float) -> float:
    """Attack probability for a month with the given TVL."""
    return glm.predict_logistic(model.fit, [_standardized_log_tvl(model, tvl_next)])


def pooled_fit(peer_panels) -> PooledFit:
    """One logistic fit over the pooled peer panels, for ``peer_interval``,
    with its covariance: the inverse of ``glm.information`` at the fit.

    Raises NoEventError without events, and DomainError without panel
    months or when the fit falls back to the penalized path, which has no
    covariance for a Wald interval.
    """
    if not any(len(panel) for panel in peer_panels):
        raise DomainError("no peer panels supplied")
    design, y = panel_design(*peer_panels)
    if y.sum() == 0:
        raise NoEventError("pooled peer panels contain no events")
    mean, sd = _log_tvl_scale(design)
    sd = sd or 1.0  # a constant column is left to the rank-deficiency fallback
    x = _standardized(design, mean, sd)
    fit = glm.fit_logistic(x, y)
    if fit.penalty is not None:
        raise DomainError(
            "pooled fit fell back to the penalized path; no covariance for a Wald interval"
        )
    return PooledFit(fit, mean, sd, np.linalg.inv(glm.information(x, fit.coefficients)[1]))


def peer_interval(pooled: PooledFit, tvl_next: float) -> tuple[float, float]:
    """95% interval for the attack probability of a never-attacked protocol.

    The Wald interval of the pooled fit's predicted probability at
    ``tvl_next``, computed on the linear-predictor scale and mapped through
    the inverse logit.
    """
    v = np.array([1.0, _standardized_log_tvl(pooled, tvl_next)])
    eta = float(v @ pooled.fit.coefficients)
    se = math.sqrt(float(v @ pooled.covariance @ v))
    z = std_normal_quantile(0.975)
    return (glm.invlogit(eta - z * se), glm.invlogit(eta + z * se))


def to_dict(model: FrequencyModel) -> dict:
    """JSON-ready payload for a fitted frequency model."""
    fit = model.fit
    ses = [None if math.isnan(s) else float(s) for s in fit.standard_errors]
    return {
        "protocol_id": model.protocol_id,
        "alpha0": float(fit.coefficients[0]),
        "alpha1": float(fit.coefficients[1]),
        "se_alpha0": ses[0],
        "se_alpha1": ses[1],
        "converged": bool(fit.converged),
        "cov_mean": model.cov_mean,
        "cov_sd": model.cov_sd,
        "window": [str(model.training_window[0]), str(model.training_window[1])],
        "penalty": None if fit.penalty is None else fit.penalty.to_dict(),
        "hl": None if model.hl is None else model.hl.to_dict(),
        "covariate_dropped": model.covariate_dropped,
    }


def from_dict(doc: dict) -> FrequencyModel:
    """Rebuild a frequency model from its JSON payload.

    A missing or malformed field is a SchemaError naming the key.
    """
    number, se = finite(-math.inf, math.inf), finite(0.0, math.inf)
    fit = glm.LogisticFit(
        coefficients=np.array([json_field(doc, k, number) for k in ("alpha0", "alpha1")]),
        standard_errors=np.array(
            [json_field(doc, k, se, math.nan) for k in ("se_alpha0", "se_alpha1")]
        ),
        converged=json_field(doc, "converged", json_bool),
        penalty=json_field(doc, "penalty", glm.PenaltySpec.from_dict, None),
    )
    return FrequencyModel(
        protocol_id=json_field(doc, "protocol_id", str),
        fit=fit,
        training_window=json_field(doc, "window", parse_window),
        hl=json_field(doc, "hl", glm.HLResult.from_dict, None),
        cov_mean=json_field(doc, "cov_mean", number),
        cov_sd=json_field(doc, "cov_sd", finite(0.0, math.inf, above=True)),
        covariate_dropped=json_field(doc, "covariate_dropped", json_bool, False),
    )
