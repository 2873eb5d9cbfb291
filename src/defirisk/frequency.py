"""Per-protocol monthly attack-frequency model.

A Bernoulli event-per-month model with a logit link on standardized
log-TVL, plus a pooled-peer interval path for protocols that have never
been attacked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import glm
from .datamodel import Month, Panel, parse_window
from .errors import (
    DomainError,
    InsufficientDataError,
    NoEventError,
    json_bool,
    json_field,
)
from .numerics import std_normal_quantile

_Z975 = std_normal_quantile(0.975)


@dataclass(frozen=True)
class FrequencyModel:
    """Fitted attack-frequency model for one protocol.

    ``fit`` always carries two coefficients (intercept, standardized
    log-TVL slope).  When the panel's TVL never varies the slope is pinned
    to zero and ``covariate_dropped`` is set; the HL test is then not
    applicable and ``hl`` is None.
    """

    protocol_id: str
    fit: glm.LogisticFit
    training_window: tuple[Month, Month]
    hl: glm.HLResult | None
    covariate_dropped: bool = False


def panel_design(*panels: Panel) -> tuple[np.ndarray, np.ndarray]:
    """Design (intercept, log TVL) and 0/1 event response of the panels' months."""
    x = np.concatenate([panel.log_tvl for panel in panels])
    y = np.concatenate([panel.events for panel in panels])
    return np.column_stack([np.ones(len(y)), x]), y


def fit_frequency(panel: Panel) -> FrequencyModel:
    """Fit event-on-log-TVL logistic regression over one protocol's panel."""
    if not len(panel):
        raise InsufficientDataError("empty monthly panel")
    if len(panel) < 2:
        raise InsufficientDataError("a single panel month cannot identify the model")
    design, y = panel_design(panel)
    x = design[:, 1]
    if y.sum() == 0:
        raise NoEventError(
            f"protocol {panel.protocol_id!r} has no event months; "
            "use pooled_fit and peer_interval for an interval approximation"
        )
    window = (panel.start, panel.start.plus(len(panel) - 1))
    protocol_id = panel.protocol_id

    if np.std(x, ddof=1) == 0.0:
        # Constant TVL: standardization is undefined, so drop the covariate
        # and report an intercept-only model with a zero slope.
        base = glm.fit_logistic(np.ones((len(y), 1)), y, standardize=False)
        fit = glm.LogisticFit(
            coefficients=np.array([base.coefficients[0], 0.0]),
            standard_errors=np.array([base.standard_errors[0], math.nan]),
            converged=base.converged,
            penalty=base.penalty,
            covariate_means=np.array([float(x.mean())]),
            covariate_sds=np.array([1.0]),
            covariance=None,
            nll_trace=base.nll_trace,
        )
        return FrequencyModel(protocol_id, fit, window, hl=None, covariate_dropped=True)

    fit = glm.fit_logistic(design, y, standardize=True)
    hl = glm.hosmer_lemeshow(fit, design, y)
    return FrequencyModel(protocol_id, fit, window, hl=hl)


def predict_attack_probability(model: FrequencyModel, tvl_next: float) -> float:
    """Attack probability for a month with the given TVL."""
    if not tvl_next > 0.0:
        raise DomainError(f"tvl_next must be positive, got {tvl_next}")
    return glm.predict_logistic(model.fit, [math.log(tvl_next)])


def pooled_fit(peer_panels) -> glm.LogisticFit:
    """One logistic fit over the pooled peer panels, for ``peer_interval``.

    Raises InsufficientDataError without panel months, NoEventError without
    events, and DomainError when the fit falls back to the penalized path,
    which has no covariance for a Wald interval.
    """
    if not any(len(panel) for panel in peer_panels):
        raise InsufficientDataError("no peer panels supplied")
    design, y = panel_design(*peer_panels)
    if y.sum() == 0:
        raise NoEventError("pooled peer panels contain no events")
    fit = glm.fit_logistic(design, y, standardize=True)
    if fit.covariance is None:
        raise DomainError(
            "pooled fit fell back to the penalized path; no covariance for a Wald interval"
        )
    return fit


def peer_interval(pooled: glm.LogisticFit, tvl_next: float) -> tuple[float, float]:
    """95% interval for the attack probability of a never-attacked protocol.

    The Wald interval of the pooled fit's predicted probability at
    ``tvl_next``, computed on the linear-predictor scale and mapped through
    the inverse logit.
    """
    if not tvl_next > 0.0:
        raise DomainError(f"tvl_next must be positive, got {tvl_next}")
    z = (math.log(tvl_next) - pooled.covariate_means[0]) / pooled.covariate_sds[0]
    v = np.array([1.0, z])
    eta = float(v @ pooled.coefficients)
    se = math.sqrt(float(v @ pooled.covariance @ v))
    lo = glm.invlogit(eta - _Z975 * se)
    hi = glm.invlogit(eta + _Z975 * se)
    return (lo, hi)


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
        "cov_mean": float(fit.covariate_means[0]),
        "cov_sd": float(fit.covariate_sds[0]),
        "window": [str(model.training_window[0]), str(model.training_window[1])],
        "penalty": None if fit.penalty is None else fit.penalty.to_dict(),
        "hl": None if model.hl is None else model.hl.to_dict(),
        "covariate_dropped": model.covariate_dropped,
    }


def _finite(raw) -> float:
    """Cast of a JSON number to a finite float."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def _positive(raw) -> float:
    """Cast of a JSON number to a finite positive float."""
    value = _finite(raw)
    if value <= 0.0:
        raise ValueError(f"expected a positive number, got {value}")
    return value


def from_dict(doc: dict) -> FrequencyModel:
    """Rebuild a frequency model from its JSON payload.

    A missing or malformed field is a SchemaError naming the key.
    """
    penalty = json_field(doc, "penalty", glm.PenaltySpec.from_dict, None)
    fit = glm.LogisticFit(
        coefficients=np.array(
            [json_field(doc, "alpha0", _finite), json_field(doc, "alpha1", _finite)]
        ),
        standard_errors=np.array(
            [json_field(doc, k, float, math.nan) for k in ("se_alpha0", "se_alpha1")]
        ),
        converged=json_field(doc, "converged", json_bool),
        penalty=penalty,
        covariate_means=np.array([json_field(doc, "cov_mean", _finite)]),
        covariate_sds=np.array([json_field(doc, "cov_sd", _positive)]),
        covariance=None,
    )
    return FrequencyModel(
        protocol_id=json_field(doc, "protocol_id", str),
        fit=fit,
        training_window=json_field(doc, "window", parse_window),
        hl=json_field(doc, "hl", glm.HLResult.from_dict, None),
        covariate_dropped=json_field(doc, "covariate_dropped", json_bool, False),
    )
