"""Ecosystem-wide two-part severity model.

The loss ratio R in (0, 1] decomposes into an atom at 1 (total loss,
logistic part over chain dummies, log TVL, and time) and a continuous
component in (0, 1) modeled as logit-normal in log TVL.  Severity
covariates are used raw, not standardized; time is measured in years of
365.25 days since the model's time origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import glm
from .datamodel import Chain, Incidents, Month, parse_window
from .errors import DomainError, finite, integer, json_bool, json_field
from .numerics import RngStream

DEFAULT_WINDOW = (Month(2020, 1), Month(2023, 12))
DEFAULT_TIME_ORIGIN = date(2020, 1, 1)
DAYS_PER_YEAR = 365.25

# Fewer partial-loss observations than this earns a warning flag.
MIN_PARTIAL_OBS = 30

# Ratio-moment nodes sit as for N(0, QUADRATURE_SCALE^2), dense across the
# logistic step a large sigma makes steep.  For sigma^2 <= 9, eta in [-12, 6]
# that is within 1e-14 relative of exact; the plain rule (scale 1), 1.1e-8.
QUADRATURE_NODES = 128
QUADRATURE_SCALE = 0.5


@dataclass(frozen=True)
class SeverityModel:
    """Two-part loss-ratio model.

    ``total_loss_fit`` has seven coefficients over (intercept, D_ETH,
    D_OTHER, log TVL, t, D_ETH*t, D_OTHER*t) with BSC as the reference
    chain.  ``proportional_fit`` is the logit-normal model of partial
    ratios on log TVL; it is None in total-loss-only mode (every training
    ratio was 1), in which case the predicted total-loss probability is 1.
    """

    total_loss_fit: glm.LogisticFit | None
    proportional_fit: glm.LinearLogitFit | None
    time_origin: date
    training_window: tuple[Month, Month]
    hl: glm.HLResult | None
    n_total: int
    n_partial: int
    low_partial_warning: bool
    zero_loss_skipped: int = 0

    @property
    def total_loss_only(self) -> bool:
        return self.proportional_fit is None

    @property
    def sigma2(self) -> float:
        if self.proportional_fit is None:
            raise DomainError("total-loss-only model has no proportional part")
        return self.proportional_fit.sigma2


@dataclass(frozen=True)
class RatioMoments:
    """Mean and second moment of the partial loss ratio, and ``n_samples``, the
    points evaluated: the quadrature nodes, or 1 for sigma = 0 (a point mass)."""

    mean_r: float
    second_moment_r: float
    n_samples: int

    def __post_init__(self):
        ok = (
            self.mean_r**2 <= self.second_moment_r + 1e-12
            and self.second_moment_r <= self.mean_r + 1e-12
        )
        if not ok:
            raise DomainError(
                f"ratio moments violate mean^2 <= m2 <= mean: {self.mean_r}, {self.second_moment_r}"
            )


def total_loss_design(chain: np.ndarray, log_tvl, t) -> np.ndarray:
    """Rows (1, D_ETH, D_OTHER, log TVL, t, D_ETH t, D_OTHER t) for arrays of
    ``Chain`` members, log TVLs and years since the time origin."""
    d_eth = (chain == Chain.ETH).astype(float)
    d_oth = (chain == Chain.OTHER).astype(float)
    return np.column_stack([np.ones(len(chain)), d_eth, d_oth, log_tvl, t, d_eth * t, d_oth * t])


@dataclass(frozen=True)
class TrainingSet:
    """The incidents a severity model is fitted and diagnosed on.

    ``incidents`` fall inside the training ``window`` and have a positive
    loss; ``ratios`` are their loss ratios and ``design`` their total-loss
    design rows (``total_loss_design``, time counted from ``time_origin``).
    ``zero_loss`` counts the in-window incidents skipped for a zero loss.
    """

    incidents: Incidents
    ratios: np.ndarray
    design: np.ndarray
    zero_loss: int
    window: tuple[Month, Month]
    time_origin: date

    @property
    def total(self) -> np.ndarray:
        """True where the ratio is a total loss."""
        return self.ratios == 1.0

    def partial(self) -> tuple[np.ndarray, np.ndarray]:
        """Design (intercept, log TVL) and ratios of the partial losses."""
        keep = ~self.total
        design = np.column_stack([np.ones(int(keep.sum())), self.design[keep, 3]])
        return design, self.ratios[keep]


def training_set(
    incidents: Incidents,
    window: tuple[Month, Month] = DEFAULT_WINDOW,
    time_origin: date = DEFAULT_TIME_ORIGIN,
) -> TrainingSet:
    """Select and encode the severity training incidents.

    The loss ratio is loss over TVL, clipped to 1.  Incidents with missing
    or zero TVL enter as total losses with the loss standing in for TVL.
    """
    month = incidents.month_index()
    inside = (window[0].index <= month) & (month <= window[1].index)
    zero = incidents.loss_usd == 0.0
    kept = incidents[inside & ~zero]
    loss, tvl = kept.loss_usd, kept.tvl_usd
    known = tvl > 0.0  # False for an absent (NaN) or zero TVL
    ratios = np.divide(loss, tvl, out=np.ones_like(loss), where=known & (loss < tvl))
    # math.log, not np.log: the two differ in the last bit on some SIMD builds.
    log_tvl = np.fromiter(map(math.log, np.where(known, tvl, loss).tolist()), float, len(kept))
    t = (kept.day - np.datetime64(time_origin, "D")).astype(np.int64) / DAYS_PER_YEAR
    design = total_loss_design(kept.chain, log_tvl, t)
    return TrainingSet(kept, ratios, design, int((inside & zero).sum()), window, time_origin)


def fit_severity(data: TrainingSet) -> SeverityModel:
    """Fit both parts of the severity model on a ``training_set``.

    Zero-loss incidents are skipped (counted, not errored).
    """
    if not len(data.incidents):
        raise DomainError("no usable incidents inside the training window")
    total = data.total
    n_total = int(total.sum())
    n_partial = len(data.incidents) - n_total

    total_fit = proportional_fit = hl = None
    if n_partial:  # else every training ratio is a total loss, and so is every prediction
        total_fit = glm.fit_logistic(data.design, total.astype(float))
        hl = glm.hosmer_lemeshow(total_fit, data.design, total.astype(float))
        proportional_fit = glm.fit_linear_on_logit(*data.partial())
    return SeverityModel(
        total_loss_fit=total_fit,
        proportional_fit=proportional_fit,
        time_origin=data.time_origin,
        training_window=data.window,
        hl=hl,
        n_total=n_total,
        n_partial=n_partial,
        low_partial_warning=n_partial < MIN_PARTIAL_OBS,
        zero_loss_skipped=data.zero_loss,
    )


def predict_total_loss_prob(model: SeverityModel, chain: Chain, tvl: float, when: date) -> float:
    """Probability that an attack wipes the full TVL."""
    if not tvl > 0.0:
        raise DomainError(f"tvl must be positive, got {tvl}")
    if when < model.time_origin:
        raise DomainError(f"prediction date {when} precedes time origin {model.time_origin}")
    if model.total_loss_fit is None:
        return 1.0
    t = (when - model.time_origin).days / DAYS_PER_YEAR
    row = total_loss_design(np.array([chain]), [math.log(tvl)], [t])[0]
    return glm.predict_logistic(model.total_loss_fit, row[1:])


def _proportional_params(model: SeverityModel, tvl: float) -> tuple[float, float]:
    if model.proportional_fit is None:
        raise DomainError("total-loss-only model has no proportional part")
    coefs = model.proportional_fit.coefficients
    eta = float(coefs[0] + coefs[1] * math.log(tvl))
    return eta, math.sqrt(model.proportional_fit.sigma2)


@functools.cache
def _normal_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes z and weights w with w @ f(z) ~ E f(Z), Z ~ N(0, 1).

    z = s sqrt(2) x are the Gauss-Hermite nodes of N(0, s^2); each weight
    is h / sqrt(pi) times the density ratio phi(z) / phi_s(z).  Built on
    first use, so importing the package does not load ``numpy.polynomial``.
    """
    from numpy.polynomial.hermite import hermgauss

    x, h = hermgauss(QUADRATURE_NODES)
    z = QUADRATURE_SCALE * math.sqrt(2.0) * x
    w = h / math.sqrt(math.pi) * QUADRATURE_SCALE * np.exp((1.0 - QUADRATURE_SCALE**2) * x * x)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def ratio_moments(model: SeverityModel, tvl: float) -> RatioMoments:
    """E(R*) and E(R*^2) of the partial loss ratio R* = invlogit(eta + sigma Z).

    Each is a one-dimensional Gaussian integral, taken by Gauss-Hermite
    quadrature on ``QUADRATURE_NODES`` nodes; sigma = 0 gives the exact
    moments of the point mass invlogit(eta).
    """
    if not tvl > 0.0:
        raise DomainError(f"tvl must be positive, got {tvl}")
    eta, sigma = _proportional_params(model, tvl)
    if sigma == 0.0:
        mean = glm.invlogit(eta)
        return RatioMoments(mean, mean * mean, 1)
    z, w = _normal_rule()
    ratios = glm.invlogit(eta + sigma * z)
    return RatioMoments(float(w @ ratios), float(w @ (ratios * ratios)), z.size)


@dataclass(frozen=True)
class RatioLaw:
    """One protocol's loss ratio given an attack, at one TVL and date.

    The ratio is 1 with probability ``pi_s``, else invlogit(eta + sigma Z)
    with Z standard normal; ``eta`` is None for a total-loss-only model,
    whose ratio is always 1.
    """

    pi_s: float
    eta: float | None = None
    sigma: float = 0.0

    def draw(self, gen: np.random.Generator, k: int) -> np.ndarray:
        """k ratios in (0, 1].

        Consumes k uniforms, then k normals, whichever branch each draw
        takes, so the draw count is input-independent; a total-loss-only
        law consumes none.
        """
        if self.eta is None:
            return np.ones(k)
        total = gen.random(k) < self.pi_s
        ratios = gen.standard_normal(k)
        ratios *= self.sigma
        ratios += self.eta
        glm.invlogit(ratios, out=ratios)
        np.putmask(ratios, total, 1.0)
        return ratios


def ratio_law(model: SeverityModel, chain: Chain, tvl: float, when: date) -> RatioLaw:
    """The loss-ratio law of a protocol on ``chain`` with ``tvl`` attacked on ``when``."""
    pi_s = predict_total_loss_prob(model, chain, tvl, when)
    if model.total_loss_only:
        return RatioLaw(pi_s)
    return RatioLaw(pi_s, *_proportional_params(model, tvl))


def sample_ratio(
    model: SeverityModel,
    chain: Chain,
    tvl: float,
    when: date,
    rng: RngStream | np.random.Generator,
    size: int | None = None,
):
    """Draw loss ratios in (0, 1] from ``ratio_law``: total loss with
    probability pi_S, else a fresh logit-normal partial ratio."""
    law = ratio_law(model, chain, tvl, when)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    out = law.draw(gen, 1 if size is None else int(size))
    return float(out[0]) if size is None else out


def loss_moments(
    model: SeverityModel, chain: Chain, tvl: float, when: date
) -> tuple[float, float, int]:
    """E(R), E(R^2) of the loss ratio given an attack, and the points evaluated.

    R is 1 with probability pi_S and the partial ratio R* otherwise, so
    E(R^k) = (1 - pi_S) E(R*^k) + pi_S, with both partial moments from
    ``ratio_moments`` (none, and 0 points, when the model is total-loss-only).
    E(R) is the expected fraction of TVL lost given an attack.
    """
    pi_s = predict_total_loss_prob(model, chain, tvl, when)
    if model.total_loss_only:
        return pi_s, pi_s, 0
    moments = ratio_moments(model, tvl)
    return (
        (1.0 - pi_s) * moments.mean_r + pi_s,
        (1.0 - pi_s) * moments.second_moment_r + pi_s,
        moments.n_samples,
    )


def to_dict(model: SeverityModel) -> dict:
    """JSON-ready payload for a fitted severity model."""
    tl = model.total_loss_fit
    prop = model.proportional_fit
    return {
        "beta": None if tl is None else [float(c) for c in tl.coefficients],
        "beta_se": None
        if tl is None
        else [None if math.isnan(s) else float(s) for s in tl.standard_errors],
        "converged": None if tl is None else bool(tl.converged),
        "gamma": None if prop is None else [float(c) for c in prop.coefficients],
        "sigma2": None if prop is None else float(prop.sigma2),
        "time_origin": model.time_origin.isoformat(),
        "window": [str(model.training_window[0]), str(model.training_window[1])],
        "penalty": None if (tl is None or tl.penalty is None) else tl.penalty.to_dict(),
        "hl": None if model.hl is None else model.hl.to_dict(),
        "n_total": model.n_total,
        "n_partial": model.n_partial,
        "low_partial_warning": model.low_partial_warning,
        "zero_loss_skipped": model.zero_loss_skipped,
        "total_loss_only": model.total_loss_only,
    }


def _vector(n: int, cast):
    """Cast of a JSON list of ``n`` values, each through ``cast``, to a float vector."""

    def vector(raw) -> np.ndarray:
        if not isinstance(raw, list) or len(raw) != n:
            raise ValueError(f"expected a list of {n} numbers")
        return np.array([cast(v) for v in raw], dtype=float)

    return vector


def from_dict(doc: dict) -> SeverityModel:
    """Rebuild a severity model from its JSON payload.

    A missing or malformed field is a SchemaError naming the key.
    """
    number, se = finite(-math.inf, math.inf), finite(0.0, math.inf)
    beta = json_field(doc, "beta", _vector(7, number), None)
    tl = None
    if beta is not None:
        tl = glm.LogisticFit(
            coefficients=beta,
            standard_errors=json_field(
                doc, "beta_se", _vector(7, lambda v: math.nan if v is None else se(v)),
                np.full(7, math.nan),
            ),
            converged=json_field(doc, "converged", json_bool),
            penalty=json_field(doc, "penalty", glm.PenaltySpec.from_dict, None),
        )
    gamma = json_field(doc, "gamma", _vector(2, number), None)
    prop = None
    if gamma is not None:
        prop = glm.LinearLogitFit(coefficients=gamma, sigma2=json_field(doc, "sigma2", se))
    return SeverityModel(
        total_loss_fit=tl,
        proportional_fit=prop,
        time_origin=json_field(doc, "time_origin", date.fromisoformat),
        training_window=json_field(doc, "window", parse_window),
        hl=json_field(doc, "hl", glm.HLResult.from_dict, None),
        n_total=json_field(doc, "n_total", integer),
        n_partial=json_field(doc, "n_partial", integer),
        low_partial_warning=json_field(doc, "low_partial_warning", json_bool),
        zero_loss_skipped=json_field(doc, "zero_loss_skipped", integer, 0),
    )
