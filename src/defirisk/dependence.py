"""Gaussian-copula coupling of the per-protocol attack indicators.

The exogenous similarity matrix plays the role of the copula correlation;
it is validated (and repaired when indefinite) before factorization.  The
event convention is N_i = 1 iff Z_i exceeds the (1 - pi_i) normal quantile,
so positive similarity entries produce positively correlated attacks while
each marginal stays Bernoulli(pi_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import (
    CorrelationMatrix,
    RngStream,
    check_similarity,
    cholesky,
    mvn_sample,
    nearest_correlation,
    std_normal_quantile,
)

_CHUNK = 1 << 17


@dataclass(frozen=True)
class CopulaSpec:
    """Validated/repaired correlation matrix with its Cholesky factor."""

    psi: CorrelationMatrix
    chol: np.ndarray
    repaired: bool
    frobenius_shift: float

    @property
    def dim(self) -> int:
        return self.psi.dim


def build_copula(similarity) -> CopulaSpec:
    """Validate a similarity matrix, repair it when indefinite, and factorize it."""
    a = check_similarity(similarity)
    psi = nearest_correlation(a)  # passes a positive definite matrix through unchanged
    shift = float(np.linalg.norm(psi.entries - a))
    return CopulaSpec(psi=psi, chol=cholesky(psi), repaired=shift > 0.0, frobenius_shift=shift)


def event_thresholds(probabilities, dim: int) -> np.ndarray:
    """Normal thresholds z_i = Phi^-1(1 - pi_i) of the events N_i = 1 iff Z_i > z_i.

    pi = 0 maps to +inf (never attacked) and pi = 1 to -inf (always
    attacked); probabilities outside [0, 1] are rejected.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or len(p) != dim:
        raise DomainError(f"expected {dim} probabilities, got shape {p.shape}")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("attack probabilities must lie in [0, 1]")
    return np.array([
        math.inf if pi == 0.0 else -math.inf if pi == 1.0 else std_normal_quantile(1.0 - pi)
        for pi in p
    ])


def sample_frequencies(
    probabilities,
    spec: CopulaSpec,
    rng: RngStream | np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Correlated Bernoulli attack indicators with the given marginals.

    Returns a length-d 0/1 vector, or a (size, d) matrix when ``size`` is
    given.
    """
    thresholds = event_thresholds(probabilities, spec.dim)
    z = mvn_sample(spec.chol, rng, size=size)
    return (z > thresholds).astype(np.int8)


def joint_cdf_estimate(
    probabilities,
    spec: CopulaSpec,
    indicator_bounds,
    n_samples: int = 1_000_000,
    rng: RngStream | np.random.Generator = RngStream(0),
) -> tuple[float, float]:
    """Monte Carlo estimate of P(N_1 <= n_1, ..., N_d <= n_d) with its SE."""
    bounds = np.asarray(indicator_bounds, dtype=int)
    if bounds.shape != (spec.dim,):
        raise DomainError(f"expected {spec.dim} indicator bounds, got shape {bounds.shape}")
    if np.any((bounds != 0) & (bounds != 1)):
        raise DomainError("indicator bounds must be 0 or 1")
    if np.all(bounds == 1):
        return (1.0, 0.0)  # every indicator is <= 1 by construction
    if n_samples < 1:
        raise DomainError("n_samples must be positive")

    thresholds = event_thresholds(probabilities, spec.dim)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    # Only coordinates with bound 0 constrain the event.
    active = np.flatnonzero(bounds == 0)
    hits = 0
    remaining = int(n_samples)
    while remaining > 0:
        m = min(_CHUNK, remaining)
        z = mvn_sample(spec.chol, gen, size=m)
        inside = np.all(z[:, active] <= thresholds[active], axis=1)
        hits += int(inside.sum())
        remaining -= m
    p_hat = hits / n_samples
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
    return (float(p_hat), se)
