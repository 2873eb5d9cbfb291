"""Gaussian-copula coupling of the per-protocol attack indicators.

The exogenous similarity matrix plays the role of the copula correlation;
it is validated (and repaired when indefinite) before factorization.  The
event convention is N_i = 1 iff Z_i exceeds the (1 - pi_i) normal quantile,
so positive similarity entries produce positively correlated attacks while
each marginal stays Bernoulli(pi_i).  ``draw_events`` is the one sampler of
the coupled indicators; it streams the normals through fixed panels, so
only the indicators are ever held for all paths, packed eight to a byte.
Without the copula, ``attacked_paths`` draws a protocol's attacked paths
as a Binomial count and a uniform subset: nothing per (protocol, path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import (
    CorrelationMatrix,
    check_similarity,
    cholesky,
    nearest_correlation,
    std_normal_quantile,
)

_PANEL = 4096  # a multiple of 8, so each panel starts on a mask byte
_ROWS = 32


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


def check_probabilities(probabilities, dim: int) -> np.ndarray:
    """``probabilities`` as a float array once it holds ``dim`` values in
    [0, 1]; DomainError otherwise."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or len(p) != dim:
        raise DomainError(f"expected {dim} probabilities, got shape {p.shape}")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("attack probabilities must lie in [0, 1]")
    return p


def event_thresholds(probabilities, dim: int) -> np.ndarray:
    """Normal thresholds z_i = Phi^-1(1 - pi_i) of the events N_i = 1 iff Z_i > z_i.

    pi = 0 maps to +inf (never attacked) and pi = 1 to -inf (always
    attacked); probabilities outside [0, 1] are rejected.  The threshold is
    computed as -Phi^-1(pi): 1 - pi would round away a tiny pi.
    """
    return np.array([
        math.inf if pi == 0.0 else -math.inf if pi == 1.0 else -std_normal_quantile(pi)
        for pi in check_probabilities(probabilities, dim)
    ])


def draw_events(
    gen: np.random.Generator,
    size: int,
    probs,
    spec: CopulaSpec,
    out: np.ndarray | None = None,
    work=None,
) -> np.ndarray:
    """Copula attack indicators of ``size`` paths as a bit-packed protocol-major mask.

    Bit j of row i (``np.unpackbits(mask[i], count=size)``) is set iff path
    j attacks protocol i: iff Z_ij = (L u_j)_i exceeds its ``event_thresholds``
    value, u_j iid standard normal.  The paths are drawn in panels of
    _PANEL: the same normals in the same order as one (size, d) array, so
    ``gen`` ends where that draw would leave it.  A panel's indicators go
    through a (d, _PANEL) bool scratch and are packed into the mask.  Z is
    formed _ROWS rows at a time, from the nonzero part of the triangular L.
    The mask, of shape (d, >= ceil(size / 8)) uint8, is ``out`` when given,
    and then ``work`` holds the u, Z and indicator scratches of
    ``event_buffers``.  For a 65,536-path block they take about 44 KB per
    protocol (8 KB of mask, 32 KB of u, 4 KB of indicators) plus a 1 MB Z panel.
    """
    column = event_thresholds(probs, spec.dim)[:, None]
    d = len(column)
    if out is None:
        out, *work = event_buffers(d, size)
    mask = out[:, : (size + 7) // 8]
    u_work, z_work, hit_work = work
    for a in range(0, size, _PANEL):
        k = min(_PANEL, size - a)
        u, hit = u_work[:k], hit_work[:, :k]
        gen.standard_normal(out=u)
        for r0 in range(0, d, _ROWS):
            r1 = min(r0 + _ROWS, d)
            z = z_work[: (r1 - r0) * k].reshape(r1 - r0, k)
            np.matmul(spec.chol[r0:r1, :r1], u[:, :r1].T, out=z)
            np.greater(z, column[r0:r1], out=hit[r0:r1])
        mask[:, a // 8 : (a + k + 7) // 8] = np.packbits(hit, axis=1)
    return mask


def event_buffers(dim: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A packed ``out`` mask and the u, Z and indicator scratches with
    which ``draw_events`` can draw up to ``size`` paths of ``dim``
    protocols, again and again (pass the last three as ``work``)."""
    panel = min(size, _PANEL)
    return (
        np.empty((dim, (size + 7) // 8), dtype=np.uint8),
        np.empty((panel, dim)),
        np.empty(min(_ROWS, dim) * panel),
        # One spare column: numpy compares Z with the thresholds about 4x
        # faster into a strided view than into a contiguous (d, panel) array.
        np.empty((dim, panel + 1), dtype=bool),
    )


def attacked_paths(gen: np.random.Generator, size: int, pi: float) -> np.ndarray:
    """The distinct paths, of ``size``, on which a protocol attacked with
    probability ``pi`` independently of the others is attacked, in no set
    order: a Binomial(size, pi) count, then a uniform subset of that many
    (Devroye 1986, *Non-Uniform Random Variate Generation*), from ``gen``."""
    return gen.choice(size, gen.binomial(size, pi), replace=False, shuffle=False)
