"""Gaussian-copula coupling of the per-protocol attack indicators.

The exogenous similarity matrix plays the role of the copula correlation;
``Portfolio`` validates it, and it is repaired when indefinite before
factorization.  The event convention is N_i = 1 iff Z_i exceeds the
(1 - pi_i) normal quantile, so positive similarity entries produce
positively correlated attacks while each marginal stays Bernoulli(pi_i).
``EventSampler`` is the one sampler of the coupled indicators; it streams
the normals through panels capped in bytes, so only the indicators are
ever held for all paths, packed eight to a byte (``EventSampler.nbytes``
counts its buffers).  Without the copula, ``attacked_paths`` draws a
protocol's attacked paths as a Binomial count and a uniform subset:
nothing per (protocol, path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import cholesky, nearest_correlation, std_normal_quantile

_PANEL = 4096  # paths
_PANEL_VALUES = 1 << 17  # normals (1 MB), whatever the number of protocols
_ROWS = 32


@dataclass(frozen=True)
class CopulaSpec:
    """The copula correlation ``psi``, the similarity matrix or its repair
    (``nearest_correlation``'s read-only array), with its Cholesky factor."""

    psi: np.ndarray
    chol: np.ndarray
    repaired: bool
    frobenius_shift: float

    @property
    def dim(self) -> int:
        return len(self.psi)


def build_copula(similarity) -> CopulaSpec:
    """Repair a unit-diagonal symmetric matrix when it is indefinite, and
    factorize it.  ``nearest_correlation`` checks it; entries may be
    negative, as the [0, 1] rule is a portfolio similarity's."""
    a = np.asarray(similarity, dtype=float)
    psi = nearest_correlation(a)  # passes a positive definite matrix through unchanged
    shift = float(np.linalg.norm(psi - a))
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


def _panel_paths(d: int, size: int) -> int:
    """Paths per panel: at most _PANEL and _PANEL_VALUES / d normals, a multiple of 8."""
    return max(8, min(size, _PANEL, _PANEL_VALUES // d) // 8 * 8)


class EventSampler:
    """Copula attack indicators of up to ``size`` paths a draw, from thresholds
    worked out once and buffers allocated once.

    ``draw(gen, m)`` returns a bit-packed protocol-major mask: bit j of row
    i (``np.unpackbits(mask[i], count=m)``) is set iff Z_ij = (L u_j)_i
    exceeds protocol i's ``event_thresholds`` value, u_j iid standard
    normal.  The normals are drawn panel by panel in the order of one (m, d)
    array, so ``gen`` ends where that draw would leave it.  A panel is at
    most _PANEL paths and _PANEL_VALUES normals, a multiple of 8 so that it
    starts on a mask byte.  Z is formed _ROWS rows at a time, from the
    nonzero part of the triangular L, and compared into a bool panel.
    ``nbytes`` counts the buffers, and ``tailrisk.footprint`` the samplers
    of a run.
    """

    def __init__(self, spec: CopulaSpec, probs, size: int):
        d = spec.dim
        self.chol = spec.chol
        self.column = event_thresholds(probs, d)[:, None]
        self.panel = _panel_paths(d, size)
        self.mask = np.empty((d, (size + 7) // 8), dtype=np.uint8)
        self.u = np.empty((self.panel, d))
        self.z = np.empty(min(_ROWS, d) * self.panel)
        # One spare column: numpy compares Z with the thresholds about 4x
        # faster into a strided view than into a contiguous (d, panel) array.
        self.hit = np.empty((d, self.panel + 1), dtype=bool)

    @staticmethod
    def nbytes(d: int, size: int) -> int:
        """Bytes of the buffers of a sampler of d protocols and ``size`` paths:
        the mask, the normals, Z, the bool panel and its packed copy."""
        panel = _panel_paths(d, size)
        mask, u, z = d * ((size + 7) // 8), 8 * panel * d, 8 * min(_ROWS, d) * panel
        return mask + u + z + d * (panel + 1) + d * (panel // 8)

    def draw(self, gen: np.random.Generator, m: int) -> np.ndarray:
        """The (d, ceil(m / 8)) uint8 mask of m <= ``size`` paths, a view of the
        sampler's own mask that the next draw overwrites."""
        d = len(self.column)
        mask = self.mask[:, : (m + 7) // 8]
        for a in range(0, m, self.panel):
            k = min(self.panel, m - a)
            u, hit = self.u[:k], self.hit[:, :k]
            gen.standard_normal(out=u)
            for r0 in range(0, d, _ROWS):
                r1 = min(r0 + _ROWS, d)
                z = self.z[: (r1 - r0) * k].reshape(r1 - r0, k)
                np.matmul(self.chol[r0:r1, :r1], u[:, :r1].T, out=z)
                np.greater(z, self.column[r0:r1], out=hit[r0:r1])
            mask[:, a // 8 : (a + k + 7) // 8] = np.packbits(hit, axis=1)
        return mask


def attacked_paths(gen: np.random.Generator, size: int, pi: float) -> np.ndarray:
    """The distinct paths, of ``size``, on which a protocol attacked with
    probability ``pi`` independently of the others is attacked, in no set
    order: a Binomial(size, pi) count, then a uniform subset of that many
    (Devroye 1986, *Non-Uniform Random Variate Generation*), from ``gen``."""
    return gen.choice(size, gen.binomial(size, pi), replace=False, shuffle=False)
