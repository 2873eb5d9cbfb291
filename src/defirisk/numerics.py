"""Self-contained numerical kernel.

Standard-normal distribution functions, a dense Cholesky factorization,
Higham-style correlation-matrix repair, and the deterministic random-stream
contract used by every stochastic operation in the engine.

Random streams are counter-based Philox-4x64 generators keyed by
``(seed, stream_id)``.  Identical keys reproduce identical sequences on any
machine; distinct ``stream_id`` values give statistically independent
streams, and within one stream disjoint counter blocks (``block_generator``)
let simulations partition work across workers without changing the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FactorizationError

_SQRT2 = math.sqrt(2.0)

# Smallest eigenvalue guaranteed after correlation-matrix repair.  The
# projection step clips at twice this value so the final unit-diagonal
# adjustment cannot push the spectrum back under the floor.
EIGENVALUE_FLOOR = 1e-8
_CLIP_FLOOR = 2.0 * EIGENVALUE_FLOOR
_REPAIR_TOL = 1e-10
_REPAIR_MAX_ITER = 500


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well under 1e-12 absolute."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"std_normal_cdf requires finite input, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's rational approximation).

    Satisfies ``std_normal_cdf(std_normal_quantile(p)) == p`` to better
    than 1e-10 for p in (0, 1).
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_quantile requires p in (0, 1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        return q * num / den
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                    + 2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r
                  + 3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r
                + 4.63033784615654529590e0) * r + 1.42343711074968357734e0)
        den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                    + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                  + 6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r
                + 2.05319162663775882187e0) * r + 1.0)
    else:
        r -= 5.0
        num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                    + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                  + 2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r
                + 5.46378491116411436990e0) * r + 6.65790464350110377720e0)
        den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                    + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                  + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0)
    x = num / den
    return -x if q < 0.0 else x


def check_unit_symmetric(m, name: str = "correlation matrix") -> np.ndarray:
    """``m`` as a float array once it is square, finite, symmetric and
    unit-diagonal (both to 1e-12); DomainError naming ``name`` otherwise."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} has non-finite entries")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise DomainError(f"{name} must be symmetric (tolerance 1e-12)")
    if np.max(np.abs(np.diag(a) - 1.0)) > 1e-12:
        raise DomainError(f"{name} must have a unit diagonal")
    return a


def check_similarity(m) -> np.ndarray:
    """A portfolio similarity matrix: ``check_unit_symmetric`` plus every
    entry in [0, 1].  Positive definiteness is not required; the copula
    repairs an indefinite matrix."""
    a = check_unit_symmetric(m, "similarity matrix")
    if a.min() < 0.0 or a.max() > 1.0:
        raise DomainError("similarity entries must lie in [0, 1]")
    return a


@dataclass(frozen=True)
class CorrelationMatrix:
    """A validated correlation matrix: symmetric, unit diagonal, PSD."""

    entries: np.ndarray

    def __post_init__(self):
        a = check_unit_symmetric(self.entries)
        if np.linalg.eigvalsh(a).min() < -1e-10:
            raise DomainError(
                "matrix is not positive semidefinite; repair it with nearest_correlation"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def cholesky(m) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == m.

    Raises FactorizationError naming the failing pivot when m is not
    positive definite.
    """
    a = m.entries if isinstance(m, CorrelationMatrix) else np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"cholesky requires a square matrix, got shape {a.shape}")
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if not (d > 0.0) or not math.isfinite(d):
            raise FactorizationError(pivot=j, value=float(d))
        low[j, j] = math.sqrt(d)
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def nearest_correlation(m) -> CorrelationMatrix:
    """Nearest correlation matrix by alternating projections.

    Projects onto the PSD cone (eigenvalues clipped just above
    EIGENVALUE_FLOOR) and the unit-diagonal affine set with Dykstra's
    correction until the two projections agree to ``_REPAIR_TOL`` (relative,
    Frobenius norm), a DomainError after ``_REPAIR_MAX_ITER`` rounds.
    Matrices already satisfying the eigenvalue floor pass through with
    their entries unchanged, which makes the operation exactly idempotent
    and lets a caller tell a repair by comparing entries.
    """
    a = check_unit_symmetric(m)
    if np.linalg.eigvalsh(a).min() >= EIGENVALUE_FLOOR:
        return CorrelationMatrix(a)

    y = a.copy()
    correction = np.zeros_like(a)
    tol = _REPAIR_TOL * max(1.0, float(np.linalg.norm(a)))
    for _ in range(_REPAIR_MAX_ITER):
        r = y - correction
        w, v = np.linalg.eigh(r)
        x = (v * np.clip(w, _CLIP_FLOOR, None)) @ v.T
        x = 0.5 * (x + x.T)
        correction = x - r
        y = x.copy()
        np.fill_diagonal(y, 1.0)
        if np.linalg.norm(x - y) <= tol and np.linalg.eigvalsh(y).min() >= EIGENVALUE_FLOOR:
            break
    else:
        raise DomainError("nearest_correlation did not converge")
    return CorrelationMatrix(y)


_U64 = np.uint64


@dataclass(frozen=True)
class RngStream:
    """Deterministic random-stream handle.

    Identical ``(seed, stream_id)`` pairs reproduce identical sequences;
    distinct ``stream_id`` values key independent Philox streams.  Cheap
    to copy and hand out to workers.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not (0 <= int(value) < 2**64):
                raise DomainError(f"{name} must be an unsigned 64-bit integer, got {value}")

    def _bit_generator(self) -> np.random.Philox:
        key = np.array([self.seed, self.stream_id], dtype=_U64)
        return np.random.Philox(key=key)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(self._bit_generator())

    def block_generator(self, block: int) -> np.random.Generator:
        """Generator for counter block ``block`` within this stream.

        Blocks are spaced 2^64 draws apart, so any block consuming fewer
        draws than that never overlaps its neighbours.  This is what makes
        worker-partitioned simulation independent of the worker count.
        """
        if block < 0:
            raise DomainError(f"block index must be nonnegative, got {block}")
        bg = self._bit_generator()
        if block:
            bg.advance(block << 64)
        return np.random.Generator(bg)

    def child(self, offset: int) -> "RngStream":
        """Derived stream at ``stream_id + offset`` (caller keeps offsets disjoint)."""
        return RngStream(self.seed, self.stream_id + int(offset))
