"""Numerical kernel.

The standard normal quantile (the standard library's
``statistics.NormalDist.inv_cdf``), LAPACK's Cholesky factorization,
Higham-style correlation-matrix repair (a plain read-only array that its
own eigenvalue floor vouches for), and the deterministic random-stream
contract used by every stochastic operation in the engine.
``check_unit_symmetric`` tests a square, finite, symmetric, unit-diagonal
matrix, for ``Portfolio`` and ``nearest_correlation``.

Random streams are SFC64 generators, one per ``(seed, stream_id, block)``,
seeded by ``SeedSequence(seed, spawn_key=(stream_id, block))``.  Identical
keys reproduce identical sequences on any machine; distinct keys give
statistically independent streams, so the blocks of one stream
(``block_generator``) let simulations partition work across workers
without changing the output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Smallest eigenvalue guaranteed after correlation-matrix repair.  The
# projection step clips at twice this value so the final unit-diagonal
# adjustment cannot push the spectrum back under the floor.
EIGENVALUE_FLOOR = 1e-8
_CLIP_FLOOR = 2.0 * EIGENVALUE_FLOOR
_REPAIR_TOL = 1e-10
_REPAIR_MAX_ITER = 500


@functools.cache
def _std_normal():
    """``statistics.NormalDist()``, imported on first use so that importing
    the engine does not load ``statistics``."""
    from statistics import NormalDist

    return NormalDist()


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF: the standard library's
    ``NormalDist.inv_cdf``, Wichura's AS241."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_quantile requires p in (0, 1), got {p}")
    return _std_normal().inv_cdf(p)


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


def cholesky(m) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == m, from LAPACK (``np.linalg.cholesky``).

    Raises DomainError naming the failing pivot when m is not positive
    definite: the first leading block that has no finite factor, and its
    Schur complement over the block before it.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"cholesky requires a square matrix, got shape {a.shape}")
    low = _factor(a)
    if low is not None:
        return low
    j = next(j for j in range(len(a)) if _factor(a[: j + 1, : j + 1]) is None)
    row = np.linalg.solve(_factor(a[:j, :j]), a[j, :j]) if j else a[j, :0]
    raise DomainError(f"matrix is not positive definite: pivot {j} = {a[j, j] - row @ row:.6g}")


def _factor(a: np.ndarray) -> np.ndarray | None:
    """LAPACK's Cholesky factor of ``a``; None where it fails or is not finite
    (LAPACK passes a NaN through)."""
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return low if np.isfinite(np.diagonal(low)).all() else None


def nearest_correlation(m) -> np.ndarray:
    """Nearest correlation matrix by alternating projections, as a read-only array.

    Projects onto the PSD cone (eigenvalues clipped just above
    EIGENVALUE_FLOOR) and the unit-diagonal affine set with Dykstra's
    correction until the two projections agree to ``_REPAIR_TOL`` (relative,
    Frobenius norm) with every eigenvalue at least EIGENVALUE_FLOOR, a
    DomainError after ``_REPAIR_MAX_ITER`` rounds.  A matrix already above
    the floor passes through as a copy of its entries, which makes the
    operation exactly idempotent and lets a caller tell a repair by comparing entries.
    """
    a = check_unit_symmetric(m)
    y = a.copy()
    if np.linalg.eigvalsh(a).min() < EIGENVALUE_FLOOR:
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
    y.setflags(write=False)
    return y


@dataclass(frozen=True)
class RngStream:
    """Deterministic random-stream handle.

    Identical ``(seed, stream_id)`` pairs reproduce identical sequences;
    distinct ``stream_id`` values key independent SFC64 streams.  Cheap
    to copy and hand out to workers.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not (0 <= int(value) < 2**64):
                raise DomainError(f"{name} must be an unsigned 64-bit integer, got {value}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream: block 0."""
        return self.block_generator(0)

    def block_generator(self, block: int) -> np.random.Generator:
        """Generator for block ``block`` of this stream.

        SFC64 seeded by ``SeedSequence(seed, spawn_key=(stream_id, block))``.
        SeedSequence hashes the seed, padded to four 32-bit words, then the
        words of ``stream_id`` and the one word of a block below 2^32, so
        distinct keys hash distinct words and their blocks are independent
        streams.  This is what makes worker-partitioned simulation
        independent of the worker count.
        """
        if not 0 <= block < 2**32:
            raise DomainError(f"block index must lie in [0, 2^32), got {block}")
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, block))
        return np.random.Generator(np.random.SFC64(seq))

    def child(self, offset: int) -> "RngStream":
        """Derived stream at ``stream_id + offset`` (caller keeps offsets disjoint)."""
        return RngStream(self.seed, self.stream_id + int(offset))
