"""Regression engine.

Logistic regression by iteratively reweighted least squares with an
elastic-net fallback for separated or rank-deficient problems, Gaussian
linear models on logit-transformed ratios, the Hosmer-Lemeshow calibration
test, and quantile residuals.

Every fit is on the design it is given, penalty included: a caller that
wants coefficients on a standardized scale standardizes the design, and
predicts from covariates on that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, finite, integer, json_field

# Linear predictors are clipped here before the inverse link, which keeps
# probabilities strictly inside (0, 1) in double precision.
_ETA_CLIP = 36.0

# Separation triggers: max |coefficient| on the standardized scale, and the
# condition number of the observed information.
_BLOWUP_LIMIT = 15.0
_COND_LIMIT = 1e10

# IRLS (see fit_logistic) and FISTA stop at a gradient infinity norm of _TOL.
_TOL = 1e-8
_IRLS_MAX_ITER = 100
_FISTA_MAX_ITER = 20000


def invlogit(eta, out=None):
    """Numerically stable inverse logit, strictly inside (0, 1); written to ``out``
    when given, a float array of eta's shape that may be eta itself."""
    x = np.empty(np.shape(eta)) if out is None else out
    np.clip(eta, -_ETA_CLIP, _ETA_CLIP, out=x)
    upper = x >= 0
    np.exp(-np.abs(x, out=x), out=x)  # e: exp(-eta) where eta >= 0, exp(eta) elsewhere
    denominator = 1.0 + x
    np.putmask(x, upper, 1.0)  # numerator: 1 where eta >= 0, e elsewhere
    np.divide(x, denominator, out=x)
    return float(x) if x.ndim == 0 else x


def logit(p):
    """Log-odds of p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("logit requires values strictly inside (0, 1)")
    out = np.log(p) - np.log1p(-p)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PenaltySpec:
    """Elastic-net penalty: lam * (alpha_mix * L1 + (1 - alpha_mix)/2 * L2).

    Applied to the mean negative log-likelihood; the intercept is never
    penalized.
    """

    lam: float = 1e-3
    alpha_mix: float = 0.5

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "alpha_mix": self.alpha_mix}

    @classmethod
    def from_dict(cls, doc: dict) -> "PenaltySpec":
        return cls(
            lam=json_field(doc, "lambda", finite(0.0, math.inf)),
            alpha_mix=json_field(doc, "alpha_mix", finite(0.0, 1.0)),
        )


@dataclass(frozen=True)
class LogisticFit:
    """Fitted logistic regression (intercept first).

    ``standard_errors`` is all-NaN on the penalized path, where classical
    errors are invalid.
    """

    coefficients: np.ndarray
    standard_errors: np.ndarray
    converged: bool
    penalty: PenaltySpec | None
    covariance: np.ndarray | None = None
    nll_trace: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if len(self.coefficients) != len(self.standard_errors):
            raise DomainError("coefficients and standard_errors must have equal length")


def _nll(x, y, beta):
    eta = np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)
    # log(1 + e^eta) - y*eta, written stably
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def _check_design(design, response):
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2:
        raise DomainError("design must be a 2-D matrix")
    n, p = x.shape
    if len(y) != n:
        raise DomainError(f"design has {n} rows but response has {len(y)}")
    if not np.all(x[:, 0] == 1.0):
        raise DomainError("design must carry an intercept column of ones first")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError("response must be binary 0/1")
    if n < p + 1:
        raise DomainError(f"need at least {p + 1} rows for {p} coefficients, got {n}")
    if np.all(y == 0.0) or np.all(y == 1.0):
        raise DomainError("response is constant; logistic fit is undefined")
    return x, y


def _equivalent_standardized_coefs(beta, col_means, col_sds):
    # Blow-up detection must not depend on the covariate scale: rescale the
    # slopes by each column's sd and move the means into the intercept.
    out = np.empty_like(beta)
    out[0] = beta[0] + beta[1:] @ col_means
    out[1:] = beta[1:] * col_sds
    return out


def _fit_elastic_net(x, y, penalty: PenaltySpec):
    """FISTA proximal-gradient solver for the elastic-net logistic objective."""
    n, p = x.shape
    lam1 = penalty.lam * penalty.alpha_mix
    lam2 = penalty.lam * (1.0 - penalty.alpha_mix)

    def smooth_grad(beta):
        mu = invlogit(x @ beta)
        g = x.T @ (mu - y) / n
        g[1:] += lam2 * beta[1:]
        return g

    def smooth_val(beta):
        return _nll(x, y, beta) / n + 0.5 * lam2 * float(beta[1:] @ beta[1:])

    def prox(beta, step):
        out = beta.copy()
        out[1:] = np.sign(beta[1:]) * np.maximum(np.abs(beta[1:]) - step * lam1, 0.0)
        return out

    # Lipschitz bound for the smooth part: ||X||_2^2 / (4n) + lam2.
    lips = float(np.linalg.norm(x, 2)) ** 2 / (4.0 * n) + lam2
    step = 1.0 / max(lips, 1e-12)

    beta = np.zeros(p)
    z = beta.copy()
    t_acc = 1.0
    f_prev = smooth_val(beta)
    converged = False
    for _ in range(_FISTA_MAX_ITER):
        g = smooth_grad(z)
        beta_new = prox(z - step * g, step)
        # FISTA momentum with restart on objective increase
        f_new = smooth_val(beta_new)
        if f_new + lam1 * np.sum(np.abs(beta_new[1:])) > f_prev + lam1 * np.sum(np.abs(beta[1:])):
            z = beta.copy()
            t_acc = 1.0
            g = smooth_grad(z)
            beta_new = prox(z - step * g, step)
            f_new = smooth_val(beta_new)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = beta_new + ((t_acc - 1.0) / t_next) * (beta_new - beta)
        mapping = np.max(np.abs(beta_new - prox(beta_new - step * smooth_grad(beta_new), step))) / step
        beta, f_prev, t_acc = beta_new, f_new, t_next
        if mapping <= _TOL:
            converged = True
            break
    return beta, converged


def fit_logistic(design, response) -> LogisticFit:
    """Maximum-likelihood logistic regression with a penalized fallback.

    IRLS runs until the infinity norm of the mean-log-likelihood gradient
    drops to ``_TOL``; every other way out of it (no convergence within
    ``_IRLS_MAX_ITER`` steps, coefficient blow-up, a singular or
    ill-conditioned information matrix, or no step that lowers the
    objective) redoes the fit with the default elastic-net penalty and
    flags it.  ``design`` carries the intercept column first, and the fit,
    penalty included, is on its columns as given.  The coefficients are
    determined only to that gradient tolerance, so their last ulps depend
    on the BLAS kernels and SIMD ``exp``/``log`` of the numpy build in use.
    """
    x, y = _check_design(design, response)
    n, p = x.shape
    col_means = x[:, 1:].mean(axis=0) if p > 1 else np.empty(0)
    col_sds = x[:, 1:].std(axis=0, ddof=1) if p > 1 else np.empty(0)

    beta = np.zeros(p)
    nll = _nll(x, y, beta)
    trace = [nll]
    converged = False
    for _ in range(_IRLS_MAX_ITER):
        eta = np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)
        mu = invlogit(eta)
        grad = x.T @ (y - mu)
        w = np.maximum(mu * (1.0 - mu), 1e-12)
        hessian = (x * w[:, None]).T @ x  # at convergence, the information for the SEs
        # Scale-free criterion: gradient of the mean log-likelihood.
        if np.max(np.abs(grad)) / n <= _TOL:
            converged = True
            break
        try:
            if np.linalg.cond(hessian) > _COND_LIMIT:
                break
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            break
        # Step halving keeps the objective monotone (up to float noise
        # in the deviance sum near the optimum).
        slack = 1e-10 * max(1.0, abs(nll))
        scale_f = 1.0
        for _ in range(30):
            cand = beta + scale_f * step
            cand_nll = _nll(x, y, cand)
            if cand_nll <= nll + slack:
                break
            scale_f *= 0.5
        else:
            break  # no halved step lowers the objective
        beta, nll = cand, cand_nll
        trace.append(nll)
        if np.max(np.abs(_equivalent_standardized_coefs(beta, col_means, col_sds))) > _BLOWUP_LIMIT:
            break

    penalty = cov = None
    if converged:
        cov = np.linalg.inv(hessian)
        ses = np.sqrt(np.diag(cov))
    else:
        penalty = PenaltySpec()
        beta, converged = _fit_elastic_net(x, y, penalty)
        ses = np.full(p, np.nan)
    return LogisticFit(beta, ses, converged, penalty, cov, nll_trace=tuple(trace))


def predict_logistic(fit: LogisticFit, covariates) -> float:
    """Probability for one covariate vector on the fit's scale (no intercept entry)."""
    v = np.atleast_1d(np.asarray(covariates, dtype=float))
    if len(v) != len(fit.coefficients) - 1:
        raise DomainError(f"expected {len(fit.coefficients) - 1} covariates, got {len(v)}")
    eta = fit.coefficients[0] + fit.coefficients[1:] @ v
    return float(invlogit(eta))


@dataclass(frozen=True)
class LinearLogitFit:
    """OLS fit of logit(response) with its residual variance."""

    coefficients: np.ndarray
    sigma2: float
    xtx_inverse: np.ndarray | None = None

    @property
    def standard_errors(self) -> np.ndarray:
        if self.xtx_inverse is None:
            return np.full(len(self.coefficients), np.nan)
        return np.sqrt(self.sigma2 * np.diag(self.xtx_inverse))


def fit_linear_on_logit(design, response) -> LinearLogitFit:
    """Ordinary least squares of logit(response) on the design.

    Responses must lie strictly inside (0, 1), as ``logit`` checks; values
    at the endpoints belong to the total-loss model, not here.  A design of
    lower rank than its column count, by ``lstsq``'s own rank, is rejected.
    """
    x = np.asarray(design, dtype=float)
    z = logit(response)
    if x.ndim != 2:
        raise DomainError("design must be a 2-D matrix")
    n, p = x.shape
    if len(z) != n:
        raise DomainError(f"design has {n} rows but response has {len(z)}")
    if n <= p:
        raise DomainError(f"need more than {p} observations, got {n}")
    coefs, _, rank, _ = np.linalg.lstsq(x, z, rcond=None)
    if rank < p:
        raise DomainError("design matrix is rank deficient")
    resid = z - x @ coefs
    rss = float(resid @ resid)
    sigma2 = rss / (n - p)
    xtx_inv = np.linalg.inv(x.T @ x)
    return LinearLogitFit(coefficients=coefs, sigma2=sigma2, xtx_inverse=xtx_inv)


@dataclass(frozen=True)
class HLResult:
    """Hosmer-Lemeshow grouped chi-square calibration test."""

    statistic: float
    df: int
    p_value: float
    groups_used: int

    def to_dict(self) -> dict:
        return {
            "stat": self.statistic,
            "df": self.df,
            "p": self.p_value,
            "groups": self.groups_used,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HLResult":
        return cls(
            statistic=json_field(doc, "stat", finite(0.0, math.inf)),
            df=json_field(doc, "df", integer),
            p_value=json_field(doc, "p", finite(0.0, 1.0)),
            groups_used=json_field(doc, "groups", integer),
        )


def _partition_sorted(p_sorted: np.ndarray, groups: int) -> list[tuple[int, int]]:
    """Near-equal groups over sorted probabilities, ties kept together."""
    n = len(p_sorted)
    bounds = []
    start = 0
    for g in range(groups):
        if start >= n:
            break
        end = round(n * (g + 1) / groups)
        end = max(end, start + 1)
        # extend so tied probabilities never straddle a boundary
        while end < n and p_sorted[end] == p_sorted[end - 1]:
            end += 1
        bounds.append((start, end))
        start = end
    return bounds


def hosmer_lemeshow(fit: LogisticFit, design, response, groups: int = 10) -> HLResult | None:
    """Grouped Pearson chi-square test of logistic calibration.

    Observations are sorted by fitted probability and split into
    near-equal groups (ties kept together); groups whose expected events
    are 0 or equal to the group size are merged into a neighbour.  The
    statistic sums (O - E)^2 / (E (1 - mean p)) over groups and is referred
    to chi-square with groups_used - 2 degrees of freedom.  None when fewer
    than 3 groups remain after merging: the test does not apply.
    """
    if groups < 3:
        raise DomainError(f"need at least 3 groups, got {groups}")
    y = np.asarray(response, dtype=float)
    probs = invlogit(np.asarray(design, dtype=float) @ fit.coefficients)
    order = np.argsort(probs, kind="stable")
    p_sorted = probs[order]
    y_sorted = y[order]

    cells = []
    for start, end in _partition_sorted(p_sorted, groups):
        n_g = end - start
        obs = float(y_sorted[start:end].sum())
        exp = float(p_sorted[start:end].sum())
        cells.append([n_g, obs, exp])

    # Merge groups with degenerate expectations into the next (or previous).
    merged = True
    while merged:
        merged = False
        for i, (n_g, obs, exp) in enumerate(cells):
            if exp <= 0.0 or exp >= n_g:
                j = i + 1 if i + 1 < len(cells) else i - 1
                if j < 0:
                    break
                cells[j] = [cells[j][0] + n_g, cells[j][1] + obs, cells[j][2] + exp]
                del cells[i]
                merged = True
                break

    used = len(cells)
    if used < 3:
        return None
    stat = 0.0
    for n_g, obs, exp in cells:
        mean_p = exp / n_g
        stat += (obs - exp) ** 2 / (exp * (1.0 - mean_p))
    df = used - 2
    p_value = _chi2_sf(stat, df)
    return HLResult(statistic=float(stat), df=df, p_value=p_value, groups_used=used)


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with integer ``df`` >= 1.

    Closed forms for an integer df (Abramowitz & Stegun 26.4.4-26.4.5),
    with h = x/2: for even df the Poisson sum exp(-h) sum_{j<df/2} h^j / j!,
    for odd df erfc(sqrt h) + exp(-h) sum_{j=1}^{(df-1)/2} h^(j-1/2) / Gamma(j+1/2).
    Every term is positive, so no digits cancel.  Beyond x of about 1490,
    where exp(-h) underflows, the result is 0.
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    decay = math.exp(-h)
    if decay == 0.0:
        return 0.0
    if df % 2 == 0:
        term = total = 1.0  # h^0 / 0!
        for j in range(1, df // 2):
            term *= h / j
            total += term
        return min(decay * total, 1.0)  # for x near 0, rounding can lift it an ulp above 1
    root = math.sqrt(h)
    term = 2.0 * root / math.sqrt(math.pi)  # h^(1/2) / Gamma(3/2)
    total = 0.0
    for j in range(1, (df - 1) // 2 + 1):
        total += term
        term *= h / (j + 0.5)
    return math.erfc(root) + decay * total


def quantile_residuals(fit: LinearLogitFit, design, response) -> np.ndarray:
    """Quantile residuals of a linear-on-logit fit.

    Mapping the fitted normal CDF through the standard normal quantile
    collapses, for Gaussian errors, to the standardized logit-scale
    residual; under a correct model these are standard normal.
    """
    z = logit(response)  # rejects responses outside (0, 1)
    if fit.sigma2 <= 0.0:
        raise DomainError("quantile residuals need a positive residual variance")
    return (z - np.asarray(design, dtype=float) @ fit.coefficients) / np.sqrt(fit.sigma2)
