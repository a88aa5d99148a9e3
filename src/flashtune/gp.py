"""Exact Gaussian-process regression with a squared-exponential kernel.

Used only by the ePAL baseline, which needs predictive uncertainty.  Inputs
are expected min-max normalized per option; targets are centered internally
so the prior mean is the training mean.  Cost is cubic in the training size.

scipy is imported on the first fit or prediction, not with the package: the
import takes about a third of a second, and only ePAL pays it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class GpError(RuntimeError):
    """The kernel matrix stayed non positive definite after jitter escalation."""


@dataclass(frozen=True)
class GpParams:
    length_scale: float = 0.2
    signal_variance: float = 1.0
    noise_variance: float = 1e-6
    refine: bool = False
    length_scale_grid: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0)

    def __post_init__(self):
        if not (0 < self.length_scale < np.inf and 0 < self.signal_variance < np.inf):
            raise ValueError("length_scale and signal_variance must be positive and finite")
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be non-negative and finite")


def linalg():
    """The `scipy.linalg` module, imported on the first call.  A caller that
    times its GP work calls this before its clock starts."""
    import scipy.linalg

    return scipy.linalg


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.maximum(d2, 0.0)


def _kernel(d2: np.ndarray, params: GpParams) -> np.ndarray:
    return params.signal_variance * np.exp(-d2 / (2.0 * params.length_scale ** 2))


class GaussianProcess:
    """Fitted posterior state: training data plus a cached Cholesky factor."""

    def __init__(self, X: np.ndarray, y: np.ndarray, params: GpParams,
                 y_mean: float, chol, alpha: np.ndarray, log_marginal: float):
        self.X = X
        self.y = y
        self.params = params
        self.y_mean = y_mean
        self._chol = chol
        self._alpha = alpha
        self.log_marginal = log_marginal


def _factor(K: np.ndarray, noise: float):
    """Cholesky of K + noise*I with escalating jitter; raises GpError if hopeless."""
    n = K.shape[0]
    scale = float(np.trace(K)) / n if n else 1.0
    jitter = 0.0
    while True:
        try:
            return linalg().cho_factor(K + (noise + jitter) * np.eye(n), lower=True)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * scale)
            if jitter > 1e-3 * scale:
                raise GpError("kernel matrix is not positive definite") from None


def _fit_one(d2: np.ndarray, yc: np.ndarray, params: GpParams):
    K = _kernel(d2, params)
    chol = _factor(K, params.noise_variance)
    alpha = linalg().cho_solve(chol, yc)
    n = d2.shape[0]
    lml = float(
        -0.5 * yc @ alpha
        - np.sum(np.log(np.diag(chol[0])))
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    return chol, alpha, lml


def gp_fit(xs, ys, params: GpParams = GpParams()) -> GaussianProcess:
    """Fit exact GP regression; optionally refine the length scale on a grid."""
    X = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or y.size != X.shape[0] or y.size == 0:
        raise ValueError("need a non-empty 2-D input matrix and aligned targets")
    y_mean = float(y.mean())
    yc = y - y_mean

    candidates = [params]
    if params.refine:
        candidates = [replace(params, length_scale=ls) for ls in params.length_scale_grid]
    d2 = _sq_dists(X, X)
    best = None
    for cand in candidates:
        chol, alpha, lml = _fit_one(d2, yc, cand)
        if best is None or lml > best[3]:
            best = (cand, chol, alpha, lml)
    chosen, chol, alpha, lml = best
    return GaussianProcess(X.copy(), y.copy(), chosen, y_mean, chol, alpha, lml)


def gp_predict_batch(gp: GaussianProcess, xs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation of the latent function at xs."""
    Xq = np.asarray(xs, dtype=float)
    if Xq.ndim != 2 or Xq.shape[1] != gp.X.shape[1]:
        raise ValueError("query points must match the training dimensionality")
    Ks = _kernel(_sq_dists(Xq, gp.X), gp.params)
    mu = Ks @ gp._alpha + gp.y_mean
    L = gp._chol[0]
    v = linalg().solve_triangular(L, Ks.T, lower=True)
    var = gp.params.signal_variance - (v * v).sum(axis=0)
    return mu, np.sqrt(np.maximum(var, 0.0))


def gp_predict(gp: GaussianProcess, x) -> tuple[float, float]:
    """Posterior (mean, std) at a single point."""
    mu, sigma = gp_predict_batch(gp, np.asarray(x, dtype=float)[None, :])
    return float(mu[0]), float(sigma[0])
