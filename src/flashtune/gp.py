"""Exact Gaussian-process regression with a squared-exponential kernel.

Used only by the ePAL baseline, which needs predictive uncertainty.  Inputs
are expected min-max normalized per option; targets are centered internally
so the prior mean is the training mean.  Cost is cubic in the training size.

Several objectives measured on the same inputs share their work.  `gp_fit`
with an (n, m) target matrix factors each candidate length scale's kernel
once for all m columns and returns one process per column; `gp_predict_batch`
on that tuple builds the cross kernel and runs the triangular solve once per
distinct factor.  Both accept the squared distances as `d2`, so a caller that
keeps them across fits (ePAL adds one measured point per step) computes each
pair once.  Given the distances `_sq_dists` would compute, every figure is
bitwise the one that separate 1-D calls give: the same floats go through the
same operations.  The factors always come from LAPACK's `dpotrf` on the whole
kernel matrix; a factor updated row by row would differ in its last bits.

`dpotrf`, `dpotrs` and `dtrtrs` are called directly, with the arguments
scipy's `cho_factor`, `cho_solve` and `solve_triangular` pass them, so every
figure is the wrappers' bit for bit without their per-call argument checks.
Of those checks only finiteness can fail here, and it is made on the kernels
and the targets.

Those three routines live in one extension module, scipy's
`linalg/_flapack`, and `lapack()` loads that file alone on the first fit or
prediction, not with the package.  It runs no scipy code, so ePAL does not
pay for importing all of `scipy.linalg`, which costs far more time and
memory than the one file.  The direct load works with scipy's Linux and
macOS wheels; on a platform where the extension needs set-up that scipy's
`__init__` does (such as Windows wheels, which add the directory of their
bundled OpenBLAS), it raises ImportError.  The loader registers the module
in `sys.modules` under its own name, so a later `import scipy.linalg` in the
same process reuses it: the functions here are the objects
`scipy.linalg.lapack` re-exports.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
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


@functools.cache
def lapack():
    """scipy's `scipy.linalg._flapack` extension module, loaded from its file
    on the first call.  A caller that times its GP work calls this before
    its clock starts.  Raises ImportError, naming the path, if the file is
    not where scipy keeps it or cannot be loaded without scipy's own set-up."""
    # find_spec on a top-level name locates the package without running it
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    unsupported = ("flashtune loads scipy's LAPACK extension directly, which is "
                   "supported with scipy's Linux and macOS wheels only")
    stem = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((stem + s for s in suffixes if os.path.isfile(stem + s)), None)
    if path is None:
        raise ImportError(f"{unsupported}: no {stem}<suffix> for any suffix in {suffixes}")
    name = "scipy.linalg._flapack"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    try:
        module = loader.create_module(importlib.util.spec_from_loader(name, loader, origin=path))
    except ImportError as exc:
        raise ImportError(f"{unsupported}: cannot load {path}: {exc}") from exc
    loader.exec_module(module)
    return module


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
    """Cholesky of K + noise*I with escalating jitter, as `cho_factor(...,
    lower=True)` returns it: the factor in the lower triangle and True.
    Raises GpError if hopeless."""
    if not np.isfinite(K).all():
        raise ValueError("kernel matrix must be finite")
    n = K.shape[0]
    scale = float(np.trace(K)) / n if n else 1.0
    dpotrf = lapack().dpotrf
    jitter = 0.0
    while True:
        c, info = dpotrf(K + (noise + jitter) * np.eye(n), lower=1, clean=0)
        if info == 0:
            return c, True
        if info < 0:
            raise ValueError(f"dpotrf: illegal value in argument {-info}")
        jitter = max(jitter * 10.0, 1e-12 * scale)
        if jitter > 1e-3 * scale:
            raise GpError("kernel matrix is not positive definite")


def gp_fit(xs, ys, params: GpParams = GpParams(), *, d2=None):
    """Fit exact GP regression; optionally refine the length scale on a grid.

    `ys` of shape (n,) gives one `GaussianProcess`.  `ys` of shape (n, m)
    gives a tuple of m, one per column, fitted as m separate 1-D calls would
    be, bit for bit: each candidate length scale's kernel is factored once
    and solved per column, and each column keeps its own best scale.
    `d2`, if given, is the (n, n) matrix `_sq_dists(xs, xs)` and is used in
    its place.
    """
    X = np.asarray(xs, dtype=float)
    Y = np.asarray(ys, dtype=float)
    if X.ndim != 2 or Y.ndim not in (1, 2) or Y.shape[0] != X.shape[0] or Y.size == 0:
        raise ValueError("need a non-empty 2-D input matrix and aligned targets")
    n = X.shape[0]
    if d2 is None:
        d2 = _sq_dists(X, X)
    elif np.shape(d2) != (n, n):
        raise ValueError("d2 must be the (n, n) squared distances of the inputs")
    if not np.isfinite(Y).all():
        raise ValueError("targets must be finite")
    columns = [Y] if Y.ndim == 1 else list(Y.T)
    y_means = [float(y.mean()) for y in columns]
    centered = [y - mean for y, mean in zip(columns, y_means)]

    candidates = [params]
    if params.refine:
        candidates = [replace(params, length_scale=ls) for ls in params.length_scale_grid]
    dpotrs = lapack().dpotrs
    best = [None] * len(columns)
    for cand in candidates:
        chol = _factor(_kernel(d2, cand), cand.noise_variance)
        log_det = np.sum(np.log(np.diag(chol[0])))
        for j, yc in enumerate(centered):
            alpha, info = dpotrs(chol[0], yc, lower=1)
            if info:
                raise ValueError(f"dpotrs: illegal value in argument {-info}")
            lml = float(-0.5 * yc @ alpha - log_det - 0.5 * n * np.log(2.0 * np.pi))
            if best[j] is None or lml > best[j][3]:
                best[j] = (cand, chol, alpha, lml)
    X = X.copy()
    gps = tuple(
        GaussianProcess(X, y.copy(), chosen, mean, chol, alpha, lml)
        for y, mean, (chosen, chol, alpha, lml) in zip(columns, y_means, best)
    )
    return gps[0] if Y.ndim == 1 else gps


def gp_predict_batch(gp, xs, *, d2=None) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation of the latent function at xs.

    `gp` is one `GaussianProcess`, giving 1-D arrays, or a tuple of them
    fitted on the same inputs (as `gp_fit` returns for 2-D targets), giving
    (U, m) arrays.  The kernel block and the triangular solve are computed
    once per distinct Cholesky factor.  `d2`, if given, is the (U, n) matrix
    `_sq_dists(xs, X)` against the training inputs `X`, used in its place.
    """
    gps = (gp,) if isinstance(gp, GaussianProcess) else tuple(gp)
    X = gps[0].X
    if not all(g.X is X or np.array_equal(g.X, X) for g in gps):
        raise ValueError("the processes must share their training inputs")
    Xq = np.asarray(xs, dtype=float)
    if Xq.ndim != 2 or Xq.shape[1] != X.shape[1]:
        raise ValueError("query points must match the training dimensionality")
    if d2 is None:
        d2 = _sq_dists(Xq, X)
    elif np.shape(d2) != (Xq.shape[0], X.shape[0]):
        raise ValueError("d2 must be the (U, n) squared distances of queries to inputs")
    mu = np.empty((Xq.shape[0], len(gps)))
    sigma = np.empty_like(mu)
    dtrtrs = lapack().dtrtrs
    done: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for j, g in enumerate(gps):
        if id(g._chol) not in done:
            Ks = _kernel(d2, g.params)
            if not np.isfinite(Ks).all():
                raise ValueError("query kernel must be finite")
            v, info = dtrtrs(g._chol[0], Ks.T, lower=1)
            if info:
                raise ValueError(f"dtrtrs: returned info {info}")
            var = g.params.signal_variance - (v * v).sum(axis=0)
            done[id(g._chol)] = Ks, np.sqrt(np.maximum(var, 0.0))
        Ks, sigma[:, j] = done[id(g._chol)]
        mu[:, j] = Ks @ g._alpha + g.y_mean
    if isinstance(gp, GaussianProcess):
        return mu[:, 0], sigma[:, 0]
    return mu, sigma
