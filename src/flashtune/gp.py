"""Exact Gaussian-process regression with a squared-exponential kernel.

Used only by the ePAL baseline, which needs predictive uncertainty.  Inputs
are expected min-max normalized per option; targets are centered internally
so the prior mean is the training mean.  Cost is cubic in the training size.

The process has one setting: signal variance `SIGNAL_VARIANCE`, noise
variance `NOISE_VARIANCE`, and per objective the length scale from
`LENGTH_SCALES` with the largest log marginal likelihood.  `gp_fit` takes
an (n, m) target matrix, one column per objective measured on the same
inputs; it factors each grid scale's kernel once for all m columns and
returns one process per column.  `gp_predict_batch` on that tuple builds the
cross kernel and runs the triangular solve once per distinct factor.  Both
accept the squared distances as `d2`, so a caller that keeps them across
fits (ePAL adds one measured point per step) computes each pair once.
Given the distances `_sq_dists` would compute, every column's figures are
bitwise those of a fit on that column alone: the same floats go through the
same operations.  The factors always come from LAPACK's `dpotrf` on the
whole kernel matrix; a factor updated row by row would differ in its last
bits.

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

import numpy as np

SIGNAL_VARIANCE = 1.0
NOISE_VARIANCE = 1e-6
LENGTH_SCALES = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0)


class GpError(RuntimeError):
    """The kernel matrix stayed non positive definite after jitter escalation."""


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


def _kernel(d2: np.ndarray, length_scale: float) -> np.ndarray:
    return SIGNAL_VARIANCE * np.exp(-d2 / (2.0 * length_scale ** 2))


class GaussianProcess:
    """Fitted posterior state: what `gp_predict_batch` reads."""

    def __init__(self, X: np.ndarray, length_scale: float, y_mean: float,
                 chol: np.ndarray, alpha: np.ndarray):
        self.X = X
        self.length_scale = length_scale
        self.y_mean = y_mean
        self._chol = chol
        self._alpha = alpha


def _factor(K: np.ndarray, noise: float) -> np.ndarray:
    """Cholesky factor of K + noise*I with escalating jitter, in the lower
    triangle as `cho_factor(..., lower=True)` returns it.  Raises GpError
    if hopeless.  No public fit is known to need jitter at NOISE_VARIANCE:
    the escalation is a guard, tested through `noise=0.0`."""
    if not np.isfinite(K).all():
        raise ValueError("kernel matrix must be finite")
    n = K.shape[0]
    scale = float(np.trace(K)) / n if n else 1.0
    dpotrf = lapack().dpotrf
    jitter = 0.0
    while True:
        c, info = dpotrf(K + (noise + jitter) * np.eye(n), lower=1, clean=0)
        if info == 0:
            return c
        if info < 0:
            raise ValueError(f"dpotrf: illegal value in argument {-info}")
        jitter = max(jitter * 10.0, 1e-12 * scale)
        if jitter > 1e-3 * scale:
            raise GpError("kernel matrix is not positive definite")


def gp_fit(xs, ys, *, d2=None) -> tuple[GaussianProcess, ...]:
    """Fit one process per column of the (n, m) targets `ys` on the (n, d)
    inputs `xs`; returns the tuple of m.

    Each grid scale's kernel is factored once and solved per column, and
    each column keeps the scale with its largest log marginal likelihood
    (the first among equals).  `d2`, if given, is the (n, n) matrix
    `_sq_dists(xs, xs)` and is used in its place.
    """
    X = np.asarray(xs, dtype=float)
    Y = np.asarray(ys, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or Y.shape[0] != X.shape[0] or Y.size == 0:
        raise ValueError("need a non-empty 2-D input matrix and aligned (n, m) targets")
    n = X.shape[0]
    if d2 is None:
        d2 = _sq_dists(X, X)
    elif np.shape(d2) != (n, n):
        raise ValueError("d2 must be the (n, n) squared distances of the inputs")
    if not np.isfinite(Y).all():
        raise ValueError("targets must be finite")
    columns = list(Y.T)
    y_means = [float(y.mean()) for y in columns]
    centered = [y - mean for y, mean in zip(columns, y_means)]

    dpotrs = lapack().dpotrs
    best = [None] * len(columns)
    for length_scale in LENGTH_SCALES:
        chol = _factor(_kernel(d2, length_scale), NOISE_VARIANCE)
        log_det = np.sum(np.log(np.diag(chol)))
        for j, yc in enumerate(centered):
            alpha, info = dpotrs(chol, yc, lower=1)
            if info:
                raise ValueError(f"dpotrs: illegal value in argument {-info}")
            lml = float(-0.5 * yc @ alpha - log_det - 0.5 * n * np.log(2.0 * np.pi))
            if best[j] is None or lml > best[j][3]:
                best[j] = (length_scale, chol, alpha, lml)
    X = X.copy()
    return tuple(GaussianProcess(X, length_scale, mean, chol, alpha)
                 for mean, (length_scale, chol, alpha, _) in zip(y_means, best))


def gp_predict_batch(gps, xs, *, d2=None) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation of the latent functions at xs.

    `gps` is the tuple of processes `gp_fit` returns; the results are
    (U, m) arrays, one column per process.  The kernel block and the
    triangular solve are computed once per distinct Cholesky factor.  `d2`,
    if given, is the (U, n) matrix `_sq_dists(xs, X)` against the training
    inputs `X`, used in its place.
    """
    if not isinstance(gps, tuple) or not gps:
        raise ValueError("gps must be the tuple of processes gp_fit returns")
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
            Ks = _kernel(d2, g.length_scale)
            if not np.isfinite(Ks).all():
                raise ValueError("query kernel must be finite")
            v, info = dtrtrs(g._chol, Ks.T, lower=1)
            if info:
                raise ValueError(f"dtrtrs: returned info {info}")
            var = SIGNAL_VARIANCE - (v * v).sum(axis=0)
            done[id(g._chol)] = Ks, np.sqrt(np.maximum(var, 0.0))
        Ks, sigma[:, j] = done[id(g._chol)]
        mu[:, j] = Ks @ g._alpha + g.y_mean
    return mu, sigma
