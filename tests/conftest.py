from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from flashtune import gp
from flashtune.space import (
    BOOLEAN,
    INTEGER,
    MINIMIZE,
    Dataset,
    ObjectiveSchema,
    OptionSchema,
)


def bool_options(n):
    return [OptionSchema(f"o{j:02d}", BOOLEAN) for j in range(n)]


def make_dataset(configs, values, directions=None, kinds=None):
    """Small in-memory dataset; option kinds inferred as integer by default."""
    configs = np.asarray(configs, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    d = configs.shape[1]
    m = values.shape[1]
    if directions is None:
        directions = [MINIMIZE] * m
    if kinds is None:
        kinds = [INTEGER] * d
    options = []
    for j in range(d):
        if kinds[j] == BOOLEAN:
            options.append(OptionSchema(f"o{j:02d}", BOOLEAN))
        else:
            lo = int(configs[:, j].min())
            hi = int(configs[:, j].max())
            options.append(OptionSchema(f"o{j:02d}", INTEGER, lo, hi))
    objectives = [ObjectiveSchema(f"y{k}", directions[k]) for k in range(m)]
    return Dataset(options, objectives, configs, values)


@pytest.fixture
def two_bool_dataset():
    """Exhaustive 2-option boolean space with one minimized objective."""
    configs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    values = [3.0, 2.0, 4.0, 1.0]
    return make_dataset(configs, values, kinds=[BOOLEAN, BOOLEAN])


# --- the GP before multi-column fits and gathered distances --------------------
# The oracles go through scipy's own wrappers (`cho_factor`, `cho_solve`,
# `solve_triangular`); the package itself loads only their LAPACK extension.

def gp_predict(g, x):
    """Posterior (mean, std) at a single point, through `gp_predict_batch`."""
    mu, sigma = gp.gp_predict_batch(g, np.asarray(x, dtype=float)[None, :])
    return float(mu[0]), float(sigma[0])


def reference_factor(K, noise):
    """`gp._factor` as it was before it called LAPACK directly: `cho_factor`
    with escalating jitter."""
    n = K.shape[0]
    scale = float(np.trace(K)) / n if n else 1.0
    jitter = 0.0
    while True:
        try:
            return scipy.linalg.cho_factor(K + (noise + jitter) * np.eye(n), lower=True)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * scale)
            if jitter > 1e-3 * scale:
                raise gp.GpError("kernel matrix is not positive definite") from None


def reference_gp_fit(xs, ys, params):
    """One objective's GP fit as it was before `gp_fit` took (n, m) targets
    and `d2`: own distances, one factor per grid scale per objective."""
    X = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    y_mean = float(y.mean())
    yc = y - y_mean
    candidates = [params]
    if params.refine:
        candidates = [replace(params, length_scale=ls) for ls in params.length_scale_grid]
    d2 = gp._sq_dists(X, X)
    best = None
    for cand in candidates:
        chol = reference_factor(gp._kernel(d2, cand), cand.noise_variance)
        alpha = scipy.linalg.cho_solve(chol, yc)
        lml = float(
            -0.5 * yc @ alpha
            - np.sum(np.log(np.diag(chol[0])))
            - 0.5 * d2.shape[0] * np.log(2.0 * np.pi)
        )
        if best is None or lml > best[3]:
            best = (cand, chol, alpha, lml)
    chosen, chol, alpha, lml = best
    return gp.GaussianProcess(X.copy(), y.copy(), chosen, y_mean, chol, alpha, lml)


def reference_gp_predict_batch(g, xs):
    Xq = np.asarray(xs, dtype=float)
    Ks = gp._kernel(gp._sq_dists(Xq, g.X), g.params)
    mu = Ks @ g._alpha + g.y_mean
    v = scipy.linalg.solve_triangular(g._chol[0], Ks.T, lower=True)
    var = g.params.signal_variance - (v * v).sum(axis=0)
    return mu, np.sqrt(np.maximum(var, 0.0))
