import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from flashtune import cart, gp
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


def load_rig_script():
    """`scripts/run_synthetic_rig.py` as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_rig.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_rig", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def two_bool_dataset():
    """Exhaustive 2-option boolean space with one minimized objective."""
    configs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    values = [3.0, 2.0, 4.0, 1.0]
    return make_dataset(configs, values, kinds=[BOOLEAN, BOOLEAN])


# --- per-row oracles for the array paths -------------------------------------

def predict(tree, config):
    """Descend by threshold comparisons to a leaf and return its prediction:
    one row of `cart.predict_batch`."""
    node = tree
    while isinstance(node, cart.Split):
        if node.option_index >= len(config):
            raise ValueError(
                f"configuration has {len(config)} options, tree splits on index {node.option_index}"
            )
        node = node.left if config[node.option_index] <= node.threshold else node.right
    return node.prediction


def dominates(a, b, directions):
    """True iff `a` is no worse than `b` everywhere and strictly better
    somewhere: one pair of `metrics.pareto_front`'s sweep."""
    if not len(a) == len(b) == len(directions):
        raise ValueError("objective vectors must match the directions in length")
    signs = [{"minimize": 1.0, "maximize": -1.0}[d] for d in directions]
    av = [float(v) * s for v, s in zip(a, signs)]
    bv = [float(v) * s for v, s in zip(b, signs)]
    return all(x <= y for x, y in zip(av, bv)) and any(x < y for x, y in zip(av, bv))


# --- the GP before multi-column fits and gathered distances --------------------
# The oracles go through scipy's own wrappers (`cho_factor`, `cho_solve`,
# `solve_triangular`); the package itself loads only their LAPACK extension.

def gp_predict(gps, x):
    """Posterior (mean, std) at a single point of a one-objective fit (the
    1-tuple `gp_fit` returns for (n, 1) targets), through `gp_predict_batch`."""
    mu, sigma = gp.gp_predict_batch(gps, np.asarray(x, dtype=float)[None, :])
    assert mu.shape == (1, 1)
    return float(mu[0, 0]), float(sigma[0, 0])


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


def reference_scale_fit(xs, ys, length_scale):
    """One objective's fit at one length scale, on its own distances:
    (Cholesky factor, alpha, log marginal likelihood)."""
    X = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    yc = y - float(y.mean())
    d2 = gp._sq_dists(X, X)
    chol = reference_factor(gp._kernel(d2, length_scale), gp.NOISE_VARIANCE)
    alpha = scipy.linalg.cho_solve(chol, yc)
    lml = float(
        -0.5 * yc @ alpha
        - np.sum(np.log(np.diag(chol[0])))
        - 0.5 * d2.shape[0] * np.log(2.0 * np.pi)
    )
    return chol[0], alpha, lml


def reference_gp_fit(xs, ys, length_scales):
    """One objective's GP fit as it was before `gp_fit` took (n, m) targets
    and `d2`: own distances, one factor per scale of `length_scales`, and
    the scale with the largest log marginal likelihood (the first among
    equals)."""
    best = None
    for length_scale in length_scales:
        chol, alpha, lml = reference_scale_fit(xs, ys, length_scale)
        if best is None or lml > best[3]:
            best = (length_scale, chol, alpha, lml)
    length_scale, chol, alpha, _ = best
    X = np.asarray(xs, dtype=float)
    y_mean = float(np.asarray(ys, dtype=float).mean())
    return gp.GaussianProcess(X.copy(), length_scale, y_mean, chol, alpha)


def reference_gp_predict_batch(g, xs):
    """One process's posterior (mean, std) at xs, as 1-D arrays."""
    Xq = np.asarray(xs, dtype=float)
    Ks = gp._kernel(gp._sq_dists(Xq, g.X), g.length_scale)
    mu = Ks @ g._alpha + g.y_mean
    v = scipy.linalg.solve_triangular(g._chol, Ks.T, lower=True)
    var = gp.SIGNAL_VARIANCE - (v * v).sum(axis=0)
    return mu, np.sqrt(np.maximum(var, 0.0))
