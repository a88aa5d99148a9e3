from dataclasses import replace

import numpy as np
import pytest

from flashtune import gp as gp_module
from flashtune.gp import GpParams, gp_fit, gp_predict, gp_predict_batch


def naive_posterior(X, y, query, params):
    """Textbook dense-solve oracle: explicit inverse, no factorization reuse."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    q = np.asarray(query, float)
    mean = y.mean()

    def kern(A, B):
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return params.signal_variance * np.exp(-d2 / (2 * params.length_scale ** 2))

    K = kern(X, X) + params.noise_variance * np.eye(len(X))
    Kinv = np.linalg.inv(K)
    ks = kern(q[None, :], X)[0]
    mu = ks @ Kinv @ (y - mean) + mean
    var = params.signal_variance - ks @ Kinv @ ks
    return float(mu), float(np.sqrt(max(var, 0.0)))


def test_single_point_interpolation():
    params = GpParams(noise_variance=1e-9)
    gp = gp_fit([[0.3, 0.7]], [4.2], params)
    mu, sigma = gp_predict(gp, [0.3, 0.7])
    assert mu == pytest.approx(4.2, abs=1e-6)
    assert sigma == pytest.approx(0.0, abs=1e-4)


def test_far_query_reverts_to_prior():
    params = GpParams(length_scale=0.1, signal_variance=2.0, noise_variance=1e-9)
    y = [3.0, 5.0]
    gp = gp_fit([[0.0], [0.05]], y, params)
    mu, sigma = gp_predict(gp, [50.0])
    assert mu == pytest.approx(np.mean(y), abs=1e-9)
    assert sigma ** 2 == pytest.approx(2.0, abs=1e-9)


def test_sigma_near_zero_at_training_points():
    rng = np.random.default_rng(1)
    X = rng.random((6, 3))
    y = rng.normal(size=6)
    gp = gp_fit(X, y, GpParams(noise_variance=1e-9))
    mu, sigma = gp_predict_batch(gp, X)
    assert np.allclose(mu, y, atol=1e-5)
    assert np.all(sigma < 1e-3)


def test_matches_naive_dense_solve():
    rng = np.random.default_rng(2)
    params = GpParams(length_scale=0.35, signal_variance=1.7, noise_variance=1e-6)
    for _ in range(25):
        X = rng.random((10, 2))
        y = rng.normal(size=10)
        q = rng.random(2)
        gp = gp_fit(X, y, params)
        mu, sigma = gp_predict(gp, q)
        mu0, sigma0 = naive_posterior(X, y, q, params)
        assert abs(mu - mu0) <= 1e-8
        assert abs(sigma - sigma0) <= 1e-8


def test_duplicate_inputs_survive_via_jitter():
    X = [[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]]
    y = [1.0, 1.0, 2.0]
    gp = gp_fit(X, y, GpParams(noise_variance=0.0))
    mu, _ = gp_predict(gp, [0.5, 0.5])
    assert mu == pytest.approx(1.0, abs=1e-3)


def test_refinement_improves_log_marginal():
    rng = np.random.default_rng(3)
    X = rng.random((30, 1))
    y = np.sin(6 * X[:, 0])
    fixed = gp_fit(X, y, GpParams(length_scale=0.001))
    refined = gp_fit(X, y, GpParams(length_scale=0.001, refine=True))
    assert refined.log_marginal >= fixed.log_marginal
    assert refined.params.length_scale in GpParams().length_scale_grid


def test_refinement_deterministic():
    rng = np.random.default_rng(4)
    X = rng.random((12, 2))
    y = rng.normal(size=12)
    a = gp_fit(X, y, GpParams(refine=True))
    b = gp_fit(X, y, GpParams(refine=True))
    assert a.params == b.params
    assert np.array_equal(a._alpha, b._alpha)


def test_refinement_computes_distances_once(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.random((15, 3))
    y = rng.normal(size=15)
    calls = []
    real = gp_module._sq_dists

    def counting(A, B):
        calls.append(A.shape[0])
        return real(A, B)

    monkeypatch.setattr(gp_module, "_sq_dists", counting)
    refined = gp_fit(X, y, GpParams(refine=True))
    assert calls == [15]
    # the shared distances give the fixed-scale fit at the chosen scale bit for bit
    fixed = gp_fit(X, y, replace(refined.params, refine=False))
    assert np.array_equal(refined._chol[0], fixed._chol[0])
    assert np.array_equal(refined._alpha, fixed._alpha)
    assert refined.log_marginal == fixed.log_marginal


def test_validation():
    with pytest.raises(ValueError):
        gp_fit(np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        GpParams(length_scale=0.0)
    with pytest.raises(ValueError):
        GpParams(noise_variance=-1.0)
    for field in ("length_scale", "signal_variance", "noise_variance"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                GpParams(**{field: bad})
    gp = gp_fit([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(ValueError):
        gp_predict(gp, [0.0, 1.0])
