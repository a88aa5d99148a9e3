import contextlib
import importlib.machinery
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from flashtune import gp as gp_module
from flashtune.gp import GpParams, gp_fit, gp_predict_batch

from conftest import gp_predict, reference_factor, reference_gp_fit, reference_gp_predict_batch


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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_process(shared, alone):
    assert shared.params == alone.params
    assert same_bits(shared.log_marginal, alone.log_marginal)
    assert same_bits(shared._chol[0], alone._chol[0])
    assert same_bits(shared._alpha, alone._alpha)
    assert same_bits(shared.y_mean, alone.y_mean)


def test_multi_column_fit_and_predict_match_one_dimensional_calls():
    """A two-column fit, predicted with distances gathered from a per-point
    store as ePAL keeps it, gives every column's figures bit for bit as 1-D
    fits and predictions computing their own distances do: both today's
    1-D path and the reference copy of the path before the change."""
    rng = np.random.default_rng(21)
    same_scale = different_scale = 0
    for case in range(200):
        n_pool, d = int(rng.integers(8, 60)), int(rng.integers(1, 8))
        pool = rng.random((n_pool, d))
        if case % 3 == 0:
            pool = np.round(pool * 3) / 3  # repeated rows and equal distances
        store = np.column_stack([gp_module._sq_dists(pool, pool[i:i + 1])[:, 0]
                                 for i in range(n_pool)])
        k = int(rng.integers(1, n_pool))
        meas = np.sort(rng.choice(n_pool, size=k, replace=False))
        query = np.setdiff1d(np.arange(n_pool), meas)
        # the two objectives of a trade-off, or two unrelated ones
        Y = rng.normal(size=(k, 2))
        if case % 2:
            Y[:, 1] = -Y[:, 0] + rng.normal(scale=0.3, size=k)
        params = GpParams(refine=case % 4 != 3, noise_variance=(1e-6, 1e-3)[case % 2])
        d2_train = store[np.ix_(meas, meas)]
        d2_query = store[np.ix_(query, meas)]
        assert same_bits(d2_train, gp_module._sq_dists(pool[meas], pool[meas]))
        assert same_bits(d2_query, gp_module._sq_dists(pool[query], pool[meas]))

        shared = gp_fit(pool[meas], Y, params, d2=d2_train)
        mu, sigma = gp_predict_batch(shared, pool[query], d2=d2_query)
        assert isinstance(shared, tuple) and len(shared) == 2
        assert mu.shape == sigma.shape == (query.size, 2)
        for j in range(2):
            # a strided column, as ePAL passed each objective before
            before = reference_gp_fit(pool[meas], Y[:, j], params)
            alone = gp_fit(pool[meas], Y[:, j], params)
            assert_same_process(shared[j], before)
            assert_same_process(alone, before)
            mu_j, sigma_j = reference_gp_predict_batch(before, pool[query])
            assert same_bits(mu[:, j], mu_j) and same_bits(sigma[:, j], sigma_j)
            assert all(same_bits(a, b) for a, b in zip(
                gp_predict_batch(alone, pool[query]), (mu_j, sigma_j)))
            # one process of the tuple predicts as its 1-D twin, with or without d2
            assert all(same_bits(a, b) for a, b in zip(
                gp_predict_batch(shared[j], pool[query], d2=d2_query), (mu_j, sigma_j)))
        if shared[0].params == shared[1].params:
            same_scale += 1
            assert shared[0]._chol is shared[1]._chol  # factored once
        else:
            different_scale += 1
    assert same_scale > 20 and different_scale > 20


@contextlib.contextmanager
def counting(monkeypatch, name, calls):
    """Count the calls `gp` makes to one routine of `gp.lapack()` inside the
    block.  The patch is undone on leaving it, so a scipy wrapper called
    outside the block never sees it (nor caches it in `get_lapack_funcs`)."""
    real = getattr(gp_module.lapack(), name)
    with monkeypatch.context() as m:
        m.setattr(gp_module.lapack(), name, lambda *a, **k: calls.append(1) or real(*a, **k))
        yield


def test_multi_column_predict_solves_once_per_factor(monkeypatch):
    rng = np.random.default_rng(22)
    X = rng.random((12, 3))
    Y = np.column_stack([rng.normal(size=12)] * 3)  # equal columns choose equal scales
    gps = gp_fit(X, Y, GpParams(refine=True))
    solves = []
    with counting(monkeypatch, "dtrtrs", solves):
        mu, sigma = gp_predict_batch(gps, rng.random((5, 3)))
    assert len(solves) == 1
    assert same_bits(mu[:, 0], mu[:, 2]) and same_bits(sigma[:, 0], sigma[:, 1])


def test_jitter_escalation_matches_the_cho_factor_loop(monkeypatch):
    """Kernels of repeated inputs with no noise are singular: `_factor`
    retries `dpotrf` with growing jitter and ends at the factor the
    `cho_factor` loop gives, bit for bit."""
    rng = np.random.default_rng(23)
    escalated = 0
    for case in range(40):
        X = rng.random((int(rng.integers(2, 12)), int(rng.integers(1, 4))))
        X = np.vstack([X, X[:case % 3 + 1]])
        K = gp_module._kernel(gp_module._sq_dists(X, X), GpParams())
        calls = []
        with counting(monkeypatch, "dpotrf", calls):
            c, lower = gp_module._factor(K, 0.0)
        escalated += len(calls) > 1
        want, want_lower = reference_factor(K, 0.0)
        assert lower is want_lower is True
        assert same_bits(c, want)
    assert escalated > 20
    hopeless = np.array([[1.0, 2.0], [2.0, 1.0]])
    calls = []
    with counting(monkeypatch, "dpotrf", calls), pytest.raises(gp_module.GpError):
        gp_module._factor(hopeless, 0.0)
    assert len(calls) > 2  # _factor's own retries, before it gave up
    with pytest.raises(gp_module.GpError):
        reference_factor(hopeless, 0.0)


def test_raw_lapack_path_rejects_what_the_scipy_wrappers_rejected(monkeypatch):
    K = np.eye(3)
    K[0, 1] = np.nan
    for factor in (gp_module._factor, reference_factor):
        with pytest.raises(ValueError):
            factor(K, 0.0)
    with pytest.raises(ValueError, match="finite"):
        gp_fit([[0.0], [1.0]], [0.0, np.nan])
    gp = gp_fit([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        gp_predict_batch(gp, [[np.nan]])
    with monkeypatch.context() as m:
        m.setattr(gp_module.lapack(), "dpotrf", lambda a, **k: (a, -1))
        with pytest.raises(ValueError, match="illegal value in argument 1"):
            gp_module._factor(np.eye(2), 0.0)


def test_lapack_is_the_extension_scipy_linalg_uses():
    """The routines `lapack()` loads are the objects `scipy.linalg.lapack`
    re-exports, so the GP's figures are the scipy wrappers' by construction.
    This fails if scipy moves the extension file."""
    for name in ("dpotrf", "dpotrs", "dtrtrs"):
        assert getattr(gp_module.lapack(), name) is getattr(scipy.linalg.lapack, name)
    assert gp_module.lapack() is gp_module.lapack()


def test_a_missing_lapack_extension_raises_with_its_path(monkeypatch):
    loaded = gp_module.lapack()
    with monkeypatch.context() as m:
        m.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".nosuch.so"])
        gp_module.lapack.cache_clear()
        with pytest.raises(ImportError, match=r"Linux and macOS wheels only: no .*linalg.?_flapack"
                                              r"<suffix> for any suffix in \['.nosuch.so'\]"):
            gp_module.lapack()
    assert gp_module.lapack() is loaded  # the failure is not cached; a reload finds the same module


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
    with pytest.raises(ValueError, match="d2"):
        gp_fit([[0.0], [1.0]], [0.0, 1.0], d2=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="d2"):
        gp_predict_batch(gp, [[0.5]], d2=np.zeros((2, 2)))
    other = gp_fit([[0.0], [2.0]], [0.0, 1.0])
    with pytest.raises(ValueError, match="share"):
        gp_predict_batch((gp, other), [[0.5]])
