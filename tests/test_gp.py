import contextlib
import importlib.machinery

import numpy as np
import pytest
import scipy.linalg

from flashtune import gp as gp_module
from flashtune.gp import LENGTH_SCALES, NOISE_VARIANCE, gp_fit, gp_predict_batch

from conftest import (
    gp_predict,
    reference_factor,
    reference_gp_fit,
    reference_gp_predict_batch,
    reference_scale_fit,
)


def naive_posterior(X, y, query, length_scale, noise):
    """Textbook dense-solve oracle at unit signal variance: explicit
    inverse, no factorization reuse."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    q = np.asarray(query, float)
    mean = y.mean()

    def kern(A, B):
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2 * length_scale ** 2))

    K = kern(X, X) + noise * np.eye(len(X))
    Kinv = np.linalg.inv(K)
    ks = kern(q[None, :], X)[0]
    mu = ks @ Kinv @ (y - mean) + mean
    var = 1.0 - ks @ Kinv @ ks
    return float(mu), float(np.sqrt(max(var, 0.0)))


def assert_matches_naive(X, y, q):
    """A one-objective fit's posterior at q is the dense solve's at the
    fit's chosen scale, within 1e-8."""
    gps = gp_fit(X, np.asarray(y, float)[:, None])
    mu, sigma = gp_predict(gps, q)
    mu0, sigma0 = naive_posterior(X, y, q, gps[0].length_scale, NOISE_VARIANCE)
    assert abs(mu - mu0) <= 1e-8
    assert abs(sigma - sigma0) <= 1e-8
    return mu, sigma


def test_single_point_interpolation():
    mu, sigma = assert_matches_naive([[0.3, 0.7]], [4.2], [0.3, 0.7])
    assert mu == pytest.approx(4.2, abs=1e-6)
    # at the training point only the noise is left: var = noise / (1 + noise)
    assert sigma == pytest.approx(np.sqrt(NOISE_VARIANCE / (1.0 + NOISE_VARIANCE)), abs=1e-8)


def test_far_query_reverts_to_prior():
    y = [3.0, 5.0]
    mu, sigma = assert_matches_naive([[0.0], [0.05]], y, [50.0])
    assert mu == pytest.approx(np.mean(y), abs=1e-9)
    assert sigma ** 2 == pytest.approx(1.0, abs=1e-9)


def test_sigma_near_zero_at_training_points():
    rng = np.random.default_rng(1)
    X = rng.random((6, 3))
    y = rng.normal(size=6)
    mu, sigma = gp_predict_batch(gp_fit(X, y[:, None]), X)
    assert np.allclose(mu[:, 0], y, atol=1e-5)
    assert np.all(sigma < 1e-3)
    for x in X:
        assert_matches_naive(X, y, x)


def test_matches_naive_dense_solve():
    rng = np.random.default_rng(2)
    for _ in range(25):
        X = rng.random((10, 2))
        y = rng.normal(size=10)
        q = rng.random(2)
        assert_matches_naive(X, y, q)


def test_duplicate_inputs_fit_at_the_fixed_noise(monkeypatch):
    """Repeated inputs make the kernel singular, but the kernel plus
    NOISE_VARIANCE * I factors at the first `dpotrf` at every grid scale, so
    the fit never reaches `_factor`'s jitter."""
    X = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]])
    d2 = gp_module._sq_dists(X, X)
    for length_scale in LENGTH_SCALES:
        K = gp_module._kernel(d2, length_scale) + NOISE_VARIANCE * np.eye(3)
        _, info = gp_module.lapack().dpotrf(K, lower=1, clean=0)
        assert info == 0
    calls = []
    with counting(monkeypatch, "dpotrf", calls):
        gps = gp_fit(X, [[1.0], [1.0], [2.0]])
    assert len(calls) == len(LENGTH_SCALES)
    mu, _ = gp_predict(gps, [0.5, 0.5])
    assert mu == pytest.approx(1.0, abs=1e-3)


def test_refinement_improves_log_marginal():
    """Each fit keeps the grid scale whose reference fit has the largest log
    marginal likelihood, the first among equals.  Sines from slow to fast
    make every scale of the grid the choice at least once."""
    rng = np.random.default_rng(3)
    chosen = set()
    for frequency in 2.0 ** np.arange(-1, 7):
        X = rng.random((30, 1))
        y = np.sin(frequency * X[:, 0])
        (g,) = gp_fit(X, y[:, None])
        lml = [reference_scale_fit(X, y, s)[2] for s in LENGTH_SCALES]
        assert g.length_scale == LENGTH_SCALES[int(np.argmax(lml))]
        chosen.add(g.length_scale)
    assert chosen == set(LENGTH_SCALES)


def test_refinement_deterministic():
    rng = np.random.default_rng(4)
    X = rng.random((12, 2))
    y = rng.normal(size=(12, 1))
    (a,), (b,) = gp_fit(X, y), gp_fit(X, y)
    assert a.length_scale == b.length_scale
    assert np.array_equal(a._alpha, b._alpha)


def test_refinement_computes_distances_once(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.random((15, 3))
    y = rng.normal(size=(15, 2))
    calls = []
    real = gp_module._sq_dists

    def counting(A, B):
        calls.append(A.shape[0])
        return real(A, B)

    monkeypatch.setattr(gp_module, "_sq_dists", counting)
    gp_fit(X, y)
    assert calls == [15]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_process(shared, alone):
    assert shared.length_scale == alone.length_scale
    assert same_bits(shared._chol, alone._chol)
    assert same_bits(shared._alpha, alone._alpha)
    assert same_bits(shared.y_mean, alone.y_mean)


def test_multi_column_fit_and_predict_match_one_dimensional_calls():
    """A two-column fit, predicted with distances gathered from a per-point
    store as ePAL keeps it, gives every column's figures bit for bit as the
    reference one-objective fit and prediction computing their own
    distances do."""
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
        d2_train = store[np.ix_(meas, meas)]
        d2_query = store[np.ix_(query, meas)]
        assert same_bits(d2_train, gp_module._sq_dists(pool[meas], pool[meas]))
        assert same_bits(d2_query, gp_module._sq_dists(pool[query], pool[meas]))

        shared = gp_fit(pool[meas], Y, d2=d2_train)
        mu, sigma = gp_predict_batch(shared, pool[query], d2=d2_query)
        assert isinstance(shared, tuple) and len(shared) == 2
        assert mu.shape == sigma.shape == (query.size, 2)
        for j in range(2):
            # a strided column, as ePAL passed each objective before
            before = reference_gp_fit(pool[meas], Y[:, j], LENGTH_SCALES)
            assert_same_process(shared[j], before)
            mu_j, sigma_j = reference_gp_predict_batch(before, pool[query])
            assert same_bits(mu[:, j], mu_j) and same_bits(sigma[:, j], sigma_j)
            # one process of the tuple predicts alone as in the pair, with or without d2
            for given in ({}, {"d2": d2_query}):
                alone = gp_predict_batch((shared[j],), pool[query], **given)
                assert all(same_bits(a[:, 0], b) for a, b in zip(alone, (mu_j, sigma_j)))
        if shared[0].length_scale == shared[1].length_scale:
            same_scale += 1
            assert shared[0]._chol is shared[1]._chol  # factored once
        else:
            different_scale += 1
    assert same_scale > 20 and different_scale > 20


@contextlib.contextmanager
def counting(monkeypatch, name, calls, limit=None):
    """Count the calls `gp` makes to one routine of `gp.lapack()` inside the
    block; with a `limit`, the call after it raises, so a loop that would
    not end fails at once.  The patch is undone on leaving the block, so a
    scipy wrapper called outside it never sees it (nor caches it in
    `get_lapack_funcs`)."""
    real = getattr(gp_module.lapack(), name)

    def call(*args, **kwargs):
        calls.append(1)
        if limit is not None and len(calls) > limit:
            raise AssertionError(f"{name} called more than {limit} times")
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(gp_module.lapack(), name, call)
        yield


def test_multi_column_predict_solves_once_per_factor(monkeypatch):
    rng = np.random.default_rng(22)
    X = rng.random((12, 3))
    Y = np.column_stack([rng.normal(size=12)] * 3)  # equal columns choose equal scales
    gps = gp_fit(X, Y)
    solves = []
    with counting(monkeypatch, "dtrtrs", solves):
        mu, sigma = gp_predict_batch(gps, rng.random((5, 3)))
    assert len(solves) == 1
    assert same_bits(mu[:, 0], mu[:, 2]) and same_bits(sigma[:, 0], sigma[:, 1])


def test_jitter_escalation_matches_the_cho_factor_loop(monkeypatch):
    """Kernels of repeated inputs with no noise are singular: `_factor`
    retries `dpotrf` with growing jitter and ends at the factor the
    `cho_factor` loop gives, bit for bit.  The loop gives up after about 11
    tries, so more than 64 means the jitter stopped growing."""
    rng = np.random.default_rng(23)
    escalated = 0
    for case in range(40):
        X = rng.random((int(rng.integers(2, 12)), int(rng.integers(1, 4))))
        X = np.vstack([X, X[:case % 3 + 1]])
        K = gp_module._kernel(gp_module._sq_dists(X, X), 0.2)
        calls = []
        with counting(monkeypatch, "dpotrf", calls, limit=64):
            c = gp_module._factor(K, 0.0)
        escalated += len(calls) > 1
        want, want_lower = reference_factor(K, 0.0)
        assert want_lower is True
        assert same_bits(c, want)
    assert escalated > 20
    hopeless = np.array([[1.0, 2.0], [2.0, 1.0]])
    calls = []
    with counting(monkeypatch, "dpotrf", calls, limit=64), pytest.raises(gp_module.GpError):
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
        gp_fit([[0.0], [1.0]], [[0.0], [np.nan]])
    gps = gp_fit([[0.0], [1.0]], [[0.0], [1.0]])
    with pytest.raises(ValueError, match="finite"):
        gp_predict_batch(gps, [[np.nan]])
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
        gp_fit(np.zeros((0, 2)), np.zeros((0, 1)))
    with pytest.raises(ValueError, match=r"\(n, m\) targets"):
        gp_fit([[0.0], [1.0]], [0.0, 1.0])
    gps = gp_fit([[0.0], [1.0]], [[0.0], [1.0]])
    with pytest.raises(ValueError, match="tuple"):
        gp_predict_batch(gps[0], [[0.5]])
    with pytest.raises(ValueError):
        gp_predict(gps, [0.0, 1.0])
    with pytest.raises(ValueError, match="d2"):
        gp_fit([[0.0], [1.0]], [[0.0], [1.0]], d2=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="d2"):
        gp_predict_batch(gps, [[0.5]], d2=np.zeros((2, 2)))
    other = gp_fit([[0.0], [2.0]], [[0.0], [1.0]])
    with pytest.raises(ValueError, match="share"):
        gp_predict_batch((gps[0], other[0]), [[0.5]])
