import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxcp.kernels import (DEFAULT_CUTOFF, GramMatrix, KernelSpec, eval_kernel,
                           gram, gram_between, pseudo_inverse_apply)

from oracles import laplacian_gram


def test_eval_kernel_same_point_is_one():
    spec = KernelSpec("laplacian", 1.0)
    assert eval_kernel(spec, [0.3, -2.0], [0.3, -2.0]) == 1.0


def test_eval_kernel_laplacian_unit_distance():
    spec = KernelSpec("laplacian", 1.0)
    assert eval_kernel(spec, [0.0], [1.0]) == pytest.approx(math.exp(-1), rel=1e-15)


def test_eval_kernel_gaussian():
    spec = KernelSpec("gaussian_rbf", 0.5)
    # squared euclidean distance 2, times bandwidth 0.5
    assert eval_kernel(spec, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(math.exp(-1), rel=1e-15)


def test_eval_kernel_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        eval_kernel(KernelSpec(), [0.0], [0.0, 1.0])


def test_bandwidth_auto_resolves_to_reciprocal_dim():
    spec = KernelSpec("laplacian", "auto")
    assert spec.resolve_bandwidth(10) == pytest.approx(0.1)
    assert spec.resolve_bandwidth(1) == 1.0


def test_bandwidth_validation():
    with pytest.raises(ValueError):
        KernelSpec("laplacian", -1.0)
    with pytest.raises(ValueError):
        KernelSpec("laplacian", "wide")
    with pytest.raises(ValueError):
        KernelSpec("mystery", 1.0)


def test_kernel_spec_config_round_trip():
    spec = KernelSpec("gaussian_rbf", 2.5)
    assert KernelSpec.from_config(spec.to_config()) == spec
    auto = KernelSpec("laplacian", "auto")
    assert KernelSpec.from_config(auto.to_config()) == auto


def test_gram_single_point():
    G = gram(KernelSpec(), [[0.7]])
    assert G.entries.shape == (1, 1)
    assert G.entries[0, 0] == 1.0


def test_gram_two_identical_points():
    G = gram(KernelSpec(), [[0.2, 0.4], [0.2, 0.4]])
    assert np.array_equal(G.entries, np.ones((2, 2)))
    # rank one: single nonzero eigenvalue 2, so min nonzero of K/2 is 1
    assert G.mu_star == pytest.approx(1.0)


def test_gram_empty_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        gram(KernelSpec(), np.empty((0, 3)))


def test_gram_matches_independent_construction():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(7, 4))
    G = gram(KernelSpec("laplacian", 0.25), pts)
    np.testing.assert_allclose(G.entries, laplacian_gram(pts, 0.25), rtol=0, atol=1e-15)


def test_gram_symmetric_and_psd_random():
    rng = np.random.default_rng(11)
    for spec in (KernelSpec("laplacian", "auto"), KernelSpec("gaussian_rbf", 1.3)):
        pts = rng.normal(size=(40, 3))
        G = gram(spec, pts)
        assert np.array_equal(G.entries, G.entries.T)
        evals = np.linalg.eigvalsh(G.entries)
        assert evals.min() >= -1e-10 * evals.max()
        assert np.all(np.diag(G.entries) == 1.0)


def test_gram_between_consistency():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(6, 2))
    spec = KernelSpec("gaussian_rbf", 0.7)
    cross = gram_between(spec, pts, pts)
    np.testing.assert_allclose(cross, gram(spec, pts).entries, atol=1e-15)
    with pytest.raises(ValueError, match="dimension"):
        gram_between(spec, pts, rng.uniform(size=(4, 3)))


def test_diag_max_and_query_column():
    pts = np.array([[0.0], [1.0], [3.0]])
    G = gram(KernelSpec("laplacian", 1.0), pts)
    assert G.diag_max == 1.0
    np.testing.assert_allclose(G.query_column, G.entries[:, -1])


def test_pseudo_inverse_identity():
    out = pseudo_inverse_apply(np.eye(2), np.array([1.0, 2.0]))
    np.testing.assert_allclose(out, [1.0, 2.0])


def test_pseudo_inverse_cutoff_by_hand():
    out = pseudo_inverse_apply(np.diag([2.0, 0.0]), np.array([4.0, 5.0]))
    np.testing.assert_allclose(out, [2.0, 0.0], atol=1e-14)


def test_pseudo_inverse_range_residual():
    rng = np.random.default_rng(9)
    B = rng.normal(size=(8, 5))
    H = B @ B.T  # PSD, rank 5
    rhs = H @ rng.normal(size=8)  # guaranteed in range(H)
    sol = pseudo_inverse_apply(H, rhs)
    np.testing.assert_allclose(H @ sol, rhs, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=2**31 - 1))
def test_pseudo_inverse_reconstruction_property(k, seed):
    # H H+ H = H on random PSD matrices
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(k, max(1, k // 2)))
    H = B @ B.T
    n = H.shape[0]
    recon = np.column_stack([
        H @ pseudo_inverse_apply(H, H[:, j]) for j in range(n)])
    scale = max(np.linalg.norm(H), 1.0)
    assert np.linalg.norm(recon - H) <= 1e-9 * scale


def test_mu_star_of_scaled_identity_like():
    # two far-apart points: K approx identity, eigenvalues approx 1, mu* approx 1/2
    G = gram(KernelSpec("laplacian", 1.0), [[0.0], [60.0]])
    assert G.mu_star == pytest.approx(0.5, rel=1e-6)


def test_project_onto_range_idempotent():
    rng = np.random.default_rng(21)
    pts = np.vstack([rng.uniform(size=(5, 2)), rng.uniform(size=(1, 2))])
    G = gram(KernelSpec(), pts)
    v = rng.normal(size=6)
    p1 = G.project_onto_range(v)
    np.testing.assert_allclose(G.project_onto_range(p1), p1, atol=1e-12)


def test_psd_warning_on_indefinite_matrix():
    M = np.array([[1.0, 0.0], [0.0, -1.0]])
    G = GramMatrix(M)
    with pytest.warns(RuntimeWarning, match="not PSD"):
        G.eigenpairs


def test_eigen_cache_thread_safety():
    rng = np.random.default_rng(2)
    G = gram(KernelSpec(), rng.uniform(size=(30, 2)))
    results = []

    def grab():
        results.append(G.eigenpairs[0])

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first = results[0]
    assert all(r is first for r in results)  # one shared decomposition


def test_entries_read_only():
    G = gram(KernelSpec(), [[0.0], [1.0]])
    with pytest.raises(ValueError):
        G.entries[0, 0] = 5.0


def test_default_cutoff_value():
    assert DEFAULT_CUTOFF == 1e-12
