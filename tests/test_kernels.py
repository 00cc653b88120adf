import json
import math
import re
import sys
import threading
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxcp.kernels import (DEFAULT_CUTOFF, GramMatrix, KernelSpec, gram,
                           gram_between, pseudo_inverse_apply)

from oracles import cdist_kernel, laplacian_gram


def _k(spec, x, x2):
    """k(x, x2), read off the Gram matrix of the two points."""
    return gram(spec, [x, x2]).entries[0, 1]


def test_eval_kernel_same_point_is_one():
    spec = KernelSpec("laplacian", 1.0)
    assert _k(spec, [0.3, -2.0], [0.3, -2.0]) == 1.0


def test_eval_kernel_laplacian_unit_distance():
    spec = KernelSpec("laplacian", 1.0)
    assert _k(spec, [0.0], [1.0]) == pytest.approx(math.exp(-1), rel=1e-15)


def test_eval_kernel_gaussian():
    spec = KernelSpec("gaussian_rbf", 0.5)
    # squared euclidean distance 2, times bandwidth 0.5
    assert _k(spec, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(math.exp(-1), rel=1e-15)


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


@pytest.mark.parametrize("kwargs, message", [
    ({"family": None}, "family must be a string, got None"),
    ({"family": "mystery"}, "family must be one of ("),
    ({"bandwidth": True}, "bandwidth must be a finite number, got True"),
    ({"bandwidth": "1"}, "bandwidth must be a finite number, got '1'"),
    ({"bandwidth": [0.5]}, "bandwidth must be a finite number, got [0.5]"),
    ({"bandwidth": math.inf}, "bandwidth must be a finite number, got inf"),
    ({"bandwidth": 0.0}, "bandwidth must be positive or 'auto', got 0.0"),
])
def test_spec_rejects_bad_fields_naming_them(kwargs, message):
    # a bool bandwidth used to pass here while the config refused it; every
    # message starts with the field, which the config prefixes with "kernel."
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        KernelSpec(**{"family": "laplacian", **kwargs})


def test_spec_stores_numpy_scalars_as_plain_floats():
    spec = KernelSpec("gaussian_rbf", np.float32(0.5))
    assert spec == KernelSpec("gaussian_rbf", 0.5) and type(spec.bandwidth) is float
    assert type(KernelSpec("laplacian", 2).bandwidth) is float
    assert KernelSpec("laplacian", 2).resolve_bandwidth(3) == 2.0


@pytest.mark.parametrize("dim", [0, -1])
def test_resolve_bandwidth_rejects_an_empty_dimension(dim):
    with pytest.raises(ValueError, match=f"input dimension must be >= 1, got {dim}"):
        KernelSpec("laplacian", "auto").resolve_bandwidth(dim)


@pytest.mark.parametrize("entries, message", [
    (np.ones(3), r"must be square, got shape \(3,\)"),
    (np.ones((2, 3)), r"must be square, got shape \(2, 3\)"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "entries must be finite"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "entries must be finite"),
])
def test_gram_matrix_rejects_bad_entries(entries, message):
    with pytest.raises(ValueError, match=message):
        GramMatrix(entries)


def test_kernel_spec_config_round_trip():
    for spec in (KernelSpec("gaussian_rbf", 2.5), KernelSpec("laplacian", "auto")):
        assert KernelSpec(**json.loads(json.dumps(asdict(spec)))) == spec


def test_gram_single_point():
    G = gram(KernelSpec(), [[0.7]])
    assert G.entries.shape == (1, 1)
    assert G.entries[0, 0] == 1.0


def test_gram_two_identical_points():
    G = gram(KernelSpec(), [[0.2, 0.4], [0.2, 0.4]])
    assert np.array_equal(G.entries, np.ones((2, 2)))
    # rank one: a single nonzero eigenvalue, 2
    np.testing.assert_allclose(G.eigenpairs[0], [0.0, 2.0], atol=1e-15)


def test_gram_empty_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        gram(KernelSpec(), np.empty((0, 3)))


def test_gram_matches_independent_construction():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(7, 4))
    G = gram(KernelSpec("laplacian", 0.25), pts)
    np.testing.assert_allclose(G.entries, laplacian_gram(pts, 0.25), rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("laplacian", "gaussian_rbf")), st.integers(1, 90),
       st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_gram_equals_cdist_bit_for_bit(family, n, d, m, seed):
    # the feature-order sum reproduces scipy's cdist exactly, duplicates
    # and all; a duplicate row's kernel entries are exactly 1
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=rng.uniform(0.01, 10.0), size=(n, d))
    dup = rng.integers(n, size=n // 3)
    pts[rng.integers(n, size=dup.size)] = pts[dup]
    other = np.vstack([rng.normal(size=(m, d)), pts[:1]])
    spec = KernelSpec(family, float(rng.uniform(0.05, 3.0)))
    gamma = spec.resolve_bandwidth(d)
    G = gram(spec, pts)
    assert np.array_equal(G.entries, cdist_kernel(family, gamma, pts, pts))
    assert np.all(np.diag(G.entries) == 1.0)
    same = (pts[:, None, :] == pts[None, :, :]).all(axis=2)
    assert np.all(G.entries[same] == 1.0)
    cross = gram_between(spec, pts, other)
    assert np.array_equal(cross, cdist_kernel(family, gamma, pts, other))
    assert np.all(cross[:, -1][(pts == pts[0]).all(axis=1)] == 1.0)


@pytest.mark.parametrize("family", ["laplacian", "gaussian_rbf"])
def test_gram_equals_cdist_across_row_blocks(family):
    # larger than one row block of the pairwise loop: the mirrored lower
    # triangle and the block edges must match cdist too
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(450, 10))
    spec = KernelSpec(family, "auto")
    assert np.array_equal(gram(spec, pts).entries, cdist_kernel(family, 0.1, pts, pts))
    assert np.array_equal(gram_between(spec, pts, pts[:90]),
                          cdist_kernel(family, 0.1, pts, pts[:90]))


def test_gram_symmetric_and_psd_random():
    rng = np.random.default_rng(11)
    for spec in (KernelSpec("laplacian", "auto"), KernelSpec("gaussian_rbf", 1.3)):
        pts = rng.normal(size=(40, 3))
        G = gram(spec, pts)
        assert np.array_equal(G.entries, G.entries.T)
        evals = np.linalg.eigvalsh(G.entries)
        assert evals.min() >= -1e-10 * evals.max()
        assert np.all(np.diag(G.entries) == 1.0)


def test_gram_matrix_symmetrises_its_input():
    rng = np.random.default_rng(12)
    M = rng.normal(size=(5, 5))
    np.testing.assert_array_equal(GramMatrix(M).entries, 0.5 * (M + M.T))
    # symmetric input is kept bit for bit, in a read-only array of its own
    S = M + M.T
    G = GramMatrix(S)
    np.testing.assert_array_equal(G.entries, S)
    assert G.entries is not S and S.flags.writeable and not G.entries.flags.writeable


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


def test_project_onto_range_idempotent():
    rng = np.random.default_rng(21)
    pts = np.vstack([rng.uniform(size=(5, 2)), rng.uniform(size=(1, 2))])
    G = gram(KernelSpec(), pts)
    v = rng.normal(size=6)
    p1 = G.project_onto_range(v)
    np.testing.assert_allclose(G.project_onto_range(p1), p1, atol=1e-12)



def test_project_onto_range_is_the_identity_at_full_rank():
    rng = np.random.default_rng(23)
    G = gram(KernelSpec(), rng.uniform(size=(8, 2)))
    w, _ = G.eigenpairs
    assert (w > DEFAULT_CUTOFF * w[-1]).all()
    v = rng.normal(size=G.n)
    assert G.project_onto_range(v).tobytes() == v.tobytes()
    assert G._range_basis is None


def test_project_onto_range_reads_one_cached_basis():
    rng = np.random.default_rng(22)
    pts = np.vstack([rng.uniform(size=(7, 2)), rng.uniform(size=(1, 2))])
    pts[3] = pts[5]  # a repeated point leaves K rank-deficient
    G = gram(KernelSpec(), pts)
    w, V = G.eigenpairs
    Vr = V[:, w > DEFAULT_CUTOFF * w[-1]]
    assert Vr.shape[1] < G.n
    for _ in range(3):
        v = rng.normal(size=G.n)
        np.testing.assert_array_equal(G.project_onto_range(v), Vr @ (Vr.T @ v))
    basis = G._range_basis
    G.project_onto_range(v)
    assert G._range_basis is basis and not basis.flags.writeable


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



def test_range_basis_cache_thread_safety(monkeypatch):
    # more threads than cores and a short switch interval, so racing
    # first calls overlap; every caller must see one basis from one eigh
    eighs = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(1) or real_eigh(a))
    rng = np.random.default_rng(3)
    G = gram(KernelSpec(), rng.uniform(size=(40, 2)))
    v = rng.normal(size=G.n)
    results, bases = [], []

    def project():
        results.append(G.project_onto_range(v))
        bases.append(G._range_basis)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=project) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(eighs) == 1 and len(results) == 16
    assert all(b is bases[0] for b in bases)
    assert all(np.array_equal(r, results[0]) for r in results)


def test_entries_read_only():
    G = gram(KernelSpec(), [[0.0], [1.0]])
    with pytest.raises(ValueError):
        G.entries[0, 0] = 5.0


def test_default_cutoff_value():
    assert DEFAULT_CUTOFF == 1e-12
