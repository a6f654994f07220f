"""SMOTE tests, checked against brute-force geometric oracles."""

import tracemalloc

import numpy as np
import pytest

from ddosflow import smote
from ddosflow.errors import DataError
from ddosflow.flow_data import FlowDataset
from ddosflow.smote import (
    SmoteConfig,
    minority_neighbors,
    oversample,
    synthesize,
)


def _ds(features, labels):
    features = np.asarray(features, dtype=np.float64)
    names = tuple(f"c{i}" for i in range(features.shape[1]))
    return FlowDataset(names, features, np.asarray(labels, dtype=np.int64))


def brute_force_neighbors(X, k):
    """All-pairs oracle: sort by (squared distance, index), self excluded."""
    n = X.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            d2 = float(((X[i] - X[j]) ** 2).sum())
            cand.append((d2, j))
        cand.sort()
        out[i] = [j for _, j in cand[:k]]
    return out


def on_segment(x, a, b, tol=1e-9):
    """True if x lies on the closed segment [a, b], per-coordinate residual tol."""
    ts = []
    for xi, ai, bi in zip(x, a, b):
        if bi == ai:
            if abs(xi - ai) > tol:
                return False
        else:
            ts.append((xi - ai) / (bi - ai))
    if not ts:
        return True
    t = ts[0]
    if not -tol <= t <= 1.0 + tol:
        return False
    recon = a + t * (b - a)
    return bool(np.abs(x - recon).max() <= tol)


# ------------------------------------------------------------- neighbors

def test_collinear_points_k1():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    nbrs = minority_neighbors(X, 1)
    assert nbrs[:, 0].tolist() == [1, 0, 1]


def test_duplicate_points_are_mutual_neighbors():
    X = np.array([[3.0, 3.0], [3.0, 3.0]])
    nbrs = minority_neighbors(X, 1)
    assert nbrs[:, 0].tolist() == [1, 0]


def test_k_clamped_with_warning():
    X = np.array([[0.0], [1.0], [2.0]])
    with pytest.warns(RuntimeWarning, match="clamping k to 2"):
        nbrs = minority_neighbors(X, 5)
    assert nbrs.shape == (3, 2)


def test_too_few_minority_rows():
    with pytest.raises(DataError, match=">=2 minority"):
        minority_neighbors(np.array([[1.0, 2.0]]), 1)


def test_neighbors_match_brute_force_oracle():
    rng = np.random.Generator(np.random.PCG64(17))
    for trial in range(30):
        n = int(rng.integers(2, 25))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, n))
        X = rng.normal(size=(n, d))
        np.testing.assert_array_equal(
            minority_neighbors(X, k), brute_force_neighbors(X, k)
        )


def test_neighbor_ties_break_to_lower_index():
    # integer grid gives exact distance ties; the oracle's (d2, j) sort
    # encodes the same low-index rule, so equality covers tie-breaking
    rng = np.random.Generator(np.random.PCG64(29))
    for _ in range(20):
        n = int(rng.integers(4, 16))
        X = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
        k = n - 1
        np.testing.assert_array_equal(
            minority_neighbors(X, k), brute_force_neighbors(X, k)
        )


def _reference_neighbors(X_min, k):
    """The explicit difference-tensor search the Gram search replaced,
    kept as the reference (k already clamped)."""
    n = X_min.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    d = X_min.shape[1]
    chunk = max(1, min(n, 8_388_608 // max(n * d, 1)))  # cap the diff buffer at ~64 MB
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = X_min[start:stop, None, :] - X_min[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        for i in range(start, stop):
            d2[i - start, i] = np.inf  # exclude self
        order = np.argsort(d2, axis=1, kind="stable")  # stable: ties keep low index
        out[start:stop] = order[:, :k]
    return out


def test_neighbors_match_explicit_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        n=st.integers(2, 60),
        d=st.integers(1, 80),
        k=st.integers(1, 12),
        kind=st.sampled_from(["normal", "grid", "near-duplicates", "mixed scales"]),
        offset=st.sampled_from([0.0, 1e6, -1e6, 1e8]),
        block_cells=st.one_of(st.none(), st.integers(1, 400)),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, d, k, kind, offset, block_cells, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        k = min(k, n - 1)
        if kind == "normal":
            X = rng.normal(size=(n, d))
        elif kind == "grid":  # exact distance ties
            X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        elif kind == "near-duplicates":  # copies 1 ulp apart
            X = rng.normal(size=(max(1, n // 3), d))[rng.integers(0, max(1, n // 3), n)]
            X = np.nextafter(X, np.where(rng.random((n, d)) < 0.5, -np.inf, np.inf))
        else:
            X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=d)
        X = X + offset
        with pytest.MonkeyPatch.context() as mp:
            if block_cells is not None:
                # small blocks: queries and re-rank chunks cross block edges
                mp.setattr(smote, "_BLOCK_CELLS", block_cells)
            got = minority_neighbors(X, k)
        np.testing.assert_array_equal(got, _reference_neighbors(X, k))

    check()


def test_neighbor_search_memory_stays_under_cap():
    # A 1e8 common offset and, worse, rows all at one point (every row a
    # candidate of every other) must stay under the ~64 MB working set.
    rng = np.random.Generator(np.random.PCG64(41))
    offset = rng.normal(size=(3000, 78)) + 1e8
    same = np.full((1200, 78), 1e8)
    for X in (offset, same):
        tracemalloc.start()
        try:
            got = minority_neighbors(X, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        for i in (0, 1, 599, X.shape[0] - 1):  # spot-check against a full sort
            diff = X[i] - X
            d2 = np.einsum("ij,ij->i", diff, diff)
            d2[i] = np.inf
            np.testing.assert_array_equal(got[i], np.argsort(d2, kind="stable")[:5])


# ------------------------------------------------------------- synthesize

def test_synthesize_lambda_zero_is_parent():
    x = np.array([1.5, -2.0])
    z = np.array([4.0, 4.0])
    np.testing.assert_array_equal(synthesize(x, z, 0.0), x)


def test_synthesize_direct_arithmetic():
    out = synthesize(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.25)
    np.testing.assert_array_equal(out, [0.5, 1.0])
    # a batch of rows takes one factor per row
    out = synthesize(
        np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -2.0]]),
        np.array([[2.0, 4.0], [3.0, 1.0], [2.0, 2.0]]),
        np.array([0.25, 0.5, 0.0]),
    )
    np.testing.assert_array_equal(out, [[0.5, 1.0], [2.0, 1.0], [2.0, -2.0]])


def test_synthesize_stays_on_segment():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(200):
        a = rng.normal(size=4) * 10
        b = rng.normal(size=4) * 10
        lam = float(rng.random())
        out = synthesize(a, b, lam)
        lo = np.minimum(a, b) - 1e-12
        hi = np.maximum(a, b) + 1e-12
        assert ((out >= lo) & (out <= hi)).all()
    a = rng.normal(size=(200, 4)) * 10
    b = rng.normal(size=(200, 4)) * 10
    out = synthesize(a, b, rng.random(200))
    assert ((out >= np.minimum(a, b) - 1e-12) & (out <= np.maximum(a, b) + 1e-12)).all()


def test_synthesize_errors():
    with pytest.raises(ValueError, match="dimension"):
        synthesize(np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="lambda"):
        synthesize(np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="lambda"):
        synthesize(np.zeros(2), np.zeros(2), -0.1)
    with pytest.raises(ValueError, match="lambda"):
        synthesize(np.zeros((3, 2)), np.zeros((3, 2)), np.array([0.1, 1.0, 0.2]))
    with pytest.raises(ValueError, match="lambda_interp shape"):
        synthesize(np.zeros((3, 2)), np.zeros((3, 2)), np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="lambda_interp shape"):
        synthesize(np.zeros((3, 2)), np.zeros((3, 2)), 0.5)


# ------------------------------------------------------------- oversample

def test_oversample_counts_100_10():
    rng = np.random.Generator(np.random.PCG64(1))
    ds = _ds(rng.normal(size=(110, 3)), [0] * 100 + [1] * 10)
    out, prov = oversample(ds, SmoteConfig(seed=0))
    counts = np.bincount(out.labels)
    assert counts.tolist() == [100, 100]
    assert [a.shape for a in prov] == [(90,)] * 3
    assert [a.dtype for a in prov] == [np.int64, np.int64, np.float64]
    assert out.n_rows == 200


def test_oversample_balanced_input_is_noop():
    rng = np.random.Generator(np.random.PCG64(2))
    ds = _ds(rng.normal(size=(20, 2)), [0] * 10 + [1] * 10)
    out, prov = oversample(ds, SmoteConfig())
    assert [a.size for a in prov] == [0, 0, 0]
    np.testing.assert_array_equal(out.features, ds.features)
    np.testing.assert_array_equal(out.labels, ds.labels)


@pytest.mark.filterwarnings("ignore:requested k=:RuntimeWarning")
def test_oversample_preserves_originals_verbatim_first():
    rng = np.random.Generator(np.random.PCG64(3))
    ds = _ds(rng.normal(size=(30, 4)), [0] * 25 + [1] * 5)
    out, _ = oversample(ds, SmoteConfig(seed=4))
    np.testing.assert_array_equal(out.features[:30], ds.features)
    np.testing.assert_array_equal(out.labels[:30], ds.labels)


def test_oversample_deterministic():
    rng = np.random.Generator(np.random.PCG64(4))
    ds = _ds(rng.normal(size=(40, 3)), [0] * 33 + [1] * 7)
    out1, _ = oversample(ds, SmoteConfig(seed=12))
    out2, _ = oversample(ds, SmoteConfig(seed=12))
    np.testing.assert_array_equal(out1.features, out2.features)
    out3, _ = oversample(ds, SmoteConfig(seed=13))
    assert not np.array_equal(out1.features, out3.features)


def test_oversample_requires_both_classes():
    ds = _ds(np.zeros((5, 2)), [0] * 5)
    with pytest.raises(DataError, match="both classes"):
        oversample(ds, SmoteConfig())


def test_oversample_minority_may_be_class_zero():
    rng = np.random.Generator(np.random.PCG64(6))
    ds = _ds(rng.normal(size=(50, 2)), [1] * 44 + [0] * 6)
    out, prov = oversample(ds, SmoteConfig(seed=2))
    counts = np.bincount(out.labels)
    assert counts.tolist() == [44, 44]
    assert all(out.labels[50 + i] == 0 for i in range(len(prov.parent_index)))


@pytest.mark.filterwarnings("ignore:requested k=:RuntimeWarning")
def test_oversample_target_ratio():
    rng = np.random.Generator(np.random.PCG64(7))
    ds = _ds(rng.normal(size=(45, 2)), [0] * 41 + [1] * 4)
    out, _ = oversample(ds, SmoteConfig(seed=3, target_ratio=0.5))
    # round-half-up(0.5 * 41) = 21 minority rows afterwards
    assert np.bincount(out.labels).tolist() == [41, 21]


def test_oversample_ratio_already_met_is_noop():
    rng = np.random.Generator(np.random.PCG64(8))
    ds = _ds(rng.normal(size=(30, 2)), [0] * 20 + [1] * 10)
    out, prov = oversample(ds, SmoteConfig(target_ratio=0.5))
    assert [a.size for a in prov] == [0, 0, 0] and out.n_rows == 30


def test_synthetic_rows_match_recorded_parents_exactly():
    rng = np.random.Generator(np.random.PCG64(9))
    ds = _ds(rng.normal(size=(26, 3)), [0] * 20 + [1] * 6)
    out, prov = oversample(ds, SmoteConfig(seed=5))
    assert out.n_rows == 26 + len(prov.parent_index)
    for s, (parent, neighbor, lam) in enumerate(zip(*prov)):
        row = out.features[26 + s]
        expected = synthesize(ds.features[parent], ds.features[neighbor], lam)
        np.testing.assert_array_equal(row, expected)
        assert ds.labels[parent] == 1
        assert ds.labels[neighbor] == 1
        assert 0.0 <= lam < 1.0


@pytest.mark.filterwarnings("ignore:requested k=:RuntimeWarning")
def test_synthetic_rows_pass_segment_membership_oracle():
    rng = np.random.Generator(np.random.PCG64(10))
    for trial in range(10):
        n_min = int(rng.integers(2, 9))
        n_maj = int(rng.integers(n_min + 1, 30))
        d = int(rng.integers(1, 5))
        features = rng.normal(size=(n_maj + n_min, d))
        ds = _ds(features, [0] * n_maj + [1] * n_min)
        out, _ = oversample(ds, SmoteConfig(seed=trial))
        minority = ds.features[ds.labels == 1]
        for row in out.features[ds.n_rows :]:
            hits = [
                on_segment(row, minority[i], minority[j])
                for i in range(n_min)
                for j in range(n_min)
                if i != j
            ]
            assert any(hits)


@pytest.mark.filterwarnings("ignore:requested k=:RuntimeWarning")
def test_parent_cycling_covers_all_minority_rows():
    rng = np.random.Generator(np.random.PCG64(11))
    ds = _ds(rng.normal(size=(28, 2)), [0] * 24 + [1] * 4)
    _, prov = oversample(ds, SmoteConfig(seed=1))
    # 20 synthetic rows over 4 parents -> each parent used exactly 5 times
    parents = prov.parent_index.tolist()
    assert len(parents) == 20
    for p in (24, 25, 26, 27):
        assert parents.count(p) == 5
    assert parents[:4] == [24, 25, 26, 27]  # dataset row order


def _reference_oversample(ds, cfg):
    """The per-row loop the array code replaced, kept as the reference:
    one neighbor draw, one factor draw and one interpolation per row.
    Returns the balanced features and labels and the provenance lists."""
    counts = np.bincount(ds.labels, minlength=2)
    minority_label = 0 if counts[0] < counts[1] else 1
    n_min = int(counts[minority_label])
    n_maj = int(counts[1 - minority_label])
    n_new = int(np.floor(cfg.target_ratio * n_maj + 0.5)) - n_min
    if n_new <= 0:
        return ds.features, ds.labels, ([], [], [])
    min_rows = np.flatnonzero(ds.labels == minority_label)
    X_min = ds.features[min_rows]
    neighbors = minority_neighbors(X_min, cfg.k)
    k_eff = neighbors.shape[1]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    parents, nbrs, lams = [], [], []
    synth = np.empty((n_new, ds.n_features), dtype=np.float64)
    for s in range(n_new):
        parent = s % n_min
        neighbor = int(neighbors[parent, rng.integers(0, k_eff)])
        lam = float(rng.random())
        synth[s] = X_min[parent] + lam * (X_min[neighbor] - X_min[parent])
        parents.append(int(min_rows[parent]))
        nbrs.append(int(min_rows[neighbor]))
        lams.append(lam)
    features = np.vstack([ds.features, synth])
    labels = np.concatenate([ds.labels, np.full(n_new, minority_label, dtype=np.int64)])
    return features, labels, (parents, nbrs, lams)


@pytest.mark.filterwarnings("ignore:requested k=:RuntimeWarning")
def test_oversample_matches_per_row_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        n_min=st.integers(2, 40),
        extra=st.integers(0, 120),
        d=st.integers(1, 12),
        k=st.integers(1, 8),  # k >= n_min exercises the clamp
        target_ratio=st.sampled_from([1.0, 0.75, 0.5, 0.3, 0.01]),
        minority_label=st.sampled_from([0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n_min, extra, d, k, target_ratio, minority_label, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n_maj = n_min + 1 + extra
        labels = np.array([minority_label] * n_min + [1 - minority_label] * n_maj)
        ds = _ds(rng.normal(size=(n_min + n_maj, d)), labels[rng.permutation(labels.size)])
        cfg = SmoteConfig(k=k, seed=seed, target_ratio=target_ratio)
        out, prov = oversample(ds, cfg)
        features, labels, (parents, nbrs, lams) = _reference_oversample(ds, cfg)
        np.testing.assert_array_equal(out.features.view(np.int64), features.view(np.int64))
        np.testing.assert_array_equal(out.labels, labels)
        assert prov.parent_index.dtype == np.int64 and prov.parent_index.tolist() == parents
        assert prov.neighbor_index.dtype == np.int64 and prov.neighbor_index.tolist() == nbrs
        assert prov.lambda_interp.dtype == np.float64
        np.testing.assert_array_equal(
            prov.lambda_interp.view(np.int64), np.array(lams, dtype=np.float64).view(np.int64)
        )

    check()


def test_config_validation():
    with pytest.raises(ValueError):
        SmoteConfig(k=0)
    with pytest.raises(ValueError):
        SmoteConfig(target_ratio=0.0)
    with pytest.raises(ValueError):
        SmoteConfig(target_ratio=1.5)
