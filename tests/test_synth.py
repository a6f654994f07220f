"""Synthetic benign/attack flow generator used for pipeline rehearsals."""

from pathlib import Path

import numpy as np
import pytest

from ddosflow.synth import SyntheticSpec, make_synthetic, write_synthetic_csv
from ddosflow.flow_data import DataConfig, load_flow_csv


def test_counts_labels_and_layout():
    ds = make_synthetic(SyntheticSpec(n_majority=30, n_minority=7, n_features=3))
    assert ds.n_rows == 37
    assert ds.n_features == 3
    assert ds.feature_names == ("feature_0", "feature_1", "feature_2")
    # majority block first, then the minority block
    assert (ds.labels[:30] == 0).all()
    assert (ds.labels[30:] == 1).all()
    assert np.isfinite(ds.features).all()


def test_deterministic_per_seed():
    spec = SyntheticSpec(n_majority=20, n_minority=5, seed=3)
    a = make_synthetic(spec)
    b = make_synthetic(spec)
    np.testing.assert_array_equal(a.features, b.features)
    c = make_synthetic(SyntheticSpec(n_majority=20, n_minority=5, seed=4))
    assert not np.array_equal(a.features, c.features)


def test_class_mean_separation_matches_spec():
    # centroids sit `separation * noise_scale` apart (in euclidean norm),
    # so sample means land close to that for generous samples
    spec = SyntheticSpec(
        n_majority=4000, n_minority=4000, n_features=6, separation=6.0, noise_scale=2.0
    )
    ds = make_synthetic(spec)
    benign = ds.features[ds.labels == 0].mean(axis=0)
    attack = ds.features[ds.labels == 1].mean(axis=0)
    dist = float(np.linalg.norm(attack - benign))
    assert dist == pytest.approx(12.0, rel=0.05)


def test_nearest_centroid_probe_separates_classes():
    # independent of any model code: classify by closer class centroid
    ds = make_synthetic(SyntheticSpec(n_majority=500, n_minority=100, separation=6.0))
    benign = ds.features[ds.labels == 0].mean(axis=0)
    attack = ds.features[ds.labels == 1].mean(axis=0)
    d0 = np.linalg.norm(ds.features - benign, axis=1)
    d1 = np.linalg.norm(ds.features - attack, axis=1)
    pred = (d1 < d0).astype(np.int64)
    assert (pred == ds.labels).mean() >= 0.99


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_minority=1)
    with pytest.raises(ValueError):
        SyntheticSpec(n_majority=0)
    with pytest.raises(ValueError):
        SyntheticSpec(n_features=0)
    with pytest.raises(ValueError):
        SyntheticSpec(separation=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_scale=-1.0)
    for field, value in [("separation", float("nan")), ("separation", float("inf")),
                         ("noise_scale", float("nan")), ("noise_scale", float("inf")), ("seed", -1)]:
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{field: value})


def test_csv_round_trip(tmp_path):
    spec = SyntheticSpec(n_majority=12, n_minority=4, n_features=2, seed=9)
    path = str(tmp_path / "flows.csv")
    write_synthetic_csv(spec, path)
    ds, dropped = load_flow_csv(path, DataConfig("Label", "BENIGN", "DDoS"))
    assert dropped == []
    want = make_synthetic(spec)
    assert ds.feature_names == want.feature_names
    np.testing.assert_array_equal(ds.labels, want.labels)
    np.testing.assert_array_equal(ds.features, want.features)  # repr() is lossless


def test_csv_writes_are_byte_identical(tmp_path):
    spec = SyntheticSpec(n_majority=15, n_minority=5, seed=2)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_synthetic_csv(spec, p1)
    write_synthetic_csv(spec, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
