"""Synthetic shift-generator tests: shapes, determinism, planted ground truth."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from envgnn import shiftgen
from envgnn.graphdata import Graph, dataset_manifest_hash, save_dataset
from envgnn.rng import Rng
from envgnn.shiftgen import (
    PlantedConfig,
    SpuriousGenConfig,
    gen_planted_dataset,
    gen_spurious_dataset,
    linear_probe_accuracy,
)


def base_graph(n=120, d=5, c=3, seed=0):
    rng = Rng(seed)
    u = rng.uniform((n, n))
    rows, cols = np.nonzero(np.triu(u < 0.05, k=1))
    labels = rng.integers(0, c, n)
    feats = np.eye(c)[labels] @ rng.normal((c, d)) + 0.3 * rng.normal((n, d))
    return Graph(n, feats, labels, np.stack([rows, cols], axis=1), c)


# ---------------------------------------------------------------------------
# linear probe
# ---------------------------------------------------------------------------


def test_probe_separable_data():
    x = np.vstack([np.full((20, 2), -3.0), np.full((20, 2), 3.0)])
    y = np.array([0] * 20 + [1] * 20)
    assert linear_probe_accuracy(x, y, x, y, 2) == 1.0


def test_probe_uninformative_features_near_chance():
    rng = Rng(60)
    x = rng.normal((3000, 4))
    y = rng.integers(0, 3, 3000)
    acc = linear_probe_accuracy(x, y, x, y, 3)
    assert abs(acc - 1 / 3) < 0.05


# ---------------------------------------------------------------------------
# citation-style spurious generator
# ---------------------------------------------------------------------------


def test_spurious_feature_dimension():
    base = base_graph()
    ds = gen_spurious_dataset(base, SpuriousGenConfig(spurious_dim=7, seed=1))
    for g in ds.id_graphs + ds.ood_graphs:
        assert g.num_features == base.num_features + 7


def test_spurious_dim_zero_matches_base_dim():
    base = base_graph()
    ds = gen_spurious_dataset(base, SpuriousGenConfig(seed=1))
    assert ds.num_features == 2 * base.num_features


def test_spurious_domain_counts():
    ds = gen_spurious_dataset(base_graph(), SpuriousGenConfig(seed=2))
    assert len(ds.id_graphs) == 3 and len(ds.ood_graphs) == 3


def test_spurious_probe_records_shift():
    ds = gen_spurious_dataset(base_graph(), SpuriousGenConfig(seed=3))
    gen = ds.metadata["generator"]
    assert gen["probe_spurious_id_accuracy"] > gen["probe_spurious_ood_accuracy"]


def test_spurious_same_seed_same_manifest_hash(tmp_path):
    base = base_graph()
    a = gen_spurious_dataset(base, SpuriousGenConfig(seed=4))
    b = gen_spurious_dataset(base, SpuriousGenConfig(seed=4))
    save_dataset(str(tmp_path / "a"), a)
    save_dataset(str(tmp_path / "b"), b)
    assert dataset_manifest_hash(str(tmp_path / "a")) == dataset_manifest_hash(str(tmp_path / "b"))


def test_spurious_metadata_records_the_fixed_domains():
    # the domains left the config, not the dataset: dataset.json still names them
    fields = {f.name for f in dataclasses.fields(SpuriousGenConfig)}
    assert not fields & {"num_domains", "id_domains", "ood_domains"}
    gen = gen_spurious_dataset(base_graph(), SpuriousGenConfig(seed=5)).metadata["generator"]
    assert gen["num_domains"] == 6
    assert gen["id_domains"] == [1, 2, 3] and gen["ood_domains"] == [4, 5, 6]


# ---------------------------------------------------------------------------
# planted generator
# ---------------------------------------------------------------------------


def test_planted_shapes_and_counts():
    cfg = PlantedConfig(n_per_domain=60, seed=1)
    ds = gen_planted_dataset(cfg)
    assert len(ds.id_graphs) == 3 and len(ds.ood_graphs) == 3
    for g in ds.id_graphs + ds.ood_graphs:
        assert g.n == 60
        assert g.num_features == cfg.stable_dim + cfg.spurious_dim
    assert sum(g.n for g in ds.id_graphs) == 180
    assert len(ds.split.train) + len(ds.split.valid) + len(ds.split.test_id) == 180


def test_planted_id_permutations_identity_ood_not():
    ds = gen_planted_dataset(PlantedConfig(n_per_domain=40, seed=2))
    perms = ds.metadata["generator"]["permutations"]
    for p in perms[:3]:
        assert p == [0, 1, 2]
    for p in perms[3:]:
        assert p != [0, 1, 2]
        assert sorted(p) == [0, 1, 2]


def test_planted_spurious_dim_zero_no_shift():
    # without spurious features every environment shares one distribution,
    # so the probe scores ID and OOD alike (up to sampling noise)
    cfg = PlantedConfig(n_per_domain=400, spurious_dim=0, stable_noise=0.5,
                        id_spurious_scales=None, seed=3)
    ds = gen_planted_dataset(cfg)
    gen = ds.metadata["generator"]
    assert ds.num_features == cfg.stable_dim
    drop = gen["probe_all_features_id_accuracy"] - gen["probe_all_features_ood_accuracy"]
    assert abs(drop) < 0.1


def test_planted_stable_zero_probe_collapses_ood():
    # no stable signal, strong uniform spurious signal: a classifier fit on ID
    # is accurate there but at or below chance under the permutation flip
    cfg = PlantedConfig(n_per_domain=400, stable_strength=0.0, spurious_strength=3.0,
                        spurious_noise=0.5, id_spurious_scales=(1.0, 1.0, 1.0), seed=4)
    ds = gen_planted_dataset(cfg)
    gen = ds.metadata["generator"]
    assert gen["probe_all_features_id_accuracy"] > 0.9
    assert gen["probe_all_features_ood_accuracy"] <= 1 / 3 + 0.05


def test_planted_stable_bayes_rate_estimate():
    cfg = PlantedConfig(n_per_domain=40, stable_strength=100.0, stable_noise=0.01, seed=5)
    ds = gen_planted_dataset(cfg)
    assert ds.metadata["generator"]["stable_bayes_rate_estimate"] > 0.999


def test_planted_sbm_homophily():
    ds = gen_planted_dataset(PlantedConfig(n_per_domain=500, seed=6))
    g = ds.id_graphs[0]
    same = (g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]).mean()
    # p_intra/p_inter = 10, classes balanced: most edges are intra-class
    assert same > 0.7


def sbm_edges_one_draw(labels, p_intra, p_inter, rng):
    """The reference: one dense (n, n) draw, thresholded, upper triangle."""
    n = len(labels)
    u = rng.uniform((n, n))
    prob = np.where(labels[:, None] == labels[None, :], p_intra, p_inter)
    rows, cols = np.nonzero(np.triu(u < prob, k=1))
    return np.stack([rows, cols], axis=1)


BLOCK = shiftgen._SBM_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 5])
@pytest.mark.parametrize("p_intra, p_inter", [(0.3, 0.05), (0.01, 0.2)])
def test_sbm_edges_in_row_blocks_equal_one_draw(n, p_intra, p_inter):
    labels = Rng(n).integers(0, 3, n)
    rng_blocks, rng_once = Rng(11), Rng(11)
    got = shiftgen._sbm_edges(labels, p_intra, p_inter, rng_blocks)
    want = sbm_edges_one_draw(labels, p_intra, p_inter, rng_once)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    # the stream is left where one draw leaves it, so later draws agree too
    assert np.array_equal(rng_blocks.uniform(4), rng_once.uniform(4))


def test_sbm_edges_memory_is_far_below_a_dense_draw():
    # the one-draw reference peaks at about 20 * n**2 bytes here
    n = 3000
    labels = Rng(0).integers(0, 3, n)
    tracemalloc.start()
    try:
        shiftgen._sbm_edges(labels, 0.002, 0.0002, Rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 2, peak


def test_planted_same_seed_same_manifest_hash(tmp_path):
    a = gen_planted_dataset(PlantedConfig(n_per_domain=50, seed=7))
    b = gen_planted_dataset(PlantedConfig(n_per_domain=50, seed=7))
    save_dataset(str(tmp_path / "a"), a)
    save_dataset(str(tmp_path / "b"), b)
    assert dataset_manifest_hash(str(tmp_path / "a")) == dataset_manifest_hash(str(tmp_path / "b"))


def test_planted_different_seed_differs(tmp_path):
    a = gen_planted_dataset(PlantedConfig(n_per_domain=50, seed=8))
    b = gen_planted_dataset(PlantedConfig(n_per_domain=50, seed=9))
    save_dataset(str(tmp_path / "a"), a)
    save_dataset(str(tmp_path / "b"), b)
    assert dataset_manifest_hash(str(tmp_path / "a")) != dataset_manifest_hash(str(tmp_path / "b"))


def test_planted_label_noise_flips_labels():
    clean = gen_planted_dataset(PlantedConfig(n_per_domain=200, seed=10))
    noisy = gen_planted_dataset(PlantedConfig(n_per_domain=200, label_noise=0.3, seed=10))
    frac = (clean.id_graphs[0].labels != noisy.id_graphs[0].labels).mean()
    assert 0.2 < frac < 0.4


def test_planted_scales_recorded():
    ds = gen_planted_dataset(PlantedConfig(n_per_domain=30, seed=11))
    assert ds.metadata["generator"]["spurious_scales"] == [1.0, 0.5, 0.0, 1.0, 1.0, 1.0]


def test_planted_config_validation():
    with pytest.raises(ValueError):
        PlantedConfig(num_classes=1)
    with pytest.raises(ValueError):
        PlantedConfig(p_intra=1.5)
    with pytest.raises(ValueError):
        PlantedConfig(label_noise=1.0)
    with pytest.raises(ValueError):
        PlantedConfig(id_spurious_scales=(1.0, 0.5))


@pytest.mark.parametrize("kwargs, field", [
    ({"stable_noise": float("nan")}, "stable_noise"),
    ({"p_inter": float("inf")}, "p_inter"),
    ({"label_noise": float("nan")}, "label_noise"),
    ({"id_spurious_scales": (1.0, float("-inf"), 0.0)}, "id_spurious_scales"),
])
def test_planted_config_rejects_non_finite(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PlantedConfig(**kwargs)
