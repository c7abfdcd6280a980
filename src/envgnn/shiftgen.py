"""Synthetic distribution-shift dataset generators.

Two generators are provided:

* ``gen_spurious_dataset``: takes an existing labeled graph and fabricates
  per-domain spurious features with one frozen randomly-initialized graph
  convolution fed by [onehot(label) || onehot(domain)]. Of ``NUM_DOMAINS``
  domains, ``ID_DOMAINS`` (1-3) become ID graphs and ``OOD_DOMAINS`` (4-6)
  OOD graphs; the shift comes entirely from the domain one-hot input, never
  from re-randomized weights.

* ``gen_planted_dataset``: a fully controlled benchmark with known ground
  truth. Each environment is a stochastic-block-model graph whose stable
  features follow class means shared by every environment, while spurious
  features follow class means permuted by an environment-specific class
  permutation. ID environments share the identity permutation (spurious
  features are predictive in-distribution); each OOD environment draws its
  own non-identity permutation, flipping the spurious-to-label map.

Both record generation provenance plus linear-probe diagnostics in the
dataset manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .config import reject_non_finite
from .graphdata import Dataset, Graph, build_norm_adj, split_random
from .rng import STREAM_DATAGEN, Rng

# the citation-spurious domains, 1-based; each is one graph of the dataset
NUM_DOMAINS, ID_DOMAINS, OOD_DOMAINS = 6, (1, 2, 3), (4, 5, 6)
# ridge of the linear probes; Monte-Carlo draws of the stable Bayes rate
PROBE_RIDGE, BAYES_SAMPLES = 1e-3, 20000


@dataclass
class SpuriousGenConfig:
    spurious_dim: int = 0  # 0 means "match the base feature dimension"
    gcn_layers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.spurious_dim < 0:
            raise ValueError("spurious_dim must be >= 0 (0 = match D)")
        if self.gcn_layers < 1:
            raise ValueError("need at least one propagation layer")


@dataclass
class PlantedConfig:
    n_per_domain: int = 1000
    num_classes: int = 3
    stable_dim: int = 4
    spurious_dim: int = 4
    num_id_envs: int = 3
    num_ood_envs: int = 3
    p_intra: float = 0.02
    p_inter: float = 0.002
    stable_strength: float = 1.0
    spurious_strength: float = 2.0
    stable_noise: float = 1.0
    spurious_noise: float = 1.0
    label_noise: float = 0.0
    id_spurious_scales: tuple | None = (1.0, 0.5, 0.0)
    seed: int = 0

    def __post_init__(self):
        reject_non_finite(self)
        if self.n_per_domain <= 0 or self.num_classes <= 1:
            raise ValueError("need at least one node and two classes")
        if self.stable_dim < 1 or self.spurious_dim < 0:
            raise ValueError("feature dimensions out of range")
        if self.num_id_envs < 1 or self.num_ood_envs < 1:
            raise ValueError("need at least one ID and one OOD environment")
        if self.id_spurious_scales is not None:
            self.id_spurious_scales = tuple(float(s) for s in self.id_spurious_scales)
            if len(self.id_spurious_scales) != self.num_id_envs:
                raise ValueError("id_spurious_scales must list one scale per ID environment")
            if not all(map(math.isfinite, self.id_spurious_scales)):
                raise ValueError(f"id_spurious_scales must be finite: {self.id_spurious_scales}")
        for p in (self.p_intra, self.p_inter):
            if not 0.0 <= p <= 1.0:
                raise ValueError("edge probabilities must lie in [0, 1]")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must lie in [0, 1)")


def _onehot(idx: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((len(idx), width))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def linear_probe_accuracy(x_train, y_train, x_test, y_test, num_classes):
    """Ridge one-vs-rest probe; the generation-time shift diagnostic."""
    xtr = np.hstack([x_train, np.ones((len(x_train), 1))])
    xte = np.hstack([x_test, np.ones((len(x_test), 1))])
    targets = _onehot(np.asarray(y_train), num_classes)
    gram = xtr.T @ xtr + PROBE_RIDGE * np.eye(xtr.shape[1])
    w = np.linalg.solve(gram, xtr.T @ targets)
    pred = (xte @ w).argmax(axis=1)
    return float((pred == np.asarray(y_test)).mean())


# ---------------------------------------------------------------------------
# Appendix-style spurious-feature generator for citation-like graphs
# ---------------------------------------------------------------------------


def gen_spurious_dataset(base: Graph, cfg: SpuriousGenConfig) -> Dataset:
    """Per-domain graphs [X || X~^(i)] with one frozen random graph convolution."""
    sdim = cfg.spurious_dim or base.num_features
    rng = Rng(cfg.seed).substream(STREAM_DATAGEN)
    adj = build_norm_adj(base, add_self_loops=True).csr

    in_dim = base.num_classes + NUM_DOMAINS
    # one weight set for all domains: the shift comes from the domain one-hot
    widths = [in_dim] + [sdim] * cfg.gcn_layers
    weights = [
        rng.normal((widths[i], widths[i + 1]), std=np.sqrt(2.0 / widths[i]))
        for i in range(cfg.gcn_layers)
    ]

    label_onehot = _onehot(base.labels, base.num_classes)

    def spurious_features(domain: int) -> np.ndarray:
        dom = np.zeros((base.n, NUM_DOMAINS))
        dom[:, domain - 1] = 1.0
        h = np.hstack([label_onehot, dom])
        for i, w in enumerate(weights):
            h = adj @ (h @ w)
            if i + 1 < len(weights):
                h = np.maximum(h, 0.0)
        return h

    per_domain = {d: spurious_features(d) for d in (*ID_DOMAINS, *OOD_DOMAINS)}

    def domain_graph(d: int) -> Graph:
        feats = np.hstack([base.features, per_domain[d]])
        return Graph(base.n, feats, base.labels, base.edges, base.num_classes)

    id_graphs = [domain_graph(d) for d in ID_DOMAINS]
    ood_graphs = [domain_graph(d) for d in OOD_DOMAINS]

    universe = np.arange(sum(g.n for g in id_graphs))
    split = split_random(universe, cfg.seed)

    # probe: spurious features fit on the first ID domain, scored on the
    # first OOD domain; any accuracy drop documents the planted shift
    d_id, d_ood = ID_DOMAINS[0], OOD_DOMAINS[0]
    probe_id = linear_probe_accuracy(
        per_domain[d_id], base.labels, per_domain[d_id], base.labels, base.num_classes
    )
    probe_ood = linear_probe_accuracy(
        per_domain[d_id], base.labels, per_domain[d_ood], base.labels, base.num_classes
    )

    metadata = {
        "name": "citation-spurious",
        "metric": "accuracy",
        "shift_type": "spurious-features",
        "generator": {
            "kind": "citation-spurious",
            "seed": cfg.seed,
            "spurious_dim": sdim,
            "num_domains": NUM_DOMAINS,
            "id_domains": list(ID_DOMAINS),
            "ood_domains": list(OOD_DOMAINS),
            "gcn_layers": cfg.gcn_layers,
            "probe_spurious_id_accuracy": probe_id,
            "probe_spurious_ood_accuracy": probe_ood,
        },
    }
    return Dataset(id_graphs, ood_graphs, split, metadata)


# ---------------------------------------------------------------------------
# planted-environment generator with known stable/spurious ground truth
# ---------------------------------------------------------------------------


_SBM_BLOCK_ROWS = 64


def _sbm_edges(labels: np.ndarray, p_intra: float, p_inter: float, rng: Rng) -> np.ndarray:
    """Upper-triangle SBM edges (i < j) in row-major order.

    The (n, n) uniform matrix is drawn in blocks of rows, so memory is
    O(n * block). PCG64 fills a block of rows with the same numbers a single
    (n, n) draw puts there, and row blocks keep ``np.nonzero``'s order, so
    the edges equal those of one full draw.
    """
    n = len(labels)
    blocks = []
    for lo in range(0, n, _SBM_BLOCK_ROWS):
        u = rng.uniform((min(_SBM_BLOCK_ROWS, n - lo), n))
        same = labels[lo:lo + len(u), None] == labels[None, :]
        hit = np.triu(np.where(same, u < p_intra, u < p_inter), k=1 + lo)
        rows, cols = np.nonzero(hit)
        blocks.append(np.stack([rows + lo, cols], axis=1))
    return np.concatenate(blocks)


def _random_nonidentity_permutation(c: int, rng: Rng) -> np.ndarray:
    while True:
        perm = rng.permutation(c)
        if not np.array_equal(perm, np.arange(c)):
            return perm


def gen_planted_dataset(cfg: PlantedConfig) -> Dataset:
    rng = Rng(cfg.seed).substream(STREAM_DATAGEN)
    c = cfg.num_classes

    stable_means = cfg.stable_strength * rng.normal((c, cfg.stable_dim))
    spurious_means = (
        cfg.spurious_strength * rng.normal((c, cfg.spurious_dim))
        if cfg.spurious_dim
        else np.zeros((c, 0))
    )

    identity = np.arange(c)
    perms = [identity.copy() for _ in range(cfg.num_id_envs)]
    perms += [_random_nonidentity_permutation(c, rng) for _ in range(cfg.num_ood_envs)]

    # ID environments differ in spurious signal strength (the spurious cue is
    # strong in some training environments and absent in others); OOD
    # environments carry the full-strength cue under a flipped class map
    if cfg.id_spurious_scales is not None:
        scales = list(cfg.id_spurious_scales) + [1.0] * cfg.num_ood_envs
    else:
        scales = [1.0] * (cfg.num_id_envs + cfg.num_ood_envs)

    graphs = []
    for env, perm in enumerate(perms):
        labels = np.arange(cfg.n_per_domain) % c
        labels = labels[rng.permutation(cfg.n_per_domain)]
        edges = _sbm_edges(labels, cfg.p_intra, cfg.p_inter, rng)
        stable = stable_means[labels] + cfg.stable_noise * rng.normal(
            (cfg.n_per_domain, cfg.stable_dim)
        )
        if cfg.spurious_dim:
            spurious = scales[env] * spurious_means[perm[labels]] + cfg.spurious_noise * rng.normal(
                (cfg.n_per_domain, cfg.spurious_dim)
            )
            feats = np.hstack([stable, spurious])
        else:
            feats = stable
        if cfg.label_noise > 0.0:
            flip = rng.uniform(cfg.n_per_domain) < cfg.label_noise
            shift = rng.integers(1, c, cfg.n_per_domain)
            labels = np.where(flip, (labels + shift) % c, labels)
        graphs.append(Graph(cfg.n_per_domain, feats, labels, edges, c))

    id_graphs = graphs[: cfg.num_id_envs]
    ood_graphs = graphs[cfg.num_id_envs :]

    universe = np.arange(sum(g.n for g in id_graphs))
    split = split_random(universe, cfg.seed)

    # diagnostics: probes fit on pooled ID features, scored ID vs first OOD env
    x_id = np.vstack([g.features for g in id_graphs])
    y_id = np.concatenate([g.labels for g in id_graphs])
    probe_id = linear_probe_accuracy(x_id, y_id, x_id, y_id, c)
    probe_ood = linear_probe_accuracy(
        x_id, y_id, ood_graphs[0].features, ood_graphs[0].labels, c
    )
    stable_bayes = _stable_bayes_rate(stable_means, cfg.stable_noise, rng)

    metadata = {
        "name": "planted",
        "metric": "accuracy",
        "shift_type": "class-permutation-spurious-flip",
        "generator": {
            "kind": "planted",
            "config": asdict(cfg),
            "permutations": [p.tolist() for p in perms],
            "spurious_scales": [float(s) for s in scales],
            "stable_means": stable_means.tolist(),
            "spurious_means": spurious_means.tolist(),
            "probe_all_features_id_accuracy": probe_id,
            "probe_all_features_ood_accuracy": probe_ood,
            "stable_bayes_rate_estimate": stable_bayes,
        },
    }
    return Dataset(id_graphs, ood_graphs, split, metadata)


def _stable_bayes_rate(means: np.ndarray, noise: float, rng: Rng) -> float:
    """Monte-Carlo Bayes accuracy of the stable features alone, over
    ``BAYES_SAMPLES`` draws.

    Isotropic Gaussian classes with equal priors: the Bayes rule is the
    nearest class mean.
    """
    c, d = means.shape
    labels = rng.integers(0, c, BAYES_SAMPLES)
    x = means[labels] + noise * rng.normal((BAYES_SAMPLES, d))
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == labels).mean())
