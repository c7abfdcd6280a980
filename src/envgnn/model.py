"""Mixture-of-expert GNN predictor with a per-layer environment estimator.

The model keeps K parallel propagation branches per layer. A small estimator
maps current node embeddings to branch probabilities; a temperature-controlled
softmax over Gumbel-perturbed probabilities yields soft branch assignments
that gate the branch outputs per node. Plain GCN/GAT baselines share the same
input/output projection scaffold.

Naming note: the estimator matrix is called ``w_env`` and the per-branch
self-transform ``w_self`` to keep the two roles apart.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant, parameter
from .config import TrainConfig
from .graphdata import Graph, build_norm_adj
from .rng import Rng
from .sparse import EdgeIndex, SparseAdj


@dataclass
class GraphTensors:
    """Per-graph operands, prepared once; each backbone gets the one sparse
    structure it reads.

    GCN propagates through ``adj``, a normalized CSR adjacency. GAT attends
    over ``edges``: every stored edge in both directions plus one self loop
    per node, with stable target- and source-ordered CSR row layouts. The
    attention primitives reuse that layout every step, as weighted CSR
    products and ``reduceat`` segment maxima; the stable orders make each
    per-node sum add its terms in edge order, exactly as an ``np.add.at``
    scatter over the edge list would.
    """

    n: int
    features: Tensor
    adj: SparseAdj | None  # GCN only; normalization per config (self loops on/off)
    edges: EdgeIndex | None  # GAT only; directed incidences incl. self loops
    stored_edges: int  # symmetric stored entries, self loops excluded


def prepare_graph(g: Graph, cfg: TrainConfig) -> GraphTensors:
    adj = edges = None
    if cfg.backbone == "gcn":
        adj = build_norm_adj(g, add_self_loops=cfg.use_self_loops)
    else:
        e, loops = g.edges, np.arange(g.n)
        edges = EdgeIndex.from_coo(g.n, np.concatenate([e[:, 1], e[:, 0], loops]),
                                   np.concatenate([e[:, 0], e[:, 1], loops]))
    return GraphTensors(
        n=g.n,
        features=constant(g.features),
        adj=adj,
        edges=edges,
        stored_edges=2 * len(g.edges),
    )


class ParamSet:
    """Named trainable tensors; the registry the tape reports gradients for.

    ``cfg`` is the configuration the tensors were initialized for; it fixes
    the architecture (backbone, method, layers, width, branches).
    """

    def __init__(self, cfg: TrainConfig, in_dim: int, num_classes: int):
        self.cfg = cfg
        self.in_dim = in_dim
        self.num_classes = num_classes
        self.tensors: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray):
        self.tensors[name] = parameter(value)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def env_weight(self, layer: int) -> Tensor:
        return self.tensors["w_env" if self.cfg.shared_env else f"l{layer}.w_env"]

    def values(self) -> dict[str, np.ndarray]:
        return {k: np.array(t.value) for k, t in self.tensors.items()}

    def load_values(self, values: dict[str, np.ndarray]):
        for k, t in self.tensors.items():
            v = np.asarray(values[k], dtype=np.float64)
            if v.shape != t.value.shape:
                raise ValueError(f"checkpoint shape mismatch for '{k}': {v.shape} vs {t.value.shape}")
            t.value = v.copy()


def init_params(cfg: TrainConfig, in_dim: int, num_classes: int, rng: Rng) -> ParamSet:
    """Zero-mean Gaussian init, std sqrt(2/fan_in); bias vectors start at zero.

    Draw order is fixed so that runs sharing a seed share initializations
    regardless of ablation flags.
    """
    h, k, ll = cfg.hidden, cfg.num_branches, cfg.num_layers
    ps = ParamSet(cfg, in_dim, num_classes)

    def gauss(shape, fan_in):
        return rng.normal(shape, std=np.sqrt(2.0 / fan_in))

    ps.add("phi_in", gauss((h, in_dim), in_dim))
    if cfg.method == "erm":
        for l in range(1, ll + 1):
            ps.add(f"l{l}.w", gauss((h, h), h))
            if cfg.backbone == "gat":
                ps.add(f"l{l}.b", np.zeros((2 * h, 1)))
    else:
        for l in range(1, ll + 1):
            for j in range(1, k + 1):
                ps.add(f"l{l}.k{j}.w_d", gauss((h, h), h))
                ps.add(f"l{l}.k{j}.w_self", gauss((h, h), h))
                if cfg.backbone == "gat":
                    ps.add(f"l{l}.k{j}.w_a", gauss((h, h), h))
                    ps.add(f"l{l}.k{j}.b", np.zeros((2 * h, 1)))
        if cfg.shared_env:
            ps.add("w_env", gauss((k, h), h))
        else:
            for l in range(1, ll + 1):
                ps.add(f"l{l}.w_env", gauss((k, h), h))
    ps.add("phi_out", gauss((num_classes, h), h))
    return ps


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


def env_probs(z: Tensor, w_env: Tensor) -> tuple[Tensor, Tensor]:
    """Branch probabilities and their stable logs from estimator scores z w_env^T."""
    scores = ad.matmul(z, ad.transpose(w_env))
    return ad.row_softmax(scores), ad.row_log_softmax(scores)


def gumbel_sample(pi: Tensor, tau: float, rng: Rng | None, mode: str = "literal",
                  noise: np.ndarray | None = None,
                  log_pi: Tensor | None = None) -> tuple[Tensor, np.ndarray]:
    """Soft branch assignment from Gumbel-perturbed probabilities.

    ``literal`` perturbs the probabilities themselves; ``log_prob`` perturbs
    log-probabilities (the classical trick, under which low-temperature
    argmax frequencies follow pi). The draws are tape constants.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if mode not in ("literal", "log_prob"):
        raise ValueError(f"unknown gumbel mode: {mode}")
    if noise is None:
        noise = ad.sample_gumbel(rng, pi.value.shape)
    if mode == "log_prob":
        base = log_pi if log_pi is not None else ad.log(pi)
    else:
        base = pi
    e = ad.row_softmax(ad.scale(ad.add(base, constant(noise)), 1.0 / tau))
    return e, noise


@dataclass
class LayerPosterior:
    pi: Tensor
    log_pi: Tensor
    e: Tensor
    noise: np.ndarray


@dataclass
class ForwardOutput:
    logits: Tensor
    posterior: list[LayerPosterior] | None


# ---------------------------------------------------------------------------
# propagation layers
# ---------------------------------------------------------------------------


def moe_gcn_preact(z: Tensor, adj: SparseAdj, e: Tensor, params: ParamSet, layer: int) -> Tensor:
    """Gated pre-activation: sum_k e_k (A_hat z W_d^T + z W_self^T)."""
    branches = [ad.add(ad.spmm(adj, ad.matmul(z, ad.transpose(params[f"l{layer}.k{j}.w_d"]))),
                       ad.matmul(z, ad.transpose(params[f"l{layer}.k{j}.w_self"])))
                for j in range(1, params.cfg.num_branches + 1)]
    return ad.mix(e, branches)


def moe_gcn_layer(z: Tensor, gt: GraphTensors, e: Tensor, params: ParamSet, layer: int,
                  dropout: float, rng: Rng, training: bool, residual: bool = True) -> Tensor:
    h = ad.relu(moe_gcn_preact(z, gt.adj, e, params, layer))
    h = ad.dropout(h, dropout, rng, training)
    return ad.add(h, z) if residual else h


def _branch_attention(z: Tensor, gt: GraphTensors, w_a: Tensor, b: Tensor,
                      slope: float = 0.2) -> Tensor:
    """Per-edge attention over the neighborhood plus self, as an (E,) tensor."""
    h = w_a.value.shape[0]
    t = ad.matmul(z, ad.transpose(w_a))
    alpha = ad.matmul(t, ad.slice_rows(b, 0, h))        # score share of the center
    beta = ad.matmul(t, ad.slice_rows(b, h, 2 * h))     # score share of the neighbor
    scores = ad.add(ad.gather_rows(alpha, gt.edges.dst), ad.gather_rows(beta, gt.edges.src))
    return ad.edge_softmax(ad.leaky_relu(scores, slope), gt.edges)


def moe_gat_preact(z: Tensor, gt: GraphTensors, e: Tensor, params: ParamSet, layer: int) -> Tensor:
    """Gated pre-activation: sum_k e_k (att_k-weighted z W_d^T + z W_self^T)."""
    branches = []
    for j in range(1, params.cfg.num_branches + 1):
        att = _branch_attention(z, gt, params[f"l{layer}.k{j}.w_a"], params[f"l{layer}.k{j}.b"])
        ad.edge_touches.add(gt.stored_edges)
        msgs = ad.matmul(z, ad.transpose(params[f"l{layer}.k{j}.w_d"]))
        branches.append(ad.add(ad.edge_combine(att, msgs, gt.edges),
                               ad.matmul(z, ad.transpose(params[f"l{layer}.k{j}.w_self"]))))
    return ad.mix(e, branches)


def moe_gat_layer(z: Tensor, gt: GraphTensors, e: Tensor, params: ParamSet, layer: int,
                  dropout: float, rng: Rng, training: bool, residual: bool = True) -> Tensor:
    h = ad.relu(moe_gat_preact(z, gt, e, params, layer))
    h = ad.dropout(h, dropout, rng, training)
    return ad.add(h, z) if residual else h


# ---------------------------------------------------------------------------
# full forward passes
# ---------------------------------------------------------------------------


def canet_forward(gt: GraphTensors, params: ParamSet, cfg: TrainConfig,
                  gumbel_rng: Rng, dropout_rng: Rng, training: bool) -> ForwardOutput:
    if params.in_dim != gt.features.value.shape[1]:
        raise ValueError("feature dimension does not match phi_in")
    k = params.cfg.num_branches
    mode = "log_prob" if cfg.log_prob_gumbel else "literal"
    z = ad.matmul(gt.features, ad.transpose(params["phi_in"]))
    posterior = []
    for l in range(1, params.cfg.num_layers + 1):
        if cfg.mean_pool_env:
            uniform = constant(np.full((gt.n, k), 1.0 / k))
            log_pi = constant(np.full((gt.n, k), -np.log(k)))
            pi, e, noise = uniform, uniform, np.zeros((gt.n, k))
        else:
            pi, log_pi = env_probs(z, params.env_weight(l))
            if cfg.deterministic_eval and not training:
                e, noise = gumbel_sample(pi, cfg.tau, None, mode,
                                         noise=np.zeros((gt.n, k)), log_pi=log_pi)
            else:
                e, noise = gumbel_sample(pi, cfg.tau, gumbel_rng, mode, log_pi=log_pi)
        if params.cfg.backbone == "gcn":
            z = moe_gcn_layer(z, gt, e, params, l, cfg.dropout, dropout_rng, training)
        else:
            z = moe_gat_layer(z, gt, e, params, l, cfg.dropout, dropout_rng, training)
        posterior.append(LayerPosterior(pi, log_pi, e, noise))
    logits = ad.matmul(z, ad.transpose(params["phi_out"]))
    return ForwardOutput(logits, posterior)


def baseline_forward(gt: GraphTensors, params: ParamSet, cfg: TrainConfig,
                     dropout_rng: Rng, training: bool) -> ForwardOutput:
    """Plain L-layer GCN (self-loop normalized) or single-head GAT."""
    if params.in_dim != gt.features.value.shape[1]:
        raise ValueError("feature dimension does not match phi_in")
    z = ad.matmul(gt.features, ad.transpose(params["phi_in"]))
    for l in range(1, params.cfg.num_layers + 1):
        w = params[f"l{l}.w"]
        if params.cfg.backbone == "gcn":
            h = ad.relu(ad.spmm(gt.adj, ad.matmul(z, ad.transpose(w))))
        else:
            att = _branch_attention(z, gt, w, params[f"l{l}.b"])
            ad.edge_touches.add(gt.stored_edges)
            h = ad.relu(ad.edge_combine(att, ad.matmul(z, ad.transpose(w)), gt.edges))
        h = ad.dropout(h, cfg.dropout, dropout_rng, training)
        z = ad.add(h, z)
    logits = ad.matmul(z, ad.transpose(params["phi_out"]))
    return ForwardOutput(logits, None)


def forward(gt: GraphTensors, params: ParamSet, cfg: TrainConfig,
            gumbel_rng: Rng, dropout_rng: Rng, training: bool) -> ForwardOutput:
    if cfg.method == "erm":
        return baseline_forward(gt, params, cfg, dropout_rng, training)
    return canet_forward(gt, params, cfg, gumbel_rng, dropout_rng, training)


# ---------------------------------------------------------------------------
# branch-weight export
# ---------------------------------------------------------------------------


def export_branch_weights(params: ParamSet, layer: int, out_dir: str) -> list[str]:
    """One CSV per branch with that branch's propagation matrix, row-major."""
    if not 1 <= layer <= params.cfg.num_layers:
        raise ValueError(f"layer must lie in [1, {params.cfg.num_layers}]")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for j in range(1, params.cfg.num_branches + 1):
        w = params[f"l{layer}.k{j}.w_d"].value
        path = os.path.join(out_dir, f"layer{layer}_branch{j}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rows", "cols", w.shape[0], w.shape[1]])
            for row in w:
                writer.writerow([repr(float(x)) for x in row])
        paths.append(path)
    return paths


def import_branch_weights(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    shape = (int(header[2]), int(header[3]))
    vals = np.array([[float(x) for x in r] for r in rows[1:]], dtype=np.float64)
    if vals.shape != shape:
        raise ValueError(f"csv body {vals.shape} does not match header {shape}")
    return vals
