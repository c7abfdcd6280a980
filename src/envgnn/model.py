"""Mixture-of-expert GNN predictor with a per-layer environment estimator.

The model keeps K parallel propagation branches per layer. A small estimator
maps current node embeddings to branch probabilities pi; ``gumbel_sample``,
the Gumbel-softmax softmax((log pi + g) / tau) with Gumbel noise g, yields
soft branch assignments that gate the branch outputs per node. ``_posterior``
is the one place that picks the gate's inputs. Each branch is the backbone
propagation plus a self term. A layer's K branches and their gate are one
tape node, ``autodiff.gcn_mixture`` or ``autodiff.gat_mixture``, built by
``moe_preact``, the one layer call of ``forward`` for both methods. The
plain baseline (erm) is the one-branch case: the same input/output
projections and residual layers, one branch without a self term under a
unit gate. Every setting the pass reads comes from ``ParamSet.cfg``, the
configuration the parameters were initialized for.

Naming note: a layer's branch weights are one tensor per role, stacked over
the branch axis (branch j is index j - 1): ``l{l}.w_d`` (messages),
``l{l}.w_self`` (self term) and ``l{l}.w_a`` (GAT attention) are (K, H, H),
``l{l}.b`` (GAT attention vector) is (K, 2H, 1). erm has K = 1 and only
``w_d``, also its attention weight, and ``b``. A canet layer's estimator
matrix ``l{l}.w_env`` is (K, H); it is called ``w_env`` and the
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
from .sparse import SparseAdj


@dataclass
class GraphTensors:
    """Per-graph operands, prepared once for the backbone named by ``backbone``.

    ``adj`` is the graph's one sparse operand, for both backbones: the
    normalized adjacency of ``build_norm_adj``, each stored edge in both
    directions. GCN propagates through its normalized values; erm's operand
    carries one self loop per node, canet's none. GAT always attends over the
    self-looped operand, erm's GCN adjacency, and ignores its values: every
    step, ``gat_mixture`` puts attention weights on its stored entries.
    """

    n: int
    features: Tensor
    adj: SparseAdj
    backbone: str

    @property
    def stored_edges(self) -> int:
        """Stored entries between distinct nodes: twice the undirected edges."""
        return self.adj.num_links


def prepare_graph(g: Graph, cfg: TrainConfig) -> GraphTensors:
    """The operands of ``g`` under ``cfg``'s backbone and method; only GCN canet
    propagates without self loops."""
    adj = build_norm_adj(g, add_self_loops=cfg.backbone == "gat" or cfg.method == "erm")
    return GraphTensors(n=g.n, features=constant(g.features), adj=adj, backbone=cfg.backbone)


class ParamSet:
    """Named trainable tensors; the registry the tape reports gradients for.

    ``cfg`` is the configuration the tensors were initialized for; it fixes
    the architecture (backbone, method, layers, width, branches) and every
    other setting ``forward`` reads.
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

    def as_constants(self) -> "ParamSet":
        """These parameters as tape constants over the same value arrays: a
        pass that reads them builds no tape."""
        view = ParamSet(self.cfg, self.in_dim, self.num_classes)
        view.tensors = {k: constant(t.value) for k, t in self.tensors.items()}
        return view

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
    regardless of ablation flags: branch by branch (w_d, w_self, w_a of
    branch 1, then of branch 2, ...), stacked into one tensor per role.
    """
    h, ll = cfg.hidden, cfg.num_layers
    erm, gat = cfg.method == "erm", cfg.backbone == "gat"
    k = 1 if erm else cfg.num_branches
    roles = ["w_d"] if erm else ["w_d", "w_self"] + (["w_a"] if gat else [])
    ps = ParamSet(cfg, in_dim, num_classes)

    def gauss(shape, fan_in):
        return rng.normal(shape, std=np.sqrt(2.0 / fan_in))

    ps.add("phi_in", gauss((h, in_dim), in_dim))
    for l in range(1, ll + 1):
        draws = [[gauss((h, h), h) for _ in roles] for _ in range(k)]  # branch-major
        for role, branches in zip(roles, zip(*draws)):
            ps.add(f"l{l}.{role}", np.stack(branches))
        if gat:
            ps.add(f"l{l}.b", np.zeros((k, 2 * h, 1)))
    if not erm:
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


def gumbel_sample(log_pi: Tensor, tau: float, noise: np.ndarray) -> Tensor:
    """Soft branch assignment softmax((log pi + noise) / tau), a relaxed draw
    from pi: at low temperature its argmax frequencies follow pi. The noise is
    a tape constant.
    """
    return ad.row_softmax(ad.scale(ad.add(log_pi, constant(noise)), 1.0 / tau))


@dataclass
class LayerPosterior:
    pi: Tensor
    log_pi: Tensor
    e: Tensor


@dataclass
class ForwardOutput:
    logits: Tensor
    posterior: list[LayerPosterior] | None


# ---------------------------------------------------------------------------
# propagation and the forward pass
# ---------------------------------------------------------------------------


def moe_preact(z: Tensor, gt: GraphTensors, e: Tensor, params: ParamSet, layer: int) -> Tensor:
    """Gated pre-activation sum_k e_k (propagate_k(z) + z W_self[k]^T) as one
    ``gcn_mixture`` or ``gat_mixture`` node over the layer's stacked branch
    weights. erm is the one-branch case: it has no self weight, its message
    weight ``w_d`` is also its GAT attention weight, and its gate is all ones."""
    w_d, w_self, w_a, b = (params.tensors.get(f"l{layer}.{role}")
                           for role in ("w_d", "w_self", "w_a", "b"))
    if gt.backbone == "gcn":
        return ad.gcn_mixture(gt.adj, z, e, w_d, w_self)
    return ad.gat_mixture(gt.adj, z, e, w_d, w_self, w_d if w_a is None else w_a, b)


def _posterior(z: Tensor, params: ParamSet, layer: int, gumbel_rng: Rng,
               training: bool) -> LayerPosterior:
    """The layer's branch distribution and gate: uniform under mean pooling,
    noiseless in eval under ``deterministic_eval``, Gumbel-sampled otherwise."""
    cfg = params.cfg
    shape = (z.value.shape[0], cfg.num_branches)
    if cfg.mean_pool_env:
        uniform = constant(np.full(shape, 1.0 / shape[1]))
        return LayerPosterior(uniform, constant(np.full(shape, -np.log(shape[1]))), uniform)
    pi, log_pi = env_probs(z, params[f"l{layer}.w_env"])
    noise = (np.zeros(shape) if cfg.deterministic_eval and not training
             else gumbel_rng.gumbel(shape))
    return LayerPosterior(pi, log_pi, gumbel_sample(log_pi, cfg.tau, noise))


def forward(gt: GraphTensors, params: ParamSet, gumbel_rng: Rng, dropout_rng: Rng,
            training: bool) -> ForwardOutput:
    """Logits of the mixture model (canet) or of its plain backbone (erm),
    under the configuration ``params`` was initialized for.

    Every layer maps z to z + dropout(relu(pre)), with pre the layer's
    ``moe_preact``. For canet, it is the gated mixture of K branches under
    the layer's posterior, which is returned alongside the logits; for erm,
    the one branch of the plain backbone under a unit gate.

    A training pass records the tape that ``autodiff.backward`` replays. An
    eval pass (``training=False``) reads the parameters as constants
    (``ParamSet.as_constants``), so it builds no tape: none of its nodes
    keeps inputs or a closure, each layer's intermediates are freed as soon
    as the next op has used them, and only the logits and the posterior stay
    resident. The arithmetic is the same: where neither pass applies dropout
    or draws noise, their logits are equal bit for bit.
    """
    cfg = params.cfg
    if params.in_dim != gt.features.value.shape[1]:
        raise ValueError("feature dimension does not match phi_in")
    if gt.backbone != cfg.backbone:
        raise ValueError(f"graph tensors were prepared for {gt.backbone}, "
                         f"the model's backbone is {cfg.backbone}")
    if not training:
        params = params.as_constants()
    posterior = None if cfg.method == "erm" else []
    e = constant(np.ones((gt.n, 1))) if posterior is None else None  # erm's gate
    z = ad.matmul(gt.features, ad.transpose(params["phi_in"]))
    for l in range(1, cfg.num_layers + 1):
        if posterior is not None:
            posterior.append(_posterior(z, params, l, gumbel_rng, training))
            e = posterior[-1].e
        # one expression: no name holds a layer's intermediates into the next
        # layer, so an eval pass frees each once the next op has read it
        z = ad.add(ad.dropout(ad.relu(moe_preact(z, gt, e, params, l)), cfg.dropout,
                              dropout_rng, training), z)
    return ForwardOutput(ad.matmul(z, ad.transpose(params["phi_out"])), posterior)


# ---------------------------------------------------------------------------
# branch-weight export
# ---------------------------------------------------------------------------


def export_branch_weights(params: ParamSet, layer: int, out_dir: str) -> list[str]:
    """One CSV per branch with that branch's propagation matrix, row-major."""
    if not 1 <= layer <= params.cfg.num_layers:
        raise ValueError(f"layer must lie in [1, {params.cfg.num_layers}]")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for j, w in enumerate(params[f"l{layer}.w_d"].value, start=1):
        path = os.path.join(out_dir, f"layer{layer}_branch{j}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rows", "cols", w.shape[0], w.shape[1]])
            for row in w:
                writer.writerow([repr(float(x)) for x in row])
        paths.append(path)
    return paths
