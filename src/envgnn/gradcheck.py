"""Whole-model gradient verification against central finite differences.

Builds a small random instance (12 nodes, D=5, H=4, K=3, L=2 by default),
computes analytic gradients through the tape, and compares them per parameter
group with the finite-difference oracle. All stochastic draws (Gumbel noise,
dropout masks) are regenerated from the same sub-stream seeds on every
evaluation, so they are frozen across the +h/-h probes.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .config import TrainConfig
from .graphdata import Graph
from .model import forward, init_params, prepare_graph
from .optim import finite_diff_grad, relative_gradient_error
from .rng import Rng, STREAM_DATAGEN, STREAM_DROPOUT, STREAM_GUMBEL, STREAM_INIT
from .trainer import total_loss


def random_instance(seed: int, n: int = 12, in_dim: int = 5, num_classes: int = 3,
                    edge_prob: float = 0.35) -> Graph:
    rng = Rng(seed).substream(STREAM_DATAGEN)
    feats = rng.normal((n, in_dim))
    labels = rng.integers(0, num_classes, n)
    u = rng.uniform((n, n))
    rows, cols = np.nonzero(np.triu(u < edge_prob, k=1))
    edges = np.stack([rows, cols], axis=1)
    return Graph(n, feats, labels, edges, num_classes)


def per_branch(grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each stacked (K, ...) branch gradient as K groups ``name[j]``, so that
    every branch is held to the tolerance on its own scale."""
    out = {}
    for name, g in grads.items():
        out.update({f"{name}[{j}]": gj for j, gj in enumerate(g)} if g.ndim == 3 else {name: g})
    return out


def run_gradcheck(backbone: str = "gcn", num_branches: int = 3, num_layers: int = 2,
                  seed: int = 0, hidden: int = 4, h: float = 1e-5,
                  tol: float = 1e-4) -> dict:
    cfg = TrainConfig(
        num_layers=num_layers,
        hidden=hidden,
        num_branches=num_branches,
        tau=1.0,
        reg_weight=1.0,
        dropout=0.2,
        backbone=backbone,
        method="canet",
        seed=seed,
    )
    g = random_instance(seed)
    gt = prepare_graph(g, cfg)
    params = init_params(cfg, g.num_features, g.num_classes, Rng(seed).substream(STREAM_INIT))
    # attention bias vectors init to zero, which parks every attention score
    # on the LeakyReLU kink; probe at a generic point instead
    kick = Rng(seed).substream(STREAM_DATAGEN).substream(1)
    for name, t in params.tensors.items():
        if name.endswith(".b"):
            t.value = 0.3 * kick.normal(t.value.shape)
    rows = np.arange(g.n)

    def loss_fn(values: dict[str, np.ndarray]) -> float:
        params.load_values(values)
        root = Rng(seed)  # identical draws on every call: noise is frozen
        out = forward(gt, params, root.substream(STREAM_GUMBEL),
                      root.substream(STREAM_DROPOUT), training=True)
        loss, _, _ = total_loss(out, g.labels, rows, cfg)
        return float(loss.value)

    theta = params.values()
    root = Rng(seed)
    params.load_values(theta)
    out = forward(gt, params, root.substream(STREAM_GUMBEL),
                  root.substream(STREAM_DROPOUT), training=True)
    loss, _, _ = total_loss(out, g.labels, rows, cfg)
    analytic = ad.backward(loss, params.tensors)
    numeric = finite_diff_grad(loss_fn, theta, h=h)
    errors = relative_gradient_error(per_branch(analytic), per_branch(numeric))
    worst = max(errors.values())
    return {
        "backbone": backbone,
        "seed": seed,
        "tolerance": tol,
        "errors": errors,
        "max_relative_error": worst,
        "passed": bool(worst <= tol),
    }
