"""Whole-model gradient verification against central finite differences.

Builds a small random instance (12 nodes, D=5, C=3, edge probability 0.35)
and a model of width H=4 (K=3, L=2 by default), computes analytic gradients
through the tape, and compares them per parameter group with the
finite-difference oracle. All stochastic draws (Gumbel noise, dropout masks)
are regenerated from the same sub-stream seeds on every evaluation, so they
are frozen across the +h/-h probes.
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


# the instance, the model width and the tolerance
NODES, IN_DIM, CLASSES, EDGE_PROB = 12, 5, 3, 0.35
HIDDEN, TOL = 4, 1e-4


def random_instance(seed: int) -> Graph:
    rng = Rng(seed).substream(STREAM_DATAGEN)
    feats = rng.normal((NODES, IN_DIM))
    labels = rng.integers(0, CLASSES, NODES)
    u = rng.uniform((NODES, NODES))
    rows, cols = np.nonzero(np.triu(u < EDGE_PROB, k=1))
    edges = np.stack([rows, cols], axis=1)
    return Graph(NODES, feats, labels, edges, CLASSES)


def per_branch(grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each stacked (K, ...) branch gradient as K groups ``name[j]``, so that
    every branch is held to the tolerance on its own scale."""
    out = {}
    for name, g in grads.items():
        out.update({f"{name}[{j}]": gj for j, gj in enumerate(g)} if g.ndim == 3 else {name: g})
    return out


def run_gradcheck(backbone: str = "gcn", num_branches: int = 3, num_layers: int = 2,
                  seed: int = 0) -> dict:
    cfg = TrainConfig(
        num_layers=num_layers,
        hidden=HIDDEN,
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

    def loss_at(values: dict[str, np.ndarray]) -> ad.Tensor:
        params.load_values(values)
        root = Rng(seed)  # identical draws on every call: noise is frozen
        out = forward(gt, params, root.substream(STREAM_GUMBEL),
                      root.substream(STREAM_DROPOUT), training=True)
        return total_loss(out, g.labels, rows, cfg)[0]

    theta = params.values()
    analytic = ad.backward(loss_at(theta), params.tensors)
    numeric = finite_diff_grad(lambda values: float(loss_at(values).value), theta)
    errors = relative_gradient_error(per_branch(analytic), per_branch(numeric))
    worst = max(errors.values())
    return {
        "backbone": backbone,
        "seed": seed,
        "tolerance": TOL,
        "errors": errors,
        "max_relative_error": worst,
        "passed": bool(worst <= TOL),
    }
