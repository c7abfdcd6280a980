"""Adam with decoupled weight decay, plus a finite-difference gradient oracle."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
FD_STEP = 1e-5  # the finite-difference step


class AdamState:
    """Per-parameter first/second moment accumulators and a step counter."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.step = 0


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One in-place Adam update with bias correction, at the moment decays
    ``BETA1``, ``BETA2`` and denominator offset ``EPS``.

    Weight decay is decoupled: parameters shrink by lr*wd*theta before the
    Adam direction is applied, so the moment estimates see pure gradients.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.value.shape:
            raise ValueError(f"gradient shape mismatch for '{name}'")
        if weight_decay:
            p.value -= lr * weight_decay * p.value
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / (1.0 - BETA1**t)
        v_hat = state.v[name] / (1.0 - BETA2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def finite_diff_grad(
    f: Callable[[dict[str, np.ndarray]], float],
    theta: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar function, coordinate by
    coordinate, at the step ``FD_STEP``.

    ``f`` must be deterministic given fixed random draws; any stochastic pieces
    inside it have to be frozen across the +step/-step evaluations.
    """
    work = {k: np.array(v, dtype=np.float64) for k, v in theta.items()}
    grads = {}
    for name, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = f(work)
            flat[i] = orig - FD_STEP
            fm = f(work)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * FD_STEP)
        grads[name] = g
    return grads


def relative_gradient_error(
    analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]
) -> dict[str, float]:
    """Per-parameter-group sup-norm relative error between two gradient maps."""
    out = {}
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-8)
        out[name] = float(np.abs(a - n).max(initial=0.0) / denom)
    return out
