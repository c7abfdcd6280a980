"""Adam and finite-difference oracle tests."""

import numpy as np
import pytest

from envgnn.autodiff import parameter
from envgnn.optim import AdamState, adam_step, finite_diff_grad, relative_gradient_error
from envgnn.rng import Rng


def test_zero_grad_zero_decay_leaves_params():
    p = {"w": parameter(np.array([1.0, -2.0]))}
    state = AdamState(p)
    adam_step(p, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(p["w"].value, [1.0, -2.0])


def test_first_step_is_minus_lr():
    # bias-corrected m_hat / sqrt(v_hat) = 1 on the first step, so the update
    # is -lr up to the eps term
    p = {"w": parameter(np.array([0.0]))}
    state = AdamState(p)
    adam_step(p, {"w": np.array([1.0])}, state, lr=0.01)
    assert abs(p["w"].value[0] + 0.01) <= 1e-9


def test_decoupled_weight_decay_shrinks_before_update():
    p = {"w": parameter(np.array([10.0]))}
    state = AdamState(p)
    adam_step(p, {"w": np.array([0.0])}, state, lr=0.1, weight_decay=0.5)
    # zero gradient: the only movement is the decay factor (1 - lr*wd)
    assert abs(p["w"].value[0] - 10.0 * (1.0 - 0.1 * 0.5)) <= 1e-12


def test_deterministic_trajectories():
    def trajectory():
        rng = Rng(50)
        p = {"w": parameter(rng.normal((4, 4)))}
        state = AdamState(p)
        for _ in range(20):
            g = p["w"].value * 2.0 + 1.0
            adam_step(p, {"w": g}, state, lr=0.05, weight_decay=1e-3)
        return p["w"].value

    assert np.array_equal(trajectory(), trajectory())


def test_adam_converges_on_quadratic():
    p = {"w": parameter(np.array([5.0, -3.0]))}
    state = AdamState(p)
    for _ in range(2000):
        adam_step(p, {"w": 2.0 * p["w"].value}, state, lr=0.05)
    assert np.abs(p["w"].value).max() <= 1e-4


def test_gradient_shape_mismatch():
    p = {"w": parameter(np.zeros((2, 2)))}
    with pytest.raises(ValueError):
        adam_step(p, {"w": np.zeros(3)}, AdamState(p), lr=0.1)


def test_finite_diff_quadratic():
    g = finite_diff_grad(lambda t: float(t["x"][0] ** 2), {"x": np.array([3.0])})
    assert abs(g["x"][0] - 6.0) <= 1e-8


def test_finite_diff_constant_function():
    g = finite_diff_grad(lambda t: 7.5, {"x": np.ones((2, 3))})
    assert np.array_equal(g["x"], np.zeros((2, 3)))


def test_finite_diff_multivariate():
    a = Rng(51).normal((3,))

    def f(t):
        return float(np.sin(t["x"]).sum() + (a * t["x"]).sum())

    x0 = Rng(52).normal((3,))
    g = finite_diff_grad(f, {"x": x0})
    assert np.abs(g["x"] - (np.cos(x0) + a)).max() <= 1e-8


def test_relative_gradient_error_sup_norm():
    errs = relative_gradient_error(
        {"a": np.array([1.0, 2.0]), "b": np.zeros(2)},
        {"a": np.array([1.0, 2.0002]), "b": np.zeros(2)},
    )
    assert abs(errs["a"] - 0.0002 / 2.0002) <= 1e-12
    assert errs["b"] == 0.0
