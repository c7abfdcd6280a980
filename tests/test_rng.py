"""Seeded generator tests: determinism, sub-stream independence, ranges."""

import numpy as np

from envgnn.rng import (
    ALGORITHM,
    Rng,
    STREAM_DROPOUT,
    STREAM_GUMBEL,
    STREAM_INIT,
)


def test_same_seed_same_draws():
    a = Rng(123).normal((4, 4))
    b = Rng(123).normal((4, 4))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).normal((8,)), Rng(2).normal((8,)))


def test_substreams_are_independent_of_consumption():
    # draining one sub-stream must not shift a sibling's draws
    root = Rng(7)
    before = root.substream(STREAM_DROPOUT).uniform((16,))
    other = Rng(7).substream(STREAM_GUMBEL)
    other.uniform((1000,))
    after = Rng(7).substream(STREAM_DROPOUT).uniform((16,))
    assert np.array_equal(before, after)


def test_substreams_differ_from_each_other():
    a = Rng(7).substream(STREAM_INIT).uniform((32,))
    b = Rng(7).substream(STREAM_GUMBEL).uniform((32,))
    assert not np.array_equal(a, b)


def test_nested_substreams():
    a = Rng(9).substream(2).substream(5).normal((8,))
    b = Rng(9).substream(2).substream(5).normal((8,))
    c = Rng(9).substream(2).substream(6).normal((8,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_open_uniform_excludes_endpoints():
    u = Rng(11).open_uniform((100000,))
    assert u.min() > 0.0
    assert u.max() < 1.0
    # safe under the double-log transform used for Gumbel draws
    assert np.isfinite(-np.log(-np.log(u))).all()


def test_gumbel_fixed_point_and_moments():
    # the transform maps u = 1/e to exactly 0
    assert abs(-np.log(-np.log(1.0 / np.e))) <= 1e-12
    draws = Rng(33).gumbel((1000, 1000))
    assert abs(draws.mean() - np.euler_gamma) <= 0.01


def test_gumbel_deterministic_per_seed():
    a = Rng(34).gumbel((5, 5))
    b = Rng(34).gumbel((5, 5))
    assert np.array_equal(a, b)


def test_uniform_range_and_moments():
    u = Rng(12).uniform((100000,))
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_std_parameter():
    x = Rng(13).normal((200000,), std=3.0)
    assert abs(x.std() - 3.0) < 0.05


def test_permutation_is_a_permutation():
    p = Rng(14).permutation(50)
    assert np.array_equal(np.sort(p), np.arange(50))


def test_integers_range():
    x = Rng(15).integers(2, 7, 10000)
    assert x.min() >= 2 and x.max() < 7


def test_algorithm_identifier():
    assert ALGORITHM == "numpy-pcg64"
