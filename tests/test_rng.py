"""Tests for repro.rng (deterministic stream derivation)."""

import numpy as np

from repro import rng as rng_mod


def test_same_seed_role_reproduces():
    a = rng_mod.derive(42, "x").normal(size=8)
    b = rng_mod.derive(42, "x").normal(size=8)
    assert np.array_equal(a, b)


def test_different_roles_are_independent():
    a = rng_mod.derive(42, "alpha").normal(size=64)
    b = rng_mod.derive(42, "beta").normal(size=64)
    assert not np.array_equal(a, b)
    # Streams should be essentially uncorrelated.
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.5


def test_different_seeds_differ():
    a = rng_mod.derive(1, "x").normal(size=16)
    b = rng_mod.derive(2, "x").normal(size=16)
    assert not np.array_equal(a, b)


def test_large_seed_supported():
    gen = rng_mod.derive(2**200 + 17, "big")
    assert gen.integers(0, 10, size=3).shape == (3,)
