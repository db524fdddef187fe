"""Tests for bit/byte packing helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.encoding import bus_inputs, bytes_to_bits, random_blocks
from tests.crypto.aes_reference import bits_to_bytes, blocks_from_bytes


def test_bytes_to_bits_msb_first():
    blocks = np.array([[0x80, 0x01]], dtype=np.uint8)
    bits = bytes_to_bits(blocks)
    assert bits.shape == (16, 1)
    assert bits[0, 0] and not bits[1:8, 0].any()
    assert bits[15, 0] and not bits[8:15, 0].any()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 20))
def test_bits_bytes_roundtrip(batch, nbytes):
    rng = np.random.default_rng(batch * 100 + nbytes)
    blocks = rng.integers(0, 256, (batch, nbytes), dtype=np.uint8)
    assert np.array_equal(bits_to_bytes(bytes_to_bits(blocks)), blocks)


def test_bits_to_bytes_rejects_ragged():
    with pytest.raises(ValueError):
        bits_to_bytes(np.zeros((9, 2), dtype=bool))


def test_bus_inputs_maps_nets():
    bus = [f"n[{i}]" for i in range(8)]
    blocks = np.array([[0xA5]], dtype=np.uint8)
    inputs = bus_inputs(bus, blocks)
    assert set(inputs) == set(bus)
    value = 0
    for i in range(8):
        value = (value << 1) | int(inputs[f"n[{i}]"][0])
    assert value == 0xA5


def test_bus_inputs_width_mismatch():
    with pytest.raises(ValueError):
        bus_inputs(["a", "b"], np.array([[0xA5]], dtype=np.uint8))


def test_random_blocks_shape_and_range(rng):
    blocks = random_blocks(rng, 5)
    assert blocks.shape == (5, 16)
    assert blocks.dtype == np.uint8


def test_random_blocks_rejects_bad_batch(rng):
    with pytest.raises(ValueError):
        random_blocks(rng, 0)


def test_blocks_from_bytes():
    arr = blocks_from_bytes([b"\x00" * 16, b"\xff" * 16])
    assert arr.shape == (2, 16)
    assert arr[0].sum() == 0 and arr[1].sum() == 255 * 16


def test_blocks_from_bytes_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        blocks_from_bytes([b"\x00" * 16, b"\x00" * 15])
    with pytest.raises(ValueError):
        blocks_from_bytes([])
