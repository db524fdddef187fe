"""Bit/byte packing helpers bridging numpy batches and 128-bit buses.

The simulator works on per-net boolean batches; the crypto world works
on 16-byte blocks.  Bus bit order everywhere is: byte 0 first, MSB of
each byte first — so bus index ``8*i + (7 - b)`` holds bit ``b`` of
byte ``i``.
"""

from __future__ import annotations

import numpy as np


def bytes_to_bits(blocks: np.ndarray) -> np.ndarray:
    """Convert blocks of bytes to bus-ordered bits.

    Parameters
    ----------
    blocks:
        uint8 array of shape ``(batch, nbytes)``.

    Returns
    -------
    numpy.ndarray
        bool array of shape ``(8 * nbytes, batch)``, MSB-first per byte.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2:
        raise ValueError(f"expected (batch, nbytes) array, got shape {blocks.shape}")
    bits = np.unpackbits(blocks, axis=1, bitorder="big")
    return bits.T.astype(bool)


def bus_inputs(bus: list[str], blocks: np.ndarray) -> dict[str, np.ndarray]:
    """Build a simulator input dict binding *bus* to byte *blocks*.

    ``blocks`` has shape ``(batch, len(bus)//8)``; the result maps each
    bus net name to its ``(batch,)`` boolean column.
    """
    bits = bytes_to_bits(blocks)
    if bits.shape[0] != len(bus):
        raise ValueError(
            f"bus has {len(bus)} nets but blocks encode {bits.shape[0]} bits"
        )
    return {net: bits[i] for i, net in enumerate(bus)}


def random_blocks(rng: np.random.Generator, batch: int, nbytes: int = 16) -> np.ndarray:
    """Uniformly random byte blocks of shape ``(batch, nbytes)``."""
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    return rng.integers(0, 256, size=(batch, nbytes), dtype=np.uint8)
