"""Bit-accurate AES-128 software cipher (FIPS-197): the test oracle.

The structural netlist of :mod:`repro.crypto.aes_circuit` is checked
cycle by cycle against the round states computed here, and chip tests
compare its ciphertext with :func:`encrypt_block`.  It is built from the
same tables as the circuit (:mod:`repro.crypto.aes`), which the
FIPS-197 known-answer tests in ``test_aes.py`` pin down.

:func:`bits_to_bytes` and :func:`blocks_from_bytes` bridge the
simulator's bus-ordered bits and ``bytes`` blocks in the layout of
:func:`repro.crypto.encoding.bytes_to_bits`.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import RCON, SBOX, SHIFT_ROWS_PERM


def xtime(a: int) -> int:
    """Multiply by x (i.e. 0x02) in GF(2^8) with the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def expand_key(key: bytes) -> list[bytes]:
    """Return the 11 round keys of AES-128 key expansion."""
    if len(key) != 16:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [SBOX[b] for b in temp]  # SubWord
            temp[0] ^= RCON[i // 4 - 1]
        words.append([t ^ w for t, w in zip(temp, words[i - 4])])
    return [
        bytes(b for w in words[4 * r : 4 * r + 4] for b in w) for r in range(11)
    ]


def _mix_single_column(col: list[int]) -> list[int]:
    a0, a1, a2, a3 = col
    return [
        xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3,
        a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3,
        a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3),
        (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3),
    ]


def _round(state: list[int], round_key: bytes, mix: bool) -> list[int]:
    """SubBytes, ShiftRows, MixColumns (unless the last round), AddRoundKey."""
    state = [SBOX[state[SHIFT_ROWS_PERM[i]]] for i in range(16)]
    if mix:
        state = [
            b for c in range(4) for b in _mix_single_column(state[4 * c : 4 * c + 4])
        ]
    return [s ^ k for s, k in zip(state, round_key)]


def round_states(plaintext: bytes, key: bytes) -> list[bytes]:
    """All intermediate states: after initial ARK, then after each round.

    Returns 11 states; ``round_states(...)[-1]`` is the ciphertext.
    """
    if len(plaintext) != 16:
        raise ValueError(f"plaintext must be 16 bytes, got {len(plaintext)}")
    round_keys = expand_key(key)
    state = [p ^ k for p, k in zip(plaintext, round_keys[0])]
    states = [bytes(state)]
    for rnd in range(1, 11):
        state = _round(state, round_keys[rnd], mix=rnd < 10)
        states.append(bytes(state))
    return states


def encrypt_block(plaintext: bytes, key: bytes) -> bytes:
    """Encrypt one 16-byte block with AES-128."""
    return round_states(plaintext, key)[-1]


def bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    """``(8 * nbytes, batch)`` bus bits, MSB first, to ``(batch, nbytes)`` uint8."""
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2 or bits.shape[0] % 8:
        raise ValueError(
            f"expected (8*nbytes, batch) bool array, got shape {bits.shape}"
        )
    return np.packbits(bits.T.astype(np.uint8), axis=1, bitorder="big")


def blocks_from_bytes(items: list[bytes]) -> np.ndarray:
    """Stack equal-length ``bytes`` objects into a ``(batch, nbytes)`` array."""
    if not items:
        raise ValueError("need at least one block")
    length = len(items[0])
    if any(len(it) != length for it in items):
        raise ValueError("all blocks must have equal length")
    return np.frombuffer(b"".join(items), dtype=np.uint8).reshape(len(items), length)
