"""AES-128 constant tables (FIPS-197) the structural circuit is built from.

:mod:`repro.crypto.aes_circuit` turns these into gates: the S-box ROMs,
the ShiftRows wiring and the key-schedule round constants.  The state is
a flat 16-byte block in FIPS-197 order (byte ``i`` holds row ``i % 4``,
column ``i // 4``).
"""

from __future__ import annotations

__all__ = ["SBOX", "RCON", "SHIFT_ROWS_PERM"]


def _build_sbox() -> list[int]:
    """Construct the AES S-box from first principles.

    Computing the table (multiplicative inverse in GF(2^8) followed by
    the affine transform) instead of hard-coding 256 literals gives the
    test suite an independent check: the table is wrong iff the field
    arithmetic is wrong.
    """
    # Multiplicative inverse via exponentiation tables on generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by generator 0x03 = x ^ xtime(x)
        x ^= ((x << 1) ^ 0x1B) & 0xFF if x & 0x80 else (x << 1)
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
        result = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            result |= b << bit
        sbox[value] = result
    return sbox


SBOX = _build_sbox()

#: Round constants for AES-128 key expansion (Rcon[1..10]).
RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


# ShiftRows byte permutation, output index -> input index.  Output byte
# at (row, col) comes from input byte at (row, (col + row) mod 4); the
# flat FIPS index of (row, col) is row + 4*col.
SHIFT_ROWS_PERM = [
    (flat % 4) + 4 * (((flat // 4) + (flat % 4)) % 4) for flat in range(16)
]
