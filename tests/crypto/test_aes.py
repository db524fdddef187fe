"""Tests for the AES-128 tables (FIPS-197) and the software cipher
that checks the circuit built from them."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import RCON, SBOX, SHIFT_ROWS_PERM
from tests.crypto.aes_reference import (
    encrypt_block,
    expand_key,
    round_states,
    xtime,
)

# FIPS-197 Appendix B.
PT_B = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
KEY_B = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
CT_B = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

# FIPS-197 Appendix C.1.
PT_C = bytes.fromhex("00112233445566778899aabbccddeeff")
KEY_C = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
CT_C = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def test_fips_appendix_b_vector():
    assert encrypt_block(PT_B, KEY_B) == CT_B


def test_fips_appendix_c_vector():
    assert encrypt_block(PT_C, KEY_C) == CT_C


def test_sbox_known_entries():
    assert SBOX[0x00] == 0x63
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16


def test_sbox_is_a_permutation():
    assert sorted(SBOX) == list(range(256))


def test_sbox_has_no_fixed_points():
    assert all(SBOX[v] != v for v in range(256))
    assert all(SBOX[v] != v ^ 0xFF for v in range(256))


def test_rcon_values():
    assert RCON == [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def test_key_expansion_last_round_key():
    # FIPS-197 Appendix A.1 final round key.
    keys = expand_key(KEY_B)
    assert keys[0] == KEY_B
    assert keys[10] == bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")


def test_round_states_length_and_final():
    states = round_states(PT_B, KEY_B)
    assert len(states) == 11
    assert states[-1] == CT_B


def test_xtime_examples():
    assert xtime(0x57) == 0xAE
    assert xtime(0xAE) == 0x47


def test_shift_rows_perm_is_permutation():
    assert sorted(SHIFT_ROWS_PERM) == list(range(16))
    # Row 0 is untouched.
    for col in range(4):
        assert SHIFT_ROWS_PERM[4 * col] == 4 * col


def test_bad_key_length_rejected():
    with pytest.raises(ValueError):
        expand_key(b"short")
    with pytest.raises(ValueError):
        encrypt_block(PT_B, b"short")
    with pytest.raises(ValueError):
        encrypt_block(b"short", KEY_B)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_encryption_is_injective_in_plaintext(pt, key):
    other = bytes([pt[0] ^ 1]) + pt[1:]
    assert encrypt_block(pt, key) != encrypt_block(other, key)
