"""AES-128: FIPS-197 tables and structural circuit generator.

:mod:`repro.crypto.aes` holds the S-box, ShiftRows and round-constant
tables; :mod:`repro.crypto.aes_circuit` generates the gate-level AES
netlist (iterative round architecture, decoded-PLA S-boxes) that the
logic simulator executes and whose switching activity feeds the EM
models — the counterpart of the paper's 33 k-gate 180 nm AES test chip.
"""

from repro.crypto.aes import SBOX, RCON
from repro.crypto.encoding import bytes_to_bits, bus_inputs, random_blocks
from repro.crypto.aes_circuit import AesCircuit, build_aes_circuit

__all__ = [
    "SBOX",
    "RCON",
    "bytes_to_bits",
    "bus_inputs",
    "random_blocks",
    "AesCircuit",
    "build_aes_circuit",
]
