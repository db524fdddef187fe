"""Structural netlist composition helpers.

:class:`NetlistBuilder` wraps a :class:`~repro.logic.netlist.Netlist`
and offers the vocabulary a structural RTL designer expects: gates,
buses, registers, multiplexers, reduction trees, decoders, counters,
LFSRs and ROM planes.  The AES datapath generator and all five Trojan
generators are written exclusively in terms of these helpers, which is
what keeps their gate counts honest — every XOR in MixColumns is a real
``XOR2`` instance that the simulator toggles and the power model bills.

Bus convention: a bus is a plain ``list[str]`` of net names with **index
0 as the most significant bit**, matching the FIPS-197 byte order used
by :mod:`repro.crypto.aes`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import NetlistError
from repro.logic.netlist import Netlist

Bus = list[str]


class NetlistBuilder:
    """Fluent construction facade over a :class:`Netlist`."""

    def __init__(self, name: str, group: str = "") -> None:
        self.netlist = Netlist(name)
        self._group = group
        self._counter = 0
        self._tie_cache: dict[tuple[str, str], str] = {}

    # ------------------------------------------------------------------
    # Naming and grouping
    # ------------------------------------------------------------------
    def _unique(self, hint: str) -> str:
        self._counter += 1
        return f"{hint}__{self._counter}"

    @contextmanager
    def in_group(self, group: str) -> Iterator[None]:
        """Temporarily switch the instance group label."""
        previous = self._group
        self._group = group
        try:
            yield
        finally:
            self._group = previous

    # ------------------------------------------------------------------
    # Nets and ports
    # ------------------------------------------------------------------
    def net(self, hint: str = "n") -> str:
        """Create an internal net with a unique name derived from *hint*."""
        name = self._unique(hint)
        self.netlist.add_net(name)
        return name

    def input(self, name: str) -> str:
        """Create a named primary-input net."""
        self.netlist.add_input(name)
        return name

    def input_bus(self, name: str, width: int) -> Bus:
        """Create a *width*-bit primary-input bus (MSB first)."""
        return [self.input(f"{name}[{i}]") for i in range(width)]

    def mark_output(self, net: str) -> None:
        """Flag *net* as a primary output."""
        self.netlist.mark_output(net)

    def mark_output_bus(self, bus: Bus) -> None:
        """Flag every net of *bus* as a primary output."""
        for net in bus:
            self.netlist.mark_output(net)

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    def const(self, value: int | bool) -> str:
        """Net tied to constant 0 or 1 (one tie cell per group/value)."""
        cell = "TIE1" if value else "TIE0"
        key = (self._group, cell)
        cached = self._tie_cache.get(key)
        if cached is not None:
            return cached
        out = self.net(cell.lower())
        self.netlist.add_instance(
            self._unique(cell.lower()), cell, {"Y": out}, group=self._group
        )
        self._tie_cache[key] = out
        return out

    def const_bus(self, value: int, width: int) -> Bus:
        """Bus of tie nets encoding *value* (MSB first)."""
        if value < 0 or value >= (1 << width):
            raise NetlistError(f"constant {value} does not fit in {width} bits")
        return [
            self.const((value >> (width - 1 - i)) & 1) for i in range(width)
        ]

    # ------------------------------------------------------------------
    # Primitive gates
    # ------------------------------------------------------------------
    def gate(self, cell_name: str, *in_nets: str, hint: str | None = None) -> str:
        """Instantiate *cell_name* over *in_nets*; return the output net."""
        from repro.logic.library import get_cell

        cell = get_cell(cell_name)
        out = self.net(hint or cell_name.lower())
        pins = {pin: net for pin, net in zip(cell.inputs, in_nets)}
        if len(pins) != len(cell.inputs):
            raise NetlistError(
                f"{cell_name} needs {len(cell.inputs)} inputs, got {len(in_nets)}"
            )
        pins[cell.output] = out
        self.netlist.add_instance(
            self._unique(cell_name.lower()), cell_name, pins, group=self._group
        )
        return out

    def buf(self, a: str) -> str:
        return self.gate("BUF", a)

    def inv(self, a: str) -> str:
        return self.gate("INV", a)

    def and2(self, a: str, b: str) -> str:
        return self.gate("AND2", a, b)

    def or2(self, a: str, b: str) -> str:
        return self.gate("OR2", a, b)

    def xor2(self, a: str, b: str) -> str:
        return self.gate("XOR2", a, b)

    def mux2(self, a: str, b: str, sel: str) -> str:
        """2:1 mux returning *a* when ``sel`` is 0 and *b* when 1."""
        return self.gate("MUX2", a, b, sel)

    # ------------------------------------------------------------------
    # Sequential elements
    # ------------------------------------------------------------------
    def dff(self, d: str, enable: str | None = None, init: int | bool = 0) -> str:
        """A D flip-flop on the global clock; returns the Q net.

        ``enable`` gates the capture (DFFE cell); ``init`` is the Q value
        after reset.
        """
        if enable is None:
            out = self.net("q")
            name = self._unique("dff")
            self.netlist.add_instance(
                name, "DFF", {"D": d, "Q": out}, group=self._group
            )
        else:
            out = self.net("q")
            name = self._unique("dffe")
            self.netlist.add_instance(
                name, "DFFE", {"D": d, "EN": enable, "Q": out}, group=self._group
            )
        if init:
            self.netlist.ff_init[name] = True
        return out

    def flop_into(
        self,
        d: str,
        q: str,
        enable: str | None = None,
        init: int | bool = 0,
    ) -> None:
        """Create a flip-flop driving the *pre-existing* net *q*.

        Useful for registers whose outputs must be referenced by
        combinational logic built before the register itself (state
        feedback paths).
        """
        if enable is None:
            name = self._unique("dff")
            self.netlist.add_instance(
                name, "DFF", {"D": d, "Q": q}, group=self._group
            )
        else:
            name = self._unique("dffe")
            self.netlist.add_instance(
                name, "DFFE", {"D": d, "EN": enable, "Q": q}, group=self._group
            )
        if init:
            self.netlist.ff_init[name] = True

    # ------------------------------------------------------------------
    # Bus operators
    # ------------------------------------------------------------------
    def xor_bus(self, a: Sequence[str], b: Sequence[str]) -> Bus:
        """Bitwise XOR of two equal-width buses."""
        self._check_widths(a, b)
        return [self.xor2(x, y) for x, y in zip(a, b)]

    def mux_bus(self, a: Sequence[str], b: Sequence[str], sel: str) -> Bus:
        """Per-bit 2:1 mux (*a* when sel=0)."""
        self._check_widths(a, b)
        return [self.mux2(x, y, sel) for x, y in zip(a, b)]

    @staticmethod
    def _check_widths(a: Sequence[str], b: Sequence[str]) -> None:
        if len(a) != len(b):
            raise NetlistError(f"bus width mismatch: {len(a)} vs {len(b)}")

    # ------------------------------------------------------------------
    # Reduction trees
    # ------------------------------------------------------------------
    def reduce_tree(self, op: str, nets: Sequence[str]) -> str:
        """Balanced binary reduction of *nets* with 2-input cell *op*."""
        if not nets:
            raise NetlistError("cannot reduce an empty net list")
        layer = list(nets)
        while len(layer) > 1:
            nxt: list[str] = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(self.gate(op, layer[i], layer[i + 1]))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def and_tree(self, nets: Sequence[str]) -> str:
        return self.reduce_tree("AND2", nets)

    def or_tree(self, nets: Sequence[str]) -> str:
        return self.reduce_tree("OR2", nets)

    def xor_tree(self, nets: Sequence[str]) -> str:
        return self.reduce_tree("XOR2", nets)

    # ------------------------------------------------------------------
    # Medium-scale blocks
    # ------------------------------------------------------------------
    def decoder(self, sel: Sequence[str]) -> list[str]:
        """Full decoder: *n* select bits (MSB first) → ``2**n`` one-hot lines.

        Built recursively as the AND product of two half-decoders, which
        is how ROM/PLA address decoders are implemented in practice and
        keeps the gate count near ``2**n`` instead of ``n * 2**n``.
        """
        n = len(sel)
        if n == 0:
            raise NetlistError("decoder needs at least one select bit")
        if n == 1:
            return [self.inv(sel[0]), self.buf(sel[0])]
        half = n // 2
        high = self.decoder(sel[:half])
        low = self.decoder(sel[half:])
        lines: list[str] = []
        for h in high:
            for l in low:
                lines.append(self.and2(h, l))
        return lines

    def rom(self, address: Sequence[str], words: Sequence[int], width: int) -> Bus:
        """Combinational ROM: decoder + one OR plane per output bit.

        *words* holds ``2**len(address)`` integers of *width* bits; the
        returned bus is MSB first.  This is the S-box implementation
        style (decoded PLA), the dominant contributor to the AES gate
        count, as in the paper's 33 k-gate design.
        """
        n = len(address)
        if len(words) != (1 << n):
            raise NetlistError(
                f"ROM with {n} address bits needs {1 << n} words, "
                f"got {len(words)}"
            )
        lines = self.decoder(address)
        outputs: Bus = []
        for bit in range(width):
            shift = width - 1 - bit
            minterms = [
                lines[idx] for idx, word in enumerate(words) if (word >> shift) & 1
            ]
            if not minterms:
                outputs.append(self.const(0))
            elif len(minterms) == len(words):
                outputs.append(self.const(1))
            else:
                outputs.append(self.or_tree(minterms))
        return outputs

    def half_adder(self, a: str, b: str) -> tuple[str, str]:
        """Return ``(sum, carry)``."""
        return self.xor2(a, b), self.and2(a, b)

    def full_adder(self, a: str, b: str, cin: str) -> tuple[str, str]:
        """Return ``(sum, carry)``."""
        s1, c1 = self.half_adder(a, b)
        s2, c2 = self.half_adder(s1, cin)
        return s2, self.or2(c1, c2)

    def adder_bus(self, a: Sequence[str], b: Sequence[str]) -> tuple[Bus, str]:
        """Ripple-carry adder over MSB-first buses; returns (sum, carry_out)."""
        self._check_widths(a, b)
        carry = self.const(0)
        out_rev: list[str] = []
        for x, y in zip(reversed(a), reversed(b)):
            s, carry = self.full_adder(x, y, carry)
            out_rev.append(s)
        return list(reversed(out_rev)), carry

    def counter(
        self, width: int, enable: str | None = None, init: int = 0
    ) -> Bus:
        """Binary up-counter (MSB first); *init* is the post-reset value."""
        if init < 0 or init >= (1 << width):
            raise NetlistError(f"counter init {init} does not fit in {width} bits")
        one = self.const(1)
        qs: Bus = [self.net("cnt_q") for _ in range(width)]
        # Build increment logic q + 1 with a carry chain of AND gates.
        carry = one
        d_rev: list[str] = []
        for q in reversed(qs):
            d_rev.append(self.xor2(q, carry))
            carry = self.and2(q, carry)
        d_bus = list(reversed(d_rev))
        for i, (q, d) in enumerate(zip(qs, d_bus)):
            self.flop_into(
                d, q, enable=enable, init=(init >> (width - 1 - i)) & 1
            )
        return qs

    def mux_tree(self, values: Sequence[str], select: Sequence[str]) -> str:
        """N:1 multiplexer tree: pick ``values[select]`` (select MSB first).

        ``len(values)`` must equal ``2 ** len(select)``; costs
        ``len(values) - 1`` MUX2 cells.
        """
        if len(values) != (1 << len(select)):
            raise NetlistError(
                f"mux tree over {len(values)} values needs "
                f"{len(values).bit_length() - 1} select bits, got {len(select)}"
            )
        layer = list(values)
        for sel in reversed(select):  # LSB selects within adjacent pairs
            layer = [
                self.mux2(layer[i], layer[i + 1], sel)
                for i in range(0, len(layer), 2)
            ]
        return layer[0]

    def equals_const(self, bus: Sequence[str], value: int) -> str:
        """Single net that is 1 exactly when *bus* equals *value*."""
        width = len(bus)
        if value < 0 or value >= (1 << width):
            raise NetlistError(f"comparison value {value} does not fit in {width} bits")
        terms = []
        for i, net in enumerate(bus):
            bit = (value >> (width - 1 - i)) & 1
            terms.append(net if bit else self.inv(net))
        return self.and_tree(terms)

    def shift_register(self, data_in: str, length: int, enable: str | None = None) -> Bus:
        """Serial-in shift register; element 0 is the newest bit."""
        if length <= 0:
            raise NetlistError(f"shift register length must be positive, got {length}")
        stages: Bus = []
        current = data_in
        for _ in range(length):
            current = self.dff(current, enable=enable)
            stages.append(current)
        return stages

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------
    def build(self) -> Netlist:
        """Validate and return the underlying netlist."""
        self.netlist.validate()
        return self.netlist
