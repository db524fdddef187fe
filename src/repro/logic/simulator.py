"""Vectorised cycle-based logic simulator.

:class:`CompiledNetlist` lowers a :class:`~repro.logic.netlist.Netlist`
into flat numpy index arrays once, then executes clock cycles over a
whole *batch* of stimulus vectors simultaneously (one column per
plaintext).  Semantics are the standard synchronous zero-delay model:

* at every :meth:`step` the flip-flops capture the D values that were
  settled at the end of the previous cycle (honouring ``EN`` pins),
* new primary-input values are applied,
* combinational logic is evaluated level by level.

Each step reports, per instance and per batch column, whether the
instance's output net toggled.  That toggle matrix — together with each
instance's topological level, which approximates *when* within the
cycle the gate switches — is the sole interface between logic and the
power/EM models, mirroring how the paper couples Hspice currents to the
EM solver.

State is bit-sliced: 64 batch lanes per ``uint64`` word, one
``(num_nets, ceil(batch/64))`` array (:class:`PackedState`), so a single
lane is one word per net.  Every library cell function is a pure
``& | ^ ~`` composition, so one schedule evaluates all 64 lanes of a
word at once.  Toggle matrices come back as the same lane words;
:func:`unpack_bits` turns them into ``(n_inst, batch)`` bool matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.logic.netlist import Netlist

BoolArray = np.ndarray

#: Batch lanes per machine word of the simulator state.
WORD_BITS = 64

#: Little-endian word dtype the pack/unpack helpers round-trip through,
#: so the lane order is fixed regardless of host byte order.
_WORD_LE = np.dtype("<u8")

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


def packed_words(batch: int) -> int:
    """Number of uint64 words holding *batch* bit lanes."""
    return -(-batch // WORD_BITS)


def pack_bits(values: np.ndarray) -> np.ndarray:
    """Pack a bool array along its last axis into uint64 lane words.

    ``(..., batch)`` bool → ``(..., packed_words(batch))`` uint64, lane
    ``b`` of the result living in bit ``b % 64`` of word ``b // 64``
    (little bit order).  Padding lanes beyond *batch* are zero.
    """
    arr = np.asarray(values, dtype=bool)
    if arr.ndim == 0:
        raise SimulationError("pack_bits needs at least one axis")
    nwords = packed_words(arr.shape[-1]) if arr.shape[-1] else 0
    packed = np.packbits(arr, axis=-1, bitorder="little")
    pad = nwords * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(arr.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    packed = np.ascontiguousarray(packed)
    return packed.view(_WORD_LE).astype(np.uint64, copy=False)


def unpack_bits(words: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: lane words back to a bool array.

    ``(..., nwords)`` uint64 → ``(..., batch)`` bool, a fresh
    contiguous array.  Only the ``ceil(batch / 8)`` bytes holding valid
    lanes are unpacked, so padding lanes cost no memory.
    """
    w = np.ascontiguousarray(words).astype(_WORD_LE, copy=False)
    nwords = w.shape[-1]
    if w.ndim > 1 and batch == nwords * WORD_BITS:
        # No padding lanes: flatten to 2-D so unpackbits runs one long
        # row per item instead of many short last-axis segments.
        flat = w.reshape(-1, nwords).view(np.uint8)
        bits = np.unpackbits(flat, axis=-1, bitorder="little")
        return bits.reshape(w.shape[:-1] + (batch,)).view(np.bool_)
    by = w.view(np.uint8)[..., : -(-batch // 8)]
    bits = np.unpackbits(by, axis=-1, count=batch, bitorder="little")
    return bits.view(np.bool_)


def lane_counts(matrix: np.ndarray, batch: int) -> np.ndarray:
    """Per-row count of the set lanes among the first *batch*.

    *matrix* holds ``(rows, nwords)`` lane words, such as a toggle
    matrix or :meth:`CompiledNetlist.clock_enable_values`, and padding
    lanes beyond *batch* are never counted.  Returns int64 ``(rows,)``.
    """
    counts = np.bitwise_count(matrix & _lane_mask(batch))
    return counts.sum(axis=-1, dtype=np.int64)


def _row_view(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D array as a 1-D array of opaque rows.

    Scattering whole rows through it (``_row_view(a)[idx] = ...``) is a
    single-element copy per row; fancy assignment into ``a[idx]`` walks
    the row elements one by one and is several times slower once a row
    holds more than one element.
    """
    return arr.view(np.dtype((np.void, arr.itemsize * arr.shape[1])))[:, 0]


def _lane_mask(batch: int) -> np.ndarray:
    """Word row with every valid lane bit set, padding lanes clear."""
    mask = np.zeros(packed_words(batch), dtype=np.uint64)
    full, rem = divmod(batch, WORD_BITS)
    mask[:full] = _FULL_WORD
    if rem:
        mask[full] = np.uint64((1 << rem) - 1)
    return mask


def lane_slices(batches) -> list[slice]:
    """Per-member batch-column slices of a lane-packed group.

    A multi-chip lane pack concatenates several members' stimulus
    columns into one batch (member 0 in lanes ``[0, b0)``, member 1 in
    ``[b0, b0 + b1)``, …); this returns the slice locating each
    member's columns in any ``(..., total_batch)`` array produced by
    the group run.
    """
    slices: list[slice] = []
    offset = 0
    for b in batches:
        if b <= 0:
            raise SimulationError(
                f"lane group batches must be positive, got {list(batches)}"
            )
        slices.append(slice(offset, offset + b))
        offset += b
    return slices


@dataclass
class PackedState:
    """Bit-sliced simulator state: 64 batch lanes per uint64 word.

    ``words`` has shape ``(num_nets, packed_words(batch))``; lane ``b``
    of a net lives in bit ``b % 64`` of word ``b // 64``.  Lanes at or
    beyond ``batch`` are padding whose content is unspecified — every
    reader must slice to *batch* after :func:`unpack_bits` (all the
    :class:`CompiledNetlist` accessors do).
    """

    words: np.ndarray
    batch: int
    cycle: int = 0

    @property
    def nwords(self) -> int:
        """Words per net row."""
        return self.words.shape[1]


@dataclass(frozen=True)
class _CombGroup:
    """All same-cell gates on one topological level, ready for gather."""

    function: object
    in_idx: tuple[np.ndarray, ...]
    out_idx: np.ndarray


class CompiledNetlist:
    """A netlist lowered to numpy arrays for batched simulation."""

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        lowered = netlist.lower()
        self.net_index: dict[str, int] = lowered.net_index
        self.num_nets = len(self.net_index)

        self.instance_names: list[str] = list(netlist.instances)
        self.num_instances = len(self.instance_names)
        self.instance_index: dict[str, int] = dict(
            zip(self.instance_names, range(self.num_instances))
        )
        self.instance_out_idx = lowered.out_idx
        self.instance_levels = lowered.levels
        self.max_level = int(self.instance_levels.max(initial=0))
        cells, cell_id, in_idx = lowered.cells, lowered.cell_id, lowered.in_idx

        # --- sequential elements -------------------------------------
        seq = lowered.of_cells(lambda c: c.is_sequential)
        self.seq_instance_idx = seq
        # A register's data pin comes first (StdCell.inputs).
        self._seq_d_idx = in_idx[seq, 0]
        self._seq_q_idx = lowered.out_idx[seq]
        #: Net index of each sequential instance's EN pin (rows align
        #: with :attr:`seq_instance_idx`); ``-1`` marks a plain DFF,
        #: which is clocked on every cycle.
        en_col = np.array(
            [c.inputs.index("EN") if "EN" in c.inputs else -1 for c in cells]
        )[cell_id[seq]]
        self.seq_enable_idx = np.where(en_col >= 0, in_idx[seq, en_col], -1)
        has_en = self.seq_enable_idx >= 0
        # Per-cycle enable gather, fixed at compile time: plain DFFs
        # read row 0 and are then forced enabled.
        self._seq_any_en = bool(has_en.any())
        self._seq_en_gather = np.where(has_en, self.seq_enable_idx, 0)
        self._seq_no_en = ~has_en
        self._seq_init = np.array(
            [
                bool(netlist.ff_init.get(self.instance_names[i], False))
                for i in seq
            ],
            dtype=bool,
        )

        # --- tie cells ------------------------------------------------
        tie = lowered.of_cells(lambda c: c.is_tie)
        self._tie_idx = lowered.out_idx[tie]
        self._tie_val = np.array(
            [c.name == "TIE1" for c in cells], dtype=bool
        )[cell_id[tie]]

        # --- combinational schedule ------------------------------------
        # One group per (level, cell name), in that order; cell ids sort
        # like names and lexsort is stable, so each group keeps its
        # instances in insertion order.
        comb = np.flatnonzero(lowered.comb)
        comb = comb[np.lexsort((cell_id[comb], self.instance_levels[comb]))]
        key_level = self.instance_levels[comb]
        key_cell = cell_id[comb]
        cuts = np.flatnonzero(
            (np.diff(key_level) != 0) | (np.diff(key_cell) != 0)
        ) + 1
        self._schedule: list[_CombGroup] = []
        for members in np.split(comb, cuts) if comb.size else ():
            cell = cells[cell_id[members[0]]]
            self._schedule.append(
                _CombGroup(
                    function=cell.function,
                    in_idx=tuple(
                        in_idx[members, pin] for pin in range(cell.arity)
                    ),
                    out_idx=lowered.out_idx[members],
                )
            )

        self._input_index = {
            name: self.net_index[name] for name in netlist.inputs
        }
        # Scratch buffers for _propagate's input gathers (one set per
        # comb group), keyed by row width in words, so the hot loop
        # stops allocating.
        self._scratch: dict[int, list[tuple[np.ndarray, ...]]] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def reset(
        self,
        batch: int = 1,
        inputs: dict[str, BoolArray] | None = None,
    ) -> PackedState:
        """Return a freshly reset state with combinational logic settled.

        Flip-flops take their ``ff_init`` values; unspecified primary
        inputs are 0.  The state holds ``packed_words(batch)`` lane
        words per net, one word for a single lane.
        """
        if batch <= 0:
            raise SimulationError(f"batch size must be positive, got {batch}")
        state = PackedState(
            words=np.zeros(
                (self.num_nets, packed_words(batch)), dtype=np.uint64
            ),
            batch=batch,
        )
        on = _lane_mask(batch)
        if self._seq_q_idx.size:
            state.words[self._seq_q_idx[self._seq_init]] = on
        if self._tie_idx.size:
            state.words[self._tie_idx[self._tie_val]] = on
        self._apply_inputs(state, inputs)
        self._propagate(state)
        return state

    def step(
        self,
        state: PackedState,
        inputs: dict[str, BoolArray] | None = None,
    ) -> np.ndarray:
        """Advance one clock cycle; return the per-instance toggle matrix.

        The matrix is uint64 lane words, ``(num_instances, nwords)``,
        with a lane's bit set where the instance's output net changed
        during this cycle; ``unpack_bits(t, batch)`` gives the
        ``(num_instances, batch)`` bool form (padding lanes are
        unspecified).
        """
        words = state.words
        toggled = self.output_values(state)

        # Clock edge: capture D into Q (with enables) from settled values,
        # as the lane-wise "EN ? D : Q" q ^ ((q ^ d) & en).
        if self._seq_q_idx.size:
            d_vals = np.take(words, self._seq_d_idx, axis=0)
            q_vals = np.take(words, self._seq_q_idx, axis=0)
            en_vals = self._enable_rows(words)
            _row_view(words)[self._seq_q_idx] = _row_view(
                q_vals ^ ((q_vals ^ d_vals) & en_vals)
            )

        self._apply_inputs(state, inputs)
        self._propagate(state)
        state.cycle += 1
        toggled ^= self.output_values(state)
        return toggled

    def output_values(self, state: PackedState) -> np.ndarray:
        """Current output-net value of every instance as lane words,
        ``(n_inst, nwords)``.

        Combined with a toggle matrix this distinguishes rising from
        falling output transitions (a cell that just toggled and now
        reads 1 rose) — the power model draws more VDD current on rises.
        """
        # np.take, not fancy indexing: several times faster on rows of
        # more than one element.
        return np.take(state.words, self.instance_out_idx, axis=0)

    def clock_enable_values(self, state: PackedState) -> np.ndarray:
        """Per-sequential-instance clock-enable lane words, ``(n_seq,
        nwords)``.

        Rows align with :attr:`seq_instance_idx`.  Plain DFFs are always
        clocked; DFFEs only when their EN pin is high — the model's
        stand-in for integrated clock gating, which is what keeps a
        dormant (clock-gated) Trojan free of clock-tree current.
        """
        return self._enable_rows(state.words)

    def _enable_rows(self, words: np.ndarray) -> np.ndarray:
        """Every register's enable row gathered from the net *words*, a
        fresh ``(n_seq, nwords)`` array; plain DFFs read all ones."""
        if not self._seq_any_en:
            return np.full(
                (self._seq_d_idx.size, words.shape[1]), _FULL_WORD
            )
        en_vals = np.take(words, self._seq_en_gather, axis=0)
        en_vals[self._seq_no_en] = _FULL_WORD
        return en_vals

    def read_bus_bits(self, state: PackedState, bus: list[str]) -> np.ndarray:
        """Bus values as a bool array of shape ``(width, batch)``, MSB first."""
        idx = [self.net_index[n] for n in bus]
        return unpack_bits(state.words[idx], state.batch)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_inputs(
        self, state: PackedState, inputs: dict[str, BoolArray] | None
    ) -> None:
        if not inputs:
            return
        rows = np.empty((len(inputs), state.batch), dtype=bool)
        idxs: list[int] = []
        for row, (name, vals) in enumerate(inputs.items()):
            idx = self._input_index.get(name)
            if idx is None:
                raise SimulationError(f"{name!r} is not a primary input")
            arr = np.asarray(vals, dtype=bool)
            if arr.ndim == 0:
                arr = np.full(state.batch, bool(arr))
            if arr.shape != (state.batch,):
                raise SimulationError(
                    f"input {name!r} has shape {arr.shape}, "
                    f"expected ({state.batch},)"
                )
            rows[row] = arr
            idxs.append(idx)
        # One packbits call for the whole stimulus dict keeps the
        # per-cycle workload → state hand-off cheap.
        state.words[np.asarray(idxs, dtype=np.int64)] = pack_bits(rows)

    def _propagate(self, state: PackedState) -> None:
        words = state.words
        width = words.shape[1]
        scratch = self._scratch.get(width)
        if scratch is None:
            scratch = [
                tuple(
                    np.empty((grp.out_idx.size, width), dtype=np.uint64)
                    for _ in grp.in_idx
                )
                for grp in self._schedule
            ]
            if len(self._scratch) >= 4:  # bound the cache across shapes
                self._scratch.pop(next(iter(self._scratch)))
            self._scratch[width] = scratch
        out = _row_view(words)
        for grp, bufs in zip(self._schedule, scratch):
            args = [
                np.take(words, idx, axis=0, out=buf)
                for idx, buf in zip(grp.in_idx, bufs)
            ]
            out[grp.out_idx] = _row_view(grp.function(*args))
