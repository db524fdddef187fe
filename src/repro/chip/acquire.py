"""Trace acquisition: logic activity → receiver voltage waveforms.

:class:`AcquisitionEngine` runs a workload on the chip's compiled
netlist cycle by cycle, folds each cycle's toggle matrix into per-cycle
per-delay-bin amplitude frames (weights = EM coupling × switched
charge, optionally scattered by process variation), then synthesises
continuous-time receiver voltages by kernel convolution, adds noise and
applies the scenario's oscilloscope.

The engine is the simulated twin of the paper's measurement bench: one
call gives you what the scope stored for one campaign.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from scipy import signal as _signal

from repro.chip.chip import Chip, Receiver
from repro.chip.scenario import Scenario
from repro.crypto.encoding import random_blocks
from repro.em.noise import thermal_noise_rms, white_noise
from repro.errors import ExperimentError, MeasurementError
from repro.logic.activity import ActivityAccumulator, FoldPlan, grid_step
from repro.logic.simulator import lane_slices, unpack_bits
from repro.obs import active_metrics
from repro.power.pulse import (
    current_kernel,
    emf_kernel,
    step_kernel,
    synthesize_events,
)
from repro.rng import derive
from repro.trojans.base import TapMode
from repro.units import MHZ


#: Effective noise bandwidth of the acquisition front end [Hz] used for
#: the coil thermal-noise contribution (the bench chain band-limits
#: noise well below the raw sample rate).
NOISE_BANDWIDTH = 1.8 * MHZ

#: Relative VDD-rail current drawn by a *falling* output transition
#: (discharge mostly flows to VSS locally; rises pull the full packet
#: through the grid).  This rise/fall asymmetry is what puts odd
#: harmonics — e.g. Trojan 1's 750 kHz AM fundamental — into the field.
FALL_CURRENT_FRACTION = 0.35

#: Integer activity codes of a falling and a rising output transition,
#: in the ratio :data:`FALL_CURRENT_FRACTION` (7 : 20).  The fold runs
#: on these codes against weights divided by ``RISE_CODE``, which keeps
#: it exact (see :class:`~repro.logic.activity.ActivityAccumulator`).
FALL_CODE, RISE_CODE = (
    Fraction(FALL_CURRENT_FRACTION).limit_denominator(100).as_integer_ratio()
)

#: Column budget of one blocked activity fold: the engine buffers
#: ``max(1, FOLD_BLOCK_COLS // batch)`` cycles of toggle and rise lane
#: words, cycle by cycle (``(cycles, instances, words)``), and folds them
#: together.  The fold reads only the live rows — instances toggled in
#: some lane of a cycle — and materialises the float64 activity codes of
#: at most ``FOLD_ROWS`` of them per buffered cycle at a time:
#: ``FOLD_ROWS x FOLD_BLOCK_COLS`` (1 MB) at batches up to 256.
FOLD_BLOCK_COLS = 256

#: Label prefixes of the nets the engine watches for itself (Trojan taps
#: and clock enables).  They never reach ``AcquisitionResult.recorded``,
#: so a ``record_nets`` label carrying one is rejected.
_RESERVED_LABELS = ("__tap", "__clk")


@lru_cache(maxsize=1)
def _lane_code_lut() -> np.ndarray:
    """Activity codes of 8 lanes, looked up by ``(rise_byte << 8) | toggle_byte``.

    Entry ``code`` of the ``(65536,)`` uint64 table packs, as 8 uint8
    bytes in lane order, :data:`RISE_CODE` where the rise bit is set,
    :data:`FALL_CODE` where only the toggle bit is set and ``0``
    otherwise.  Built on first use (512 kB), read-only, shared by every
    engine.
    """
    code = np.arange(1 << 16, dtype=np.uint32)[:, None]
    lane = np.arange(8, dtype=np.uint32)
    toggle = ((code >> lane) & 1).astype(bool)
    rise = ((code >> (lane + 8)) & 1).astype(bool)
    lut = np.where(
        rise, np.uint8(RISE_CODE),
        np.where(toggle, np.uint8(FALL_CODE), np.uint8(0)),
    ).view(np.uint64).ravel()
    lut.flags.writeable = False
    return lut


def _lookup_codes(
    tog_bytes: np.ndarray,
    ris_bytes: np.ndarray,
    codes: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fill a block of activity codes from toggle and rise lane bytes.

    *tog_bytes* and *ris_bytes* are ``(..., ceil(batch/8))`` uint8 lane
    bytes (little-endian words, so byte ``j`` holds lanes
    ``8j .. 8j + 7``), *codes* a uint16 scratch of the same shape and
    *out* the ``(..., batch)`` float64 block.  Each byte pair looks up 8
    lanes' uint8 codes at once; a ragged last byte's padding lanes are
    dropped on the way into *out*.
    """
    np.left_shift(ris_bytes, 8, out=codes, dtype=np.uint16)
    np.bitwise_or(codes, tog_bytes, out=codes)
    lanes = np.take(_lane_code_lut(), codes, mode="clip").view(np.uint8)
    out[...] = lanes[..., : out.shape[-1]]


class _LaneColumns:
    """One flush's toggle and rise lane words as the fold's column source.

    *tog_words* and *ris_words* are the cycle loop's contiguous
    ``(cycles, n_inst, nwords)`` little-endian lane words, rows in level
    order.  :meth:`live_rows` numbers the ``(cycle, instance)`` rows
    cycle-major and reports those whose toggle words are nonzero in any
    lane; :meth:`codes` gathers the words of the rows asked for and
    looks up their float64 activity codes (:func:`_lookup_codes`), as
    :meth:`ActivityAccumulator.record_all_blocks` reads them.
    """

    def __init__(
        self, tog_words: np.ndarray, ris_words: np.ndarray, batch: int
    ) -> None:
        cycles, n_inst, nwords = tog_words.shape
        self.shape = (cycles, n_inst, batch)
        # Whole words are gathered from the contiguous buffers: a gather
        # from their strided byte view would copy the whole buffer.
        self._tog = tog_words.reshape(cycles * n_inst, nwords)
        self._ris = ris_words.reshape(cycles * n_inst, nwords)
        self._n_bytes = -(-batch // 8)

    def live_rows(self) -> np.ndarray:
        # Word by word: ``any(axis=1)`` over a short row is 8x slower.
        live = self._tog[:, 0] != 0
        for word in range(1, self._tog.shape[1]):
            live |= self._tog[:, word] != 0
        return np.flatnonzero(live)

    def codes(self, rows: np.ndarray, out: np.ndarray) -> None:
        n_bytes = self._n_bytes
        tog = np.take(self._tog, rows, axis=0).view(np.uint8)[:, :n_bytes]
        ris = np.take(self._ris, rows, axis=0).view(np.uint8)[:, :n_bytes]
        _lookup_codes(tog, ris, np.empty(tog.shape, dtype=np.uint16), out)


def _clock_grid(
    weights: np.ndarray, codes: np.ndarray, n_codes: int
) -> tuple[float, np.ndarray]:
    """One receiver's clock weights, rounded and summed by enable code.

    *weights* holds the receiver's per-register clock weight and
    *codes* each register's enable code: ``0`` for an always-clocked
    register, ``1 + j`` for one gated by enable net ``j``.  Each weight
    is rounded once to an integer multiple of a power-of-two ``step``
    (:func:`~repro.logic.activity.grid_step` with ``52 - n.bit_length()``
    bits, for ``n`` registers), so every partial sum of the rounded weights
    is an integer below ``2**52``: the per-code sums, and any 0/1
    combination of them, are exact in float64 whatever the summation
    order.  Returns ``(step, units)`` with ``units`` of length
    *n_codes*, in units of ``step``.
    """
    step = grid_step(weights, 52 - weights.size.bit_length())
    units = np.bincount(
        codes, weights=np.rint(weights / step), minlength=n_codes
    )
    return step, units


def _clock_sum(
    steps: np.ndarray, units: np.ndarray, enables: np.ndarray
) -> np.ndarray:
    """Clock amplitudes ``steps * (units[:, 0] + units[:, 1:] @ enables)``.

    *steps* and *units* stack :func:`_clock_grid` results of several
    receivers, ``(receivers,)`` and ``(receivers, 1 + nets)``; *enables*
    holds the 0/1 values of the enable nets, ``(nets, columns)``.  Every
    sum is an exact integer, so a receiver's row does not depend on the
    other rows, the column count or the BLAS kernel.  Returns
    ``(receivers, columns)``.
    """
    amps = units[:, 1:] @ enables
    amps += units[:, :1]
    amps *= steps[:, None]
    return amps


@lru_cache(maxsize=16)
def _butter_lowpass(order: int, cutoff_frac: float):
    """Shared Butterworth design, keyed on ``(order, cutoff_frac)``.

    The probe-drift and coloured-noise paths redesign the identical
    filter for every receiver of every campaign; the coefficients only
    depend on the order and the normalised cutoff, so one design per
    (order, cutoff) serves the whole process.  The returned arrays are
    read-only — ``lfilter`` never mutates its coefficients.
    """
    b, a = _signal.butter(order, cutoff_frac)
    b.flags.writeable = False
    a.flags.writeable = False
    return b, a


class IdleWorkload:
    """Chip powered, clock running, no encryption (the paper's noise
    record: "the chip is powered up without executing the encryption")."""

    def begin(self, batch: int, rng: np.random.Generator) -> None:
        """No per-campaign state to set up."""

    def inputs(self, cycle: int, batch: int):
        """No stimulus on any cycle."""
        return None


class EncryptionWorkload:
    """Back-to-back AES encryptions of random plaintexts, fixed key.

    One encryption starts every *period* cycles (the AES takes 11, so
    the default 16 leaves a realistic idle gap).  Per batch column the
    plaintexts are independent; the key is shared, as on the bench.
    """

    def __init__(self, aes, key: bytes, period: int = 16) -> None:
        if period < aes.latency + 1:
            raise ExperimentError(
                f"period {period} shorter than AES latency {aes.latency} + 1"
            )
        if len(key) != 16:
            raise ExperimentError(f"key must be 16 bytes, got {len(key)}")
        self.aes = aes
        self.key = bytes(key)
        self.period = period
        self.plaintexts: list[np.ndarray] = []
        self._rng: np.random.Generator | None = None
        self._keys: np.ndarray | None = None

    def begin(self, batch: int, rng: np.random.Generator) -> None:
        """Reset per-campaign state (plaintext log, RNG, key tile)."""
        self.plaintexts = []
        self._rng = rng
        self._keys = np.tile(
            np.frombuffer(self.key, dtype=np.uint8), (batch, 1)
        )

    def inputs(self, cycle: int, batch: int):
        """Stimulus for *cycle*: start pulse + fresh plaintexts, or None."""
        if self._rng is None or self._keys is None:
            raise ExperimentError("workload used before begin() was called")
        phase = cycle % self.period
        if phase == 0:
            pts = random_blocks(self._rng, batch)
            self.plaintexts.append(pts)
            return self.aes.start_inputs(pts, self._keys)
        if phase == 1:
            return self.aes.idle_inputs(batch)
        return None


@dataclass(frozen=True)
class GroupMember:
    """One chip's campaign inside a lane-packed group acquisition.

    Fleet variants (golden vs T1–T4/A2) share one netlist and differ
    only in which Trojan enable pins are asserted and which RNG streams
    drive stimulus and noise — exactly the knobs this record carries.
    """

    #: Key of this member's entry in the :meth:`AcquisitionEngine.
    #: acquire_group` result dictionary.
    name: str
    #: Stimulus generator with ``begin(batch, rng)`` / ``inputs(cycle,
    #: batch)``; each member needs its own instance (workloads hold
    #: per-campaign state).
    workload: object
    #: This member's batch lanes within the shared words.
    batch: int
    trojan_enables: tuple[str, ...] = ()
    rng_role: str = "acquire"
    workload_role: str | None = None


class _GroupStimulus:
    """Column-concatenates the member workloads' per-cycle stimulus.

    A pin keeps the value its lanes last had wherever a member does not
    drive it on a cycle (no stimulus at all, or fewer pins than the
    other members), exactly as in that member's solo run, where an
    undriven input holds.  *slices* locate each member's lanes and
    *initial* gives the pins' reset values across the whole group;
    other pins reset to 0.
    """

    def __init__(
        self,
        members: tuple[GroupMember, ...],
        slices: list[slice],
        initial: dict[str, np.ndarray],
    ) -> None:
        self._members = members
        self._slices = slices
        self._total = slices[-1].stop
        self._held = {pin: lanes.copy() for pin, lanes in initial.items()}

    def inputs(self, cycle: int, batch: int):
        driven: dict[str, None] = {}
        for m, sl in zip(self._members, self._slices):
            for pin, vals in (m.workload.inputs(cycle, m.batch) or {}).items():
                held = self._held.get(pin)
                if held is None:
                    held = self._held[pin] = np.zeros(self._total, dtype=bool)
                held[sl] = np.asarray(vals, dtype=bool)
                driven[pin] = None
        if not driven:
            return None
        return {pin: self._held[pin].copy() for pin in driven}


@dataclass
class AcquisitionResult:
    """Traces plus the side information tests and demodulators need."""

    traces: dict[str, np.ndarray]  # receiver -> (batch, n_samples)
    fs: float
    n_cycles: int
    samples_per_cycle: int
    #: Recorded per-cycle net values: name -> (n_cycles + 1, batch);
    #: row 0 is the post-reset value.
    recorded: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return next(iter(self.traces.values())).shape[1]

    def stacked(self, names: "tuple[str, ...] | list[str]") -> np.ndarray:
        """Channel-stacked traces, shape ``(batch, len(names), n_samples)``.

        The multi-channel view a sensor-array consumer wants: pass a
        channel group (e.g. ``chip.receiver_groups["array"]``) to get
        every coil's trace from the one shared simulation pass.
        """
        if not names:
            raise MeasurementError("stacked() needs at least one receiver name")
        return np.stack([self.traces[name] for name in names], axis=1)

    @cached_property
    def time(self) -> np.ndarray:
        """Sample time axis [s] (built once, cached on the instance)."""
        return np.arange(self.n_samples) / self.fs


@lru_cache(maxsize=8)
def acquisition_engine(chip: Chip, scenario: Scenario) -> "AcquisitionEngine":
    """Memoised :class:`AcquisitionEngine` for (chip, scenario).

    Engine construction folds the per-cell coupling/charge weights for
    every receiver — work that is identical for every campaign on the
    same chip and scenario, so the collectors in
    :mod:`repro.experiments.campaign` all funnel through this cache.
    The engine itself is stateless across :meth:`~AcquisitionEngine.
    acquire` calls (each derives fresh RNG streams), so sharing one
    instance is observationally identical to building it per campaign.
    """
    return AcquisitionEngine(chip, scenario)


class AcquisitionEngine:
    """Measurement bench for one chip under one scenario."""

    def __init__(self, chip: Chip, scenario: Scenario) -> None:
        self.chip = chip
        self.scenario = scenario
        scale = scenario.cell_charge_scale(
            chip.sim.num_instances, chip.seed
        )
        if scale is None:
            scale = np.ones(chip.sim.num_instances)
        self._charge_scale = scale
        # Clock tree: a register draws its clock-pin charge on every
        # cycle its enable net is high (a plain DFF on every cycle), and
        # the chip's registers hang off a handful of enable nets — so
        # the cycle loop records just those nets (as __clk* labels) and
        # each receiver's clock amplitude is a sum over them.
        sim = chip.sim
        en_idx = sim.seq_enable_idx
        en_nets = np.unique(en_idx[en_idx >= 0])
        codes = np.where(en_idx >= 0, np.searchsorted(en_nets, en_idx) + 1, 0)
        net_names = list(sim.net_index)
        self._clock_nets = {
            f"__clk{j}": net_names[net] for j, net in enumerate(en_nets)
        }
        # Per-receiver event weights.  The data weights, per
        # activity-code unit (a rise folds as RISE_CODE units), form one
        # fold plan: every acquisition's accumulators share its level
        # order and rounded weights, read-only.
        w_data = np.empty((len(chip.receivers), sim.num_instances))
        self._clock_grid: dict[str, tuple[float, np.ndarray]] = {}
        for row, (name, rcv) in enumerate(chip.receivers.items()):
            np.divide(
                rcv.cell_coupling * chip.q_switch * scale, RISE_CODE,
                out=w_data[row],
            )
            w_clk = rcv.cell_coupling * chip.q_clock * scale
            self._clock_grid[name] = _clock_grid(
                w_clk[sim.seq_instance_idx], codes, en_nets.size + 1
            )
        w_data.flags.writeable = False
        self.fold_plan = FoldPlan(w_data, sim.instance_levels)
        self._fold_row = {name: row for row, name in enumerate(chip.receivers)}

    # ------------------------------------------------------------------
    def fold_accumulators(
        self, names: tuple[str, ...]
    ) -> list[ActivityAccumulator]:
        """Fresh accumulators of receivers *names* on the shared fold plan."""
        return [
            ActivityAccumulator.from_plan(self.fold_plan, self._fold_row[name])
            for name in names
        ]

    # ------------------------------------------------------------------
    def acquire(
        self,
        workload,
        n_cycles: int,
        batch: int = 1,
        trojan_enables: tuple[str, ...] = (),
        record_nets: dict[str, str] | None = None,
        receivers: tuple[str, ...] | None = None,
        include_noise: bool = True,
        rng_role: str = "acquire",
        workload_role: str | None = None,
    ) -> AcquisitionResult:
        """Run *workload* for *n_cycles* and return receiver traces.

        Parameters
        ----------
        workload:
            Object with ``begin(batch, rng)`` and ``inputs(cycle, batch)``.
        n_cycles:
            Clock cycles to simulate.
        batch:
            Independent traces acquired in parallel.
        trojan_enables:
            Trojan names whose external enable pin is asserted
            throughout the campaign.
        record_nets:
            Extra nets to log per cycle, as ``{label: net_name}``.
        receivers:
            Receiver subset (default: all of the chip's receivers).
        include_noise:
            Add environment/thermal noise (switch off to study the pure
            signal path, e.g. for coupling ablations).
        rng_role:
            Label decorrelating this campaign's random streams from
            other campaigns on the same chip/scenario.
        workload_role:
            Label seeding the workload's stimulus stream.  Defaults to
            *rng_role*; pass the same value across two campaigns to
            replay the identical plaintext sequence (the paper's
            golden-vs-Trojan spectra compare "the same operation").

        A solo acquisition is a lane group of one: it runs the same
        body as :meth:`acquire_group`, on the simulator's lane words
        (one word per net for a single lane).
        Empty or repeated *receivers*, unknown *record_nets* nets and
        *record_nets* labels starting with ``__tap`` or ``__clk`` (the
        engine's own watch labels) raise
        :class:`~repro.errors.MeasurementError` before anything is
        simulated.
        """
        member = GroupMember(
            name="acquire",
            workload=workload,
            batch=batch,
            trojan_enables=trojan_enables,
            rng_role=rng_role,
            workload_role=workload_role,
        )
        (result,) = self._acquire_lanes(
            (member,), n_cycles, record_nets, receivers, include_noise
        )
        return result

    # ------------------------------------------------------------------
    def acquire_group(
        self,
        members,
        n_cycles: int,
        record_nets: dict[str, str] | None = None,
        receivers: tuple[str, ...] | None = None,
        include_noise: bool = True,
        finish: Callable[..., object] | None = None,
    ) -> dict:
        """Acquire several same-netlist campaigns in one packed pass.

        Fleet chips instantiated from one netlist (golden vs the
        Trojan variants, which differ only in which enable pin is
        asserted) run the **same** compiled stepping kernel; packing
        each member's batch columns into the shared uint64 lane words
        amortises the per-cycle gather/scatter and the blocked activity
        fold across the whole group — one stepping pass and one fold
        GEMM per block instead of one per chip.

        Every per-member random stream (stimulus, noise, scope) is
        derived exactly as a solo :meth:`acquire` call with the same
        roles would derive it, and synthesis runs per member on its own
        lane slice, so each member's result matches its solo
        acquisition; only the logic/fold compute layout changes.  The
        fleet's streaming ingest leans on this: one lane-packed pass
        per campaign *chunk* (members carrying per-chunk ``rng_role``
        values — :func:`repro.fleet.producer.chunk_role`) is bitwise
        equal to solo per-chunk ``collect_ed_traces`` campaigns, so
        the fleet scores the same windows a solo acquisition of each
        chip would produce.

        Parameters
        ----------
        members:
            Sequence of :class:`GroupMember`; names must be unique and
            workload instances distinct (workloads hold per-campaign
            state).
        n_cycles, record_nets, receivers, include_noise:
            As in :meth:`acquire`, shared by the whole group.

        Returns
        -------
        dict
            ``{member.name: AcquisitionResult}`` in member order.
        """
        members = tuple(members)
        if not members:
            raise MeasurementError("acquire_group needs at least one member")
        if len({m.name for m in members}) != len(members):
            raise MeasurementError("group member names must be unique")
        if len({id(m.workload) for m in members}) != len(members):
            raise MeasurementError(
                "group members must not share workload instances "
                "(workloads hold per-campaign state)"
            )
        results = self._acquire_lanes(
            members, n_cycles, record_nets, receivers, include_noise, finish
        )
        metrics = active_metrics()
        metrics.counter("acquire.group.chips").inc(len(members))
        metrics.counter("acquire.group.lanes").inc(
            sum(m.batch for m in members)
        )
        return {m.name: r for m, r in zip(members, results)}

    # ------------------------------------------------------------------
    def _acquire_lanes(
        self,
        members: tuple[GroupMember, ...],
        n_cycles: int,
        record_nets: dict[str, str] | None,
        receivers: tuple[str, ...] | None,
        include_noise: bool,
        finish: Callable[..., object] | None = None,
    ) -> list:
        """The one acquisition body behind :meth:`acquire` and
        :meth:`acquire_group`: validate, derive every member's RNG
        streams, reset the lane-packed state, run the cycle loop once
        and synthesise each member's traces from its lane slice.
        Returns one result per member, in member order, each passed
        through *finish* when given."""
        chip = self.chip
        sim = chip.sim
        if n_cycles <= 0:
            raise MeasurementError(f"n_cycles must be positive, got {n_cycles}")
        names = receivers if receivers is not None else tuple(chip.receivers)
        if not names:
            raise MeasurementError("receivers must name at least one receiver")
        for name in names:
            if name not in chip.receivers:
                raise MeasurementError(f"unknown receiver {name!r}")
        if len(set(names)) != len(names):
            # A repeated receiver would draw the shared noise stream
            # twice and silently return a different trace.
            dup = sorted({n for n in names if names.count(n) > 1})
            raise MeasurementError(f"receivers repeats {dup}")
        for label, net in (record_nets or {}).items():
            if label.startswith(_RESERVED_LABELS):
                raise MeasurementError(
                    f"record_nets label {label!r} is reserved (labels may "
                    f"not start with {' or '.join(_RESERVED_LABELS)})"
                )
            if net not in sim.net_index:
                raise MeasurementError(
                    f"record_nets[{label!r}] names unknown net {net!r}"
                )
        for m in members:
            if m.batch <= 0:
                raise MeasurementError(
                    f"batch must be positive, got {m.batch} "
                    f"(member {m.name!r})"
                )
            for tr_name in m.trojan_enables:
                if tr_name not in chip.trojans:
                    raise MeasurementError(
                        f"chip has no trojan {tr_name!r}; present: "
                        f"{sorted(chip.trojans)}"
                    )
        slices = lane_slices([m.batch for m in members])
        total = slices[-1].stop

        # Each member's streams are derived from its roles alone, so a
        # lane-packed member sees exactly its solo acquisition's streams.
        rngs = []
        for m in members:
            rngs.append(
                derive(
                    chip.seed ^ self.scenario.seed,
                    f"{m.rng_role}/{self.scenario.name}",
                )
            )
            wl_role = (
                m.workload_role if m.workload_role is not None else m.rng_role
            )
            m.workload.begin(
                m.batch, derive(chip.seed, f"{wl_role}/workload")
            )

        # Per-lane Trojan enables: each pin is asserted exactly on the
        # lanes of the members that enable it, deasserted elsewhere.
        enable_inputs = {}
        for tr_name, tr in chip.trojans.items():
            lanes = np.zeros(total, dtype=bool)
            for m, sl in zip(members, slices):
                if tr_name in m.trojan_enables:
                    lanes[sl] = True
            enable_inputs[tr.enable_pin] = lanes

        stimulus = _GroupStimulus(members, slices, enable_inputs)
        first_inputs = dict(enable_inputs)
        wl0 = stimulus.inputs(0, total)
        if wl0:
            first_inputs.update(wl0)
        state = sim.reset(batch=total, inputs=first_inputs)

        acc_list = self.fold_accumulators(names)
        accumulators = dict(zip(names, acc_list))
        watch: dict[str, str] = dict(record_nets or {})
        for i, tap in enumerate(chip.taps):
            watch[f"__tap{i}_net"] = tap.net
            if tap.gate_by is not None:
                watch[f"__tap{i}_gate"] = tap.gate_by
        watch.update(self._clock_nets)
        watch_labels = list(watch)
        watch_idx = np.array(
            [sim.net_index[net] for net in watch.values()], dtype=np.int64
        )

        # Per-stage observability: the cycle-lanes simulated and how
        # long the cycle loop took land in the active metrics registry
        # (and so in every saved RunResult artifact).
        metrics = active_metrics()
        metrics.counter("acquire.cycles").inc(n_cycles * total)
        metrics.counter("acquire.passes").inc()

        with metrics.time("stage.sim_cycles.seconds"):
            rec_full = self._run_cycles_blocked(
                state, stimulus, n_cycles, total, acc_list, watch_idx
            )

        folded = {}
        for name, acc in accumulators.items():
            folded[name] = acc.result()
            acc.clear()  # the blocks are copied into the result

        results = []
        with metrics.time("stage.synthesize.seconds"):
            for m, sl, rng in zip(members, slices, rngs):
                result = self._member_result(
                    m, sl, rng, names, folded, rec_full, watch_labels,
                    n_cycles, include_noise,
                )
                if finish is not None:
                    # Drop the full-rate record before the next member's.
                    result = finish(m, result)
                results.append(result)
        return results

    # ------------------------------------------------------------------
    def _member_result(
        self,
        m: GroupMember,
        lanes: slice,
        rng: np.random.Generator,
        names: tuple[str, ...],
        folded: dict[str, np.ndarray],
        rec_full: np.ndarray,
        watch_labels: list[str],
        n_cycles: int,
        include_noise: bool,
    ) -> AcquisitionResult:
        """Synthesise member *m*'s traces from its lane slice *lanes*."""
        cfg = self.chip.config
        n_samples = (n_cycles + 1) * cfg.samples_per_cycle
        rec_arrays = {
            label: np.ascontiguousarray(rec_full[:, j, lanes])
            for j, label in enumerate(watch_labels)
        }
        signal: dict[str, np.ndarray] = {}
        for group in self._synthesis_groups(names):
            signal.update(self._synthesize_group(
                group, folded, lanes, rec_arrays,
                n_cycles, n_samples, m.batch,
            ))
        # Noise and scope consume the member's shared stream in
        # receiver order, exactly as each receiver's solo pass.
        traces = {
            name: self._finish_receiver(
                name, signal.pop(name), include_noise,
                self._channel_rng(name, rng, m.rng_role),
            )
            for name in names
        }
        return AcquisitionResult(
            traces=traces,
            fs=cfg.fs,
            n_cycles=n_cycles,
            samples_per_cycle=cfg.samples_per_cycle,
            recorded={
                label: arr
                for label, arr in rec_arrays.items()
                if not label.startswith(_RESERVED_LABELS)
            },
        )

    # ------------------------------------------------------------------
    def _channel_rng(
        self, name: str, shared: np.random.Generator, rng_role: str
    ) -> np.random.Generator:
        """Noise/scope stream for receiver *name*.

        Standalone receivers (``sensor``/``probe``/``power``) keep the
        legacy behaviour: one stream per campaign, consumed in receiver
        order — changing that would change every archived single-coil
        trace bit pattern.  Channel-group members instead derive an
        independent stream keyed by the channel name, so acquiring any
        subset of an array's coils yields bitwise the same samples per
        coil as acquiring them all (or each solo).
        """
        if self.chip.receivers[name].group is None:
            return shared
        return derive(
            self.chip.seed ^ self.scenario.seed,
            f"{rng_role}/{self.scenario.name}/{name}",
        )

    # ------------------------------------------------------------------
    def _run_cycles_blocked(
        self,
        state,
        workload,
        n_cycles: int,
        batch: int,
        acc_list: list[ActivityAccumulator],
        watch_idx: np.ndarray,
    ) -> np.ndarray:
        """Cycle loop with a blocked, level-ordered activity fold.

        Buffers up to ``FOLD_BLOCK_COLS // batch`` cycles of toggle and
        rise lane words, then folds them through
        :meth:`ActivityAccumulator.record_all_blocks`, which reads only
        the live rows of the block.  The buffers are cycle-major,
        ``(block, n_inst, nwords)``: each cycle gathers its rows into
        level order straight into one contiguous slab.  The fold reads
        them through a :class:`_LaneColumns` source, which looks the
        live rows' codes up 8 lanes at a time (:func:`_lane_code_lut`) —
        :data:`FALL_CODE` for toggled-and-fell, :data:`RISE_CODE` for
        rising.

        Returns the watched nets' values as a bool array of shape
        ``(n_cycles + 1, len(watch_idx), batch)``, row 0 the post-reset
        state.
        """
        sim = self.chip.sim
        n_inst = sim.num_instances
        block = max(1, min(n_cycles, FOLD_BLOCK_COLS // batch))
        order = acc_list[0].level_order
        # Little-endian words, so a uint8 view walks the lanes in order:
        # byte j of a row holds lanes 8j .. 8j + 7.
        tog_words = np.empty((block, n_inst, state.nwords), dtype="<u8")
        ris_words = np.empty_like(tog_words)
        rec_words = np.empty(
            (n_cycles + 1, watch_idx.size, state.nwords), dtype=np.uint64
        )
        if watch_idx.size:
            rec_words[0] = state.words[watch_idx]

        fill = 0
        for k in range(1, n_cycles + 1):
            toggles = sim.step(state, workload.inputs(k, batch))
            np.take(toggles, order, axis=0, out=tog_words[fill])
            np.take(toggles & sim.output_values(state), order, axis=0,
                    out=ris_words[fill])
            if watch_idx.size:
                rec_words[k] = state.words[watch_idx]
            fill += 1
            if fill == block or k == n_cycles:
                ActivityAccumulator.record_all_blocks(
                    acc_list,
                    _LaneColumns(tog_words[:fill], ris_words[:fill], batch),
                    fill,
                    batch,
                )
                fill = 0
        return unpack_bits(rec_words, batch)

    # ------------------------------------------------------------------
    def _synthesis_groups(
        self, names: tuple[str, ...]
    ) -> list[tuple[str, ...]]:
        """Partition *names* into synthesis groups, in first-seen order.

        Receivers sharing ``group``, ``sense`` and ``external`` share
        event times and kernels, so one convolution per event kind
        serves them all; standalone receivers are groups of one.
        """
        groups: dict[object, list[str]] = {}
        for name in names:
            rcv = self.chip.receivers[name]
            key = (
                name if rcv.group is None
                else (rcv.group, rcv.sense, rcv.external)
            )
            groups.setdefault(key, []).append(name)
        return [tuple(g) for g in groups.values()]

    # ------------------------------------------------------------------
    def _synthesize_group(
        self,
        names: tuple[str, ...],
        folded: dict[str, np.ndarray],  # name -> (cycles, bins, total)
        lanes: slice,
        recorded: dict[str, np.ndarray],
        n_cycles: int,
        n_samples: int,
        batch: int,
    ) -> dict[str, np.ndarray]:
        """Noise-free signal of every receiver in one synthesis group.

        Each receiver's event amplitudes fill its own ``batch`` columns
        of one ``(events, len(names) * batch)`` matrix, so the group
        convolves once per event kind: the data and clock train, then
        each analog tap.  The clock amplitudes of the whole group are
        one exact product over the recorded enable nets
        (:func:`_clock_sum`): a cycle's enables are the values recorded
        before its edge.  A tap whose events (or level transitions) are
        all zero on these lanes contributes nothing and is skipped.
        Returns ``{name: (batch, n_samples)}`` row slices of the group
        waveform.
        """
        chip = self.chip
        cfg = chip.config
        t_clk = cfg.t_clk
        sense = chip.receivers[names[0]].sense
        passes = active_metrics().counter("acquire.synth.passes")

        def convolve(times, amps, kern):
            passes.inc()
            return synthesize_events(times, amps, kern, n_samples, cfg.fs)

        n_bins = folded[names[0]].shape[1]
        n_data = n_cycles * n_bins
        edge_times = (np.arange(n_cycles) + 1) * t_clk

        # Data events: cycle edge + per-level stagger; clock events at
        # the edges proper.
        data_times = (
            edge_times[:, None] + (np.arange(n_bins) * cfg.gate_delay)[None, :]
        ).reshape(-1)
        times = np.concatenate([data_times, edge_times])
        amps = np.empty((n_data + n_cycles, len(names) * batch))
        data_amps = amps[:n_data].reshape(n_cycles, n_bins, -1)
        enables = np.array(
            [recorded[label][:-1] for label in self._clock_nets],
            dtype=np.float64,
        ).reshape(len(self._clock_nets), n_cycles * batch)
        steps, units = zip(*(self._clock_grid[name] for name in names))
        clock = _clock_sum(
            np.array(steps), np.stack(units), enables
        ).reshape(len(names), n_cycles, batch)
        for j, name in enumerate(names):
            cols = slice(j * batch, (j + 1) * batch)
            data_amps[:, :, cols] = folded[name][:, :, lanes]
            amps[n_data:, cols] = clock[j]
        if sense == "current":
            # A shunt monitor sees the current pulses themselves.
            kern = current_kernel(cfg.fs, cfg.pulse_width)
        else:
            kern = emf_kernel(cfg.fs, cfg.pulse_width)
        wave = convolve(times, amps, kern)

        # Analog taps: the events are shared, each receiver scales them
        # by its own coupling.
        for i, tap in enumerate(chip.taps):
            scale = np.array(
                [chip.receivers[n].tap_coupling[i] * tap.amplitude for n in names]
            )
            net = recorded[f"__tap{i}_net"]
            gate = (
                recorded[f"__tap{i}_gate"] if tap.gate_by is not None else None
            )
            if tap.mode in (TapMode.PULSE_ON_TOGGLE, TapMode.PULSE_ON_RISE):
                deltas = np.diff(net.astype(np.int8), axis=0)
                if tap.mode is TapMode.PULSE_ON_RISE:
                    events = (deltas > 0).astype(np.float64)
                else:
                    events = np.abs(deltas).astype(np.float64)
                if gate is not None:
                    events = events * gate[1:]
                s_kern = kern
            else:
                level = net.astype(np.float64)
                if tap.mode is TapMode.CURRENT_WHEN_LOW:
                    level = 1.0 - level
                if gate is not None:
                    level = level * gate
                if sense == "current":
                    # The shunt sees the static level itself: a box
                    # waveform, amp x level, held for each cycle.
                    spc = cfg.samples_per_cycle
                    box = np.repeat(level.T, spc, axis=1)
                    box = box[:, : n_samples - spc]
                    pad = np.zeros((box.shape[0], n_samples - box.shape[1]))
                    box = np.concatenate([box, pad], axis=1)
                    for j in range(len(names)):
                        wave[j * batch : (j + 1) * batch] += scale[j] * box
                    continue
                events = np.diff(level, axis=0)  # transitions at edges
                s_kern = step_kernel(cfg.fs, tap.rise_time)
            if not events.any():
                continue
            amps_tap = (events[:, None, :] * scale[None, :, None]).reshape(
                n_cycles, -1
            )
            wave += convolve(edge_times, amps_tap, s_kern)
        return {
            name: wave[j * batch : (j + 1) * batch]
            for j, name in enumerate(names)
        }

    # ------------------------------------------------------------------
    def _finish_receiver(
        self,
        name: str,
        wave: np.ndarray,
        include_noise: bool,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Probe attenuation and drift, noise and the scope for *name*."""
        rcv = self.chip.receivers[name]
        if rcv.external:
            wave = wave * self.scenario.probe_attenuation
            # Positional drift distorts the *signal* path (it scales
            # with the signal), so it applies regardless of the
            # additive-noise switch — the SNR calibration must see it
            # in the signal record exactly as a real bench would.
            drift = self.scenario.probe_drift_fraction
            if drift > 0:
                wave = wave + self._probe_drift(wave, drift, rng)

        if include_noise:
            override = self.scenario.noise_override_for(name)
            if override is not None:
                total_rms = float(override)
            else:
                env_rms = self.scenario.env_noise.emf_rms(rcv.effective_area)
                if rcv.external:
                    env_rms *= self.scenario.probe_env_factor
                th_rms = thermal_noise_rms(rcv.resistance, NOISE_BANDWIDTH)
                total_rms = float(np.hypot(env_rms, th_rms))
            wave = wave + self._noise_for(rcv, wave.shape, total_rms, rng)

        scope = self.scenario.oscilloscope
        if scope is not None:
            wave = scope.digitize(wave, self.chip.config.fs, rng)
        return wave

    def _probe_drift(
        self,
        wave: np.ndarray,
        fraction: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-trace smooth shape distortion of the external probe.

        Each batch row gets an independent band-limited (< ~2 MHz)
        random component whose RMS is *fraction* of that row's signal
        RMS — the trace-to-trace signature of probe repositioning.
        Proportional to the signal, it contributes almost nothing to
        the idle noise record, so the record-level SNR calibration is
        unaffected.
        """
        nyq = 0.5 * self.chip.config.fs
        b, a = _butter_lowpass(2, min(2e6 / nyq, 0.99))
        raw = rng.normal(size=wave.shape)
        smooth = _signal.lfilter(b, a, raw, axis=-1)
        row_rms = np.sqrt(np.mean(smooth**2, axis=-1, keepdims=True))
        row_rms[row_rms == 0] = 1.0
        target = fraction * np.sqrt(
            np.mean(wave**2, axis=-1, keepdims=True)
        )
        return smooth * (target / row_rms)

    def _noise_for(
        self,
        rcv: Receiver,
        shape: tuple[int, ...],
        total_rms: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Receiver noise record with the right spectral colour.

        The sensor's floor is white (coil thermal noise).  The external
        probe's floor is dominated by bench EMI concentrated below
        :data:`~repro.chip.scenario.PROBE_INBAND_CUTOFF`; the coloured
        part is synthesised by low-passing white noise and rescaling,
        so the record-level RMS still equals *total_rms* exactly as the
        SNR calibration assumes.
        """
        from repro.chip.scenario import PROBE_INBAND_CUTOFF

        frac = self.scenario.probe_inband_fraction if rcv.external else 0.0
        if total_rms == 0.0:
            return np.zeros(shape)
        if frac <= 0.0:
            return white_noise(rng, shape, total_rms)
        inband_rms = float(np.sqrt(frac)) * total_rms
        broad_rms = float(np.sqrt(max(0.0, 1.0 - frac))) * total_rms
        noise = white_noise(rng, shape, broad_rms)
        raw = rng.normal(size=shape)
        nyq = 0.5 * self.chip.config.fs
        b, a = _butter_lowpass(3, min(PROBE_INBAND_CUTOFF / nyq, 0.99))
        coloured = _signal.lfilter(b, a, raw, axis=-1)
        c_rms = float(np.sqrt(np.mean(coloured**2)))
        if c_rms > 0:
            noise = noise + coloured * (inband_rms / c_rms)
        return noise
