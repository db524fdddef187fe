"""Bench: the performance layer — EM kernels, acquisition, campaigns.

Timings (and speedups against the retained loop reference
implementations) for the hot paths every figure funnels through: the
Biot–Savart field solver, the Neumann mutual-inductance quadrature,
the netlist lowering, the cycle-by-cycle acquisition engine and its
activity fold — plus the parallel campaign runner.  Sizes mirror real use: a full-die field map is ~2000 power-grid
segments × a 40×40 surface grid, and the coil couples through a 64-side
spiral approximation.
"""

from __future__ import annotations

import copy
import hashlib
import os
import time
import tracemalloc
from functools import lru_cache

import numpy as np

from conftest import record_timing, run_once

from repro.chip.acquire import (
    FALL_CURRENT_FRACTION,
    RISE_CODE,
    AcquisitionEngine,
    EncryptionWorkload,
    _LaneColumns,
    _clock_sum,
    _lookup_codes,
)
from repro.chip.chip import Chip
from repro.chip.config import ChipConfig
from repro.chip.scenario import array_scenario
from repro.logic.activity import ActivityAccumulator
from repro.logic.simulator import CompiledNetlist, packed_words, unpack_bits
from repro.em.biot_savart import b_field_of_segments
from repro.em.mutual import mutual_inductance_to_loops
from repro.em.sensor import SensorArray
from repro.power.pulse import emf_kernel, step_kernel, synthesize_events
from repro.experiments import campaign_spec, run_campaigns
from tests.chip.reference_fold import ReferenceFoldEngine, dense_fold_matrix
from tests.logic.fold_oracle import level_run_fold
from tests.logic.kahn_reference import kahn_levels, reference_compile
from tests.em.reference_kernels import (
    b_field_of_segments_loop,
    mutual_inductance_to_loop_loop,
)
from tests.power.reference_synthesis import synthesize_events_fft

N_SEGMENTS = 2000
N_POINTS = 1600  # 40 x 40 surface grid


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _grid_geometry(rng: np.random.Generator):
    """Axis-aligned power-grid-like segments over a 2x2 mm die."""
    s = np.zeros((N_SEGMENTS, 3))
    s[:, 0] = rng.uniform(0.0, 2e-3, N_SEGMENTS)
    s[:, 1] = rng.uniform(0.0, 2e-3, N_SEGMENTS)
    e = s.copy()
    half = N_SEGMENTS // 2
    e[:half, 0] += 25e-6  # rail stubs along x
    e[half:, 1] += rng.choice([-1.0, 1.0], N_SEGMENTS - half) * 150e-6
    currents = rng.normal(size=N_SEGMENTS)
    gx, gy = np.meshgrid(np.linspace(0, 2e-3, 40), np.linspace(0, 2e-3, 40))
    points = np.stack(
        [gx.ravel(), gy.ravel(), np.full(gx.size, 10e-6)], axis=1
    )
    return s, e, currents, points


def test_biot_savart_kernel(benchmark):
    """Vectorised field solver ≥ 5× over the per-segment loop."""
    rng = np.random.default_rng(2020)
    s, e, currents, points = _grid_geometry(rng)

    field = run_once(benchmark, b_field_of_segments, s, e, currents, points)
    t_vec = _best_of(lambda: b_field_of_segments(s, e, currents, points))
    t_loop = _best_of(
        lambda: b_field_of_segments_loop(s, e, currents, points), repeats=1
    )
    reference = b_field_of_segments_loop(s, e, currents, points)

    speedup = t_loop / t_vec
    record_timing("biot_savart_loop_reference", t_loop, speedup=speedup)
    print(
        f"\nb_field_of_segments (N={N_SEGMENTS}, P={N_POINTS}): "
        f"{t_vec * 1e3:.0f} ms vs loop {t_loop * 1e3:.0f} ms "
        f"-> {speedup:.1f}x"
    )
    rel = np.max(np.abs(field - reference)) / np.max(np.abs(reference))
    assert rel <= 1e-12, rel
    assert speedup >= 5.0, speedup


def test_mutual_inductance_kernel(benchmark, chip):
    """Vectorised Neumann quadrature beats the per-coil-segment loop.

    A 64-side circle over synthetic rails, then the seed-1 chip's own
    power grid against its Manhattan spiral and against a 4x4 array,
    where the parallel-pair grouping skips the orthogonal pairs.  Every
    case must stay within 1e-12 of the loop reference.
    """
    rng = np.random.default_rng(2021)
    s, e, _currents, _points = _grid_geometry(rng)
    theta = np.linspace(0.0, 2.0 * np.pi, 65)
    coil = np.stack(
        [
            1e-3 + 4e-4 * np.cos(theta),
            1e-3 + 4e-4 * np.sin(theta),
            np.full(theta.size, 10e-6),
        ],
        axis=1,
    )

    m = run_once(benchmark, mutual_inductance_to_loops, s, e, [coil])[0]
    t_vec = _best_of(lambda: mutual_inductance_to_loops(s, e, [coil]))
    t_loop = _best_of(
        lambda: mutual_inductance_to_loop_loop(s, e, coil), repeats=1
    )
    reference = mutual_inductance_to_loop_loop(s, e, coil)

    speedup = t_loop / t_vec
    record_timing("mutual_inductance_loop_reference", t_loop, speedup=speedup)
    print(
        f"\nmutual_inductance_to_loops (N={N_SEGMENTS}, C=64): "
        f"{t_vec * 1e3:.0f} ms vs loop {t_loop * 1e3:.0f} ms "
        f"-> {speedup:.1f}x"
    )
    rel = np.max(np.abs(m - reference)) / np.max(np.abs(reference))
    assert rel <= 1e-12, rel
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    if not smoke:
        assert speedup >= 1.5, speedup

    cfg = chip.config
    array = SensorArray.design_grid(
        chip.floorplan.die,
        chip.tech,
        rows=4,
        cols=4,
        turns=cfg.sensor_array_turns,
        trace_width=cfg.sensor_array_trace_width,
        edge_margin=cfg.sensor_array_edge_margin,
    )
    # Smoke runs take every 8th grid segment.
    stride = 8 if smoke else 1
    gs, ge = chip.grid.seg_start[::stride], chip.grid.seg_end[::stride]
    cases = (
        ("mutual_spiral", [chip.sensor.polyline]),
        ("mutual_array4x4", [c.polyline for c in array.coils]),
    )
    for label, loops in cases:
        got = mutual_inductance_to_loops(gs, ge, loops)
        t_vec = _best_of(lambda: mutual_inductance_to_loops(gs, ge, loops))
        t0 = time.perf_counter()
        refs = [mutual_inductance_to_loop_loop(gs, ge, lp) for lp in loops]
        t_loop = time.perf_counter() - t0
        err = max(
            np.max(np.abs(row - ref)) / np.max(np.abs(ref))
            for row, ref in zip(got, refs)
        )
        record_timing(
            label, t_vec, loop_s=t_loop, speedup=t_loop / t_vec,
            segments=int(gs.shape[0]),
            coil_segments=int(sum(len(lp) - 1 for lp in loops)),
            max_rel_err=float(err), smoke=smoke,
        )
        print(
            f"\n{label} ({gs.shape[0]} grid segments x {len(loops)} coils): "
            f"{t_vec * 1e3:.0f} ms vs loop {t_loop * 1e3:.0f} ms; "
            f"max rel err {err:.1e}"
        )
        assert err <= 1e-12, (label, err)


def test_netlist_compile_kernel(benchmark, chip):
    """Array lowering of the seed-1 chip against the dict-walking Kahn
    oracle: same levels, output indices and schedule, timed."""
    netlist = chip.netlist
    sim = run_once(benchmark, CompiledNetlist, netlist)
    ref = reference_compile(netlist)
    assert np.array_equal(sim.instance_levels, ref.instance_levels)
    assert np.array_equal(sim.instance_out_idx, ref.instance_out_idx)
    assert len(sim._schedule) == len(ref.schedule)
    for group, (_fn, in_idx, out_idx) in zip(sim._schedule, ref.schedule):
        assert np.array_equal(group.out_idx, out_idx)
        assert all(map(np.array_equal, group.in_idx, in_idx))
    t_compile = _best_of(lambda: CompiledNetlist(netlist))
    t_oracle = _best_of(lambda: reference_compile(netlist))
    t_levels = _best_of(netlist.levelize)
    t_kahn = _best_of(lambda: kahn_levels(netlist))
    record_timing(
        "compile_lowering", t_compile, oracle_s=t_oracle,
        speedup=t_oracle / t_compile, levelize_s=t_levels, kahn_s=t_kahn,
        instances=sim.num_instances, levels=sim.max_level + 1,
        groups=len(sim._schedule),
    )
    print(
        f"\nCompiledNetlist ({sim.num_instances} instances, "
        f"{len(sim._schedule)} groups): {t_compile * 1e3:.0f} ms vs oracle "
        f"{t_oracle * 1e3:.0f} ms; levelize {t_levels * 1e3:.0f} ms vs "
        f"Kahn {t_kahn * 1e3:.0f} ms"
    )


def test_acquisition_engine(benchmark, chip, sim_scenario):
    """Cycle loop throughput at a realistic campaign size."""
    engine = AcquisitionEngine(chip, sim_scenario)
    workload = EncryptionWorkload(chip.aes, b"\x2b" * 16, period=12)
    result = run_once(
        benchmark,
        engine.acquire,
        workload,
        n_cycles=120,
        batch=32,
        rng_role="bench/acquire",
    )
    assert set(result.traces) == set(chip.receivers)
    print(
        f"\nacquire (120 cycles x batch 32): "
        f"{benchmark.stats.stats.mean:.2f} s"
    )


def test_packed_backend_speedup(benchmark, chip, sim_scenario):
    """Lane-word acquisition: reproducible bits, within 1e-5 of the
    dense reference fold and ≥4× faster than it.

    Sensor-only and noise-free so the measurement isolates the cycle
    loop + activity fold the lane words target.  A second acquisition
    must repeat the first bit for bit, and the per-cycle float64
    reference (:class:`ReferenceFoldEngine`) must agree to 1e-5 of the
    trace peak.  With ``REPRO_BENCH_SMOKE=1`` (the CI smoke job) a small
    configuration runs instead and only those two checks are enforced.
    """
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    batch = 64 if smoke else 256
    n_cycles = 48 if smoke else 120
    engine = AcquisitionEngine(chip, sim_scenario)
    kw = dict(
        n_cycles=n_cycles,
        batch=batch,
        receivers=("sensor",),
        include_noise=False,
        rng_role="bench/packed",
    )

    def acquire(on=engine):
        return on.acquire(
            EncryptionWorkload(chip.aes, b"\x2b" * 16, period=12), **kw
        )

    packed = run_once(benchmark, acquire)
    t0 = time.perf_counter()
    again = acquire()
    t_packed = min(time.perf_counter() - t0, benchmark.stats.stats.mean)
    reference = ReferenceFoldEngine(chip, sim_scenario)
    t0 = time.perf_counter()
    ref = acquire(on=reference)
    t_reference = time.perf_counter() - t0

    assert np.array_equal(
        packed.traces["sensor"], again.traces["sensor"]
    ), "rerun diverged"
    trace, want = packed.traces["sensor"], ref.traces["sensor"]
    err = np.max(np.abs(trace - want)) / np.max(np.abs(want))
    assert err < 1e-5, err

    speedup = t_reference / t_packed
    record_timing(
        "packed_backend_reference",
        t_reference,
        speedup=speedup,
        batch=batch,
        n_cycles=n_cycles,
        smoke=smoke,
    )
    print(
        f"\npacked acquire ({n_cycles} cycles x batch {batch}): "
        f"{t_packed:.2f} s vs reference {t_reference:.2f} s "
        f"-> {speedup:.1f}x"
    )
    if not smoke:
        assert speedup >= 4.0, speedup


@lru_cache(maxsize=1)
def _array_engine() -> AcquisitionEngine:
    """Engine of the seed-1 4x4 array chip (built once per session)."""
    chip = Chip.build(
        config=ChipConfig(sensor_array_rows=4, sensor_array_cols=4), seed=1
    )
    return AcquisitionEngine(chip, array_scenario(4, 4, seed=1))


def _fold_block(engine, batch: int, cycles: int, warmup: int = 8):
    """``cycles`` AES cycles of toggle and rise lane words after
    *warmup*, level-ordered and cycle-major ``(cycles, insts, words)``,
    as the engine's cycle loop buffers them."""
    sim = engine.chip.sim
    order = engine.fold_plan.level_order
    workload = EncryptionWorkload(engine.chip.aes, b"\x2b" * 16, period=12)
    workload.begin(batch, np.random.default_rng(2024))
    state = sim.reset(batch=batch, inputs=workload.inputs(0, batch))
    shape = (cycles, sim.num_instances, packed_words(batch))
    tog, ris = np.empty(shape, dtype="<u8"), np.empty(shape, dtype="<u8")
    for k in range(1, warmup + cycles + 1):
        toggles = sim.step(state, workload.inputs(k, batch))
        if k > warmup:
            rising = toggles & sim.output_values(state)
            np.take(toggles, order, axis=0, out=tog[k - warmup - 1])
            np.take(rising, order, axis=0, out=ris[k - warmup - 1])
    return tog, ris


def test_level_fold_kernel(benchmark):
    """Live-row fold vs the tests-side dense level-run oracle.

    One 256-column block (8 AES cycles x batch 32) of the seed-1 4x4
    array chip, folded for its 16 coils and for one coil.  The live-row
    fold reads the block's lane words through the engine's column
    source (:class:`_LaneColumns`), so its time includes finding the
    live rows, looking up their codes and gathering their weights.
    The oracle (:func:`tests.logic.fold_oracle.level_run_fold`) folds
    every row, level run by level run, as the engine did before it
    skipped idle rows: ``oracle_s`` looks up each run's codes from the
    lane words as it goes, ``fold_only_s`` gets every code already
    materialised and times the fold alone.  Both
    folds are exact, so they must agree byte for byte, and both must
    match the dense ``(receivers x levels, insts) @ (insts, cols)``
    float64 product of the unrounded weights and
    ``toggles * 0.35 + rising * 0.65`` to 1e-5 of each receiver's
    largest frame value.
    """
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    engine = _array_engine()
    chip = engine.chip
    batch, cycles = 32, 8
    tog_words, ris_words = _fold_block(engine, batch, cycles)
    n_inst = chip.sim.num_instances
    # The dense reference reads instance-ordered (insts, cols) masks.
    inverse = np.argsort(engine.fold_plan.level_order)
    tog, ris = (
        unpack_bits(w[:, inverse], batch).transpose(1, 0, 2)
        .reshape(n_inst, cycles * batch)
        for w in (tog_words, ris_words)
    )
    weighted = tog * FALL_CURRENT_FRACTION + ris * (1.0 - FALL_CURRENT_FRACTION)
    levels = chip.sim.instance_levels
    coils = chip.receiver_groups["array"]
    repeats = 2 if smoke else 5
    lanes = _LaneColumns(tog_words, ris_words, batch)
    live_share = lanes.live_rows().size / (cycles * n_inst)
    n_bytes = -(-batch // 8)

    def live_fold(accs):
        for acc in accs:
            acc.clear()
        ActivityAccumulator.record_all_blocks(accs, lanes, cycles, batch)
        return np.stack([acc.result() for acc in accs])

    tog_bytes = tog_words.view(np.uint8)[..., :n_bytes]
    ris_bytes = ris_words.view(np.uint8)[..., :n_bytes]
    codes = np.empty((cycles, n_inst, batch))
    _lookup_codes(
        tog_bytes, ris_bytes, np.empty(tog_bytes.shape, np.uint16), codes
    )

    class LaneSlices:
        """``[:, lo:hi]`` looks up rows ``lo:hi`` of every cycle."""

        shape = codes.shape

        def __getitem__(self, key):
            rows = key[1]
            out = np.empty((cycles, rows.stop - rows.start, batch))
            _lookup_codes(
                tog_bytes[:, rows], ris_bytes[:, rows],
                np.empty(out.shape[:2] + (n_bytes,), np.uint16), out,
            )
            return out

    def oracle(accs, columns=LaneSlices()):
        return np.stack(level_run_fold(accs, columns))

    for label, names in (("fold_live_16", coils), ("fold_live_1", coils[:1])):
        accs = engine.fold_accumulators(names)
        dense = np.vstack([
            dense_fold_matrix(acc.weights * RISE_CODE, levels) for acc in accs
        ])
        ref = (dense @ weighted).reshape(len(names), -1, cycles, batch)
        ref = ref.transpose(0, 2, 1, 3)
        got = live_fold(accs)
        assert got.tobytes() == oracle(accs).tobytes(), label
        t_live = _best_of(lambda: live_fold(accs), repeats)
        t_oracle = _best_of(lambda: oracle(accs), repeats)
        t_fold_only = _best_of(lambda: oracle(accs, codes), repeats)
        err = max(
            np.max(np.abs(g - r)) / np.max(np.abs(r))
            for g, r in zip(got, ref)
        )
        record_timing(
            label, t_live, oracle_s=t_oracle, speedup=t_oracle / t_live,
            fold_only_s=t_fold_only,
            receivers=len(names), insts=n_inst,
            levels=int(levels.max()) + 1, cols=cycles * batch,
            live_share=float(live_share), max_rel_err=float(err),
            smoke=smoke,
        )
        print(
            f"\n{label} ({len(names)} receivers, {cycles * batch} cols, "
            f"{live_share:.0%} rows live): {t_live * 1e3:.1f} ms vs oracle "
            f"{t_oracle * 1e3:.1f} ms -> {t_oracle / t_live:.1f}x, "
            f"max rel err {err:.1e}"
        )
        assert err < 1e-5, (label, err)
    run_once(benchmark, live_fold, accs)


def test_clock_amplitude_kernel(benchmark):
    """Per-register clock ``einsum`` vs the engine's enable-net product.

    16 coils of the seed-1 4x4 array chip, 36 AES cycles at batch 32.
    The einsum reduces the ``(cycles, registers, lanes)`` bool
    clock-enable tensor once per coil with the unrounded weights, as
    acquisition did before; the engine sums grid-rounded weights by
    enable net once and computes every coil's amplitudes as one
    ``(coils, nets) @ (nets, cycles * lanes)`` product over the
    recorded enable nets (:func:`repro.chip.acquire._clock_sum`,
    including the bool-to-float conversion of the recorded nets).  The
    two must agree to 1e-10 of the largest amplitude.
    """
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    engine = _array_engine()
    chip, sim = engine.chip, engine.chip.sim
    batch, cycles = 32, 36
    seq = sim.seq_instance_idx
    clock_nets = list(engine._clock_nets.values())
    workload = EncryptionWorkload(chip.aes, b"\x2b" * 16, period=12)
    workload.begin(batch, np.random.default_rng(2024))
    state = sim.reset(batch=batch, inputs=workload.inputs(0, batch))
    clock_en = np.empty((cycles, seq.size, batch), dtype=bool)
    recorded = np.empty((len(clock_nets), cycles, batch), dtype=bool)
    for k in range(1, cycles + 1):
        clock_en[k - 1] = unpack_bits(sim.clock_enable_values(state), batch)
        recorded[:, k - 1] = sim.read_bus_bits(state, clock_nets)
        sim.step(state, workload.inputs(k, batch))

    coils = chip.receiver_groups["array"]
    scale = engine._charge_scale[seq]
    w_seq = [
        chip.receivers[n].cell_coupling[seq] * chip.q_clock[seq] * scale
        for n in coils
    ]
    grids = [engine._clock_grid[n] for n in coils]
    steps = np.array([step for step, _ in grids])
    units = np.stack([u for _, u in grids])

    def einsum():
        return np.stack([np.einsum("s,csb->cb", w, clock_en) for w in w_seq])

    def enable_nets():
        enables = recorded.astype(np.float64).reshape(len(clock_nets), -1)
        return _clock_sum(steps, units, enables).reshape(-1, cycles, batch)

    ref, got = einsum(), enable_nets()
    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    repeats = 2 if smoke else 5
    t_nets = _best_of(enable_nets, repeats)
    t_einsum = _best_of(einsum, repeats)
    record_timing(
        "clock_amplitudes_16", t_nets, einsum_s=t_einsum,
        speedup=t_einsum / t_nets, receivers=len(coils),
        registers=int(seq.size), nets=len(clock_nets), cycles=cycles,
        batch=batch, max_rel_err=float(err), smoke=smoke,
    )
    print(
        f"\nclock amplitudes ({len(coils)} coils, {seq.size} registers, "
        f"{len(clock_nets)} enable nets, {cycles} cycles x batch {batch}): "
        f"{t_nets * 1e3:.2f} ms vs einsum {t_einsum * 1e3:.1f} ms "
        f"-> {t_einsum / t_nets:.0f}x, max rel err {err:.1e}"
    )
    assert err <= 1e-10, err
    run_once(benchmark, enable_nets)


def _traced_peak_mb(fn) -> float:
    """Peak traced heap [MB] of one call of *fn* above its start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_event_synthesis_kernel(benchmark):
    """Direct short-kernel event synthesis vs the dense FFT oracle.

    The 16-coil array group at batch 32 (512 columns) over 36 cycles
    of 100 samples plus one: the data and clock train of
    ``AcquisitionEngine._synthesize_group`` (19 delay levels staggered
    by the gate delay after each edge, plus the edge's clock event:
    720 events) with the 3-tap emf kernel, and T2's leak tap (one event
    per edge) with the 13-tap step kernel of its 5 ns rise.  The direct
    synthesis must stay within 1e-12 of the oracle's peak.
    """
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    cfg = ChipConfig()
    cycles, levels, columns = 36, 19, 512
    n_samples = (cycles + 1) * cfg.samples_per_cycle
    edges = (np.arange(cycles) + 1) * cfg.t_clk
    data = (edges[:, None] + np.arange(levels) * cfg.gate_delay).reshape(-1)
    rng = np.random.default_rng(23)
    cases = (
        ("synth_emf", np.concatenate([data, edges]),
         emf_kernel(cfg.fs, cfg.pulse_width)),
        ("synth_step13", edges, step_kernel(cfg.fs, 5e-9)),
    )
    repeats = 2 if smoke else 5
    for label, times, kern in cases:
        amps = rng.normal(size=(times.size, columns))
        args = (times, amps, kern, n_samples, cfg.fs)
        got = synthesize_events(*args)
        ref = synthesize_events_fft(*args)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        t_direct = _best_of(lambda: synthesize_events(*args), repeats)
        t_fft = _best_of(lambda: synthesize_events_fft(*args), repeats)
        mb_direct = _traced_peak_mb(lambda: synthesize_events(*args))
        mb_fft = _traced_peak_mb(lambda: synthesize_events_fft(*args))
        record_timing(
            label, t_direct, fft_s=t_fft, speedup=t_fft / t_direct,
            events=int(times.size), columns=columns, samples=n_samples,
            taps=len(kern), peak_mb=mb_direct, fft_peak_mb=mb_fft,
            max_rel_err=float(err), smoke=smoke,
        )
        print(
            f"\n{label} ({times.size} events x {columns} columns x "
            f"{n_samples} samples, {len(kern)} taps): "
            f"{t_direct * 1e3:.1f} ms vs FFT {t_fft * 1e3:.1f} ms -> "
            f"{t_fft / t_direct:.1f}x; traced peak {mb_direct:.1f} vs "
            f"{mb_fft:.1f} MB; max rel err {err:.1e}"
        )
        assert err <= 1e-12, (label, err)
    run_once(benchmark, synthesize_events, *args)


class _Replay:
    """Stimulus that logs a workload's per-cycle inputs on first use and
    replays the log afterwards, so one acquisition's cycle loop can be
    rerun on the same stimulus."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._log: dict[int, object] = {}

    def inputs(self, cycle: int, batch: int):
        if cycle not in self._log:
            self._log[cycle] = self._inner.inputs(cycle, batch)
        return self._log[cycle]


def _loop_digest(accs, recorded: np.ndarray) -> str:
    """SHA-256 of a cycle loop's folded frames and recorded nets."""
    digest = hashlib.sha256()
    for acc in accs:
        digest.update(acc.result().tobytes())
    digest.update(recorded.tobytes())
    return digest.hexdigest()


def _capture_cycle_loop(engine, batch: int, n_cycles: int) -> dict:
    """Acquire once and keep what its cycle loop was handed — the reset
    state, the stimulus (as a :class:`_Replay`), the accumulators and
    the watched nets — plus the digest of what the loop produced."""
    captured: dict = {}
    loop = engine._run_cycles_blocked

    def spy(state, workload, cycles, lanes, accs, watch_idx):
        replay = _Replay(workload)
        captured.update(
            state=copy.deepcopy(state), workload=replay, accs=accs,
            watch_idx=watch_idx,
        )
        recorded = loop(state, replay, cycles, lanes, accs, watch_idx)
        captured["digest"] = _loop_digest(accs, recorded)
        return recorded

    engine._run_cycles_blocked = spy
    try:
        engine.acquire(
            EncryptionWorkload(engine.chip.aes, b"\x2b" * 16, period=12),
            n_cycles=n_cycles, batch=batch, include_noise=False,
            rng_role="bench/cycle_loop",
        )
    finally:
        del engine._run_cycles_blocked
    return captured


def test_cycle_loop_kernel(benchmark, chip, sim_scenario):
    """The acquisition cycle loop alone: step, lane buffering and fold.

    Batches 8 and 32 on the seed-1 chip, all receivers.  The loop
    :meth:`AcquisitionEngine.acquire` ran is captured with its inputs
    and rerun on a copy of its reset state and replayed stimulus, so
    the timing covers exactly ``_run_cycles_blocked`` — each cycle's
    ``step``, the level-ordered toggle and rise buffer writes and the
    block flushes through the level fold.  Every rerun must reproduce
    the folded frames and recorded nets of the acquisition bit for bit.
    The cycle counts end on a partial block at batch 8 (32 cycles per
    block).
    """
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    n_cycles = 40 if smoke else 104
    repeats = 2 if smoke else 5
    engine = AcquisitionEngine(chip, sim_scenario)

    def rerun(cap, batch):
        state = copy.deepcopy(cap["state"])
        for acc in cap["accs"]:
            acc.clear()
        t0 = time.perf_counter()
        recorded = engine._run_cycles_blocked(
            state, cap["workload"], n_cycles, batch, cap["accs"],
            cap["watch_idx"],
        )
        return time.perf_counter() - t0, _loop_digest(cap["accs"], recorded)

    for batch in (8, 32):
        cap = _capture_cycle_loop(engine, batch, n_cycles)
        times = []
        for _ in range(repeats):
            seconds, digest = rerun(cap, batch)
            assert digest == cap["digest"], (batch, "rerun diverged")
            times.append(seconds)
        t_loop = min(times)
        record_timing(
            f"cycle_loop_b{batch}", t_loop,
            ms_per_cycle=t_loop / n_cycles * 1e3, batch=batch,
            n_cycles=n_cycles, receivers=len(cap["accs"]),
            insts=chip.sim.num_instances, digest=cap["digest"],
            smoke=smoke,
        )
        print(
            f"\ncycle loop ({n_cycles} cycles x batch {batch}, "
            f"{len(cap['accs'])} receivers): {t_loop * 1e3:.0f} ms, "
            f"{t_loop / n_cycles * 1e3:.2f} ms per cycle"
        )
    run_once(benchmark, rerun, cap, batch)


def test_parallel_campaign_sweep(benchmark, chip, sim_scenario):
    """4-campaign Trojan sweep: parallel output identical to serial."""
    trojans = ("trojan1", "trojan2", "trojan3", "trojan4")
    specs = [
        campaign_spec(
            name,
            "ed",
            chip,
            sim_scenario,
            n_traces=48,
            batch=16,
            trojan_enables=(name,),
            receivers=("sensor",),
            rng_role=f"bench/{name}",
        )
        for name in trojans
    ]

    t0 = time.perf_counter()
    serial = run_campaigns(specs, workers=1)
    t_serial = time.perf_counter() - t0

    parallel = run_once(benchmark, run_campaigns, specs, workers=4)
    t_parallel = benchmark.stats.stats.mean

    speedup = t_serial / t_parallel
    record_timing(
        "campaign_sweep_serial",
        t_serial,
        speedup=speedup,
        workers=4,
        cpu_count=os.cpu_count(),
    )
    print(
        f"\n4-campaign sweep: serial {t_serial:.1f} s, "
        f"4 workers {t_parallel:.1f} s -> {speedup:.1f}x "
        f"({os.cpu_count()} CPUs)"
    )
    for name in trojans:
        assert np.array_equal(
            serial[name]["sensor"], parallel[name]["sensor"]
        ), name
    # The fan-out can only beat the serial loop when the machine has
    # cores to fan onto.  On a single-CPU host run_campaigns degrades
    # to the serial loop on its own (a pool there measured 0.79× of
    # serial), so the "speedup" must sit near 1.0 — anything well below
    # means the auto-degrade regressed and pool overhead leaked back in.
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, speedup
    elif (os.cpu_count() or 1) >= 2:
        assert speedup >= 1.2, speedup
    else:
        assert speedup >= 0.85, speedup
