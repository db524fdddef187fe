"""Bench: the performance layer — EM kernels, acquisition, campaigns.

Timings (and speedups against the retained loop reference
implementations) for the hot paths every figure funnels through: the
Biot–Savart field solver, the Neumann mutual-inductance quadrature,
the cycle-by-cycle acquisition engine and its activity fold — plus the
parallel campaign runner.  Sizes mirror real use: a full-die field map is ~2000 power-grid
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
    FALL_CODE,
    FALL_CURRENT_FRACTION,
    RISE_CODE,
    AcquisitionEngine,
    EncryptionWorkload,
    _clock_sum,
)
from repro.chip.chip import Chip
from repro.chip.config import ChipConfig
from repro.chip.scenario import array_scenario
from repro.logic.activity import ActivityAccumulator
from repro.logic.simulator import unpack_bits
from repro.em.biot_savart import b_field_of_segments
from repro.em.mutual import mutual_inductance_to_loops
from repro.power.pulse import emf_kernel, step_kernel, synthesize_events
from repro.experiments import campaign_spec, run_campaigns
from tests.chip.reference_fold import ReferenceFoldEngine, dense_fold_matrix
from tests.logic.representation import representation
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


def test_mutual_inductance_kernel(benchmark):
    """Vectorised Neumann quadrature beats the per-coil-segment loop."""
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
    assert speedup >= 1.5, speedup


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
    """Bit-sliced representation: exact bool equality, ≥4× over the
    reference.

    Sensor-only and noise-free so the measurement isolates the cycle
    loop + activity fold the bit-sliced representation targets.  The
    bool run at the same batch moves ``PACKED_BATCH_THRESHOLD`` above
    it.  With
    ``REPRO_BENCH_SMOKE=1`` (the CI smoke job) a small configuration
    runs instead and only the packed-vs-bool equality is enforced.
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

    def acquire(kind="packed", on=engine):
        with representation(kind):
            return on.acquire(
                EncryptionWorkload(chip.aes, b"\x2b" * 16, period=12),
                **kw,
            )

    packed = run_once(benchmark, acquire)
    t_packed = _best_of(acquire, repeats=1)
    t_packed = min(t_packed, benchmark.stats.stats.mean)
    boolr = acquire("bool")
    reference = ReferenceFoldEngine(chip, sim_scenario)
    t_reference = _best_of(lambda: acquire(on=reference), repeats=1)

    assert np.array_equal(
        packed.traces["sensor"], boolr.traces["sensor"]
    ), "packed representation diverged from bool"

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


def _fold_block(chip, batch: int, cycles: int, warmup: int = 8):
    """``cycles`` AES cycles of toggle and rising masks after *warmup*,
    as ``(insts, cycles * batch)`` cycle-major column blocks."""
    sim = chip.sim
    workload = EncryptionWorkload(chip.aes, b"\x2b" * 16, period=12)
    workload.begin(batch, np.random.default_rng(2024))
    state = sim.reset(batch=batch, inputs=workload.inputs(0, batch))
    tog, ris = [], []
    for k in range(1, warmup + cycles + 1):
        toggles = sim.step(state, workload.inputs(k, batch))
        if k > warmup:
            tog.append(unpack_bits(toggles, batch))
            ris.append(unpack_bits(toggles & sim.output_values(state), batch))
    return np.hstack(tog), np.hstack(ris)


def test_level_fold_kernel(benchmark):
    """Level fold vs the tests-side dense float64 reference fold.

    One 256-column block (8 AES cycles x batch 32) of the seed-1 4x4
    array chip, folded for its 16 coils and for one coil.  The level
    fold gets the engine's inputs — level-ordered, cycle-major integer
    activity codes and weights per code unit — already materialised,
    so both sides time the fold alone; it must match the dense
    ``(receivers x levels, insts) @ (insts, cols)`` float64 product of
    the unrounded weights and ``toggles * 0.35 + rising * 0.65`` to
    1e-5 of each receiver's largest frame value.
    """
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    engine = _array_engine()
    chip = engine.chip
    batch, cycles = 32, 8
    tog, ris = _fold_block(chip, batch, cycles)
    codes = FALL_CODE * (tog & ~ris) + RISE_CODE * ris.astype(np.float64)
    weighted = tog * FALL_CURRENT_FRACTION + ris * (1.0 - FALL_CURRENT_FRACTION)
    levels = chip.sim.instance_levels
    coils = chip.receiver_groups["array"]
    repeats = 2 if smoke else 5

    def level_fold(accs, columns):
        for acc in accs:
            acc.clear()
        ActivityAccumulator.record_all_blocks(accs, columns, cycles, batch)
        return np.stack([acc.result() for acc in accs])

    for label, names in (("fold_level_16", coils), ("fold_level_1", coils[:1])):
        accs = [ActivityAccumulator(engine._w_data[n], levels) for n in names]
        columns = np.ascontiguousarray(
            codes[accs[0].level_order]
            .reshape(-1, cycles, batch)
            .transpose(1, 0, 2)
        )
        dense = np.vstack([
            dense_fold_matrix(engine._w_data[n] * RISE_CODE, levels)
            for n in names
        ])
        ref = (dense @ weighted).reshape(len(names), -1, cycles, batch)
        ref = ref.transpose(0, 2, 1, 3)
        got = level_fold(accs, columns)
        t_level = _best_of(lambda: level_fold(accs, columns), repeats)
        t_dense = _best_of(lambda: dense @ weighted, repeats)
        err = max(
            np.max(np.abs(g - r)) / np.max(np.abs(r))
            for g, r in zip(got, ref)
        )
        record_timing(
            label, t_level, dense_s=t_dense, speedup=t_dense / t_level,
            receivers=len(names), insts=chip.sim.num_instances,
            levels=int(levels.max()) + 1, cols=cycles * batch,
            max_rel_err=float(err), smoke=smoke,
        )
        print(
            f"\n{label} ({len(names)} receivers, {cycles * batch} cols): "
            f"{t_level * 1e3:.1f} ms vs dense {t_dense * 1e3:.1f} ms "
            f"-> {t_dense / t_level:.1f}x, max rel err {err:.1e}"
        )
        assert err < 1e-5, (label, err)
    run_once(benchmark, level_fold, accs, columns)


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
    the folded frames and recorded nets of the acquisition bit for bit,
    and so must an acquisition on the bool representation (reached by
    moving ``PACKED_BATCH_THRESHOLD`` above the batch).  The cycle
    counts end on a partial block at batch 8 (32 cycles per block).
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
        with representation("bool"):
            cap_bool = _capture_cycle_loop(engine, batch, n_cycles)
        assert cap_bool["digest"] == cap["digest"], (batch, "packed != bool")
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
