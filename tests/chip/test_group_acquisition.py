"""Lane-packed group acquisition must match solo acquisitions exactly.

``acquire_group`` packs several same-netlist campaigns (golden vs the
Trojan variants) into one stepping pass and one blocked activity fold;
because every per-member RNG stream is derived exactly as the solo
``acquire`` call derives it, each member's traces, recorded nets and
plaintext log must be **bit-identical** to its solo acquisition —
including ragged (non-uniform, non-word-aligned) batch sizes.  A solo
``acquire`` is itself a lane group of one: it runs the same body
without going through ``acquire_group``.
"""

import numpy as np
import pytest

from repro.chip import AcquisitionEngine, EncryptionWorkload, GroupMember
from repro.chip.acquire import IdleWorkload
from repro.errors import MeasurementError, SimulationError
from repro.logic.simulator import lane_slices
from repro.obs import use_metrics
from tests.chip.bool_engine import engine_for

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture(scope="module")
def engine(chip, sim_scenario):
    return AcquisitionEngine(chip, sim_scenario)


def _member(chip, name, batch, trojans=()):
    return GroupMember(
        name=name,
        workload=EncryptionWorkload(chip.aes, KEY),
        batch=batch,
        trojan_enables=trojans,
        rng_role=f"group-eq/{name}",
    )


def _solo(chip, engine, name, batch, trojans=(), n_cycles=48, **kw):
    return engine.acquire(
        EncryptionWorkload(chip.aes, KEY),
        n_cycles=n_cycles,
        batch=batch,
        trojan_enables=trojans,
        rng_role=f"group-eq/{name}",
        **kw,
    )


@pytest.mark.parametrize("kind", ("bool", "packed"))
def test_ragged_group_matches_solo_acquisitions(chip, engine, kind):
    """Golden + three Trojans, ragged batches: each member's lanes of the
    33-lane, two-word group, its logic stepped on ``kind``, equal its
    solo acquisition at its own batch."""
    specs = [
        ("golden", (), 8),
        ("t1", ("trojan1",), 8),
        ("t2", ("trojan2",), 12),
        ("a2", ("a2",), 5),
    ]
    members = [_member(chip, n, b, tr) for n, tr, b in specs]
    group = engine_for(kind, engine).acquire_group(
        members,
        n_cycles=48,
        record_nets={"busy": chip.aes.busy},
    )
    assert list(group) == [m.name for m in members]
    for (name, trojans, batch), member in zip(specs, members):
        solo = _solo(chip, engine, name, batch, trojans,
                     record_nets={"busy": chip.aes.busy})
        got = group[name]
        assert got.n_cycles == solo.n_cycles
        assert got.samples_per_cycle == solo.samples_per_cycle
        for rcv in solo.traces:
            assert got.traces[rcv].shape == (batch, solo.n_samples)
            assert np.array_equal(got.traces[rcv], solo.traces[rcv]), (
                name, rcv,
            )
        for label in solo.recorded:
            assert np.array_equal(
                got.recorded[label], solo.recorded[label]
            ), (name, label)
        # The stimulus stream is the solo stream, plaintext for
        # plaintext — the lane pack changed the compute layout only.
        solo_pts = _solo_plaintexts(chip, name, batch)
        assert len(member.workload.plaintexts) == len(solo_pts)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(member.workload.plaintexts, solo_pts)
        )


def _solo_plaintexts(chip, name, batch):
    from repro.rng import derive

    wl = EncryptionWorkload(chip.aes, KEY)
    wl.begin(batch, derive(chip.seed, f"group-eq/{name}/workload"))
    for cycle in range(49):
        wl.inputs(cycle, batch)
    return wl.plaintexts


class _SparseWorkload(EncryptionWorkload):
    """Encryptions that drive only the start pin on odd cycles."""

    def inputs(self, cycle: int, batch: int):
        stim = super().inputs(cycle, batch)
        if stim is not None and cycle % 2:
            return {self.aes.start: stim[self.aes.start]}
        return stim


def test_mixed_workload_group(chip, engine):
    """Idle, encrypting and sparsely driving members share one pass: an
    input a member does not drive holds on its lanes, so each member
    equals its solo acquisition byte for byte."""
    members = [
        GroupMember(
            name="idle", workload=IdleWorkload(), batch=4,
            rng_role="mixed/idle",
        ),
        _member(chip, "busy", 4),
        GroupMember(
            name="sparse",
            workload=_SparseWorkload(chip.aes, KEY, period=13),
            batch=3,
            trojan_enables=("trojan2",),
            rng_role="mixed/sparse",
        ),
    ]
    record = {"busy": chip.aes.busy, "start": chip.aes.start}
    group = engine.acquire_group(members, n_cycles=40, record_nets=record)
    solos = {
        "idle": engine.acquire(
            IdleWorkload(), n_cycles=40, batch=4, record_nets=record,
            rng_role="mixed/idle",
        ),
        "busy": _solo(chip, engine, "busy", 4, n_cycles=40,
                      record_nets=record),
        "sparse": engine.acquire(
            _SparseWorkload(chip.aes, KEY, period=13), n_cycles=40,
            batch=3, trojan_enables=("trojan2",), record_nets=record,
            rng_role="mixed/sparse",
        ),
    }
    assert group["busy"].recorded["busy"].any()
    assert not group["idle"].recorded["busy"].any()
    for name, solo in solos.items():
        got = group[name]
        for rcv in solo.traces:
            assert np.array_equal(got.traces[rcv], solo.traces[rcv]), (
                name, rcv,
            )
        for label in record:
            assert np.array_equal(
                got.recorded[label], solo.recorded[label]
            ), (name, label)


def test_group_validation(chip, engine):
    with pytest.raises(MeasurementError):
        engine.acquire_group([], n_cycles=16)
    with pytest.raises(MeasurementError):
        engine.acquire_group(
            [_member(chip, "a", 4), _member(chip, "a", 4)], n_cycles=16
        )
    wl = EncryptionWorkload(chip.aes, KEY)
    shared = [
        GroupMember(name="a", workload=wl, batch=4),
        GroupMember(name="b", workload=wl, batch=4),
    ]
    with pytest.raises(MeasurementError):
        engine.acquire_group(shared, n_cycles=16)
    with pytest.raises(MeasurementError):
        engine.acquire_group(
            [_member(chip, "a", 4, ("nosuch",))], n_cycles=16
        )
    # Bad batch sizes raise the same typed error from both fronts.
    for batch in (0, -1):
        with pytest.raises(MeasurementError, match="batch"):
            engine.acquire(
                EncryptionWorkload(chip.aes, KEY), n_cycles=16, batch=batch
            )
    with pytest.raises(MeasurementError, match="batch"):
        engine.acquire_group(
            [_member(chip, "a", 4), _member(chip, "b", 0)], n_cycles=16
        )

    # Empty or repeated receivers and unknown recorded nets raise a
    # typed error from both fronts, before a single cycle is stepped.
    bad_arguments = [
        (dict(receivers=()), "at least one receiver"),
        (dict(receivers=("sensor", "sensor")), "repeats.*'sensor'"),
        (dict(receivers=("sensor", "probe", "probe")), "repeats.*'probe'"),
        (dict(record_nets={"bogus": "no_such_net"}), "'bogus'.*'no_such_net'"),
    ]
    # Labels the engine keeps for its own tap and clock-enable nets would
    # be overwritten by them or dropped from the result.
    for label in ("__tap0_net", "__tap0_gate", "__clk0", "__clkx", "__tapx"):
        bad_arguments.append((
            dict(record_nets={"busy": chip.aes.busy, label: chip.aes.busy}),
            f"{label!r} is reserved",
        ))
    with use_metrics() as metrics:
        for kwargs, match in bad_arguments:
            with pytest.raises(MeasurementError, match=match):
                engine.acquire(
                    EncryptionWorkload(chip.aes, KEY), n_cycles=16, batch=4,
                    **kwargs,
                )
            with pytest.raises(MeasurementError, match=match):
                engine.acquire_group(
                    [_member(chip, "a", 4), _member(chip, "b", 3)],
                    n_cycles=16,
                    **kwargs,
                )
    assert "acquire.cycles" not in metrics.snapshot()["counters"]


def test_solo_with_workload_role_equals_group_of_one(chip, engine):
    kw = dict(n_cycles=32, record_nets={"busy": chip.aes.busy})
    solo = engine.acquire(
        EncryptionWorkload(chip.aes, KEY),
        batch=6,
        trojan_enables=("trojan1",),
        rng_role="solo-eq/noise",
        workload_role="solo-eq/stimulus",
        **kw,
    )
    member = GroupMember(
        name="only",
        workload=EncryptionWorkload(chip.aes, KEY),
        batch=6,
        trojan_enables=("trojan1",),
        rng_role="solo-eq/noise",
        workload_role="solo-eq/stimulus",
    )
    got = engine.acquire_group([member], **kw)["only"]
    assert set(got.traces) == set(solo.traces)
    for rcv in solo.traces:
        assert np.array_equal(got.traces[rcv], solo.traces[rcv]), rcv
    assert set(got.recorded) == set(solo.recorded) == {"busy"}
    assert np.array_equal(got.recorded["busy"], solo.recorded["busy"])


def test_solo_acquire_does_not_call_acquire_group(chip, engine, monkeypatch):
    """No nested call, so a span around both fronts counts a solo once."""
    def refuse(*args, **kwargs):
        raise AssertionError("acquire must not route through acquire_group")

    monkeypatch.setattr(AcquisitionEngine, "acquire_group", refuse)
    result = engine.acquire(
        EncryptionWorkload(chip.aes, KEY), n_cycles=16, batch=2
    )
    assert result.traces["sensor"].shape == (2, result.n_samples)


def test_solo_acquire_metrics(chip, engine):
    n_cycles, batch = 24, 3
    with use_metrics() as metrics:
        engine.acquire(
            EncryptionWorkload(chip.aes, KEY), n_cycles=n_cycles, batch=batch
        )
    counters = metrics.snapshot()["counters"]
    assert counters["acquire.cycles"] == n_cycles * batch
    assert not [n for n in counters if n.startswith("sim.backend.")]
    assert not [n for n in counters if n.startswith("acquire.group.")]


# ----------------------------------------------------------------------
# Lane bookkeeping helpers.

def test_lane_slices_partitions_contiguously():
    slices = lane_slices([8, 12, 5])
    assert slices == [slice(0, 8), slice(8, 20), slice(20, 25)]
    with pytest.raises(SimulationError):
        lane_slices([8, 0])
