"""Self-tests of the pipeline benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline``; the
directory is outside the tier-1 ``testpaths``.  Workloads run at tiny
sizes with one set-up and a zero-second measuring window (one
operation, or one untraced plus one traced operation).
"""

from __future__ import annotations

import inspect
import json
import threading
import time

import pytest

import run
import tracer
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_fleet() -> workloads.FleetScale:
    return workloads.FleetScale(n_chips=12, n_windows=96, samples=32)


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize(
    "trace, section", [(False, "end_to_end"), (True, "per_layer")]
)
def test_every_benchmark_metric_is_emitted_with_its_unit(trace, section):
    record = run.run_workload(tiny_fleet(), 3, 0.0, trace, setups=1)
    assert record["correct"], record["error"]
    line = run.result_line(record)
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert emitted == declared
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())


def test_tracer_restores_every_wrapped_function():
    t = tracer.Tracer()
    missing = object()

    def bound():
        return [vars(owner).get(attr, missing) for owner, attr, _ in t.targets]

    before = bound()
    assert len(before) > len(tracer.SPANS)
    t.install()
    try:
        assert all(
            now is not was for now, was in zip(bound(), before)
        ), "some target was not wrapped"
    finally:
        t.uninstall()
    assert all(now is was for now, was in zip(bound(), before))
    from repro.logic.activity import ActivityAccumulator

    assert isinstance(
        inspect.getattr_static(ActivityAccumulator, "record_all_blocks"),
        staticmethod,
    )


def test_self_time_is_per_thread():
    t = tracer.Tracer(spans={})
    inner = t.wrap("inner", lambda: time.sleep(0.1))

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        time.sleep(0.2)
        worker.join(timeout=5)
        assert not worker.is_alive()
        inner()

    t.wrap("outer", outer)()
    spans = t.take()
    self_s, calls = tracer.layer_times(spans)
    assert calls == {"outer": 1, "inner": 2}
    outer_span = next(s for s in spans if s.name == "outer")
    # Only the main-thread child is subtracted from the outer span.
    expected = outer_span.duration - 0.1
    assert self_s["outer"] == pytest.approx(expected, abs=0.05)
    assert self_s["outer"] > 0.15
    threads = {s.thread for s in spans if s.name == "inner"}
    assert len(threads) == 2


@pytest.mark.parametrize(
    "make",
    [tiny_fleet, lambda: workloads.DetectorTournament(n_windows=16)],
    ids=["fleet_scale", "detector_tournament"],
)
def test_traced_digest_equals_untraced(make):
    plain = run.run_workload(make(), 5, 0.0, False, setups=1)
    traced = run.run_workload(make(), 5, 0.0, True, setups=1)
    assert plain["correct"] and traced["correct"]
    # The first operation of a traced run is a traced one.
    assert traced["ops"][0]["traced"] and not traced["ops"][1]["traced"]
    assert plain["decisions_digest"] == traced["decisions_digest"]


def test_raising_workload_fails_every_operation(monkeypatch, capsys):
    original = workloads.scheduler.FleetScheduler.run
    calls = []

    def flaky(self, feeds, max_ticks=None):
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("injected failure")
        return original(self, feeds, max_ticks)

    monkeypatch.setattr(workloads.scheduler.FleetScheduler, "run", flaky)
    monkeypatch.setattr(run, "pin_environment", lambda: None)
    monkeypatch.setitem(workloads.WORKLOADS, "fleet_scale", tiny_fleet)
    code = run.main(["--workload", "fleet_scale", "--seconds", "5"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 2
    assert result["failed"] == result["attempted"]
