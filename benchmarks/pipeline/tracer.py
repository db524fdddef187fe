"""In-memory span tracer for the benchmark's ``--trace 1`` runs.

The tracer wraps the public functions of each layer of the ``repro``
package at the place their callers look them up, records one span per
call (name, start, end, parent, thread) in memory, and restores the
originals on exit.  Nothing in ``src/`` knows about it.

A target is ``"module:function"`` or ``"module:Class.method"``.  A
function is patched in its own module and in every loaded ``repro.*``
module that bound it by name (``from x import f``), so callers that
imported it early still reach the wrapper.  A method is patched on the
named class; when the class inherits it, the wrapper shadows the
inherited attribute and is removed again on exit.  Code outside
``repro.*`` (the benchmark's own workloads) must call traced functions
through their module, e.g. ``localization.run_array_localization(...)``.

Spans nest through a per-thread stack, so a span's parent is always on
its own thread and self time -- duration minus the child spans -- is
computed per thread.  The fleet's producer thread therefore gets its
own top-level spans instead of being subtracted from the main thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

#: Layer spans in pipeline order: span name -> wrapped targets.  The
#: per-layer metrics in ``BENCHMARK.json`` are derived from these names.
SPANS: dict[str, tuple[str, ...]] = {
    "experiments.localize": (
        "repro.experiments.localization:run_array_localization",
    ),
    "chip.build": ("repro.chip.chip:Chip.build",),
    "chip.calibrate": ("repro.chip.calibration:calibrate_scenario",),
    "logic.netlist": (
        "repro.crypto.aes_circuit:build_aes_circuit",
        "repro.logic.builder:NetlistBuilder.build",
    ),
    "logic.compile": ("repro.logic.simulator:CompiledNetlist.__init__",),
    "layout.floorplan": ("repro.layout.floorplan:plan_floorplan",),
    "layout.placement": ("repro.layout.placement:place_netlist",),
    "layout.power_grid": ("repro.layout.power_grid:build_power_grid",),
    "layout.current_map": ("repro.layout.current_map:build_current_map",),
    "layout.cell_weights": (
        "repro.layout.current_map:CurrentMap.cell_weights",
        "repro.layout.current_map:position_coupling",
    ),
    "em.coupling": (
        "repro.em.sensor:OnChipSensor.coupling",
        "repro.em.sensor:SensorArray.coupling",
        "repro.em.probe:ExternalProbe.coupling",
    ),
    "power.charges": (
        "repro.power.charges:switching_charges",
        "repro.power.charges:clock_charges",
    ),
    "chip.acquire": (
        "repro.chip.acquire:AcquisitionEngine.acquire",
        "repro.chip.acquire:AcquisitionEngine.acquire_group",
    ),
    "logic.reset": ("repro.logic.simulator:CompiledNetlist.reset",),
    "logic.step": ("repro.logic.simulator:CompiledNetlist.step",),
    "logic.fold": (
        "repro.logic.activity:ActivityAccumulator.record_all_blocks",
    ),
    "power.synthesize": ("repro.power.pulse:synthesize_events",),
    "em.noise": (
        "repro.em.noise:white_noise",
        "repro.em.noise:thermal_noise_rms",
    ),
    "experiments.collect": (
        "repro.experiments.campaign:get_or_generate_traces",
    ),
    "experiments.segment": ("repro.experiments.campaign:segment_ed_windows",),
    "detectors.fit": (
        "repro.detectors.euclidean:EuclideanPlugin.fit",
        "repro.detectors.spectral:SpectralPlugin.fit",
        "repro.detectors.reference_free:SpectralMedianDetector.fit",
        "repro.detectors.reference_free:CrossScalePersistenceDetector.fit",
    ),
    "detectors.score": (
        "repro.detectors.euclidean:EuclideanPlugin.score",
        "repro.detectors.euclidean:EuclideanPlugin.decide",
        "repro.detectors.euclidean:EuclideanPlugin.evaluate",
        "repro.detectors.spectral:SpectralPlugin.score",
        "repro.detectors.spectral:SpectralPlugin.decide",
        "repro.detectors.reference_free:SpectralMedianDetector.score",
        "repro.detectors.reference_free:SpectralMedianDetector.decide",
        "repro.detectors.reference_free:CrossScalePersistenceDetector.score",
        "repro.detectors.reference_free:CrossScalePersistenceDetector.decide",
    ),
    "detectors.roc": (
        "repro.detectors.roc:roc_curve",
        "repro.detectors.roc:auc",
    ),
    "analysis.spectrum": (
        "repro.analysis.spectral:amplitude_spectrum",
        "repro.analysis.spectral:amplitude_spectra",
        "repro.analysis.spectral:compare_spectra",
    ),
    "em.fieldmap": (
        "repro.em.fieldmap:trojan_difference_maps",
        "repro.em.fieldmap:field_map_from_activity",
    ),
    "fleet.campaign": ("repro.fleet.campaign:run_fleet_campaign",),
    "fleet.build": (
        "repro.fleet.session:MonitorSession.__init__",
        "repro.fleet.feed:TraceFeed.__init__",
    ),
    "fleet.scheduler": ("repro.fleet.scheduler:FleetScheduler.run",),
    "fleet.feed": ("repro.fleet.feed:TraceFeed.batch_at",),
    "fleet.score": (
        "repro.framework.batched:BatchedFleetMonitor.ingest_tick",
        "repro.fleet.session:MonitorSession.ingest",
    ),
    "fleet.chunk_generate": (
        "repro.fleet.producer:GroupChunkSource.generate",
    ),
    "fleet.producer_wait": (
        "repro.fleet.producer:StreamingTraceProducer.rows",
    ),
    "obs.journal": (
        "repro.obs.journal:EventJournal.record",
        "repro.obs.journal:EventJournal.flush",
    ),
}


class Span:
    """One recorded call."""

    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, parent: "Span | None", thread: int) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(target: str):
    """``(owner, attr, stored, is_method)`` for one target string."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    return owner, attr, inspect.getattr_static(owner, attr), bool(classes)


class Tracer:
    """Records spans of every wrapped layer while installed."""

    def __init__(self, spans: dict[str, tuple[str, ...]] = SPANS) -> None:
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        # (owner, attr, original or None if inherited, replacement).
        self._patches: list[tuple[object, str, object, object]] = []
        for name, targets in spans.items():
            for target in targets:
                self._plan(name, target)

    def _plan(self, name: str, target: str) -> None:
        owner, attr, stored, is_method = _resolve(target)
        if isinstance(stored, (staticmethod, classmethod)):
            replacement = type(stored)(self.wrap(name, stored.__func__))
        else:
            replacement = self.wrap(name, stored)
        own = stored if attr in vars(owner) else None
        self._patches.append((owner, attr, own, replacement))
        if is_method:
            return
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not mod_name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is stored:
                    self._patches.append((module, alias, stored, replacement))

    def wrap(self, name: str, fn):
        """*fn* recording one *name* span per call."""
        spans = self.spans
        stacks = self._stacks
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            span = Span(name, stack[-1] if stack else None, tid)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        return traced

    def install(self) -> None:
        for owner, attr, _original, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _replacement in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @property
    def targets(self) -> list[tuple[object, str, object]]:
        """``(owner, attr, original)`` of every patch, for checks."""
        return [(o, a, orig) for o, a, orig, _ in self._patches]

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh recording."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def layer_times(spans: list[Span]) -> tuple[dict, dict]:
    """Per-name self seconds and call counts of *spans*.

    Self time is a span's duration minus that of its children; every
    child shares its parent's thread, so the subtraction is per thread.
    """
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] += s.duration
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s.name] += s.duration - children[id(s)]
        calls[s.name] += 1
    return dict(self_s), dict(calls)
