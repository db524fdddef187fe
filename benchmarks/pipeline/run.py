#!/usr/bin/env python3
"""End-to-end benchmark of the trace-to-verdict pipeline.

Run from the repository root.  One workload, in this process::

    python3 benchmarks/pipeline/run.py --workload fleet_scale \\
        --seed 1 --seconds 10 --trace 0

sets the workload up three times (``setup_s`` is the median), then
repeats its operation for ``--seconds`` seconds and prints two JSON
lines: the full record (environment, per-operation decisions, digest)
and, last, the result ``{"correct", "attempted", "failed", "metrics"}``;
it exits non-zero when the run is not correct.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics.

Several workloads, or ``--repeat N``::

    python3 benchmarks/pipeline/run.py [--workload NAME ...] [--repeat N]
        [--seed 1] [--trace] [--out results.json]

runs each (workload, repeat) in a fresh child process, prints every
metric by name with its median, quartiles and unit, appends the
records to ``--out``, and exits non-zero when an operation failed or
repeats of one seed disagree on ``decisions_digest``.  No workload
argument means all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracer import SPANS, Tracer, layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Thread pools of the BLAS libraries, pinned to one thread: the load
#: is one process with one main thread (plus the fleet's producer).
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "windows_per_s": "windows/s",
    "peak_rss_mb": "MB",
}

#: A child that has not finished by then is killed.
CHILD_TIMEOUT_S = 900


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics (``--trace 1`` runs): name -> unit."""
    units = {}
    for span in SPANS:
        units[f"setup.{span}.self_s"] = "s"
        units[f"run.{span}.self_s"] = "s"
        units[f"run.{span}.calls"] = "count"
    units.update({
        "setup.unattributed_s": "s",
        "run.unattributed_s": "s",
        "run.unattributed_share": "ratio",
        "trace_overhead": "ratio",
        "chip.acquire.cycle_lanes": "count",
        "chip.acquire.cycle_lanes_per_s": "1/s",
        "fleet.ttfv_s": "s",
    })
    return units


def pin_environment() -> None:
    """Drop every ``REPRO_*`` variable and pin BLAS to one thread.

    Must run before numpy is imported.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    for name in BLAS_VARS:
        os.environ[name] = "1"


def pinned_config():
    from repro.config import ReproConfig

    return ReproConfig(
        workers=1,
        fleet_shards=1,
        fleet_scoring="batched",
        sim_backend="auto",
        detector="euclidean",
    )


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    import repro

    return {
        "config": pinned_config().describe(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "repro_env": sorted(n for n in os.environ if n.startswith("REPRO_")),
        "repro_path": str(Path(repro.__file__).resolve().parent),
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    workload, seed: int, seconds: float, trace: bool,
    setups: int = SETUP_REPEATS,
) -> dict:
    """Set *workload* up *setups* times, run its operation for *seconds*.

    Returns the run's record; ``record["metrics"]`` holds the
    end-to-end metrics, or with *trace* the per-layer ones.
    """
    from repro.config import use_config
    from repro.obs import use_metrics

    from workloads import release_caches

    tracer = Tracer() if trace else None
    setup_times: list[float] = []
    setup_spans: list = []
    ops: list[dict] = []
    op_spans: list = []
    error = None

    def timed(fn, root, *args):
        """(seconds, result, spans) of fn(*args), traced when asked."""
        if root is not None:
            tracer.install()
            fn = tracer.wrap(root, fn)
        try:
            t0 = time.perf_counter()
            out = fn(*args)
            return time.perf_counter() - t0, out, tracer.take() if root else []
        finally:
            if root is not None:
                tracer.uninstall()

    with use_config(pinned_config()):
        try:
            for _ in range(setups):
                state = None  # let the previous set-up be freed
                release_caches()
                dt, state, spans = timed(
                    workload.setup, "setup" if trace else None, seed
                )
                setup_times.append(dt)
                setup_spans.append(spans)
            deadline = time.perf_counter() + seconds
            k = 0
            while True:
                traced = trace and k % 2 == 0
                with use_metrics() as registry:
                    dt, res, spans = timed(
                        workload.op, "op" if traced else None, state, k
                    )
                ops.append({
                    "k": k,
                    "key": res.key,
                    "traced": traced,
                    "seconds": dt,
                    "windows": res.windows,
                    "digest": res.digest,
                    "decisions": res.decisions,
                    "verdicts": res.verdicts,
                    "wrong": res.wrong,
                    "problems": res.problems,
                    "ttfv_s": res.ttfv_s,
                    "cycle_lanes": registry.counter("acquire.cycles").value,
                })
                if traced:
                    op_spans.append(spans)
                k += 1
                if time.perf_counter() >= deadline and (not trace or k >= 2):
                    break
        except Exception:
            traceback.print_exc(file=sys.stderr)
            error = traceback.format_exc(limit=1).strip().splitlines()[-1]

    failed_ops = [op for op in ops if op["problems"]]
    by_key: dict[str, set] = defaultdict(set)
    for op in ops:
        by_key[op["key"]].add(op["digest"])
    inconsistent = sorted(key for key, d in by_key.items() if len(d) > 1)
    attempted = max(1, len(ops) + (error is not None))
    failed = attempted if error is not None else len(failed_ops)
    verdicts = sum(op["verdicts"] for op in ops)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "env": environment(seed),
        "error": error,
        "setup_times": setup_times,
        "ops": ops,
        "ops_total": attempted,
        "ops_failed": failed,
        "inconsistent_keys": inconsistent,
        "decisions_digest": ops[0]["digest"] if ops else None,
        "verdict_error_rate": (
            sum(op["wrong"] for op in ops) / verdicts if verdicts else None
        ),
        "correct": error is None and failed == 0 and not inconsistent,
        "metrics": {},
    }
    if error is not None:
        return record
    if trace:
        record["metrics"] = per_layer_metrics(setup_spans, op_spans, ops)
    else:
        times = [op["seconds"] for op in ops]
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(times),
            "windows_per_s": sum(op["windows"] for op in ops) / sum(times),
            "peak_rss_mb": _peak_rss_mb(),
        }
    return record


def _mean_layer_times(groups: list) -> tuple[dict, dict]:
    """Self seconds and calls per span name, averaged over *groups*."""
    self_s, calls = defaultdict(float), defaultdict(float)
    for spans in groups:
        s, c = layer_times(spans)
        for name, v in s.items():
            self_s[name] += v / len(groups)
        for name, v in c.items():
            calls[name] += v / len(groups)
    return self_s, calls


def per_layer_metrics(setup_spans: list, op_spans: list, ops: list) -> dict:
    """The ``--trace 1`` metrics from the spans of each set-up and
    traced operation (see ``per_layer_units``)."""
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    setup_self, _ = _mean_layer_times(setup_spans)
    run_self, run_calls = _mean_layer_times(op_spans)
    metrics = {}
    for span in SPANS:
        metrics[f"setup.{span}.self_s"] = setup_self.get(span, 0.0)
        metrics[f"run.{span}.self_s"] = run_self.get(span, 0.0)
        metrics[f"run.{span}.calls"] = run_calls.get(span, 0.0)
    acquire_s = sum(
        s.duration for spans in op_spans for s in spans
        if s.name == "chip.acquire"
    ) / len(op_spans)
    lanes = statistics.fmean(op["cycle_lanes"] for op in traced)
    ttfv = [op["ttfv_s"] for op in traced if op["ttfv_s"] is not None]
    traced_s = [op["seconds"] for op in traced]
    metrics.update({
        "setup.unattributed_s": setup_self.get("setup", 0.0),
        "run.unattributed_s": run_self.get("op", 0.0),
        "run.unattributed_share": (
            run_self.get("op", 0.0) / statistics.fmean(traced_s)
        ),
        "trace_overhead": statistics.median(traced_s)
        / statistics.median(op["seconds"] for op in plain) - 1.0,
        "chip.acquire.cycle_lanes": lanes,
        "chip.acquire.cycle_lanes_per_s": (
            lanes / acquire_s if acquire_s else 0.0
        ),
        "fleet.ttfv_s": statistics.fmean(ttfv) if ttfv else 0.0,
    })
    return metrics


def result_line(record: dict) -> dict:
    """The result object a run prints as its last line."""
    units = per_layer_units() if record["trace"] else END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["ops_total"],
        "failed": record["ops_failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }


def spawn(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh child process; returns its record."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return json.loads(proc.stdout.strip().splitlines()[-2])
    except subprocess.TimeoutExpired:
        error = f"child killed after {CHILD_TIMEOUT_S} s"
    except (IndexError, ValueError):
        error = f"child exited {proc.returncode} without a record"
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "error": error, "ops": [], "ops_total": 1, "ops_failed": 1,
        "correct": False, "decisions_digest": None, "metrics": {},
    }


def summarize(records: list[dict]) -> tuple[dict, bool]:
    """Print every metric per workload; returns (result, digests agree)."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        by_workload[rec["workload"]].append(rec)
    agree = True
    metrics = {}
    for name, recs in by_workload.items():
        print(f"== {name}  ({len(recs)} run(s))")
        values: dict[str, list[float]] = defaultdict(list)
        units = {}
        for rec in recs:
            line = result_line(rec)
            for metric, m in line["metrics"].items():
                values[metric].append(m["value"])
                units[metric] = m["unit"]
        for metric, vals in values.items():
            q1, med, q3 = quartiles(vals)
            print(f"  {metric:<40} {med:>14.6g} {units[metric]:<9} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)}]")
            metrics[f"{name}.{metric}"] = {"value": med, "unit": units[metric]}
        ops_total = sum(r["ops_total"] for r in recs)
        ops_failed = sum(r["ops_failed"] for r in recs)
        print(f"  {'ops_failed/ops_total':<40} {ops_failed}/{ops_total}")
        rates = [r["verdict_error_rate"] for r in recs
                 if r.get("verdict_error_rate") is not None]
        if rates:
            rate = statistics.median(rates)
            print(f"  {'verdict_error_rate':<40} {rate:.4f}")
        digests = defaultdict(set)
        for rec in recs:
            digests[rec["seed"]].add(rec["decisions_digest"])
        for seed, ds in sorted(digests.items()):
            ok = len(ds) == 1 and None not in ds
            agree &= ok
            print(f"  decisions_digest seed {seed}: "
                  f"{'/'.join(sorted(map(str, ds)))[:64]}"
                  f"{'' if ok else '  MISMATCH'}")
    result = {
        "correct": all(r["correct"] for r in records) and agree,
        "attempted": sum(r["ops_total"] for r in records),
        "failed": sum(r["ops_failed"] for r in records),
        "metrics": metrics,
    }
    return result, agree


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long each run repeats its operation")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (1) or not (0)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="child runs per workload, all at --seed")
    parser.add_argument("--out", type=Path,
                        help="append the run records to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    pin_environment()
    args = parse_args(argv)
    from workloads import WORKLOADS

    import repro

    expected = ROOT / "src" / "repro"
    if Path(repro.__file__).resolve().parent != expected:
        print(f"repro imported from {repro.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    if len(names) == 1 and args.repeat == 1 and args.out is None:
        record = run_workload(
            WORKLOADS[names[0]](), args.seed, args.seconds, bool(args.trace)
        )
        print(json.dumps(record))
        print(json.dumps(result_line(record)))
        return 0 if record["correct"] else 1

    records = [
        spawn(name, args.seed, args.seconds, bool(args.trace))
        for name in names
        for _ in range(args.repeat)
    ]
    result, agree = summarize(records)
    if args.out is not None:
        runs = []
        if args.out.exists():
            runs = json.loads(args.out.read_text())["runs"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs + records}) + "\n")
    print(json.dumps(result))
    failed = any(r.get("error") for r in records) or result["failed"]
    return 1 if failed or not agree else 0


if __name__ == "__main__":
    sys.exit(main())
