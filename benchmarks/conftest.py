"""Shared fixtures for the benchmark harness.

One chip and one pair of SNR-calibrated scenarios serve every bench;
the benches run each experiment once (``rounds=1``) because a single
campaign already averages thousands of traces internally.

Pass ``--bench-json FILE`` to append this run's timings to *FILE* as
one JSON snapshot (a list of runs accumulates across invocations), so
the perf trajectory survives across PRs::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_kernels.py \
        -q --bench-json BENCH_perf_kernels.json
"""

from __future__ import annotations

import datetime
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.chip import silicon_scenario, simulation_scenario
from repro.chip.calibration import calibrate_scenario
from repro.experiments import shared_chip

#: Timings recorded by :func:`run_once` during this session.
_BENCH_RESULTS: list[dict] = []


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="FILE",
        help="append this run's benchmark timings to FILE as one JSON "
        "snapshot (the file holds a list of snapshots)",
    )


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json", default=None)
    if not path or not _BENCH_RESULTS:
        return
    snapshot = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "results": _BENCH_RESULTS,
    }
    target = Path(path)
    history: list = []
    if target.exists():
        try:
            history = json.loads(target.read_text())
        except (OSError, ValueError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(snapshot)
    target.write_text(json.dumps(history, indent=2) + "\n")


def _cpu_model() -> str:
    """CPU model name (``/proc/cpuinfo`` on Linux), else the platform's."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> str:
    """Name and version of the BLAS numpy was built against."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


@pytest.fixture(scope="session")
def chip():
    """The paper's full test chip."""
    return shared_chip(seed=1)


@pytest.fixture(scope="session")
def sim_scenario(chip):
    """Calibrated Section IV (simulation) scenario."""
    return calibrate_scenario(chip, simulation_scenario())


@pytest.fixture(scope="session")
def sil_scenario(chip):
    """Calibrated Section V (fabricated chip) scenario."""
    return calibrate_scenario(chip, silicon_scenario())


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    result = benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    record_timing(benchmark.name, benchmark.stats.stats.mean)
    return result


def record_timing(name: str, seconds: float, **extra) -> None:
    """Add one timing to the session's ``--bench-json`` snapshot."""
    _BENCH_RESULTS.append({"name": name, "seconds": float(seconds), **extra})
