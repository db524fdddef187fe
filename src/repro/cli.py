"""``repro`` — the unified reproduction command line.

One entry point for everything the repo reproduces:

``repro list``
    the experiment registry — every table/figure, its scenario and
    its full/smoke sizes;
``repro detectors``
    the detector registry — every pluggable window detector, whether
    it needs a golden reference, and what it measures;
``repro run fig4 euclidean --out out/``
    run selected experiments and write one validated
    :class:`~repro.experiments.result.RunResult` JSON artifact each;
``repro run --all --smoke``
    the CI ``cli-smoke`` sweep — every registered experiment at
    reduced sizes;
``repro fleet ...``
    the fleet monitoring campaign.

``--workers``/``--smoke`` are conveniences over the ``REPRO_*``
environment (see ``docs/CONFIG.md``); an explicit flag always beats
the environment because it is resolved as a
:meth:`repro.config.ReproConfig.resolve` override.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.config import ReproConfig
from repro.errors import ReproError
from repro.experiments.registry import all_specs, get_spec, run_experiment
from repro.obs import format_snapshot


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the paper's tables and figures. "
            "`repro fleet ...` forwards to the fleet monitoring "
            "campaign."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")

    sub.add_parser("detectors", help="list the registered detectors")

    run = sub.add_parser("run", help="run experiments, write artifacts")
    run.add_argument("names", nargs="*", metavar="experiment",
                     help="experiment names (see `repro list`)")
    run.add_argument("--all", action="store_true",
                     help="run every registered experiment")
    run.add_argument("--smoke", action="store_true",
                     help="reduced sizes (also via REPRO_BENCH_SMOKE=1)")
    run.add_argument("--seed", type=int, default=1,
                     help="chip seed (default 1)")
    run.add_argument("--workers", type=int, default=None,
                     help="campaign fan-out override (beats REPRO_WORKERS)")
    run.add_argument("--out", default="out",
                     help="artifact directory (default: out/)")
    run.add_argument("--metrics", action="store_true",
                     help="print each run's metrics snapshot")

    # Listed for `repro --help` only: main() forwards `repro fleet ...`
    # before this parser runs.
    sub.add_parser(
        "fleet", add_help=False,
        help="fleet monitoring campaign (see `repro fleet --help`)",
    )
    return p


def _schema_summary(schema) -> str:
    """One-line sketch of a payload schema: top-level keys with their
    node kinds (``dict``/``list``/scalar name), ``-`` when undeclared."""
    if not schema:
        return "-"

    def kind(node) -> str:
        if isinstance(node, dict):
            return "{...}"
        if isinstance(node, list):
            return "[...]"
        return str(node)

    return ", ".join(f"{key}:{kind(node)}" for key, node in schema.items())


def _cmd_list() -> int:
    specs = all_specs()
    width = max(len(s.name) for s in specs)
    print(f"{'experiment':<{width}}  {'scenario':<8}  description")
    for spec in specs:
        print(f"{spec.name:<{width}}  {spec.scenario:<8}  {spec.title}")
        print(f"{'':<{width}}  {'':<8}  payload: "
              f"{_schema_summary(spec.schema)}")
    print(f"\n{len(specs)} experiments; run with "
          f"`repro run <name>` or `repro run --all --smoke`")
    return 0


def _cmd_detectors() -> int:
    from repro.detectors import all_detector_infos

    infos = all_detector_infos()
    name_w = max(len(i.name) for i in infos)
    basis_w = max(len(i.basis) for i in infos)
    print(f"{'detector':<{name_w}}  {'basis':<{basis_w}}  description")
    for info in infos:
        print(f"{info.name:<{name_w}}  {info.basis:<{basis_w}}  "
              f"{info.summary}")
    print(f"\n{len(infos)} detectors; select with REPRO_DETECTOR or "
          f"compare with `repro run detector_tournament`")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.all:
        names = [spec.name for spec in all_specs()]
    else:
        names = list(args.names)
    if not names:
        print("repro run: pass experiment names or --all", file=sys.stderr)
        return 1
    try:
        for name in names:
            get_spec(name)
    except ReproError as err:
        print(f"repro run: {err}", file=sys.stderr)
        return 1

    overrides: dict = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    config = ReproConfig.resolve(**overrides)
    smoke = args.smoke or config.bench_smoke
    out_dir = Path(args.out)

    for name in names:
        print(f"=== {name} ({'smoke' if smoke else 'full'}) ===")
        result = run_experiment(
            name, smoke=smoke, seed=args.seed, config=config
        )
        print(result.text)
        if args.metrics:
            print()
            print(format_snapshot(result.metrics))
        path = result.save(out_dir / f"{name}.json")
        print(f"artifact: {path}  ({result.elapsed_seconds:.1f}s)\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `repro fleet` forwards everything (including --help) untouched.
    if argv and argv[0] == "fleet":
        from repro.fleet.cli import main as fleet_main

        return fleet_main(argv[1:])
    args = _parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "detectors":
        return _cmd_detectors()
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    raise SystemExit(main())
