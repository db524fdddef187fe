"""``repro fleet`` — the fleet monitoring console entry point.

Runs a simulated golden + T1–T4 + A2 fleet campaign and prints the
fleet trust report: per-chip verdicts (time-domain streaming monitor
combined with the spectral sweep), alarm latencies, explicit drop
counts and ingestion throughput, plus the metrics summary.  With
``--journal`` the JSONL event journal lands on disk; with ``--json``
a machine-readable summary does.

``--check-oneshot`` exits non-zero when any chip's streaming verdict
disagrees with the one-shot evaluator run over the same delivered
windows and spectra — the consistency gate CI's ``fleet-smoke`` job
enforces.  ``--smoke`` (or ``REPRO_BENCH_SMOKE=1``) selects the
reduced CI configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

# SMOKE_ENV_VAR is re-exported here for backwards compatibility; its
# resolution lives in repro.config.
from repro.config import SMOKE_ENV_VAR, active_config
from repro.fleet.campaign import (
    DEFAULT_FLEET,
    FleetConfig,
    FleetCampaignResult,
    run_fleet_campaign,
)
from repro.fleet.feed import FaultSpec
from repro.obs.metrics import format_snapshot
from repro.io.store import save_json_report


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro fleet",
        description=(
            "Stream a simulated fleet (golden + T1-T4 + A2) through the "
            "runtime trust monitor and print the fleet trust report."
        ),
    )
    p.add_argument("--seed", type=int, default=0, help="fleet seed")
    p.add_argument(
        "--chips",
        default=None,
        help=(
            "comma-separated subset of "
            + ",".join(c for c, _ in DEFAULT_FLEET)
        ),
    )
    p.add_argument("--windows", type=int, default=None,
                   help="streamed windows per chip")
    p.add_argument("--golden-traces", type=int, default=None,
                   help="golden characterisation campaign size")
    p.add_argument("--monitor-window", type=int, default=None,
                   help="monitor sliding-window length")
    p.add_argument("--confirm", type=int, default=None,
                   help="consecutive out-of-envelope windows to alarm")
    p.add_argument("--batch", type=int, default=None,
                   help="feed arrival batch size [windows]")
    p.add_argument("--queue-depth", type=int, default=None,
                   help="bounded per-chip queue depth [batches]")
    p.add_argument("--policy", choices=("block", "drop_oldest"),
                   default=None, help="backpressure policy")
    p.add_argument("--campaign-workers", type=int, default=None,
                   help="golden/spectral campaign fan-out (processes)")
    p.add_argument("--consume-every", type=int, default=None,
                   help="consumer pacing (ticks per drain)")
    p.add_argument("--chunk", type=int, default=None,
                   help="windows per streamed campaign chunk (one "
                        "acquisition per chunk)")
    p.add_argument("--spectral-cycles", type=int, default=None,
                   help="spectral sweep record length [cycles]")
    p.add_argument("--drop", type=float, default=0.0,
                   help="link fault: window drop probability")
    p.add_argument("--duplicate", type=float, default=0.0,
                   help="link fault: window duplication probability")
    p.add_argument("--reorder", type=float, default=0.0,
                   help="link fault: adjacent-window swap probability")
    p.add_argument("--journal", default=None,
                   help="write the JSONL event journal to this path")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write a machine-readable summary to this path")
    p.add_argument("--smoke", action="store_true",
                   help=f"reduced CI sizes (also via {SMOKE_ENV_VAR}=1)")
    p.add_argument("--check-oneshot", action="store_true",
                   help="exit 2 on any streaming-vs-one-shot verdict "
                        "mismatch")
    return p


def _config_from(args: argparse.Namespace) -> FleetConfig:
    smoke = args.smoke or active_config().bench_smoke
    overrides: dict = {"seed": args.seed}
    for arg_name, field_name in (
        ("windows", "n_windows"),
        ("golden_traces", "n_golden"),
        ("monitor_window", "monitor_window"),
        ("confirm", "confirm"),
        ("batch", "batch"),
        ("queue_depth", "queue_depth"),
        ("policy", "policy"),
        ("campaign_workers", "campaign_workers"),
        ("consume_every", "consume_every"),
        ("chunk", "chunk"),
        ("spectral_cycles", "spectral_cycles"),
    ):
        value = getattr(args, arg_name)
        if value is not None:
            overrides[field_name] = value
    overrides["faults"] = FaultSpec(
        drop=args.drop, duplicate=args.duplicate, reorder=args.reorder
    )
    if args.journal is not None:
        overrides["journal_path"] = args.journal
    if smoke:
        return FleetConfig.smoke(**overrides)
    return FleetConfig(**overrides)


def _summary(result: FleetCampaignResult) -> dict:
    """Machine-readable campaign summary (JSON-encodable)."""
    fleet = result.fleet
    return {
        "config": {
            **{k: v for k, v in asdict(result.config).items()
               if k != "faults"},
            "faults": asdict(result.config.faults),
        },
        "throughput_windows_per_s": fleet.throughput,
        "elapsed_seconds": fleet.elapsed_seconds,
        "windows_ingested": fleet.windows_ingested,
        "flagged": list(result.flagged),
        "all_match_oneshot": result.all_match_oneshot,
        "chips": {
            chip_id: {
                "verdict": v.verdict.value,
                "oneshot_verdict": v.oneshot_verdict.value,
                "matches_oneshot": v.matches_oneshot,
                "time_alarm": v.time_alarm,
                "spectral_alarm": v.spectral_alarm,
                "alarm_latency_windows": v.alarm_latency,
                "separation": v.separation,
                "separation_floor": v.separation_floor,
                "windows_ingested":
                    fleet.reports[chip_id].windows_ingested,
                "link_dropped": fleet.reports[chip_id].feed_dropped,
                "link_duplicated": fleet.reports[chip_id].feed_duplicated,
                "link_reordered": fleet.reports[chip_id].feed_reordered,
                "queue_dropped_windows":
                    fleet.reports[chip_id].queue_dropped_windows,
            }
            for chip_id, v in result.verdicts.items()
        },
        "metrics": result.metrics,
        "journal": result.journal_path,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    config = _config_from(args)
    fleet = DEFAULT_FLEET
    if args.chips:
        wanted = [c.strip() for c in args.chips.split(",") if c.strip()]
        known = dict(DEFAULT_FLEET)
        unknown = [c for c in wanted if c not in known]
        if unknown:
            print(
                f"repro fleet: unknown chips {unknown}; "
                f"valid: {sorted(known)}",
                file=sys.stderr,
            )
            return 1
        fleet = tuple((c, known[c]) for c in wanted)

    result = run_fleet_campaign(config, fleet=fleet)
    print(result.format())
    print()
    print(format_snapshot(result.metrics))

    if args.json_path:
        save_json_report(_summary(result), args.json_path)
        print(f"summary written to {args.json_path}")
    if result.journal_path:
        print(f"journal written to {result.journal_path}")

    if args.check_oneshot and not result.all_match_oneshot:
        mismatched = [
            c for c, v in result.verdicts.items() if not v.matches_oneshot
        ]
        print(
            f"repro fleet: streaming vs one-shot verdict mismatch on "
            f"{mismatched}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    raise SystemExit(main())
