"""Command-line interface: simulate, montecarlo, and bench subcommands.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 void audit failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import ConfigError, ScenarioConfig, VoidAuditError
from .planner import PLANNER_KINDS


BENCH_SIZES = ("particles", "tags", "actions", "horizon")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON scenario config (defaults used when omitted)")
    sub.add_argument("--planner", choices=PLANNER_KINDS,
                     help="override the configured planner")
    sub.add_argument("--void", choices=["on", "off"],
                     help="override the void constraint (off emulates r_min = 0.001 m)")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--out", default="out", help="output directory (default: out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagtrack",
        description="Particle-filter tracking and void-constrained planning for "
                    "aerial RSSI localization of radio tags.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run a single mission")
    _add_common(sim)
    sim.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="per-step row format (summaries are always JSON)")

    mc = subs.add_parser("montecarlo", help="run a Monte-Carlo batch")
    _add_common(mc)
    mc.add_argument("--trials", type=int, default=100, help="number of trials")
    mc.add_argument("--parallel", type=int, default=1, help="worker processes")

    bench = subs.add_parser("bench", help="benchmark per-decision planning time")
    # an omitted size keeps harness.bench_planners' default, the default scenario's size
    for size in BENCH_SIZES:
        bench.add_argument(f"--{size}", type=int, default=argparse.SUPPRESS)
    bench.add_argument("--reps", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", help="also write bench.json under this directory")

    return parser


def _load_with_overrides(args) -> ScenarioConfig:
    """The file as checked (or the defaults), then each flag set as the JSON key it stands for."""
    d = (harness.load_config(args.config) if args.config else ScenarioConfig()).to_dict()
    void = None if args.void is None else args.void == "on"
    for section, key, flag in ((d["planner"], "kind", args.planner),
                               (d["planner"], "void_enabled", void), (d, "seed", args.seed)):
        if flag is not None:
            section[key] = flag
    return ScenarioConfig.from_dict(d)


def _cmd_simulate(args) -> int:
    cfg = _load_with_overrides(args)
    record = harness.run_mission(cfg)
    written = harness.export_mission(record, cfg, args.out, args.format)
    s = record.summary
    print(f"mission finished: flight_time={s.flight_time:.1f}s "
          f"localized={sum(map(bool, s.localized))}/{cfg.num_tags} rms={s.rms:.2f}m "
          f"decisions={s.n_decisions}")
    for path in written:
        print(f"wrote {path}")
    harness.audit_mission(record, cfg)
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _load_with_overrides(args)
    mc = harness.run_montecarlo(cfg, trials=args.trials, parallelism=args.parallel)
    written = harness.export_mc(mc, cfg, args.out)
    m = mc.metrics
    print(f"{args.trials} trials ({cfg.planner.kind}, void "
          f"{'on' if cfg.planner.void_enabled else 'off'}): "
          f"rms mean={m['rms_m']['mean']:.2f}m "
          f"flight mean={m['flight_time_s']['mean']:.1f}s "
          f"planning mean={m['planning_time_mean_s']['mean'] * 1e3:.1f}ms")
    for path in written:
        print(f"wrote {path}")
    harness.audit_mc(mc, cfg)
    return 0


def _cmd_bench(args) -> int:
    sizes = {size: getattr(args, size) for size in BENCH_SIZES if hasattr(args, size)}
    results = harness.bench_planners(args.reps, seed=args.seed, **sizes)
    print(f"{'planner':<10} {'mean (s)':>10} {'min (s)':>10} {'max (s)':>10} "
          f"{'median (s)':>11} {'lik calls':>10}")
    for kind in PLANNER_KINDS:
        r = results[kind]
        print(f"{kind:<10} {r['mean_s']:>10.4f} {r['min_s']:>10.4f} {r['max_s']:>10.4f} "
              f"{r['median_s']:>11.4f} {r['likelihood_calls']:>10d}")
    if args.out:
        for path in harness.export_bench(results, args.out):
            print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "montecarlo": _cmd_montecarlo, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except VoidAuditError as exc:
        print(f"void audit failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
