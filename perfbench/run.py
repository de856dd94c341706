"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload zipf_read --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans are written to
``perfbench/out/``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 0 only when every checked operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from spec import BENCH_DIR, END_TO_END, PER_LAYER, WORKLOADS, require_src


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="UniKV repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply data-set and model-pass sizes (smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def execute(args: argparse.Namespace):
    """Run the workload; returns an ``outcome.Outcome``."""
    import inproc
    import served

    dump = BENCH_DIR / "out" / f"spans-{args.workload}.tsv.gz" if args.trace else None
    if args.workload == "served_mixed":
        if args.trace:
            return served.run_traced(args.seed, args.seconds, args.scale, dump)
        return served.run(args.seed, args.seconds, args.scale)
    if args.trace:
        return inproc.run_traced(args.workload, args.seed, args.seconds, args.scale, dump)
    return inproc.run(args.workload, args.seed, args.seconds, args.scale)


def result_line(outcome, trace: bool) -> dict:
    specs = PER_LAYER if trace else END_TO_END
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m.name: {"value": outcome.metrics[m.name], "unit": m.unit}
                    for m in specs},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    require_src()
    outcome = execute(args)
    line = result_line(outcome, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, metric in line["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in outcome.detail.items():
        print(f"{name:36s} {value:14.6g}   (detail)")
    print(f"failed_ops_frac {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} checked ops)")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
