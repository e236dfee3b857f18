"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest_tight --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that attributes time to each
``repro`` layer.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report and a ``DETAIL`` JSON line (provenance, per-epoch
spreads, accuracy, failure accounting).  A correctness-gate mismatch
exits with status 1 and prints no result; a refused environment or a
missing package exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import (  # noqa: E402
    PINNED_ENV,
    CorrectnessError,
    check_program_defaults,
    pinned_environment_violations,
    provenance,
)

WORKLOADS = ("ingest_tight", "distributed")

WORKER_NOTE = (
    "distributed: shard workers and the server run in other processes; "
    "their layers show only as the parent's wait inside runtime.sharded.* "
    "and service.client.server_wait"
)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(name: str, result: Dict[str, Any], units: Dict[str, str]) -> None:
    detail = result["detail"]
    print(f"workload {name}: {detail['epochs']} epochs, "
          f"{result['attempted']} operations, {result['failed']} failed")
    probe = detail["host_probe_s"]
    print(f"  host probe {probe['median']:.6f} s (spread {probe['spread']:.1%})")
    if "per_layer" in result:
        for metric, value in result["per_layer"].items():
            print(f"  {metric:<44} {value:>14.6g} {units[metric]}")
        return
    spreads = detail["epoch_spread"]
    medians = detail["epoch_median"]
    for metric, value in result["end_to_end"].items():
        within = spreads.get(metric)
        note = "" if within is None else f"   (epoch spread {within:.1%})"
        if metric in medians:
            note += f"   (epoch median {medians[metric]:.6g})"
        print(f"  {metric:<22} {value:>16.6g} {units[metric]:<10}{note}")
    print(f"  latency samples {detail['latency_samples']} in "
          f"{detail['latency_windows']} windows (each with at least "
          f"{detail['latency_window_min_beyond_p99']} beyond its p99)")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    present = pinned_environment_violations()
    if present:
        print(f"refusing to run: {', '.join(present)} set; the benchmark "
              f"measures the package default (unset {', '.join(PINNED_ENV)})",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench import workloads

    defaults = check_program_defaults()
    spec = workloads.SPECS[args.workload]
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except CorrectnessError as exc:
        print(f"correctness gate failed on {args.workload}: {exc}", file=sys.stderr)
        return 1

    units = dict(workloads.END_TO_END + workloads.PER_LAYER)
    _report(args.workload, result, units)
    if args.trace and spec.shards:
        print(WORKER_NOTE)
    detail = dict(result["detail"])
    detail["provenance"] = provenance(
        args.seed,
        {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "shards": spec.shards,
            "memory_kb": spec.memory_kb,
            "program_defaults": defaults,
        },
    )
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {
        metric: {"value": value, "unit": units[metric]}
        for metric, value in chosen.items()
    }
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
