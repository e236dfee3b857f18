#!/usr/bin/env python3
"""Ingest kernels: object ``insert_batch`` vs the numpy array kernel.

``DaVinciSketch(config, kernel="array")`` routes ``insert_batch`` through
``repro.core.kernel.ArrayKernelEngine``, which loads the three sketch
parts into contiguous numpy arrays and replays each chunk with vectorized
group-aggregation, rank-round frequent-part updates and first-occurrence
element-filter rounds — while producing a sketch state byte-identical to
the object kernel for the same input order.  This script measures what
that vectorization buys on the paper's canonical workload (a Zipf(1.1)
packet trace) and cross-checks the byte-identity claim on the fly via
``to_state``.

Run (from the repository root):

    PYTHONPATH=src python benchmarks/bench_kernel.py               # 1M items
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick       # CI smoke

Timings are interleaved best-of-``--repeats`` (default 3) so host noise
lands on neither side of the comparison.  Writes ``BENCH_kernel.json``
(see ``--output``) with the measured rates, the speedup and the identity
verdict.  Target: >= 1.8x items/sec over the object-kernel batched
baseline at the full 1M-item scale.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from _harness import Side, interleaved_best
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.serialization import to_state
from repro.workloads import zipf_trace

#: memory budget for the benchmark sketches (generous enough that the
#: frequent part is exercised, small enough to be cache-resident)
DEFAULT_MEMORY_KB = 64.0


def build_sketch(
    memory_kb: float, seed: int, kernel: str
) -> DaVinciSketch:
    config = DaVinciConfig.from_memory_kb(memory_kb, seed=seed)
    return DaVinciSketch(config, kernel=kernel)


def time_kernel(
    memory_kb: float,
    seed: int,
    kernel: str,
    trace: List[int],
    chunk_size: int,
) -> "tuple[float, DaVinciSketch]":
    sketch = build_sketch(memory_kb, seed, kernel)
    start = time.perf_counter()
    sketch.insert_all(trace, chunk_size=chunk_size)
    return time.perf_counter() - start, sketch


def run(args: argparse.Namespace) -> Dict[str, object]:
    print(
        f"generating Zipf({args.skew}) trace: {args.items:,} items over "
        f"{args.flows:,} flows (seed {args.seed}) ...",
        flush=True,
    )
    trace = zipf_trace(
        num_packets=args.items,
        num_flows=args.flows,
        skew=args.skew,
        seed=args.seed,
    )

    # warm-up pass so both measurements see hot bytecode/caches
    for kernel in ("object", "array"):
        warm = build_sketch(args.memory_kb, args.seed + 1, kernel)
        warm.insert_all(trace[: min(len(trace), 50_000)])

    obj, arr = interleaved_best(
        [
            Side(
                "object",
                lambda: time_kernel(
                    args.memory_kb,
                    args.seed + 2,
                    "object",
                    trace,
                    args.chunk_size,
                ),
            ),
            Side(
                "array",
                lambda: time_kernel(
                    args.memory_kb,
                    args.seed + 2,
                    "array",
                    trace,
                    args.chunk_size,
                ),
            ),
        ],
        repeats=args.repeats,
    )
    object_sketch: DaVinciSketch = obj.artifact
    array_sketch: DaVinciSketch = arr.artifact

    state_identical = to_state(object_sketch) == to_state(array_sketch)

    object_rate = len(trace) / obj.seconds
    array_rate = len(trace) / arr.seconds
    speedup = array_rate / object_rate

    result: Dict[str, object] = {
        "workload": {
            "items": args.items,
            "flows": args.flows,
            "skew": args.skew,
            "seed": args.seed,
            "memory_kb": args.memory_kb,
            "chunk_size": args.chunk_size,
        },
        "object_kernel": {
            "seconds": obj.seconds,
            "items_per_second": object_rate,
            "ama": object_sketch.average_memory_access(),
        },
        "array_kernel": {
            "seconds": arr.seconds,
            "items_per_second": array_rate,
            "ama": array_sketch.average_memory_access(),
        },
        "speedup": speedup,
        "state_identical_to_object_kernel": state_identical,
    }

    print(
        f"object kernel: {obj.seconds:8.3f} s  "
        f"({object_rate:12,.0f} items/s, AMA "
        f"{object_sketch.average_memory_access():.2f})"
    )
    print(
        f"array kernel : {arr.seconds:8.3f} s  "
        f"({array_rate:12,.0f} items/s, AMA "
        f"{array_sketch.average_memory_access():.2f})"
    )
    print(f"speedup      : {speedup:.2f}x")
    print(f"state identical to object kernel: {state_identical}")
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--items", type=int, default=1_000_000, help="stream length"
    )
    parser.add_argument(
        "--flows", type=int, default=100_000, help="distinct keys"
    )
    parser.add_argument("--skew", type=float, default=1.1, help="Zipf skew")
    parser.add_argument("--seed", type=int, default=11, help="workload seed")
    parser.add_argument(
        "--memory-kb",
        type=float,
        default=DEFAULT_MEMORY_KB,
        help="sketch memory budget (KB)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=1 << 16,
        help="insert_batch chunk size",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="interleaved measurement rounds (best-of-N)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 100k items / 20k flows, 2 rounds",
    )
    parser.add_argument(
        "--output",
        default="BENCH_kernel.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if the array kernel is below this speedup",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.items = min(args.items, 100_000)
        args.flows = min(args.flows, 20_000)
        args.repeats = min(args.repeats, 2)

    result = run(args)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if not result["state_identical_to_object_kernel"]:
        print("ERROR: array-kernel sketch state diverged from object kernel")
        return 1
    if float(result["speedup"]) < args.min_speedup:  # type: ignore[arg-type]
        print(
            f"ERROR: speedup {result['speedup']:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
