"""The reproduction benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` runs one untraced and one traced pass and prints
every per-layer metric.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Callable, Dict, Tuple

import layers
import workloads
from workloads import BenchError, Context, Result

WORKLOADS: Dict[str, Tuple[Callable[[Context], Result], Callable[[Context], Result]]] = {
    "cold-table3": (workloads.cold_table3, layers.traced_cold),
    "warm-repro": (workloads.warm_repro, layers.traced_warm),
    "service-mixed": (workloads.service_mixed, layers.traced_service),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"no repro sources under {workloads.ROOT / 'src'}", file=sys.stderr)
        return 2
    work = workloads.BENCH_DIR / ".work" / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(work=work, seed=args.seed, seconds=args.seconds,
                  run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    untraced, traced = WORKLOADS[args.workload]
    started = time.monotonic()
    try:
        result = (traced if args.trace else untraced)(ctx)
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in result.notes:
        print(f"# {note}")
    for problem in ctx.problems:
        print(f"# CHECK FAILED: {problem}")
    correct = not ctx.problems
    failed = result.failed if correct else result.attempted
    if not args.trace:
        result.metrics["ok_frac"] = (1.0 - failed / result.attempted, "ratio")
    for name, (value, unit) in result.metrics.items():
        extra = ""
        if name == "latency_tail_s" and result.tail:
            extra = f"  (p{result.tail[0]:.1f}, n={result.tail[1]})"
        print(f"{name:<40} {value:>16.6f} {unit}{extra}")
    print(f"# {args.workload}: {time.monotonic() - started:.1f}s wall")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
