"""Re-capture the goldens from the checkout's own code.

    python3 perfbench/capture_goldens.py

Writes ``goldens/<experiment>.txt`` (the CLI output of Tables 2-4 and
Figure 3 on the benchmark's analogs, without the engine summary) and
``goldens/service.json`` (branch-event count and ``gshare:12`` replay
counts of every analog the workloads use).  Run it only on a commit whose output is
known good; the committed goldens were captured from the commit that
added the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads
from workloads import Context


def capture(ctx: Context) -> None:
    """Write the goldens of *ctx*'s analogs at its scale into ``ctx.goldens``."""
    ctx.goldens.mkdir(parents=True, exist_ok=True)
    store = ctx.fresh("store")
    names = ctx.store_names()
    ctx.experiment(None, store, names=names)
    for exp in workloads.WARM_COMMANDS:
        run = ctx.experiment(exp, store)
        (ctx.goldens / f"{exp}.txt").write_text(run.table)
    counts = workloads.replay_counts(ctx, store, names)
    (ctx.goldens / "service.json").write_text(json.dumps({
        "scale": float(ctx.scale),
        "backend": workloads.BACKEND,
        "events": {n: c["events"] for n, c in counts.items()},
        "gshare12": {n: c["counts"] for n, c in counts.items()},
    }, indent=2, sort_keys=True) + "\n")


def main() -> int:
    work = workloads.BENCH_DIR / ".work" / f"capture-{os.getpid()}"
    ctx = Context(work=work, seed=0, seconds=0, run_id="capture")
    try:
        capture(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if ctx.problems:
        print("\n".join(ctx.problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
