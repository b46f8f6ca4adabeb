"""The traced run: per-layer metrics, layer shares and tracing overhead.

Each traced workload runs one untraced pass and one traced pass of the
same work.  The per-layer metrics come from the traced pass alone, so
its counts repeat exactly from run to run on the batch workloads;
``trace.overhead_frac`` is traced over untraced wall-clock, minus one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import spans
import workloads
from stats import median
from workloads import Context, Result

#: Span-timed layers, named after their spans.  Each gets ``<name>_s``
#: (total) and ``<name>_self_s`` (self time).
TIMED = (
    "workloads.build", "isa.encode", "engine.digest", "store.verify",
    "store.load", "store.put", "sim.codegen", "profiling.interleave",
    "trace.builder", "analysis.graph_build", "analysis.working_sets",
    "allocation.color", "allocation.sizing", "predictors.replay",
    "report.render",
)

#: Self-time layers whose share of the run is printed.  ``cli.main`` is
#: left out: its self time is whatever no named layer covers, which in
#: the daemon is mostly an idle event loop.
SHARES = (
    "cli.startup", "workloads.build", "isa.encode",
    "engine.digest", "engine.prefetch", "engine.spawn", "store.verify",
    "store.load", "store.put", "store.claim_wait", "sim.run",
    "sim.codegen", "pipeline.dispatch", "profiling.interleave",
    "trace.builder", "analysis.graph_build", "analysis.working_sets",
    "allocation.color", "allocation.allocate", "allocation.sizing",
    "predictors.replay", "report.render",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(roll: Dict[str, Any], service: Optional[Dict[str, float]] = None,
                  overhead: float = 0.0) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, 0 where the layer did not run."""
    total, self_, calls, counts = roll["total"], roll["self"], roll["calls"], roll["counts"]
    m: Dict[str, Tuple[float, str]] = {
        "cli.startup_s": (total["cli.startup"], "s"),
        "workloads.build_calls": (calls["workloads.build"], "count"),
        "engine.prefetch_s": (total["engine.prefetch"], "s"),
        "engine.worker_wait_s": (self_["engine.prefetch"], "s"),
        "engine.jobs": (counts["engine.jobs"], "count"),
        "engine.jobs_failed": (counts["engine.jobs_failed"], "count"),
        "engine.jobs_retried": (counts["engine.jobs_retried"], "count"),
        "store.hits": (counts["store.hits"], "count"),
        "store.misses": (counts["store.misses"], "count"),
        "store.hit_ratio": (_ratio(counts["store.hits"], counts["store.hits"] + counts["store.misses"]), "ratio"),
        "store.claim_wait_s": (total["store.claim_wait"], "s"),
        "sim.run_s": (total["sim.run"], "s"),
        "sim.self_s": (self_["sim.run"], "s"),
        "sim.instructions": (counts["sim.instructions"], "count"),
        "sim.instr_per_s": (_ratio(counts["sim.instructions"], self_["sim.run"]), "instr/s"),
        "pipeline.events": (counts["pipeline.events"], "count"),
        "pipeline.chunks": (counts["pipeline.chunks"], "count"),
        "profiling.interleave_events_per_s": (
            _ratio(counts["profiling.interleave_events"], total["profiling.interleave"]), "events/s"),
        "analysis.graph_nodes": (counts["analysis.graph_nodes"], "count"),
        "analysis.graph_edges": (counts["analysis.graph_edges"], "count"),
        "allocation.color_calls": (calls["allocation.color"], "count"),
        "allocation.probes_per_sizing": (
            _ratio(roll["child_calls"][("allocation.sizing", "allocation.allocate")],
                   calls["allocation.sizing"]), "count"),
        "predictors.replay_events": (counts["predictors.replay_events"], "count"),
        "predictors.events_per_s": (
            _ratio(counts["predictors.replay_events"], total["predictors.replay"]), "events/s"),
    }
    for name in TIMED:
        m[f"{name}_s"] = (total[name], "s")
        m[f"{name}_self_s"] = (self_[name], "s")
    serve = roll["by_role"].get("serve") or {"total": {}}
    service = service or {}
    m.update({
        "service.accept_s": (service.get("accept_p50", 0.0), "s"),
        "service.complete_s": (service.get("complete_p50", 0.0), "s"),
        "service.digest_s": (serve["total"].get("engine.digest", 0.0), "s"),
        "service.spawn_s": (serve["total"].get("engine.spawn", 0.0), "s"),
        "service.replay_s": (serve["total"].get("predictors.replay", 0.0), "s"),
        "service.hit_ratio": (service.get("hit_ratio", 0.0), "ratio"),
        "service.dedupe_ratio": (service.get("dedupe_ratio", 0.0), "ratio"),
        "service.queue_depth_max": (service.get("queue_depth_max", 0.0), "count"),
        "loadgen.lateness_p50_s": (service.get("lateness_p50", 0.0), "s"),
        "loadgen.lateness_max_s": (service.get("lateness_max", 0.0), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return {k: (float(v), u) for k, (v, u) in sorted(m.items())}


def missing_notes(roll: Dict[str, Any]) -> List[str]:
    return [f"not in this version of the program, so its layer reads 0: {m}"
            for m in roll["missing"]]


def share_notes(selfs: Dict[str, float], base: float, label: str) -> List[str]:
    """One line per layer: its self time as a share of *base* seconds."""
    rows = sorted(((selfs.get(n, 0.0), n) for n in SHARES if selfs.get(n, 0.0) > 0), reverse=True)
    return [f"share of {label} ({base:.3f}s): {name:<24} self {sec:9.3f}s {100 * sec / base:6.1f}%"
            for sec, name in rows]


def paired(ctx: Context, run_pass: Callable[[Optional[Path]], Tuple[float, int]]):
    """Untraced, traced, traced, untraced passes (so a drift in machine
    speed cancels out of the overhead).

    *run_pass(trace_dir)* returns (wall seconds, failed units).  Returns
    the rollup of the first traced pass, the walls, the overhead and the
    failed units; the two traced passes must count the same work.
    """
    dirs = [ctx.fresh("trace-1"), ctx.fresh("trace-2")]
    walls: Dict[str, List[float]] = {"plain": [], "traced": []}
    failed = 0
    for kind, trace_dir in (("plain", None), ("traced", dirs[0]), ("traced", dirs[1]), ("plain", None)):
        wall, bad = run_pass(trace_dir)
        walls[kind].append(wall)
        failed += bad
    roll, again = (spans.rollup(spans.read_records(d)) for d in dirs)
    if dict(roll["counts"]) != dict(again["counts"]):
        ctx.problems.append(f"two traced passes counted different work: {dict(roll['counts'])} "
                            f"vs {dict(again['counts'])}")
    overhead = sum(walls["traced"]) / sum(walls["plain"]) - 1.0
    return roll, walls, overhead, failed


def _overhead_note(walls, overhead) -> str:
    return (f"untraced {', '.join(f'{w:.3f}s' for w in walls['plain'])}; traced "
            f"{', '.join(f'{w:.3f}s' for w in walls['traced'])}; overhead {overhead:+.4f}")


def traced_cold(ctx: Context) -> Result:
    def run_pass(trace_dir):
        run, ok = workloads.cold_pass(ctx, trace_dir)
        return run.wall, 0 if ok else len(ctx.benchmarks)

    roll, walls, overhead, failed = paired(ctx, run_pass)
    worker = roll["by_role"].get("worker", {"self": {}, "total": {}, "calls": {}})
    busy = worker["total"].get("engine.worker", 0.0)
    notes = missing_notes(roll) + [_overhead_note(walls, overhead),
             f"worker busy time {busy:.3f}s over {worker['calls'].get('engine.worker', 0)} job(s)"]
    notes += share_notes(worker["self"], busy, "worker busy time")
    attempted = 4 * len(ctx.benchmarks)
    return Result(attempted, failed, layer_metrics(roll, None, overhead), notes)


def traced_warm(ctx: Context) -> Result:
    cached, _, _ = workloads.filled_store(ctx)
    store = workloads.prepare(ctx, cached)

    commands: List[float] = []

    def run_pass(trace_dir):
        wall, per_command, bad = workloads.warm_pass(ctx, store, trace_dir)
        if trace_dir is not None and not commands:
            commands.extend(per_command)
        return wall, bad

    roll, walls, overhead, failed = paired(ctx, run_pass)
    notes = missing_notes(roll) + [_overhead_note(walls, overhead)]
    notes += share_notes(roll["self"], walls["traced"][0], "the traced pass")
    for exp, wall in zip(workloads.WARM_COMMANDS, commands):
        one = spans.rollup(spans.read_records(ctx.work / "trace-1" / exp))
        notes += share_notes(one["self"], wall, exp)
    attempted = 4 * len(workloads.WARM_COMMANDS) * len(ctx.benchmarks)
    return Result(attempted, failed, layer_metrics(roll, None, overhead), notes)


def traced_service(ctx: Context) -> Result:
    cached, expected, _ = workloads.filled_store(ctx)
    n_base = max(11, round(workloads.BASE_RATE * ctx.seconds / 2))
    daemon, _ = workloads.start_daemon(ctx, cached, trials=1)
    plain_out, _, _ = workloads.run_load(ctx, daemon, n_base, 0)
    trace_dir = ctx.fresh("trace")
    daemon, _ = workloads.start_daemon(ctx, cached, trace_dir, trials=1)
    traced_out, _, stats = workloads.run_load(ctx, daemon, n_base, 0)
    plain = workloads.base_figures(plain_out, expected, ctx.problems)
    traced = workloads.base_figures(traced_out, expected, ctx.problems)
    roll = spans.rollup(spans.read_records(trace_dir))
    overhead = median(traced["latencies"]) / median(plain["latencies"]) - 1.0
    jobs = stats.get("jobs", {})
    finished = jobs.get("store_hits", 0) + jobs.get("simulated", 0)
    done = [o for o in traced_out if o.accepted is not None and o.done is not None]
    service = {
        "accept_p50": median([o.accepted - o.sent for o in done]) if done else 0.0,
        "complete_p50": median([o.done - o.accepted for o in done]) if done else 0.0,
        "hit_ratio": _ratio(jobs.get("store_hits", 0), finished),
        "dedupe_ratio": _ratio(jobs.get("deduped", 0), jobs.get("submitted", 0)),
        "queue_depth_max": max([o.accepted_frame.get("queue_depth", 0) for o in done] or [0]),
        "lateness_p50": median([o.lateness for o in traced_out]),
        "lateness_max": max(o.lateness for o in traced_out),
    }
    notes = missing_notes(roll) + [f"untraced p50 {median(plain['latencies']):.4f}s, traced p50 "
             f"{median(traced['latencies']):.4f}s, overhead {overhead:+.4f}",
             f"daemon jobs: {jobs}"]
    serve = roll["by_role"].get("serve", {"self": {}})
    notes += share_notes(serve["self"], traced["makespan"], "the daemon's open-loop makespan")
    failed = (2 * n_base) - plain["succeeded"] - traced["succeeded"]
    return Result(2 * n_base, failed, layer_metrics(roll, service, overhead), notes)
