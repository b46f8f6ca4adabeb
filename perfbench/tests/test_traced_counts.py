"""Counts of the traced run repeat exactly from run to run.

Runs the real CLI on one small analog (plot at scale 0.05) so it takes
seconds, with goldens captured by the same code first.
"""

import layers
from capture_goldens import capture
from workloads import Context

#: Counts that measure work, not time: they may not drift between runs.
EXACT = (
    "pipeline.events", "pipeline.chunks", "sim.instructions",
    "allocation.color_calls", "allocation.probes_per_sizing",
    "analysis.graph_nodes", "analysis.graph_edges",
    "store.hits", "store.misses", "engine.jobs", "engine.jobs_failed",
    "workloads.build_calls", "predictors.replay_events",
)


def _ctx(tmp_path, name, goldens):
    return Context(work=tmp_path / name, seed=1, seconds=1, run_id=name,
                   benchmarks=("plot",), service_benchmarks=("plot",), scale="0.05",
                   goldens=goldens, cache=tmp_path / "cache")


def test_traced_counts_repeat_exactly(tmp_path):
    goldens = tmp_path / "goldens"
    setup = _ctx(tmp_path, "capture", goldens)
    capture(setup)
    assert setup.problems == []
    for traced in (layers.traced_cold, layers.traced_warm):
        first = traced(_ctx(tmp_path, "a", goldens))
        second = traced(_ctx(tmp_path, "b", goldens))
        assert first.failed == second.failed == 0
        a = {k: first.metrics[k][0] for k in EXACT}
        b = {k: second.metrics[k][0] for k in EXACT}
        assert a == b, traced.__name__
        assert a["engine.jobs"] > 0 and a["store.hits"] + a["store.misses"] > 0
    assert a["allocation.color_calls"] > 0 and a["analysis.graph_nodes"] > 0
    assert first.metrics["trace.overhead_frac"][1] == "ratio"
