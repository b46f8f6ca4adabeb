"""ExecutionEngine tests: digests, the artifact store, and parallel runs."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

import repro.eval.engine as engine_mod
import repro.eval.experiments as experiments_mod
import repro.workloads.build as build_mod
from repro.eval.engine import (
    ArtifactStore,
    ExecutionEngine,
    JobSpec,
    _execute_job,
    artifact_digest,
    compute_job_digest,
    prefetch_artifacts,
    toolchain_fingerprint,
)
from repro.eval.experiments import run_experiment
from repro.eval.runner import BenchmarkRunner
from repro.eval.tables import format_table2, run_table2
from repro.isa.program import Program
from repro.trace.io import read_trace_meta
from repro.workloads.kernels import common as kernels_common
from repro.workloads.suite import benchmark_names, get_benchmark

#: Small enough to keep each simulation ~1s.
SCALE = 0.05
SUBSET = ["plot", "pgp", "compress"]


# -- content digests --------------------------------------------------------


def test_digest_is_deterministic():
    spec = JobSpec("plot", scale=SCALE)
    first = compute_job_digest(spec)
    second = compute_job_digest(spec)
    assert first == second
    assert len(first) == 64
    int(first, 16)  # valid hex


def test_digest_tracks_content():
    base = compute_job_digest(JobSpec("plot", scale=SCALE))
    # a different program image, a different scale (hence input/fuel), and
    # a different capture limit must all produce different digests
    assert compute_job_digest(JobSpec("pgp", scale=SCALE)) != base
    assert compute_job_digest(JobSpec("plot", scale=0.1)) != base
    assert (
        compute_job_digest(JobSpec("plot", scale=SCALE, trace_limit=500))
        != base
    )


def test_digest_tracks_one_kernels_emitted_text(monkeypatch):
    """Editing one kernel's body changes the digest (no assembly runs)."""
    base = compute_job_digest(JobSpec("plot", scale=SCALE))
    kernel = get_benchmark("plot", SCALE).phases[0].calls[0].kernel
    original = kernels_common.get_kernel(kernel)
    edited = dataclasses.replace(
        original, emit=lambda suffix: original.emit(suffix) + "\n    nop"
    )
    monkeypatch.setitem(kernels_common._REGISTRY, kernel, edited)
    assert compute_job_digest(JobSpec("plot", scale=SCALE)) != base


def test_digest_tracks_the_toolchain_fingerprint(monkeypatch):
    base = compute_job_digest(JobSpec("plot", scale=SCALE))
    monkeypatch.setattr(
        engine_mod, "toolchain_fingerprint", lambda: "an edited assembler"
    )
    assert compute_job_digest(JobSpec("plot", scale=SCALE)) != base


def test_toolchain_fingerprint_covers_assembler_and_encoder_sources(
    tmp_path, monkeypatch
):
    """The fingerprint hashes the asm/isa sources: editing one byte of
    either package changes it (so an assembler edit re-keys the store)."""
    for package in ("asm", "isa"):
        shutil.copytree(
            engine_mod._SOURCE_ROOT / package,
            tmp_path / package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    monkeypatch.setattr(engine_mod, "_SOURCE_ROOT", tmp_path)
    toolchain_fingerprint.cache_clear()
    try:
        base = toolchain_fingerprint()
        for source in ("asm/assembler.py", "isa/program.py"):
            path = tmp_path / source
            path.write_text(path.read_text() + "\n# edited\n")
            toolchain_fingerprint.cache_clear()
            edited = toolchain_fingerprint()
            assert edited != base
            base = edited
    finally:
        monkeypatch.undo()
        toolchain_fingerprint.cache_clear()
    assert len(toolchain_fingerprint()) == 64


@pytest.mark.parametrize(
    "change",
    ["seed", "fuel", "limit", "backend"],
)
def test_digest_tracks_every_capture_parameter(change):
    workload = get_benchmark("plot", SCALE)
    base = artifact_digest(workload)
    if change == "seed":
        workload = dataclasses.replace(
            workload, random_seed=workload.random_seed + 1
        )
    elif change == "fuel":
        workload = dataclasses.replace(workload, fuel=workload.fuel + 1)
    kwargs = {
        "limit": {"trace_limit": 500},
        "backend": {"backend": "interp"},  # the default is superblock
    }.get(change, {})
    assert artifact_digest(workload, **kwargs) != base


def test_every_analog_has_a_distinct_digest():
    names = benchmark_names()
    assert len(names) == 15
    digests = {compute_job_digest(JobSpec(name, scale=1.0)) for name in names}
    assert len(digests) == len(names)


def test_warm_store_hit_neither_assembles_nor_encodes(tmp_path, monkeypatch):
    spec = JobSpec("plot", scale=SCALE)
    payload = (spec, str(tmp_path), False, None)
    assert _execute_job(payload).source == "simulated"
    calls = {"assemble": 0, "to_image": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        build_mod, "assemble", counting("assemble", build_mod.assemble)
    )
    monkeypatch.setattr(
        Program, "to_image", counting("to_image", Program.to_image)
    )
    assert _execute_job(payload).source == "store"
    assert calls == {"assemble": 0, "to_image": 0}
    # the counters are live: a miss does assemble
    shutil.rmtree(tmp_path)
    assert _execute_job(payload).source == "simulated"
    assert calls["assemble"] == 1


def test_cache_paths_fold_digest(tmp_path):
    """The legacy name-sSCALE scheme now carries the content digest, so a
    kernel edit (different digest) can never resurrect a stale artifact."""
    runner = BenchmarkRunner(scale=SCALE, cache_dir=tmp_path)
    trace_path, profile_path = runner._cache_paths("plot")
    digest = runner.engine.digest("plot")
    assert digest[: ArtifactStore.DIGEST_CHARS] in trace_path.name
    assert digest[: ArtifactStore.DIGEST_CHARS] in profile_path.name
    assert trace_path.name.startswith(f"plot-s{SCALE:g}-")


# -- artifact store ---------------------------------------------------------


def test_store_round_trip_and_counters(tmp_path):
    cold = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    first = cold.artifacts("plot")
    assert cold.stats.simulated == 1
    assert cold.stats.store_hits == 0

    digest = cold.digest("plot")
    stem = f"{cold.job('plot').tag()}-{digest[:ArtifactStore.DIGEST_CHARS]}"
    trace_path = tmp_path / f"{stem}.trace.npz"
    meta_path = tmp_path / f"{stem}.meta.json"
    assert trace_path.exists()
    assert (tmp_path / f"{stem}.profile.json").exists()

    # provenance is stamped both in the sidecar and inside the trace file
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["digest"] == digest
    assert meta["benchmark"] == "plot"
    assert read_trace_meta(trace_path)["digest"] == digest

    # a fresh engine loads from the store instead of re-simulating
    warm = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    second = warm.artifacts("plot")
    assert warm.stats.store_hits == 1
    assert warm.stats.simulated == 0
    assert np.array_equal(first.trace.pcs, second.trace.pcs)
    assert second.profile.pairs == first.profile.pairs
    assert second.instructions == first.instructions
    assert second.static_branches == first.static_branches

    # repeated access is memoised (and counted)
    assert warm.artifacts("plot") is second
    assert warm.stats.memo_hits == 1


def test_stats_render_mentions_jobs_and_cache(tmp_path):
    engine = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    engine.artifacts("plot")
    rendered = engine.stats.render()
    assert "plot" in rendered
    assert "simulated" in rendered
    assert "cache:" in rendered
    as_dict = engine.stats.as_dict()
    assert as_dict["simulated"] == 1
    assert as_dict["jobs"][0]["benchmark"] == "plot"


def test_engine_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        ExecutionEngine(scale=SCALE, jobs=0)


# -- parallel determinism ---------------------------------------------------


def test_parallel_matches_sequential(tmp_path):
    """--jobs N must be invisible in the outputs: same digests, same
    traces, same rendered table as a sequential run."""
    seq = ExecutionEngine(scale=SCALE, cache_dir=tmp_path / "seq")
    seq.prefetch(SUBSET)
    par = ExecutionEngine(scale=SCALE, cache_dir=tmp_path / "par", jobs=4)
    par.prefetch(SUBSET)
    assert par.stats.simulated == len(SUBSET)

    for name in SUBSET:
        assert seq.digest(name) == par.digest(name)
        a, b = seq.artifacts(name), par.artifacts(name)
        assert np.array_equal(a.trace.pcs, b.trace.pcs)
        assert np.array_equal(a.trace.taken, b.trace.taken)
        assert a.profile.pairs == b.profile.pairs

    table_seq = format_table2(run_table2(seq, SUBSET, threshold=5))
    table_par = format_table2(run_table2(par, SUBSET, threshold=5))
    assert table_seq == table_par


def test_parallel_without_store_ships_artifacts(tmp_path):
    """With no store the pool pickles artifacts back to the parent."""
    seq = ExecutionEngine(scale=SCALE)
    par = ExecutionEngine(scale=SCALE, jobs=4)
    names = SUBSET[:2]
    seq.prefetch(names)
    par.prefetch(names)
    for name in names:
        assert np.array_equal(
            seq.trace(name).pcs, par.trace(name).pcs
        )
        assert seq.profile(name).pairs == par.profile(name).pairs


# -- uniform runner API -----------------------------------------------------


def test_run_experiment_accepts_bare_engine(tmp_path):
    """Experiment entry points take an engine or the facade uniformly."""
    engine = ExecutionEngine(scale=0.03, cache_dir=tmp_path, jobs=2)
    out = run_experiment("table2", engine)
    assert "Table 2" in out
    assert engine.stats.simulated > 0


def test_prefetch_artifacts_tolerates_plain_runner():
    class Stub:
        pass

    prefetch_artifacts(Stub(), ["plot"])  # no prefetch method: no-op


def test_run_all_shim_is_gone():
    # the deprecated run_all alias completed its removal cycle
    assert not hasattr(experiments_mod, "run_all")
    import repro.eval

    assert not hasattr(repro.eval, "run_all")
