"""The three workloads: cold Table 3, warm re-render, mixed service load.

Every workload runs the checkout's own ``repro`` CLI (through
``launch.py``) at scale 1.0 on the superblock backend and checks each
output against the goldens in ``goldens/``.  See README.md for why each
workload exists and what it leaves out.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import loadclient
import spans
from stats import median, tail

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDENS = BENCH_DIR / "goldens"
LAUNCH = BENCH_DIR / "launch.py"
CACHE = BENCH_DIR / ".work" / "cache"

#: The analogs of the batch workloads: all three are in Tables 2-4 and
#: Figure 3, and chess and li have non-zero achieved cost in Table 3, so
#: colouring and sizing do real work at scale 1.0.
BENCHMARKS = ("chess", "li", "plot")

#: The daemon's key space: Table 3/4's fourteen analogs, so that a submit
#: seldom finds its twin in flight and dedupe stays a minor effect.
SERVICE_BENCHMARKS = (
    "chess", "compress", "gcc", "gs", "li", "m88ksim", "perl_a", "perl_b",
    "pgp", "plot", "python", "ss_a", "ss_b", "tex",
)

SCALE = "1.0"
BACKEND = "superblock"
JOBS = "2"
WARM_COMMANDS = ("table2", "table3", "table4", "figure3")

#: Set-up is repeated this many times per run; its median is reported.
SETUP_TRIALS = 3

#: Open-loop base rate (submits/s) and the latency limit (s).
BASE_RATE = 1.5
LATENCY_LIMIT_S = 2.0
#: Submits kept outstanding while the daemon is saturated.
SATURATION_OUTSTANDING = 4
#: Share of the run length spent saturating the daemon; the rest is the
#: open-loop base phase.
SATURATION_SHARE = 0.2

#: Longest any one CLI process may take before the run is abandoned.
CLI_TIMEOUT_S = 150

_JOB_LINE = re.compile(r"^\s+(\S+)\s+([0-9.]+)s\s+(\S+)\s*$")
_CACHE_LINE = re.compile(r"cache: (\d+) hit\(s\), (\d+) simulated")
_FAULT_LINE = re.compile(r"faults: (\d+) failed")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a CLI that crashed)."""


@dataclass
class CliRun:
    """One finished CLI process: its wall-clock, output and exit code."""

    wall: float
    stdout: str
    stderr: str
    returncode: int

    @property
    def table(self) -> str:
        """The experiment's rendered output, without the engine summary."""
        return self.stdout.split("\n-- engine --", 1)[0]

    def job_seconds(self) -> List[float]:
        summary = self.stdout.split("\n-- engine --", 1)[-1]
        return [float(m.group(2)) for m in map(_JOB_LINE.match, summary.splitlines()) if m]

    def cache_counts(self) -> Optional[Tuple[int, int]]:
        m = _CACHE_LINE.search(self.stdout)
        return (int(m.group(1)), int(m.group(2))) if m else None

    def faults(self) -> Optional[int]:
        m = _FAULT_LINE.search(self.stdout)
        return int(m.group(1)) if m else None


def wait_rusage(proc: subprocess.Popen, timeout: Optional[float]) -> int:
    """Wait for *proc*; return the peak RSS (KiB) of it and its waited-for
    descendants.  Kills it after *timeout* seconds."""
    timer = threading.Timer(timeout, proc.kill) if timeout else None
    if timer:
        timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if timer:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


@dataclass
class Context:
    """One benchmark run: its scratch directory, seed, length and checks."""

    work: Path
    seed: int
    seconds: float
    run_id: str
    benchmarks: Tuple[str, ...] = BENCHMARKS
    service_benchmarks: Tuple[str, ...] = SERVICE_BENCHMARKS
    scale: str = SCALE
    goldens: Path = GOLDENS
    cache: Path = CACHE
    problems: List[str] = field(default_factory=list)
    #: largest resident set (KiB) of any process the run started.
    peak_rss_kb: int = 0

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def store_names(self) -> Tuple[str, ...]:
        """Every analog the filled store holds."""
        return tuple(dict.fromkeys(self.benchmarks + self.service_benchmarks))

    def env(self, trace_dir: Optional[Path]) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
        if trace_dir is not None:
            env[spans.TRACE_DIR_ENV] = str(trace_dir)
            env[spans.RUN_ID_ENV] = self.run_id
        return env

    def popen(self, args: Sequence[str], trace_dir: Optional[Path], stdout, stderr) -> subprocess.Popen:
        env = self.env(trace_dir)
        env[spans.LAUNCHED_AT_ENV] = repr(time.monotonic())
        return subprocess.Popen([sys.executable, str(LAUNCH), *args], cwd=ROOT,
                                env=env, stdout=stdout, stderr=stderr)

    def cli(self, args: Sequence[str], trace_dir: Optional[Path] = None,
            measured: bool = True) -> CliRun:
        """Run one CLI process to completion; *measured* counts its memory."""
        self.work.mkdir(parents=True, exist_ok=True)
        out_path, err_path = self.work / "cli.out", self.work / "cli.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = self.popen(args, trace_dir, out, err)
            rss = wait_rusage(proc, CLI_TIMEOUT_S)
            wall = time.monotonic() - start
        if measured:
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return CliRun(wall, out_path.read_text(), err_path.read_text(), proc.returncode)

    def experiment(self, exp: Optional[str], store: Path,
                   trace_dir: Optional[Path] = None,
                   names: Optional[Sequence[str]] = None,
                   measured: bool = True) -> CliRun:
        args = ["experiment"] + ([exp] if exp else []) + [
            "--benchmarks", ",".join(names or self.benchmarks), "--scale", self.scale,
            "--jobs", JOBS, "--backend", BACKEND, "--cache", str(store),
        ]
        run = self.cli(args, trace_dir, measured)
        if run.returncode != 0:
            raise BenchError(
                f"repro {' '.join(args)} exited {run.returncode}:\n{run.stderr[-2000:]}"
            )
        return run

    def golden(self, name: str) -> str:
        return (self.goldens / f"{name}.txt").read_text()

    def check_table(self, name: str, run: CliRun, hits: int, simulated: int) -> bool:
        """Byte-for-byte golden check plus the engine's cache/fault lines."""
        ok = True
        if run.table != self.golden(name):
            self.problems.append(f"{name}: output differs from goldens/{name}.txt")
            ok = False
        if run.cache_counts() != (hits, simulated):
            self.problems.append(
                f"{name}: expected {hits} store hit(s) and {simulated} simulated, "
                f"engine reported {run.cache_counts()}"
            )
            ok = False
        if run.faults() != 0:
            self.problems.append(f"{name}: engine reported {run.faults()} failed job(s)")
            ok = False
        return ok

    def expected(self) -> Dict[str, Any]:
        return json.loads((self.goldens / "service.json").read_text())

    @property
    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


def keep_going(started: float, seconds: float, passes: int, last: float) -> bool:
    """Start another pass while it should end within the run length."""
    if passes == 0:
        return True
    return time.monotonic() - started + last <= seconds * 1.1


@dataclass
class Result:
    """What a workload hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str] = field(default_factory=list)
    #: (percentile, sample count) of ``latency_tail_s``.
    tail: Optional[Tuple[float, int]] = None


# -- the filled store ------------------------------------------------------------


def source_key(ctx: Context) -> str:
    """Digest of every file under ``src/`` and of the store's parameters."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    h.update(repr((ctx.store_names(), ctx.scale, BACKEND)).encode())
    return h.hexdigest()[:16]


def filled_store(ctx: Context) -> Tuple[Path, Dict[str, Dict[str, Any]], Optional[float]]:
    """The store warm-repro and service-mixed read, filled by the code
    under test; (store, expected per analog, fill seconds or None).

    Filling all fifteen analogs at scale 1.0 takes about 50 s on two
    cores, too long to repeat in every run.  The first run in a checkout
    fills it, and computes each analog's expected digest and replay
    counts, under ``.work/cache/`` keyed by :func:`source_key`; later
    runs of the same sources copy it.
    """
    cache = ctx.cache / f"store-{source_key(ctx)}"
    built = None
    if not (cache / "expected.json").is_file():
        tmp = ctx.cache / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        start = time.monotonic()
        names = ctx.store_names()
        run = ctx.experiment(None, tmp / "store", names=names, measured=False)
        if run.cache_counts() != (0, len(names)):
            raise BenchError(f"store fill: engine reported {run.cache_counts()}")
        expected = replay_counts(ctx, tmp / "store", names)
        (tmp / "expected.json").write_text(json.dumps(expected, sort_keys=True))
        built = time.monotonic() - start
        shutil.rmtree(cache, ignore_errors=True)
        os.replace(tmp, cache)
    expected = json.loads((cache / "expected.json").read_text())
    goldens = ctx.expected()
    for name, want in expected.items():
        if want["counts"] != goldens["gshare12"][name] or want["events"] != goldens["events"][name]:
            ctx.problems.append(f"{name}: in-process replay {want} differs from goldens")
    return cache / "store", expected, built


def replay_counts(ctx: Context, store: Path, names: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Per analog: the job digest, branch-event count and
    :data:`loadclient.REPLAY_BANK` counts, computed in this process from
    ``ArtifactStore.load`` and ``BranchEventBus.replay``."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.eval.engine import ArtifactStore, JobSpec, compute_job_digest
    from repro.pipeline.bus import BranchEventBus
    from repro.pipeline.consumers import PredictorConsumer
    from repro.service.jobs import build_predictor

    out: Dict[str, Dict[str, Any]] = {}
    store_obj = ArtifactStore(store)
    for name in names:
        spec = JobSpec(name=name, scale=float(ctx.scale), trace_limit=None, backend=BACKEND)
        digest = compute_job_digest(spec)
        artifacts = store_obj.load(spec, digest)
        if artifacts is None:
            raise BenchError(f"store has no artifacts for {name} after the fill")
        bank = [PredictorConsumer(build_predictor(t), label=name) for t in loadclient.REPLAY_BANK]
        BranchEventBus.replay(artifacts.trace, bank)
        counts = {
            text: {"branches": c.result.branches, "mispredictions": c.result.mispredictions}
            for text, c in zip(loadclient.REPLAY_BANK, bank)
        }
        out[name] = {"digest": digest, "counts": counts, "events": len(artifacts.trace)}
    return out


# -- set-up ------------------------------------------------------------------------


def prepare(ctx: Context, cached: Optional[Path]) -> Path:
    """The run's store: empty, or a copy of the filled one."""
    store = ctx.work / "store"
    shutil.rmtree(store, ignore_errors=True)
    if cached is None:
        store.mkdir(parents=True)
    else:
        shutil.copytree(cached, store)
    return store


def cli_setup(ctx: Context, cached: Optional[Path]) -> Tuple[Path, float]:
    """Prepare the store and launch the CLI once (``repro list``), three
    times; (store, median seconds)."""
    times = []
    for _ in range(SETUP_TRIALS):
        start = time.monotonic()
        store = prepare(ctx, cached)
        run = ctx.cli(["list"])
        if run.returncode != 0 or "benchmark analogs" not in run.stdout:
            raise BenchError(f"repro list failed:\n{run.stderr[-2000:]}")
        times.append(time.monotonic() - start)
    return store, median(times)


# -- cold-table3 -------------------------------------------------------------------


def cold_pass(ctx: Context, trace_dir: Optional[Path] = None) -> Tuple[CliRun, bool]:
    store = prepare(ctx, None)
    run = ctx.experiment("table3", store, trace_dir)
    ok = ctx.check_table("table3", run, hits=0, simulated=len(ctx.benchmarks))
    return run, ok


def cold_table3(ctx: Context) -> Result:
    _, setup = cli_setup(ctx, None)
    events = sum(ctx.expected()["events"][b] for b in ctx.benchmarks)
    walls: List[float] = []
    jobs: List[float] = []
    failed = 0
    started = time.monotonic()
    while keep_going(started, ctx.seconds, len(walls), walls[-1] if walls else 0.0):
        run, ok = cold_pass(ctx)
        walls.append(run.wall)
        jobs += run.job_seconds()
        failed += 0 if ok else len(ctx.benchmarks)
    repro = median(walls)
    attempted = len(walls) * len(ctx.benchmarks)
    metrics, tail_at = _batch_metrics(ctx, setup, repro, events / repro, jobs,
                                      len(ctx.benchmarks) / repro)
    notes = [f"{len(walls)} pass(es): " + ", ".join(f"{w:.3f}s" for w in walls)]
    return Result(attempted, failed, metrics, notes, tail_at)


# -- warm-repro --------------------------------------------------------------------


def warm_pass(ctx: Context, store: Path, trace_dir: Optional[Path] = None) -> Tuple[float, List[float], int]:
    """The four re-render commands in order; (wall, per-command walls, failed jobs).

    Traced, each command writes its spans to ``<trace_dir>/<command>``.
    """
    start = time.monotonic()
    walls = []
    failed = 0
    for exp in WARM_COMMANDS:
        run = ctx.experiment(exp, store, trace_dir and ctx.fresh(str(trace_dir.relative_to(ctx.work) / exp)))
        walls.append(run.wall)
        if not ctx.check_table(exp, run, hits=len(ctx.benchmarks), simulated=0):
            failed += len(ctx.benchmarks)
    return time.monotonic() - start, walls, failed


def warm_repro(ctx: Context) -> Result:
    cached, _, built = filled_store(ctx)
    store, setup = cli_setup(ctx, cached)
    events = sum(ctx.expected()["events"][b] for b in ctx.benchmarks)
    walls: List[float] = []
    commands: List[float] = []
    failed = 0
    started = time.monotonic()
    while keep_going(started, ctx.seconds, len(walls), walls[-1] if walls else 0.0):
        wall, per_command, bad = warm_pass(ctx, store)
        walls.append(wall)
        commands += per_command
        failed += bad
    repro = median(walls)
    units = len(WARM_COMMANDS) * len(ctx.benchmarks)
    attempted = len(walls) * units
    notes = [f"{len(walls)} pass(es): " + ", ".join(f"{w:.3f}s" for w in walls)]
    if built is not None:
        notes.insert(0, f"filled the store once for these sources in {built:.1f}s")
    metrics, tail_at = _batch_metrics(ctx, setup, repro, len(WARM_COMMANDS) * events / repro,
                                      commands, units / repro)
    return Result(attempted, failed, metrics, notes, tail_at)


def _batch_metrics(ctx, setup, repro, events_per_s, latencies, rate):
    """The end-to-end metrics of a batch workload (``ok_frac`` is added
    by ``run.py``), and the percentile and sample count of the tail."""
    value, pct, n = tail(latencies)
    return {
        "setup_s": (setup, "s"),
        "repro_s": (repro, "s"),
        "events_per_s": (events_per_s, "events/s"),
        "peak_rss_mb": (ctx.peak_rss_mb, "MiB"),
        "latency_p50_s": (median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "max_rate_rps": (rate, "1/s"),
    }, (pct, n)


# -- service-mixed -----------------------------------------------------------------


class Daemon:
    """``repro serve`` over a store, launched through ``launch.py``."""

    def __init__(self, ctx: Context, store: Path, trace_dir: Optional[Path] = None) -> None:
        self.ctx = ctx
        self.socket = str((ctx.work / "s.sock").relative_to(ROOT))
        self.log = open(ctx.work / "daemon.log", "ab")
        start = time.monotonic()
        self.proc = ctx.popen(
            ["serve", "--socket", self.socket, "--cache", str(store), "--workers", JOBS],
            trace_dir, self.log, subprocess.STDOUT,
        )
        try:
            self._wait_ready(start)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, start: float) -> None:
        path = ROOT / self.socket
        while time.monotonic() - start < 60:
            if self.proc.poll() is not None:
                raise BenchError(f"repro serve exited {self.proc.returncode} at start")
            if path.exists():
                try:
                    frame = asyncio.run(loadclient.ping(self.socket))
                except (ConnectionError, FileNotFoundError, asyncio.TimeoutError):
                    frame = {}
                if frame.get("type") == "pong":
                    return
            time.sleep(0.01)
        raise BenchError("repro serve did not answer ping within 60 s")

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits 0); SIGKILL after 30 s."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            rss = wait_rusage(self.proc, 30)
            self.ctx.peak_rss_kb = max(self.ctx.peak_rss_kb, rss)
        self.log.close()


def start_daemon(ctx: Context, cached: Path, trace_dir: Optional[Path] = None,
                 trials: int = SETUP_TRIALS) -> Tuple[Daemon, float]:
    """Set up *trials* times: copy the store, launch, wait for ``pong``.

    The last daemon keeps running; returns it and the median set-up time.
    """
    times = []
    for i in range(trials):
        start = time.monotonic()
        store = prepare(ctx, cached)
        daemon = Daemon(ctx, store, trace_dir if i == trials - 1 else None)
        times.append(time.monotonic() - start)
        if i < trials - 1:
            daemon.stop()
    return daemon, median(times)


def check_outcome(o: loadclient.Outcome, expected: Dict[str, Dict[str, Any]], problems: List[str]) -> Tuple[bool, bool]:
    """(succeeded, output correct) for one submit."""
    if o.kind != "completed":
        return False, True
    want = expected[o.submit.benchmark]
    frame = o.frame
    if frame.get("digest") != want["digest"]:
        problems.append(f"{o.submit.job_id}: digest {frame.get('digest')} != {want['digest']}")
        return True, False
    predictions = frame.get("predictions")
    if predictions is not None:
        for text, counts in want["counts"].items():
            got = predictions.get(text)
            if got is not None and (got["branches"], got["mispredictions"]) != (
                counts["branches"], counts["mispredictions"]
            ):
                problems.append(f"{o.submit.job_id}: {text} counts {got} != {counts}")
                return True, False
    # A deduped submit gets its primary's terminal frame (docs/SERVICE.md),
    # which carries no predictions when the primary asked for none.
    if o.submit.predictors and predictions is None and not o.accepted_frame.get("dedup"):
        problems.append(f"{o.submit.job_id}: asked for {o.submit.predictors}, got no predictions")
        return True, False
    return True, True


def saturation_submits(ctx: Context, first_index: int):
    """The saturation phase's endless stream of submits.

    Unlike the base schedule it does not depend on the seed: the daemon's
    throughput depends on which analogs it serves, so every run offers
    the same sequence and only the machine varies.
    """
    rng = random.Random("saturate")
    index = first_index
    while True:
        for name, preds in loadclient.mix(ctx.service_benchmarks, 4 * len(ctx.service_benchmarks), rng):
            yield loadclient.Submit(index, 0.0, name, preds)
            index += 1


async def _load(daemon: Daemon, ctx: Context, n_base: int, saturate_s: float):
    """The open-loop base phase, then *saturate_s* seconds of saturation;
    plus the daemon's ``stats`` frame."""
    base = loadclient.schedule(ctx.seed, ctx.service_benchmarks, BASE_RATE, n_base)
    async with loadclient.Client(daemon.socket, float(ctx.scale), BACKEND) as client:
        base_out = await client.run(base, time.monotonic() + 0.05)
        saturated: List[loadclient.Outcome] = []
        if saturate_s > 0:
            saturated = await client.saturate(
                saturation_submits(ctx, n_base), SATURATION_OUTSTANDING, saturate_s)
        stats = await client.stats()
    return base_out, saturated, stats


def run_load(ctx: Context, daemon: Daemon, n_base: int, saturate_s: float):
    try:
        return asyncio.run(_load(daemon, ctx, n_base, saturate_s))
    finally:
        daemon.stop()


def base_figures(base_out, expected, problems) -> Dict[str, Any]:
    """Success, correctness, latencies (inf for a failed submit), events
    served and makespan (first due time to last terminal frame)."""
    succeeded = 0
    correct = True
    lat = []
    events = 0
    for o in base_out:
        ok, right = check_outcome(o, expected, problems)
        correct = correct and right
        if ok:
            succeeded += 1
            events += expected[o.submit.benchmark]["events"]
        lat.append(o.latency if ok else float("inf"))
    first_due = min(o.due for o in base_out)
    last_done = max(o.done or time.monotonic() for o in base_out)
    return {"succeeded": succeeded, "correct": correct, "latencies": lat,
            "events": events, "makespan": last_done - first_due}


def saturation_rate(saturated: Sequence[loadclient.Outcome]) -> float:
    """Completions per second once the pipeline is full: from the
    ``SATURATION_OUTSTANDING``-th completion to the last one."""
    done = sorted(o.done for o in saturated if o.kind == "completed")
    skip = SATURATION_OUTSTANDING
    if len(done) <= skip + 1:
        raise BenchError(f"only {len(done)} submit(s) completed while saturated")
    return (len(done) - skip) / (done[-1] - done[skip - 1])


def service_mixed(ctx: Context) -> Result:
    cached, expected, built = filled_store(ctx)
    daemon, setup = start_daemon(ctx, cached)
    saturate_s = SATURATION_SHARE * ctx.seconds
    n_base = max(11, round(BASE_RATE * (ctx.seconds - saturate_s)))
    base_out, saturated, stats = run_load(ctx, daemon, n_base, saturate_s)
    fig = base_figures(base_out, expected, ctx.problems)
    sat = base_figures(saturated, expected, ctx.problems)
    value, pct, n = tail(fig["latencies"])
    lateness = [o.lateness for o in base_out]
    sat_tail = tail(sat["latencies"])
    metrics = {
        "setup_s": (setup, "s"),
        "repro_s": (fig["makespan"], "s"),
        "events_per_s": (fig["events"] / fig["makespan"], "events/s"),
        "peak_rss_mb": (ctx.peak_rss_mb, "MiB"),
        "latency_p50_s": (median(fig["latencies"]), "s"),
        "latency_tail_s": (value, "s"),
        "max_rate_rps": (saturation_rate(saturated), "1/s"),
    }
    notes = [
        f"base: {n_base} submits at {BASE_RATE}/s, lateness p50 "
        f"{median(lateness):.4f}s max {max(lateness):.4f}s",
        f"saturated: {len(saturated)} submits with {SATURATION_OUTSTANDING} outstanding "
        f"over {saturate_s:.1f}s; latency p50 {median(sat['latencies']):.3f}s, "
        f"p{sat_tail[1]:.1f} {sat_tail[0]:.3f}s (n={sat_tail[2]}, limit {LATENCY_LIMIT_S}s)",
        f"daemon jobs: {json.dumps(stats.get('jobs', {}), sort_keys=True)}",
    ]
    if built is not None:
        notes.insert(0, f"filled the store once for these sources in {built:.1f}s")
    attempted = n_base + len(saturated)
    failed = attempted - fig["succeeded"] - sat["succeeded"]
    return Result(attempted, failed, metrics, notes, (pct, n))
