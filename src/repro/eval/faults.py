"""Deterministic fault injection for the evaluation engine.

The fault-tolerance layer in :mod:`repro.eval.engine` is only trustworthy
if its failure paths are exercised on purpose.  This module injects the
faults the engine must survive:

* ``worker_crash`` — the pool worker process dies hard (``os._exit``)
  while running the named benchmark; in-process (``jobs=1``) runs raise
  instead, since killing the parent would defeat the point.
* ``worker_hang`` — the job sleeps past any reasonable deadline, forcing
  the engine's wall-clock timeout to fire.
* ``flaky`` — the job raises a transient error on its first *n* attempts
  and then succeeds, exercising retry/backoff.
* ``corrupt_trace`` / ``corrupt_meta`` — the job's stored ``.trace.npz``
  / ``.meta.json`` is corrupted on disk right after it is written,
  exercising verification, quarantine and resimulation.
* ``worker_kill`` — the worker SIGKILLs itself mid-simulation once the
  bus has seen a given number of branch events (in-process runs raise
  instead), exercising checkpoint/resume: the retried attempt must
  restore the dead worker's last checkpoint and continue, producing
  artifacts byte-identical to an uninterrupted run.  Fires once per
  benchmark (kill-once markers under ``state_dir``), so the resumed
  attempt is not killed again at the same threshold.
* ``worker_stall`` — once the bus has seen a given number of branch
  events, the job stops making progress: it sleeps in short steps until
  a drain is requested (SIGTERM) or the process is killed, at most
  ``hang_seconds``.  Holds a job in flight, checkpointed, for as long as
  a kill or drain test needs, whatever the machine's speed.  Fires once
  per benchmark (marker under ``state_dir``), so a resumed attempt runs
  through.
* ``shard_kill`` — a *supervised shard worker* (``repro supervise``)
  SIGKILLs itself once its current job's bus has seen a given number of
  branch events, exercising the supervisor's dead-shard detection,
  journal-diff recovery and bounded restarts.  Keyed by the 1-based
  shard slot, fires once (marker under ``state_dir`` when present — the
  supervisor injects one — else once per process).
* ``shard_hang`` — a supervised shard worker sleeps ``hang_seconds`` at
  entry without ever heartbeating, exercising lease-expiry detection of
  a *live but wedged* worker (pid probe succeeds, lease goes stale).
* ``lease_stall`` — a supervised shard worker runs normally but skips
  every heartbeat lease write, so the supervisor must distinguish a
  stalled lease from a dead pid.
* ``slow_client`` / ``conn_drop`` — *client-side* service faults,
  consumed by ``repro loadgen`` rather than the engine: every Nth
  request trickles its submit frame in two writes with a pause
  (``slow_client``, exercising the daemon's partial-frame reads) or
  disconnects right after its ``accepted`` frame (``conn_drop``; the
  daemon must still complete the job).  Keyed by request index, which
  keeps them deterministic for a fixed job count.

Plans cross the process boundary via the ``REPRO_FAULTS`` environment
variable (JSON, or the compact text form ``mode:arg[,mode:arg...]`` —
e.g. ``REPRO_FAULTS=shard_kill:1@5000`` kills shard 1 at 5000 events;
see :meth:`FaultPlan.from_compact`), so pool workers inherit them
automatically; ``flaky`` attempt counts are kept as marker files under a
state directory so they survive worker restarts.  Everything is
deterministic — no randomness, no time dependence — which keeps the
fault suite reproducible.

Usage::

    plan = FaultPlan(worker_crash=("gcc",), flaky={"plot": 2},
                     state_dir=str(tmp_path))
    with plan.installed():
        engine = ExecutionEngine(jobs=4, retries=2, ...)
        engine.prefetch(names)   # gcc fails, plot succeeds on attempt 3
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from ..errors import ReproError
from . import interrupt

#: Environment variable carrying the serialised plan to pool workers.
ENV_VAR = "REPRO_FAULTS"

#: How long a hung worker sleeps (bounded so leaked processes die on
#: their own even if never reaped; pool workers are killed much sooner
#: by the engine's timeout handling).
DEFAULT_HANG_SECONDS = 60.0

#: Branch-event threshold for ``worker_kill``/``worker_stall``/
#: ``shard_kill`` items in the compact env syntax when no explicit
#: ``@EVENTS`` is given.
DEFAULT_KILL_EVENTS = 10000

#: Poll interval of a stalled job waiting for a drain (seconds).
STALL_POLL_SECONDS = 0.02

#: In-process fallback for shard_kill fire-once markers when the plan has
#: no ``state_dir`` (the supervisor normally injects one so the marker
#: survives the killed process).
_FIRED_SHARD_KILLS: set = set()


class InjectedFault(ReproError):
    """Raised by injected ``worker_crash`` (in-process) / ``flaky`` faults."""

    code = "injected_fault"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject, keyed by benchmark name.

    Attributes:
        worker_crash: benchmarks whose job kills its worker process.
        worker_hang: benchmarks whose job sleeps for ``hang_seconds``.
        flaky: benchmark -> number of leading attempts that must fail.
        corrupt_trace: benchmarks whose stored trace is corrupted on put.
        corrupt_meta: benchmarks whose meta sidecar is corrupted on put.
        worker_kill: benchmark -> branch-event count at which the worker
            SIGKILLs itself mid-simulation (once; needs ``state_dir``).
        worker_stall: benchmark -> branch-event count at which the job
            stalls until a drain or a kill (once; needs ``state_dir``).
        shard_kill: shard slot (1-based, as a string key — JSON objects
            key on strings) -> branch-event count at which a supervised
            shard worker SIGKILLs itself (once; the supervisor injects a
            ``state_dir`` for the cross-restart marker).
        shard_hang: shard slots whose supervised worker sleeps
            ``hang_seconds`` at entry without heartbeating.
        lease_stall: shard slots whose supervised worker skips every
            heartbeat lease write while otherwise running normally.
        hang_seconds: sleep length for ``worker_hang``/``shard_hang``,
            and the longest a ``worker_stall`` lasts.
        slow_client: every Nth loadgen request is a slow client
            (0 disables); the pause is ``slow_client_seconds``.
        slow_client_seconds: mid-frame pause for ``slow_client``.
        conn_drop: every Nth loadgen request drops its connection right
            after the ``accepted`` frame (0 disables).
        state_dir: directory for cross-process flaky attempt counters and
            fire-once markers (required when ``flaky``, ``worker_kill``
            or ``worker_stall`` is non-empty).
    """

    worker_crash: Tuple[str, ...] = ()
    worker_hang: Tuple[str, ...] = ()
    flaky: Dict[str, int] = field(default_factory=dict)
    corrupt_trace: Tuple[str, ...] = ()
    corrupt_meta: Tuple[str, ...] = ()
    worker_kill: Dict[str, int] = field(default_factory=dict)
    worker_stall: Dict[str, int] = field(default_factory=dict)
    shard_kill: Dict[str, int] = field(default_factory=dict)
    shard_hang: Tuple[int, ...] = ()
    lease_stall: Tuple[int, ...] = ()
    hang_seconds: float = DEFAULT_HANG_SECONDS
    slow_client: int = 0
    slow_client_seconds: float = 0.25
    conn_drop: int = 0
    state_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.flaky and not self.state_dir:
            raise ValueError("flaky faults need state_dir for counters")
        if (self.worker_kill or self.worker_stall) and not self.state_dir:
            raise ValueError(
                "worker_kill/worker_stall faults need state_dir for "
                "fire-once markers"
            )

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "worker_crash": list(self.worker_crash),
                "worker_hang": list(self.worker_hang),
                "flaky": dict(self.flaky),
                "corrupt_trace": list(self.corrupt_trace),
                "corrupt_meta": list(self.corrupt_meta),
                "worker_kill": dict(self.worker_kill),
                "worker_stall": dict(self.worker_stall),
                "shard_kill": dict(self.shard_kill),
                "shard_hang": list(self.shard_hang),
                "lease_stall": list(self.lease_stall),
                "hang_seconds": self.hang_seconds,
                "slow_client": self.slow_client,
                "slow_client_seconds": self.slow_client_seconds,
                "conn_drop": self.conn_drop,
                "state_dir": self.state_dir,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(
            worker_crash=tuple(payload.get("worker_crash", ())),
            worker_hang=tuple(payload.get("worker_hang", ())),
            flaky={
                str(k): int(v) for k, v in payload.get("flaky", {}).items()
            },
            corrupt_trace=tuple(payload.get("corrupt_trace", ())),
            corrupt_meta=tuple(payload.get("corrupt_meta", ())),
            worker_kill={
                str(k): int(v)
                for k, v in payload.get("worker_kill", {}).items()
            },
            worker_stall={
                str(k): int(v)
                for k, v in payload.get("worker_stall", {}).items()
            },
            shard_kill={
                str(k): int(v)
                for k, v in payload.get("shard_kill", {}).items()
            },
            shard_hang=tuple(
                int(s) for s in payload.get("shard_hang", ())
            ),
            lease_stall=tuple(
                int(s) for s in payload.get("lease_stall", ())
            ),
            hang_seconds=float(
                payload.get("hang_seconds", DEFAULT_HANG_SECONDS)
            ),
            slow_client=int(payload.get("slow_client", 0)),
            slow_client_seconds=float(
                payload.get("slow_client_seconds", 0.25)
            ),
            conn_drop=int(payload.get("conn_drop", 0)),
            state_dir=payload.get("state_dir"),
        )

    @classmethod
    def from_compact(cls, text: str) -> "FaultPlan":
        """Parse the compact env syntax ``mode:arg[,mode:arg...]``.

        Shell-friendly counterpart of the JSON form, e.g.::

            REPRO_FAULTS=shard_kill:1@5000          # kill slot 1 @ 5000 ev
            REPRO_FAULTS=shard_hang:2,lease_stall:1
            REPRO_FAULTS=worker_kill:gcc@10000,state_dir:/tmp/faults

        Modes: ``worker_crash:NAME``, ``worker_hang:NAME``,
        ``corrupt_trace:NAME``, ``corrupt_meta:NAME``, ``flaky:NAME@N``,
        ``worker_kill:NAME@EVENTS``, ``worker_stall:NAME@EVENTS``,
        ``shard_kill:K@EVENTS``, ``shard_hang:K``, ``lease_stall:K``,
        ``hang_seconds:S``, ``state_dir:PATH``.  Event thresholds default to
        :data:`DEFAULT_KILL_EVENTS` when the ``@EVENTS`` part is omitted.

        Raises:
            ValueError: an unknown mode or a malformed argument — a
                half-applied plan must never be silently installed.
        """
        kwargs: Dict[str, object] = {
            "worker_crash": [], "worker_hang": [], "corrupt_trace": [],
            "corrupt_meta": [], "flaky": {}, "worker_kill": {},
            "worker_stall": {}, "shard_kill": {}, "shard_hang": [],
            "lease_stall": [],
        }
        extras: Dict[str, object] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            mode, sep, arg = item.partition(":")
            if not sep or not arg:
                raise ValueError(
                    f"fault item {item!r} must look like mode:arg"
                )
            if mode in ("worker_crash", "worker_hang",
                        "corrupt_trace", "corrupt_meta"):
                kwargs[mode].append(arg)
            elif mode in ("flaky", "worker_kill", "worker_stall"):
                name, _, count = arg.partition("@")
                default = 1 if mode == "flaky" else DEFAULT_KILL_EVENTS
                kwargs[mode][name] = int(count) if count else default
            elif mode == "shard_kill":
                slot, _, events = arg.partition("@")
                kwargs[mode][str(int(slot))] = (
                    int(events) if events else DEFAULT_KILL_EVENTS
                )
            elif mode in ("shard_hang", "lease_stall"):
                kwargs[mode].append(int(arg))
            elif mode == "hang_seconds":
                extras[mode] = float(arg)
            elif mode == "state_dir":
                extras[mode] = arg
            else:
                raise ValueError(f"unknown fault mode {mode!r} in {item!r}")
        return cls(
            worker_crash=tuple(kwargs["worker_crash"]),
            worker_hang=tuple(kwargs["worker_hang"]),
            flaky=dict(kwargs["flaky"]),
            corrupt_trace=tuple(kwargs["corrupt_trace"]),
            corrupt_meta=tuple(kwargs["corrupt_meta"]),
            worker_kill=dict(kwargs["worker_kill"]),
            worker_stall=dict(kwargs["worker_stall"]),
            shard_kill=dict(kwargs["shard_kill"]),
            shard_hang=tuple(kwargs["shard_hang"]),
            lease_stall=tuple(kwargs["lease_stall"]),
            **extras,
        )

    @contextmanager
    def installed(self) -> Iterator["FaultPlan"]:
        """Install the plan in ``os.environ`` for the dynamic extent."""
        previous = os.environ.get(ENV_VAR)
        os.environ[ENV_VAR] = self.to_json()
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = previous

    # -- injection hooks (called by the engine) -----------------------------

    def on_job_start(self, benchmark: str, in_worker: bool) -> None:
        """Fire crash/hang/flaky faults for *benchmark*, if planned.

        Raises:
            InjectedFault: for in-process crashes and flaky attempts.
        """
        if benchmark in self.worker_crash:
            if in_worker:
                os._exit(13)  # hard death: no exception, no cleanup
            raise InjectedFault(
                f"injected worker crash for {benchmark}",
                benchmark=benchmark, fault="worker_crash",
            )
        if benchmark in self.worker_hang:
            time.sleep(self.hang_seconds)
        failures_wanted = self.flaky.get(benchmark, 0)
        if failures_wanted:
            if self._claim_flaky_attempt(benchmark, failures_wanted):
                raise InjectedFault(
                    f"injected transient failure for {benchmark}",
                    benchmark=benchmark, fault="flaky",
                )

    def _claim_flaky_attempt(self, benchmark: str, wanted: int) -> bool:
        """Record one attempt; True while the attempt should still fail."""
        state = Path(self.state_dir)  # validated in __post_init__
        state.mkdir(parents=True, exist_ok=True)
        for attempt in range(wanted):
            marker = state / f"flaky-{benchmark}-{attempt}"
            try:
                marker.touch(exist_ok=False)
            except FileExistsError:
                continue
            return True
        return False

    def on_events(
        self, benchmark: str, events: int, in_worker: bool
    ) -> None:
        """Fire ``worker_stall``/``worker_kill`` once *events* reach their
        thresholds.

        Called by the checkpointed simulation loop between executor
        slices with the bus's live branch-event count.  Both faults are
        deterministic in event time (not wall-clock) and fire at most
        once per benchmark: a marker file under ``state_dir`` is claimed
        atomically first, so the retried or resumed attempt — which
        continues past the threshold — does not fire again.  A stall
        returns once a drain is requested; the caller's slice loop then
        checkpoints and stops.

        Raises:
            InjectedFault: in-process runs, where SIGKILLing the current
                process would take down the caller itself.
        """
        stall_at = self.worker_stall.get(benchmark)
        if (
            stall_at is not None
            and events >= stall_at
            and self._claim_marker(f"stall-{benchmark}")
        ):
            deadline = time.monotonic() + self.hang_seconds
            while (
                not interrupt.drain_requested()
                and time.monotonic() < deadline
            ):
                time.sleep(STALL_POLL_SECONDS)
        threshold = self.worker_kill.get(benchmark)
        if threshold is None or events < threshold:
            return
        if not self._claim_marker(f"kill-{benchmark}"):
            return
        if in_worker:
            os.kill(os.getpid(), 9)  # SIGKILL: no cleanup, no atexit
        raise InjectedFault(
            f"injected worker kill for {benchmark} at {events} events",
            benchmark=benchmark, fault="worker_kill", events=events,
        )

    def _claim_marker(self, name: str) -> bool:
        """Atomically claim the one allowed firing recorded as *name*."""
        state = Path(self.state_dir)  # validated in __post_init__
        state.mkdir(parents=True, exist_ok=True)
        marker = state / name
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            return False
        return True

    # -- supervised-shard faults (consumed by repro.eval.supervisor) --------

    def on_shard_start(self, slot: int, in_worker: bool = True) -> None:
        """Fire the ``shard_hang`` fault for shard *slot* at worker entry.

        The worker sleeps ``hang_seconds`` before its first heartbeat
        refresh, so its lease goes stale while its pid stays probe-able —
        the exact live-but-wedged case the supervisor must detect via
        lease expiry rather than a pid probe.
        """
        if slot in self.shard_hang:
            time.sleep(self.hang_seconds)

    def on_shard_events(
        self, slot: int, events: int, in_worker: bool = True
    ) -> None:
        """Fire the ``shard_kill`` fault once *events* reach the threshold.

        Called from the supervised worker's progress callback with the
        current job's live branch-event count.  Deterministic in event
        time and fires at most once per slot: the marker lives under
        ``state_dir`` when present (surviving the killed process, so the
        restarted shard is not killed again), else in-process.

        Raises:
            InjectedFault: when ``in_worker`` is False (killing the
                caller's own process would defeat the test).
        """
        threshold = self.shard_kill.get(str(slot))
        if threshold is None or events < threshold:
            return
        if not self._claim_shard_kill(slot):
            return
        if in_worker:
            os.kill(os.getpid(), 9)  # SIGKILL: no cleanup, no atexit
        raise InjectedFault(
            f"injected shard kill for slot {slot} at {events} events",
            shard=slot, fault="shard_kill", events=events,
        )

    def _claim_shard_kill(self, slot: int) -> bool:
        """Atomically claim the one allowed kill for shard *slot*."""
        if not self.state_dir:
            if slot in _FIRED_SHARD_KILLS:
                return False
            _FIRED_SHARD_KILLS.add(slot)
            return True
        state = Path(self.state_dir)
        state.mkdir(parents=True, exist_ok=True)
        marker = state / f"shard-kill-{slot}"
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            return False
        return True

    def lease_stalled(self, slot: int) -> bool:
        """Whether shard *slot* must skip its heartbeat lease writes."""
        return slot in self.lease_stall

    # -- client-side service faults (consumed by repro loadgen) -------------

    def client_delay(self, index: int) -> float:
        """Mid-frame pause for request *index* (0.0 = not a slow client)."""
        if self.slow_client > 0 and (index + 1) % self.slow_client == 0:
            return self.slow_client_seconds
        return 0.0

    def drops_connection(self, index: int) -> bool:
        """Whether request *index* disconnects after its accepted frame."""
        return self.conn_drop > 0 and (index + 1) % self.conn_drop == 0

    def on_artifacts_stored(
        self, benchmark: str, trace_path: Path, meta_path: Path
    ) -> None:
        """Corrupt freshly written artifacts for *benchmark*, if planned."""
        if benchmark in self.corrupt_trace:
            corrupt_file(trace_path)
        if benchmark in self.corrupt_meta:
            corrupt_file(meta_path)


def corrupt_file(path: Path, offset: int = 16, length: int = 64) -> None:
    """Deterministically flip a byte span of *path* in place.

    Used by the injection plan, the ``repro faults`` CLI demo and the
    smoke target to damage cache entries without deleting them (a deleted
    file is a trivial miss; a damaged one must fail *verification*).
    """
    path = Path(path)
    raw = bytearray(path.read_bytes())
    if not raw:
        raw = bytearray(b"\xff" * length)
    end = min(len(raw), offset + length)
    for i in range(min(offset, len(raw) - 1), end):
        raw[i] ^= 0xFF
    path.write_bytes(bytes(raw))


def active_plan() -> Optional[FaultPlan]:
    """The plan installed in the environment, or None.

    Accepts both serialisations: the JSON form engines install via
    :meth:`FaultPlan.installed`, and the shell-friendly compact text form
    (``shard_kill:1@5000,lease_stall:2`` — see
    :meth:`FaultPlan.from_compact`).  A malformed ``REPRO_FAULTS`` value
    raises immediately — a half-applied fault plan would silently
    invalidate whatever the suite was proving.
    """
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if raw.lstrip().startswith("{"):
        return FaultPlan.from_json(raw)
    return FaultPlan.from_compact(raw)


__all__ = [
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_KILL_EVENTS",
    "ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "corrupt_file",
]
