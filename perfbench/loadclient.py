"""The benchmark's own client for ``repro serve``.

Why not ``repro.service.loadgen``: it starts each request's clock when
the request is sent, so a stall in the generator hides as lower latency;
it opens one connection per request; and its tail percentile is taken
over so few samples that it is the maximum.  This client sends an
open-loop phase on a seeded schedule and times every submit from its
*due* time, reports how late it sent each one, and multiplexes all
submits over two connections by job id.  It also drives the closed-loop
saturation phase that measures the daemon's sustained rate.
"""

from __future__ import annotations

import asyncio
import collections
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Frame types that end one submit.
TERMINAL = ("completed", "failed", "cancelled", "interrupted", "rejected")

#: Predictor bank a quarter of the submits carry: it forces a trace
#: replay inside the daemon.
REPLAY_BANK = ("gshare:12",)

#: Connections the client opens; submits alternate between them.
CONNECTIONS = 2

#: Frames may be up to 1 MiB (the daemon's bound); leave headroom.
_READ_LIMIT = 1 << 21


@dataclass(frozen=True)
class Submit:
    """One scheduled submit; ``due`` is seconds after the schedule start."""

    index: int
    due: float
    benchmark: str
    predictors: Tuple[str, ...]

    @property
    def job_id(self) -> str:
        return f"s{self.index}"


def mix(benchmarks: Sequence[str], count: int, rng: random.Random) -> List[Tuple[str, Tuple[str, ...]]]:
    """*count* (benchmark, predictors) pairs in a seeded order.

    The multiset is fixed by *count*: blocks of ``4 * len(benchmarks)``
    give every benchmark four submits, one of them carrying
    :data:`REPLAY_BANK`.  Only the order depends on the seed, so the
    work offered is the same for every seed.
    """
    block: List[Tuple[str, Tuple[str, ...]]] = []
    for k in range(4):
        for j, name in enumerate(benchmarks):
            block.append((name, REPLAY_BANK if (k + j) % 4 == 0 else ()))
    items = [block[i % len(block)] for i in range(count)]
    rng.shuffle(items)
    return items


#: Largest seeded shift of a due time, as a share of the gap between
#: submits.
JITTER = 0.25


def arrivals(rate: float, count: int, rng: random.Random) -> List[float]:
    """Seeded open-loop due times at a fixed *rate*.

    Submit *i* is due at ``(i + 0.5 + u) / rate`` with ``u`` uniform in
    ``[-JITTER, JITTER)``: the offered rate is *rate* over any few
    submits, no two submits are due closer than half a gap, and only the
    exact instants vary by seed.
    """
    return [(i + 0.5 + JITTER * (2 * rng.random() - 1)) / rate for i in range(count)]


def schedule(seed: int, benchmarks: Sequence[str], rate: float, count: int) -> List[Submit]:
    """The seeded open-loop phase: *count* submits at a fixed *rate*."""
    rng = random.Random(f"{seed}:base")
    pairs = mix(benchmarks, count, rng)
    dues = arrivals(rate, count, rng)
    return [Submit(i, due, name, preds)
            for i, (due, (name, preds)) in enumerate(zip(dues, pairs))]


@dataclass
class Outcome:
    """What happened to one submit (times on the monotonic clock)."""

    submit: Submit
    due: float
    sent: Optional[float] = None
    accepted: Optional[float] = None
    done: Optional[float] = None
    kind: str = "pending"
    frame: Dict[str, Any] = field(default_factory=dict)
    accepted_frame: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return (self.done if self.done is not None else time.monotonic()) - self.due

    @property
    def lateness(self) -> float:
        return (self.sent or self.due) - self.due


class Connection:
    """One unix-socket connection; frames are routed to submits by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: Dict[str, Outcome] = {}
        self.events: Dict[str, asyncio.Event] = {}
        self.replies: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            frame = json.loads(line)
            now = time.monotonic()
            outcome = self.waiting.get(frame.get("id", ""))
            if outcome is None:
                await self.replies.put(frame)
                continue
            kind = frame.get("type")
            if kind == "accepted":
                outcome.accepted = now
                outcome.accepted_frame = frame
            elif kind in TERMINAL:
                outcome.done = now
                outcome.kind = kind
                outcome.frame = frame
                del self.waiting[frame["id"]]
                self.events.pop(frame["id"]).set()
        for job_id, event in list(self.events.items()):
            self.waiting[job_id].kind = "dropped"
            event.set()

    def send(self, frame: Dict[str, Any]) -> None:
        self.writer.write((json.dumps(frame) + "\n").encode())

    async def request(self, frame: Dict[str, Any], timeout: float = 30.0) -> Dict[str, Any]:
        """Send a frame without an id (``stats``, ``ping``) and await its reply."""
        self.send(frame)
        await self.writer.drain()
        return await asyncio.wait_for(self.replies.get(), timeout)

    async def submit(self, outcome: Outcome, scale: float, backend: str, timeout: float) -> None:
        sub = outcome.submit
        event = asyncio.Event()
        self.waiting[sub.job_id] = outcome
        self.events[sub.job_id] = event
        outcome.sent = time.monotonic()
        self.send(
            {
                "op": "submit",
                "id": sub.job_id,
                "benchmark": sub.benchmark,
                "scale": scale,
                "backend": backend,
                "predictors": list(sub.predictors),
            }
        )
        await self.writer.drain()
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            outcome.kind = "timeout"
            self.waiting.pop(sub.job_id, None)
            self.events.pop(sub.job_id, None)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


async def connect(socket_path: str) -> Connection:
    reader, writer = await asyncio.open_unix_connection(socket_path, limit=_READ_LIMIT)
    return Connection(reader, writer)


class Client:
    """Drives submits over :data:`CONNECTIONS` multiplexed connections.

    A submit with no terminal frame within *timeout* seconds ends as
    ``timeout``; one whose connection closes first ends as ``dropped``.
    """

    def __init__(self, socket_path: str, scale: float, backend: str,
                 timeout: float = 60.0) -> None:
        self.socket_path = socket_path
        self.scale = scale
        self.backend = backend
        self.timeout = timeout
        self.conns: List[Connection] = []

    async def __aenter__(self) -> "Client":
        for _ in range(CONNECTIONS):
            self.conns.append(await connect(self.socket_path))
        return self

    async def __aexit__(self, *exc) -> None:
        for conn in self.conns:
            await conn.close()

    async def run(self, submits: Sequence[Submit], t0: float) -> List[Outcome]:
        """Send each submit at ``t0 + due``; wait for every terminal frame."""
        outcomes = [Outcome(s, t0 + s.due) for s in submits]
        tasks = []
        for i, outcome in enumerate(outcomes):
            delay = outcome.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = self.conns[i % len(self.conns)]
            tasks.append(asyncio.get_running_loop().create_task(
                conn.submit(outcome, self.scale, self.backend, self.timeout)))
        await asyncio.gather(*tasks)
        return outcomes

    async def saturate(self, submits: Iterator[Submit], outstanding: int,
                       seconds: float) -> List[Outcome]:
        """Closed loop: keep *outstanding* submits in flight for *seconds*.

        Each submit is timed from when it is sent.  No two submits of one
        benchmark are in flight together, so the daemon's dedupe cannot
        answer one with the other's work; a submit whose benchmark is busy
        waits for the next free slot.
        """
        end = time.monotonic() + seconds
        deferred: Deque[Submit] = collections.deque()
        busy: Set[str] = set()
        in_flight: Dict["asyncio.Task[None]", Outcome] = {}
        outcomes: List[Outcome] = []

        def next_free() -> Submit:
            for sub in deferred:
                if sub.benchmark not in busy:
                    deferred.remove(sub)
                    return sub
            for sub in submits:
                if sub.benchmark not in busy:
                    return sub
                deferred.append(sub)
            raise ValueError("the submit stream ran out")

        while True:
            while len(in_flight) < outstanding and time.monotonic() < end:
                sub = next_free()
                outcome = Outcome(sub, time.monotonic())
                conn = self.conns[len(outcomes) % len(self.conns)]
                task = asyncio.get_running_loop().create_task(
                    conn.submit(outcome, self.scale, self.backend, self.timeout))
                in_flight[task] = outcome
                busy.add(sub.benchmark)
                outcomes.append(outcome)
            if not in_flight:
                return outcomes
            finished, _ = await asyncio.wait(in_flight, return_when=asyncio.FIRST_COMPLETED)
            for task in finished:
                task.result()
                busy.discard(in_flight.pop(task).submit.benchmark)

    async def stats(self) -> Dict[str, Any]:
        return await self.conns[0].request({"op": "stats"})


async def ping(socket_path: str, timeout: float = 10.0) -> Dict[str, Any]:
    conn = await connect(socket_path)
    try:
        return await conn.request({"op": "ping"}, timeout)
    finally:
        await conn.close()
