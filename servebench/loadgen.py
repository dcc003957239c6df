"""The load generator: one asyncio loop, pipelined connections.

Open loop: each request has an intended send time from a seeded
schedule and goes out then, whether or not earlier replies arrived;
its latency runs from the intended time, so a stall delays the
requests behind it in the numbers too.  Closed loop: a fixed window of
requests in flight per connection, the next sent as each reply
arrives.  Replies on one connection come back in request order.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from inputs import Arrival

#: How long a phase waits for its last replies before counting the
#: rest as refused.
GRACE_S = 60.0


@dataclass
class Sample:
    kind: str  # "read" | "write"
    request: dict
    intended: float  # monotonic seconds
    sent: float = 0.0
    received: Optional[float] = None
    response: Optional[dict] = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.intended) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.intended) * 1000.0


_request_ids = itertools.count(1)


def next_request_id() -> int:
    """A run-unique request ``id``; the server echoes it in the reply and
    traced servers record it, so spans can be matched to requests."""
    return next(_request_ids)


class Connection:
    """One pipelined connection.  ``on_reply`` runs for every reply."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: collections.deque[Sample] = collections.deque()
        self._idle = asyncio.Event()
        self._idle.set()
        self.on_reply: Optional[Callable[[Sample], None]] = None
        self._task = asyncio.create_task(self._read_replies())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
        return cls(reader, writer)

    def send(self, sample: Sample) -> None:
        sample.request["id"] = next_request_id()
        self._writer.write(json.dumps(sample.request).encode() + b"\n")
        sample.sent = time.monotonic()
        self._pending.append(sample)
        self._idle.clear()

    async def _read_replies(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                return
            now = time.monotonic()
            sample = self._pending.popleft()
            sample.received = now
            response = json.loads(line)
            if response.get("id") != sample.request["id"]:
                response = {"ok": False, "error": f"reply id {response.get('id')} "
                            f"for request {sample.request['id']}"}
            sample.response = response
            if not self._pending:
                self._idle.set()
            if self.on_reply is not None:
                self.on_reply(sample)

    async def flush(self) -> None:
        """Wait until the socket takes what was written (backpressure)."""
        await self._writer.drain()

    async def drain(self) -> None:
        """Wait for every reply; give up after :data:`GRACE_S`."""
        await self.flush()
        try:
            await asyncio.wait_for(self._idle.wait(), GRACE_S)
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)


async def open_loop(conn: Connection, kind: str, arrivals: list[Arrival], t0: float) -> list[Sample]:
    """Send each arrival at ``t0 + at``; returns the samples in send order."""
    samples = []
    for arrival in arrivals:
        due = t0 + arrival.at
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        sample = Sample(kind, dict(arrival.request), due)
        conn.send(sample)
        samples.append(sample)
        if len(samples) % 64 == 0:
            await conn.flush()
    await conn.drain()
    return samples


async def closed_loop(
    conn: Connection, kind: str, make: Callable[[], dict], window: int, deadline: float
) -> tuple[list[Sample], list[float]]:
    """Keep ``window`` requests in flight until ``deadline``.

    Returns all samples and the arrival times of the replies that came
    before the deadline (the completions capacity is computed from).
    """
    samples: list[Sample] = []
    done_in_time: list[float] = []

    def send_one() -> None:
        sample = Sample(kind, make(), time.monotonic())
        conn.send(sample)
        samples.append(sample)

    def on_reply(sample: Sample) -> None:
        if sample.kind == kind and sample.received <= deadline:
            done_in_time.append(sample.received)
            send_one()

    conn.on_reply = on_reply
    try:
        for _ in range(window):
            send_one()
        await asyncio.sleep(max(0.0, deadline - time.monotonic()))
        await conn.drain()
    finally:
        conn.on_reply = None
    return samples, done_in_time
