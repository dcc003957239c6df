"""Pure helpers shared by the serve benchmark: percentiles, tallies,
span self-time arithmetic and the open-loop honesty checks.

Nothing here touches a process, a socket or the clock, so every rule
the benchmark reports by is unit-tested in ``test_servebench.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: A fixed tail percentile is reported only from at least this many
#: samples of one op type; below it the run reports the median alone.
MIN_TAIL_SAMPLES = 1000


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    The median (``q == 50``) is defined for any non-empty sample.  Any
    other percentile is refused below :data:`MIN_TAIL_SAMPLES` samples,
    because a p99 of a few hundred requests is decided by two or three
    of them.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if q != 50 and len(values) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs >= {MIN_TAIL_SAMPLES} samples, got {len(values)}"
        )
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_or_none(values: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or ``None`` when the sample is too small."""
    if len(values) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


@dataclass
class Tally:
    """Requests attempted and failed, by cause.

    A request fails when the server answers with an error, refuses it
    (``overloaded``, a reset or closed connection, no reply), or
    answers with a value the reference disagrees with.  Each failure
    counts once, under its first cause.
    """

    attempted: int = 0
    errors: int = 0
    refused: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.refused + self.wrong

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)

    def reply(self, response: Optional[dict]) -> bool:
        """Count one attempted request by its reply; ``True`` if ok.

        ``None`` stands for a request that never got a reply (the
        connection closed or the phase's grace period ran out).
        """
        self.attempted += 1
        if response is None:
            self.refused += 1
            return False
        if response.get("ok"):
            return True
        error = response.get("error")
        code = error.get("code") if isinstance(error, dict) else None
        if code in ("overloaded", "shutting_down"):
            self.refused += 1
        else:
            self.errors += 1
        self.note(f"error reply: {error!r}")
        return False

    def mismatch(self, message: str) -> None:
        """An ok reply the reference disagrees with."""
        self.wrong += 1
        self.note(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.errors += other.errors
        self.refused += other.refused
        self.wrong += other.wrong
        for message in other.notes:
            self.note(message)


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals count once, and parts outside ``[lo, hi]``
    not at all.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if b <= a:
            continue
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(children, start, end)


def thirds_drift(latencies: Sequence[float]) -> tuple[float, float]:
    """Median latency of the first and of the last third of a phase, in
    send order.  A last third well above the first shows a backlog
    that grows over the phase."""
    if len(latencies) < 3:
        raise ValueError("need at least 3 samples to compare thirds")
    third = len(latencies) // 3
    return median(latencies[:third]), median(latencies[-third:])


@dataclass(frozen=True)
class Lateness:
    """How far behind its schedule the open-loop generator sent."""

    p50_ms: float
    max_ms: float
    behind_frac: float

    @classmethod
    def of(cls, late_ms: Sequence[float], limit_ms: float) -> "Lateness":
        return cls(
            p50_ms=median(late_ms),
            max_ms=max(late_ms),
            behind_frac=sum(1 for x in late_ms if x > limit_ms) / len(late_ms),
        )

    def fell_behind(self, max_behind_frac: float) -> bool:
        return self.behind_frac > max_behind_frac
