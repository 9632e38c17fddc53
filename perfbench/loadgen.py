"""Open-loop query generator for the ``live-stream`` workload.

Operators poll a live stream independently of how fast it answers, so
the load is an *open loop*: query ``i`` is due at ``start + i / RATE``
whatever happened to query ``i - 1``.  One connection carries the
queries in order, so a query stuck behind the store lock delays every
later one; each latency therefore runs from the query's *due* time,
not from when it was sent, and the generator reports how late it sent.

The mix, drawn per slot from the benchmark seed:

* 74% ``aggregate(B, "Requests/sec")`` mean — the alarm-tracked
  series, answered from the incrementally maintained aggregate;
* 25% ``status()``;
*  1% ``aggregate(B, "Processor utilization", reducer="max")`` — not
  tracked, so it re-gathers and reads spilled segments back.

A query counts as on time when answered within ``ONTIME_LIMIT_S`` of
its due time.  A query that fails, or is still unanswered when the
stream exits, is a miss; an abandoned one's latency is taken at the
moment the stream was seen to exit.  At 100 queries/s a run of a few
seconds gives well over the 1000 samples a p99 needs to have ten
samples beyond it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from measure import median, percentile, tail_percentile

RATE_PER_S = 100.0
ONTIME_LIMIT_S = 0.100
MIX = (("tracked", 0.74), ("status", 0.25), ("untracked", 0.01))
POOL = "B"


@dataclass
class QueryRecord:
    kind: str
    due: float
    #: ``None`` when the query was never sent (abandoned at exit).
    sent: Optional[float]
    latency: float
    #: ``"ok"``, ``"error"`` or ``"abandoned"``.
    outcome: str
    sealed_through: Optional[int] = None
    error: str = ""


def query_kinds(seed: int):
    """The seeded, endless per-slot sequence of query kinds."""
    rng = random.Random(seed)
    while True:
        draw = rng.random()
        for kind, share in MIX:
            if draw < share:
                break
            draw -= share
        yield kind


def send(client, kind: str):
    if kind == "status":
        return client.status()
    if kind == "tracked":
        return client.aggregate(POOL, "Requests/sec", reducer="mean")
    return client.aggregate(POOL, "Processor utilization", reducer="max")


class OpenLoopGenerator:
    """Sends the seeded mix at ``rate`` queries/s until the stream ends.

    ``finished()`` says whether the stream under test has exited;
    ``clock`` and ``sleep`` are injectable so tests can drive the
    schedule with a fake clock.
    """

    def __init__(
        self,
        client,
        seed: int,
        rate: float = RATE_PER_S,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.client = client
        self.seed = seed
        self.rate = rate
        self.clock = clock
        self.sleep = sleep
        #: When ``run`` saw the stream exit (or gave up at the deadline).
        self.exited_at: Optional[float] = None

    def run(
        self,
        start: float,
        finished: Callable[[], bool],
        deadline: float,
        grace_s: float = 5.0,
    ) -> List[QueryRecord]:
        """Drive the schedule from ``start``; returns one record per slot."""
        clock, records = self.clock, []
        kinds = query_kinds(self.seed)
        slot = 0
        while True:
            due = start + slot / self.rate
            now = clock()
            if finished() or now > deadline:
                break
            if now < due:
                self.sleep(min(due - now, 0.002))
                continue
            kind = next(kinds)
            slot += 1
            try:
                answer = send(self.client, kind)
            except Exception as error:  # any failure is a recorded miss
                failed_at = clock()
                if self._exits_within(finished, grace_s):
                    records.append(QueryRecord(kind, due, now, failed_at - due, "abandoned"))
                else:
                    records.append(QueryRecord(
                        kind, due, now, failed_at - due, "error",
                        error=f"{type(error).__name__}: {error}",
                    ))
                break
            records.append(QueryRecord(
                kind, due, now, clock() - due, "ok", answer["sealed_through"],
            ))
        exited_at = self.exited_at = clock()
        while True:
            due = start + slot / self.rate
            if due > exited_at:
                break
            records.append(QueryRecord(next(kinds), due, None, exited_at - due, "abandoned"))
            slot += 1
        return records

    def _exits_within(self, finished: Callable[[], bool], grace_s: float) -> bool:
        limit = self.clock() + grace_s
        while not finished():
            if self.clock() > limit:
                return False
            self.sleep(0.01)
        return True


def summarize(records: List[QueryRecord]) -> Dict[str, float]:
    """Latency, on-time share and generator lateness over ``records``."""
    latencies = [r.latency for r in records]
    lateness = [r.sent - r.due for r in records if r.sent is not None]
    answered = [r for r in records if r.outcome == "ok"]
    ontime = sum(1 for r in answered if r.latency <= ONTIME_LIMIT_S)
    n = len(records)
    tail = tail_percentile(n)
    return {
        "scheduled": n,
        "answered": len(answered),
        "failed": sum(1 for r in records if r.outcome == "error"),
        "abandoned": sum(1 for r in records if r.outcome == "abandoned"),
        "ontime_ratio": ontime / n if n else 0.0,
        "p50_ms": 1e3 * median(latencies) if n else 0.0,
        "p99_ms": 1e3 * percentile(latencies, 99.0) if n else 0.0,
        # The highest percentile with ten samples beyond it: p99 is
        # only meaningful when this reads 99 or more.
        "tail_pct": tail if tail is not None else 0.0,
        "late_p99_ms": 1e3 * percentile(lateness, 99.0) if lateness else 0.0,
    }
