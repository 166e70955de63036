"""Constant-rate open-loop load for the serve workloads.

One process, one pipelined :class:`repro.service.loadgen.ServiceClient`
connection.  Request ``i`` of a rung is *due* at ``start + i / rate``
whether or not earlier requests were answered (an open loop: a stalled
server keeps receiving load and its queue grows), and its latency runs
from that due time to the response, so a stall is charged to every
request it delays (coordinated omission corrected, as in wrk2).  How
late the generator itself sent each request is reported as send lag.

Schedules are built up front from a seeded RNG and a model of the
server's live point set, so a seed fixes every request, its expected
answer and the final census.  Each rung holds an exact share of each
op kind in a seeded order, so the number of mutations per rung, and
with it where the server's periodic checkpoints and drift samples
fall, is the same for every seed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Side of the range-query boxes (unit square).
RANGE_SIDE = 0.02
#: Neighbours asked for by each nearest query.
NEAREST_K = 8
MUTATIONS = ("insert", "delete")
READS = ("range", "nearest")
#: Seconds of requests in one window of a rung.
WINDOW_S = 1.0


@dataclass(frozen=True)
class Request:
    op: str
    fields: Dict[str, Any]


class LiveSet:
    """The point set the server should hold, with O(1) random removal."""

    def __init__(self, points: np.ndarray):
        self._points: List[Tuple[float, ...]] = [
            tuple(row) for row in points.tolist()
        ]
        self._index = {p: i for i, p in enumerate(self._points)}

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, point: Tuple[float, ...]) -> bool:
        return point in self._index

    def add(self, point: Tuple[float, ...]) -> None:
        self._index[point] = len(self._points)
        self._points.append(point)

    def pop(self, i: int) -> Tuple[float, ...]:
        point = self._points[i]
        last = self._points.pop()
        del self._index[point]
        if last != point:
            self._points[i] = last
            self._index[last] = i
        return point

    def array(self) -> np.ndarray:
        return np.array(self._points, dtype=np.float64)


def build_schedule(
    rng: np.random.Generator, live: LiveSet, count: int, write_share: float
) -> List[Request]:
    """``count`` requests: ``write_share`` mutations (half inserts of
    fresh points, half deletes of live points), the rest reads (half
    range boxes, half k-nearest), shuffled.  ``live`` is advanced in
    send order, which is the order one connection's mutations apply
    in."""
    writes = round(count * write_share)
    inserts = writes // 2
    ranges = (count - writes) // 2
    kinds = np.repeat(
        np.arange(4), [inserts, writes - inserts, ranges, count - writes - ranges]
    )
    rng.shuffle(kinds)
    out: List[Request] = []
    for kind in kinds.tolist():
        if kind == 0:
            point = tuple(rng.random(2).tolist())
            while point in live:  # pragma: no cover - float collision
                point = tuple(rng.random(2).tolist())
            live.add(point)
            out.append(Request("insert", {"point": list(point)}))
        elif kind == 1:
            point = live.pop(int(rng.integers(len(live))))
            out.append(Request("delete", {"point": list(point)}))
        elif kind == 2:
            lo = (rng.random(2) * (1.0 - RANGE_SIDE)).tolist()
            hi = [c + RANGE_SIDE for c in lo]
            out.append(Request("range", {"lo": lo, "hi": hi}))
        else:
            center = rng.random(2).tolist()
            out.append(Request("nearest", {"point": center, "k": NEAREST_K}))
    return out


def response_ok(request: Request, response: Dict[str, Any]) -> bool:
    """Every mutation must report success (a fresh insert is new, a
    live delete finds its point); a range answer must lie in its box; a
    nearest answer must hold k points.  Read *contents* are not
    compared: a pipelined read sees the last committed batch, which may
    trail mutations sent before it."""
    if not response.get("ok"):
        return False
    result = response.get("result")
    if request.op in MUTATIONS:
        return result is True
    if request.op == "range":  # boxes are half-open, as Rect's are
        lo, hi = request.fields["lo"], request.fields["hi"]
        return all(
            lo[0] <= x < hi[0] and lo[1] <= y < hi[1] for x, y in result
        )
    return len(result) == NEAREST_K


@dataclass
class Outcome:
    op: str
    due: float
    sent: float
    done: float = 0.0
    ok: bool = False


@dataclass
class Rung:
    """One rung's results: requests sent at one fixed rate."""

    rate: float
    start: float
    end: float = 0.0
    drained: float = 0.0
    backlog_end: int = 0
    backlog_max: int = 0
    outcomes: List[Outcome] = field(default_factory=list)
    #: ``(request index, probe reading)`` at the start of each window
    #: and once after the drain
    marks: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def latencies(self, ops: Optional[Tuple[str, ...]] = None) -> np.ndarray:
        """Seconds from due time to response."""
        return np.array([
            o.done - o.due for o in self.outcomes
            if ops is None or o.op in ops
        ])

    def send_lags(self) -> np.ndarray:
        return np.array([o.sent - o.due for o in self.outcomes])

    def windows(self) -> List[Tuple[np.ndarray, float]]:
        """Per window: its requests' latencies and the probe's change
        per request over it."""
        out = []
        for (i, before), (j, after) in zip(self.marks, self.marks[1:]):
            latencies = np.array([o.done - o.due for o in self.outcomes[i:j]])
            out.append((latencies, (after - before) / (j - i)))
        return out


async def run_rung(
    client,
    requests: List[Request],
    rate: float,
    probe: Optional[Callable[[], float]] = None,
) -> Rung:
    """Send ``requests`` at ``rate`` per second, then wait until every
    one is answered; read ``probe`` as each window of ``WINDOW_S``
    seconds' requests starts, and after the drain."""
    rung = Rung(rate=rate, start=time.perf_counter() + 0.01)
    per_window = max(1, round(rate * WINDOW_S))
    outstanding = 0
    futures = []

    def finish(request: Request, outcome: Outcome, future) -> None:
        nonlocal outstanding
        outcome.done = time.perf_counter()
        outstanding -= 1
        outcome.ok = (
            not future.cancelled() and future.exception() is None
            and response_ok(request, future.result())
        )

    for i, request in enumerate(requests):
        due = rung.start + i / rate
        delay = due - time.perf_counter()
        # behind schedule: still yield once so responses get read
        await asyncio.sleep(max(delay, 0.0))
        # a short remainder joins the last window
        if (probe is not None and i % per_window == 0
                and (i == 0 or len(requests) - i >= per_window)):
            rung.marks.append((i, probe()))
        outcome = Outcome(request.op, due, time.perf_counter())
        rung.outcomes.append(outcome)
        future = await client.submit(request.op, **request.fields)
        outstanding += 1
        rung.backlog_max = max(rung.backlog_max, outstanding)
        future.add_done_callback(
            lambda f, r=request, o=outcome: finish(r, o, f)
        )
        futures.append(future)
    rung.end = time.perf_counter()
    rung.backlog_end = outstanding
    await asyncio.gather(*futures, return_exceptions=True)
    await asyncio.sleep(0)  # let the last done-callbacks run
    rung.drained = time.perf_counter()
    if probe is not None:
        rung.marks.append((len(requests), probe()))
    return rung
