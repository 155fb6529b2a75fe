"""Pure measurement rules: quantiles, the capacity ladder, accounting.

Everything here is a function of numbers the load generator collected, so the
benchmark's own tests pin the definitions without starting a server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Percentiles a tail may be reported at, highest first.
PERCENTILE_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile before it may be reported.
TAIL_SAMPLES = 10
#: Ratio between neighbouring rungs of the capacity ladder.
LADDER_STEP = 1.09
#: Page-latency limit on the tail a ladder point must meet.
DEADLINE_MS = 250.0
#: Failed share of attempted operations a ladder point may have.
MAX_FAILED_FRAC = 0.01
#: Percentile the capacity rule and the ``*_p95_ms`` metrics report.
TAIL_PERCENTILE = 95.0


def supported_percentile(count: int) -> float | None:
    """Highest grid percentile with at least ten samples beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    for percentile in PERCENTILE_GRID:
        if count >= min_samples(percentile):
            return percentile
    return None


def min_samples(percentile: float) -> int:
    """Smallest sample count that supports ``percentile``."""
    # Rounded before the ceiling: 100 - 99.9 is not exactly 0.1.
    return math.ceil(round(TAIL_SAMPLES * 100.0 / (100.0 - percentile), 6))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``0 < pct <= 100``)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples, pct: float) -> float | None:
    """``pct``-th percentile, or ``None`` when the sample cannot support it."""
    if len(samples) < min_samples(pct):
        return None
    return percentile(samples, pct)


def median(samples) -> float:
    """The 50th percentile (nearest rank)."""
    return percentile(samples, 50.0)


def ladder_rate(base: float, rung: int) -> float:
    """Offered rate of ``rung`` on the fixed ladder rooted at ``base``."""
    return base * LADDER_STEP**rung


@dataclass(frozen=True)
class LadderPoint:
    """One offered rate of the capacity ladder and what it achieved."""

    rate: float
    #: Page latencies (ms) from each page's due time, completed pages only.
    latencies_ms: tuple[float, ...]
    attempted: int
    failed: int
    #: Pages still outstanding when the last arrival was due.
    backlog: int

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def tail_ms(self) -> float | None:
        return tail(self.latencies_ms, TAIL_PERCENTILE)

    @property
    def backlog_limit(self) -> int:
        """Pages that may legitimately be in flight at the deadline."""
        return max(2, math.ceil(self.rate * DEADLINE_MS / 1000.0))

    def verdict(self) -> str:
        """``pass`` or the first reason the point fails."""
        tail_ms = self.tail_ms
        if tail_ms is None:
            return "fail: too few completed pages for the tail"
        if self.failed_frac > MAX_FAILED_FRAC:
            return f"fail: failed_frac {self.failed_frac:.3f}"
        if tail_ms > DEADLINE_MS:
            return f"fail: p{TAIL_PERCENTILE:g} {tail_ms:.1f} ms"
        if self.backlog > self.backlog_limit:
            return f"fail: backlog {self.backlog}"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.verdict() == "pass"


def capacity(points: list[LadderPoint]) -> float:
    """Highest offered rate whose point and every lower point pass.

    The prefix rule: a point that passes above a failing one (a p95 dip
    after saturation, say) does not count.  0.0 when the lowest fails.
    """
    best = 0.0
    for point in sorted(points, key=lambda p: p.rate):
        if not point.passed:
            break
        best = point.rate
    return best


def next_rung(
    verdicts: dict[int, bool], start: int, first: int, top: int
) -> int | None:
    """The ladder rung to measure next, given the verdicts so far.

    ``start`` is the highest rung already known to pass.  The walk
    measures ``first``, then climbs two rungs at a time while points pass;
    after a failure it walks down one rung at a time until a rung passes
    or it reaches ``start``.  ``None`` once the capacity is bracketed or
    the walk would pass ``top``.
    """
    failed = [rung for rung, passed in verdicts.items() if not passed]
    if failed:
        below = min(failed) - 1
        return below if below > start and below not in verdicts else None
    rung = max(verdicts) + 2 if verdicts else first
    return rung if rung <= top else None


@dataclass
class Books:
    """Operation accounting: every attempted operation ends ok or failed."""

    attempted: int = 0
    ok: int = 0
    failed: int = 0

    def add(self, other: "Books") -> None:
        self.attempted += other.attempted
        self.ok += other.ok
        self.failed += other.failed

    def balanced(self) -> bool:
        """The identity attempted = ok + failed."""
        return self.attempted == self.ok + self.failed

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
