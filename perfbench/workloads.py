"""The benchmark's workloads and their fixed offered rates.

Every workload runs the uniform MVIS exposure policy (results at ``view``
exposure), Zipf page traces from :mod:`repro.workloads`, and an open loop
with Poisson arrivals.  ``light`` and ``heavy`` are fixed per workload at
about a third and two thirds of the capacity the benchmark measured when
it was introduced; they are never re-tuned, so later changes are measured
at the same offered load.  ``heavy`` sits on the capacity ladder, eight
rungs above ``light``.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.measure import ladder_rate

#: Ladder rung of the heavy rate, counted from the light rate.
HEAVY_RUNG = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    app: str
    #: DSSP nodes; pages are split evenly across them.
    nodes: int
    #: DSSP ``--capacity`` in cached views; ``None`` is unbounded.
    capacity: int | None
    #: Home storage engine (``memory`` or durable ``sqlite``).
    backend: str
    #: Pages per second of the light window, and root of the ladder.
    light_rate: float

    @property
    def heavy_rate(self) -> float:
        return ladder_rate(self.light_rate, HEAVY_RUNG)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="browse",
            why=(
                "bboard on one DSSP node with an unbounded cache: read-mostly, "
                "hits dominate, so it loads the per-request hit path "
                "(client, wire, service, cache lookup)"
            ),
            app="bboard",
            nodes=1,
            capacity=None,
            backend="memory",
            light_rate=40.0,
        ),
        Workload(
            name="spill",
            why=(
                "browse's traffic with a DSSP cache far below the view "
                "working set: misses dominate, so it loads forwarding, "
                "crypto, storage execute and eviction"
            ),
            app="bboard",
            nodes=1,
            capacity=200,
            backend="memory",
            light_rate=35.0,
        ),
        Workload(
            name="order",
            why=(
                "bookstore with a quarter of operations updates, two DSSP "
                "nodes and a durable SQLite home: loads the write path, "
                "invalidation fan-out and refill misses"
            ),
            app="bookstore",
            nodes=2,
            capacity=None,
            backend="sqlite",
            light_rate=75.0,
        ),
    )
}
