"""The scenario layer: knee detection, flash-crowd shaping, live sweeps.

Fast units cover the pure pieces (``find_knee`` prefix semantics,
``hot_query_page`` selection, seeded ``flash_crowd_trace`` reshaping,
scenario/arrival wiring).  The end-to-end classes stand up a real
localhost deployment and are in the slow tier — they are the executable
form of the ISSUE acceptance criterion "same seed reproduces the same
arrival schedule byte-for-byte in the report".
"""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.net.scenarios import (
    KNEE_MAX_DROP_RATE,
    SCENARIOS,
    deploy_scenario,
    find_knee,
    flash_crowd_trace,
    hot_query_page,
    run_scenario,
    scenario_arrivals,
    sweep_scenario,
)
from repro.net.traffic import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.workloads.trace import Trace


def make_trace() -> Trace:
    return Trace(
        application="toystore",
        pages=[
            [("query", "Q2", [1]), ("query", "Q2", [2])],
            [("query", "Q2", [1]), ("update", "U1", [5])],
            [("query", "Q3", [1]), ("query", "Q2", [1])],
            [("update", "U1", [6]), ("query", "Q1", ["toy3"])],
            [("query", "Q2", [3]), ("query", "Q2", [1])],
            [("query", "Q2", [4]), ("update", "U1", [7])],
            [("query", "Q1", ["toy2"]), ("query", "Q2", [2])],
            [("query", "Q3", [2]), ("query", "Q2", [5])],
            [("query", "Q2", [6]), ("query", "Q2", [1])],
            [("query", "Q2", [7]), ("query", "Q3", [3])],
        ],
    )


def point(rate: float, p99: float, drop_rate: float = 0.0) -> dict:
    return {"offered_rate_s": rate, "p99_s": p99, "drop_rate": drop_rate}


class TestFindKnee:
    def test_all_under_deadline_returns_last_rate(self):
        points = [point(10, 0.01), point(20, 0.02), point(40, 0.05)]
        assert find_knee(points, deadline_s=0.1) == 40

    def test_knee_is_last_rate_before_first_violation(self):
        points = [point(10, 0.01), point(20, 0.2), point(40, 0.05)]
        # The 40/s dip back under the deadline is post-saturation noise
        # (drops thin the histogram); it must not resurrect the knee.
        assert find_knee(points, deadline_s=0.1) == 10

    def test_first_point_over_deadline_means_no_knee(self):
        points = [point(10, 0.5), point(20, 0.6)]
        assert find_knee(points, deadline_s=0.1) is None

    def test_empty_sweep_has_no_knee(self):
        assert find_knee([], deadline_s=0.1) is None

    def test_dropping_point_ends_the_knee_despite_p99(self):
        # Measured on a 20 ms-latency sweep: at 786/s offered, shedding
        # dropped 44% of arrivals, which kept p99 at 433 ms, inside the
        # 500 ms deadline.  Such a point is past the knee.
        points = [point(174.7, 0.261), point(786, 0.433, drop_rate=0.44)]
        assert find_knee(points, deadline_s=0.5) == 174.7

    def test_drop_rate_limit_is_inclusive(self):
        limit = KNEE_MAX_DROP_RATE
        points = [point(10, 0.01, drop_rate=limit), point(20, 0.01, 0.02)]
        assert find_knee(points, deadline_s=0.1) == 10


class TestHotQueryPage:
    def test_picks_most_frequent_query(self, simple_toystore):
        page = hot_query_page(make_trace(), simple_toystore)
        assert page is not None and len(page) == 1
        operation = page[0]
        assert not operation.is_update
        assert operation.bound.template.name == "Q2"
        assert tuple(operation.bound.params) == (1,)

    def test_no_queries_returns_none(self, simple_toystore):
        trace = Trace(
            application="toystore", pages=[[("update", "U1", [5])]]
        )
        assert hot_query_page(trace, simple_toystore) is None


class TestFlashCrowdTrace:
    def test_spike_window_pages_concentrate_on_hot_query(
        self, simple_toystore
    ):
        trace = make_trace()
        shaped = flash_crowd_trace(
            trace, simple_toystore, seed=31, hot_fraction=1.0
        )
        assert shaped.application == trace.application
        assert len(shaped.pages) == len(trace.pages)
        total = len(trace.pages)
        spike = range(int(0.4 * total), int((0.4 + 0.3) * total))
        for index, page in enumerate(shaped.pages):
            if index in spike:
                assert page == [("query", "Q2", [1])]
            else:
                assert [tuple(op) for op in page] == [
                    tuple(op) for op in trace.pages[index]
                ]

    def test_same_seed_same_shaped_trace(self, simple_toystore):
        first = flash_crowd_trace(make_trace(), simple_toystore, seed=31)
        second = flash_crowd_trace(make_trace(), simple_toystore, seed=31)
        assert first.pages == second.pages

    def test_updates_survive_outside_the_spike(self, simple_toystore):
        shaped = flash_crowd_trace(make_trace(), simple_toystore, seed=31)
        kinds = {
            op[0] for page in shaped.pages for op in page
        }
        assert "update" in kinds

    def test_queryless_trace_rejected(self, simple_toystore):
        trace = Trace(
            application="toystore", pages=[[("update", "U1", [5])]]
        )
        with pytest.raises(WorkloadError, match="no queries"):
            flash_crowd_trace(trace, simple_toystore, seed=31)


class TestScenarioArrivals:
    def test_each_scenario_maps_to_its_process(self):
        assert isinstance(
            scenario_arrivals("steady", 50, 1), PoissonArrivals
        )
        assert isinstance(
            scenario_arrivals("multi_tenant", 50, 1), PoissonArrivals
        )
        assert isinstance(
            scenario_arrivals("flash_crowd", 50, 1), FlashCrowdArrivals
        )
        assert isinstance(
            scenario_arrivals("diurnal", 50, 1), DiurnalArrivals
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            scenario_arrivals("tsunami", 50, 1)

    def test_scenario_registry_is_complete(self):
        assert set(SCENARIOS) == {
            "steady",
            "flash_crowd",
            "multi_tenant",
            "diurnal",
        }
        for spec in SCENARIOS.values():
            assert spec.max_in_flight > 0 and spec.pipeline > 0


class TestScenarioEndToEnd:
    async def test_unknown_scenario_deploy_rejected(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            await deploy_scenario("tsunami")

    async def test_steady_run_reports_open_loop_books(self):
        deployment = await deploy_scenario(
            "steady", scale=0.1, seed=3, trace_pages=200
        )
        try:
            report = await run_scenario(
                deployment, rate=40, duration_s=1.0
            )
        finally:
            await deployment.stop()
        assert report.open_loop and report.mode == "open"
        assert report.offered == report.issued + report.dropped
        assert report.pages + report.errors == report.issued
        assert report.pages > 0
        assert report.arrival is not None
        assert report.arrival["kind"] == "poisson"
        # Same seed, same rate, same duration: the schedule the report
        # says it ran is byte-for-byte the one the process generates.
        expected = scenario_arrivals(
            "steady", 40, deployment.seed
        ).schedule(1.0)
        assert report.arrival["digest"] == expected.digest()
        assert report.arrival["offered"] == expected.offered

    async def test_flash_crowd_run_uses_hot_page(self):
        deployment = await deploy_scenario(
            "flash_crowd", scale=0.1, seed=5, trace_pages=200
        )
        try:
            heavy = deployment.tenants[0]
            assert heavy.hot_page is not None
            report = await run_scenario(
                deployment, rate=30, duration_s=1.0
            )
        finally:
            await deployment.stop()
        assert report.arrival["kind"] == "flash_crowd"
        assert report.arrival["hot_count"] > 0
        assert report.pages > 0 and report.errors == 0

    async def test_sweep_produces_knee_curve(self):
        deployment = await deploy_scenario(
            "steady",
            scale=0.1,
            seed=7,
            trace_pages=400,
            service_latency_s=0.002,
        )
        try:
            result = await sweep_scenario(
                deployment,
                rates=[20, 40],
                duration_s=1.0,
                deadline_s=5.0,
            )
        finally:
            await deployment.stop()
        assert result["scenario"] == "steady"
        assert [p["rate"] for p in result["points"]] == [20, 40]
        for p in result["points"]:
            assert p["offered"] == p["issued"] + p["dropped"]
            assert p["arrival"]["digest"]
        # A 5 s deadline is unmissable at these rates: the knee is the
        # top of the sweep.
        assert result["knee_rate_s"] == result["points"][-1][
            "offered_rate_s"
        ]

    async def test_sweep_rejects_unsorted_rates(self):
        deployment = await deploy_scenario(
            "steady", scale=0.1, seed=7, trace_pages=100
        )
        try:
            with pytest.raises(WorkloadError, match="must ascend"):
                await sweep_scenario(
                    deployment,
                    rates=[40, 20],
                    duration_s=0.5,
                    deadline_s=1.0,
                )
        finally:
            await deployment.stop()
