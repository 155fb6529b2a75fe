"""The measurement rules: quantiles, the capacity ladder, accounting."""

import pytest

from perfbench.measure import (
    Books,
    LadderPoint,
    capacity,
    min_samples,
    next_rung,
    percentile,
    supported_percentile,
    tail,
)


class TestQuantileRule:
    @pytest.mark.parametrize(
        "count, expected",
        [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
         (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, count, expected):
        assert supported_percentile(count) == expected

    def test_min_samples_is_the_boundary(self):
        for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
            assert supported_percentile(min_samples(pct)) >= pct
            assert supported_percentile(min_samples(pct) - 1) is None or (
                supported_percentile(min_samples(pct) - 1) < pct
            )

    def test_tail_refuses_an_unsupported_percentile(self):
        assert tail(list(range(199)), 95.0) is None
        assert tail(list(range(1, 201)), 95.0) == 190

    def test_nearest_rank(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(samples, 50.0) == 3.0
        assert percentile(samples, 100.0) == 5.0
        assert percentile(samples, 1.0) == 1.0


def point(rate, tail_ms, *, attempted=1000, failed=0, backlog=0, pages=300):
    """A ladder point whose p95 page latency is ``tail_ms``."""
    latencies = [1.0] * (pages - 20) + [tail_ms] * 20
    return LadderPoint(rate, tuple(latencies), attempted, failed, backlog)


class TestCapacityLadder:
    def test_highest_passing_rate(self):
        points = [point(50, 40), point(100, 90), point(109, 240), point(119, 600)]
        assert capacity(points) == 109

    def test_post_saturation_dip_does_not_count(self):
        # 130/s dips back under the deadline after 119/s failed.
        points = [point(100, 90), point(119, 600), point(130, 200)]
        assert capacity(points) == 100

    def test_more_than_one_percent_failed_fails_the_point(self):
        drops = point(119, 100, attempted=1000, failed=11)
        assert drops.verdict().startswith("fail: failed_frac")
        assert capacity([point(100, 90), drops]) == 100
        assert point(119, 100, attempted=1000, failed=10).passed

    def test_growing_backlog_fails_the_point(self):
        backlog = point(120, 100, backlog=200)
        assert backlog.verdict().startswith("fail: backlog")

    def test_too_few_pages_fail(self):
        assert not point(100, 10, pages=150).passed

    def test_points_are_ordered_by_rate(self):
        points = [point(119, 600), point(100, 90), point(109, 100)]
        assert capacity(points) == 109

    def test_lowest_failing_means_zero(self):
        assert capacity([point(50, 900), point(100, 90)]) == 0.0


class TestClimb:
    def walk(self, passes_up_to, start=8, first=12, top=24):
        verdicts = {}
        while (rung := next_rung(verdicts, start, first, top)) is not None:
            verdicts[rung] = rung <= passes_up_to
        return verdicts

    def test_climbs_two_rungs_then_steps_back(self):
        assert self.walk(15) == {12: True, 14: True, 16: False, 15: True}
        assert self.walk(14) == {12: True, 14: True, 16: False, 15: False}

    def test_walks_down_from_a_failing_first_rung(self):
        assert self.walk(10) == {12: False, 11: False, 10: True}
        assert self.walk(8) == {12: False, 11: False, 10: False, 9: False}

    def test_stops_at_the_top(self):
        assert max(self.walk(100, top=17)) == 16


def test_books_identity():
    books = Books(attempted=10, ok=7, failed=3)
    assert books.balanced()
    books.add(Books(attempted=5, ok=5, failed=0))
    assert books.balanced() and books.failed_frac == 3 / 15
    assert not Books(attempted=4, ok=2, failed=1).balanced()
