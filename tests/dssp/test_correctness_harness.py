"""Tests for the executable correctness harness."""

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer, StrategyClass
from repro.dssp.correctness import verify_invalidation_correctness
from repro.workloads import APPLICATIONS, get_application, toystore_spec


def deploy(name, level: ExposureLevel, scale=0.2, seed=1):
    spec = (
        toystore_spec() if name == "toystore" else get_application(name)
    )
    instance = spec.instantiate(scale=scale, seed=seed)
    policy = ExposurePolicy.uniform(spec.registry, level)
    home = HomeServer(
        name, instance.database, spec.registry, policy, Keyring(name)
    )
    node = DsspNode()
    node.register_application(home)
    return node, home, instance.sampler


class TestCorrectnessHarness:
    @pytest.mark.parametrize(
        "level",
        [
            ExposureLevel.BLIND,
            ExposureLevel.TEMPLATE,
            ExposureLevel.STMT,
            ExposureLevel.VIEW,
        ],
        ids=lambda l: l.name,
    )
    def test_toystore_correct_at_every_level(self, level):
        node, home, sampler = deploy("toystore", level, scale=0.4)
        report = verify_invalidation_correctness(
            node, home, sampler, pages=120, seed=3
        )
        assert report.correct, report.summary()
        assert report.updates > 0
        if level is not ExposureLevel.BLIND:
            assert report.checks > 0
        # Under a blind policy every update wipes the cache, so there may
        # be nothing left to audit — vacuous correctness is still correct.

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_benchmarks_correct_under_mvis(self, name):
        node, home, sampler = deploy(
            name, StrategyClass.MVIS.exposure_level, scale=0.15
        )
        report = verify_invalidation_correctness(
            node, home, sampler, pages=50, seed=2
        )
        assert report.correct, report.summary()

    def test_methodology_policy_correct(self):
        """The mixed policy the methodology produces is also consistent."""
        from repro.analysis import design_exposure_policy

        spec = get_application("bookstore")
        instance = spec.instantiate(scale=0.15, seed=4)
        policy = design_exposure_policy(spec.registry).final
        home = HomeServer(
            "bookstore", instance.database, spec.registry, policy, Keyring("bookstore")
        )
        node = DsspNode()
        node.register_application(home)
        report = verify_invalidation_correctness(
            node, home, instance.sampler, pages=60, seed=5
        )
        assert report.correct, report.summary()

    def test_detects_a_broken_strategy(self, monkeypatch):
        """Sanity: the harness actually catches under-invalidation."""
        from repro.dssp import invalidation

        node, home, sampler = deploy(
            "toystore", ExposureLevel.STMT, scale=0.4
        )
        monkeypatch.setattr(
            invalidation.InvalidationEngine,
            "process_update",
            lambda self, *args, **kwargs: 0,  # never invalidate
        )
        report = verify_invalidation_correctness(
            node, home, sampler, pages=150, seed=3
        )
        assert not report.correct
        assert report.violations
        violation = report.violations[0]
        assert violation.cached_rows != violation.fresh_rows

    def test_summary_format(self):
        node, home, sampler = deploy("toystore", ExposureLevel.VIEW, scale=0.3)
        report = verify_invalidation_correctness(
            node, home, sampler, pages=30, seed=1
        )
        assert "CORRECT" in report.summary()
