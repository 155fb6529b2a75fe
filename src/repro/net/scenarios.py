"""Named traffic scenarios over a live in-process DSSP topology.

A scenario bundles the moving parts one knee-curve measurement needs —
applications with data, a home endpoint, DSSP node(s) with an injected
service latency, wire clients, tenant weights, and a matching arrival
process — behind one name, so ``repro loadgen --scenario flash_crowd``
and the CI benchmark mean the same experiment:

- ``steady`` — one application under Poisson arrivals; the baseline
  knee-curve scenario.
- ``flash_crowd`` — Poisson baseline plus a mid-run spike that multiplies
  the offered rate and concentrates most of the surge on the workload's
  hottest query template.
- ``multi_tenant`` — one heavy application plus three light ones sharing
  a single DSSP whose ``max_in_flight`` is deliberately small, so
  overload sheds; the per-app books say whether shedding starves the
  light tenants.
- ``diurnal`` — one application under a sinusoidal day-curve.

The deployment is in-process (asyncio localhost sockets, same stack as
``tests/net``), so scenarios run anywhere the test suite runs; the
arrival schedule — not the topology — is the experiment variable.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec
from repro.dssp import DsspNode, HomeServer
from repro.dssp.invalidation import StrategyClass
from repro.errors import WorkloadError
from repro.net.dssp_server import DsspNetServer
from repro.net.home_server import HomeNetServer
from repro.net.client import RetryPolicy, WireClient
from repro.net.loadgen import LoadReport, TenantWorkload, run_open_load
from repro.net.traffic import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.obs import merge_snapshots
from repro.workloads import get_application, toystore_spec
from repro.workloads.base import Operation
from repro.workloads.trace import Trace, record_trace

__all__ = [
    "KNEE_MAX_DROP_RATE",
    "SCENARIOS",
    "ScenarioDeployment",
    "deploy_scenario",
    "find_knee",
    "flash_crowd_trace",
    "hot_query_page",
    "run_scenario",
    "scenario_arrivals",
    "sweep_scenario",
]


@dataclass(frozen=True)
class _ScenarioSpec:
    description: str
    arrival_kind: str
    multi_tenant: bool
    #: Per-node concurrent-request ceiling; the shared-DSSP scenario keeps
    #: it small so overload sheds instead of queueing.
    max_in_flight: int
    #: Client pipeline window — the in-flight budget per endpoint.  Under
    #: open-loop overload the excess queues client-side, which is where
    #: the tail latency the knee is detected on comes from.
    pipeline: int


#: The named scenarios ``repro loadgen --scenario`` accepts.
SCENARIOS: dict[str, _ScenarioSpec] = {
    "steady": _ScenarioSpec(
        "one application, Poisson arrivals", "poisson", False, 64, 16
    ),
    "flash_crowd": _ScenarioSpec(
        "mid-run spike concentrated on the hottest template",
        "flash_crowd",
        False,
        64,
        16,
    ),
    "multi_tenant": _ScenarioSpec(
        "one heavy + three light apps sharing a small DSSP",
        "poisson",
        True,
        8,
        32,
    ),
    "diurnal": _ScenarioSpec(
        "sinusoidal day-curve arrivals", "diurnal", False, 64, 16
    ),
}

#: Tenant arrival shares for ``multi_tenant``.
HEAVY_WEIGHT = 0.7
LIGHT_WEIGHT = 0.1


def _spec_for(app: str):
    if app == "toystore":
        return toystore_spec()
    return get_application(app)


def _light_apps(heavy_app: str) -> tuple[str, ...]:
    candidates = ("auction", "bboard", "bookstore", "toystore")
    return tuple(app for app in candidates if app != heavy_app)[:3]


def hot_query_page(
    trace: Trace, registry
) -> tuple[Operation, ...] | None:
    """The most frequent recorded query, as a one-operation page.

    This is the page a flash crowd piles onto: everybody loading the
    same product page.  ``None`` when the trace has no queries.
    """
    frequency: dict[tuple[str, tuple], int] = {}
    for page in trace.iter_pages():
        for kind, name, params in page:
            if kind == "query":
                key = (name, tuple(params))
                frequency[key] = frequency.get(key, 0) + 1
    if not frequency:
        return None
    (name, params), _ = max(
        frequency.items(), key=lambda item: (item[1], item[0])
    )
    bound = registry.query(name).bind(list(params))
    return (Operation.query(bound),)


def flash_crowd_trace(
    trace: Trace,
    registry,
    *,
    seed: int,
    spike_start_frac: float = 0.4,
    spike_frac: float = 0.3,
    hot_fraction: float = 0.8,
) -> Trace:
    """A copy of ``trace`` whose mid-run pages pile onto the hot query.

    For closed-loop replayers (the chaos oracle) that cannot take an
    arrival schedule: pages in the spike window of the *page sequence*
    are replaced by the hot one-query page with probability
    ``hot_fraction``, seeded, so the reference replay sees the identical
    stream.  Updates outside the window are untouched — the oracle still
    exercises invalidation against the concentrated reads.
    """
    hot = hot_query_page(trace, registry)
    if hot is None:
        raise WorkloadError("trace has no queries to concentrate on")
    operation = hot[0]
    hot_page = [
        (
            "query",
            operation.bound.template.name,
            list(operation.bound.params),
        )
    ]
    rng = random.Random(f"flashtrace:{seed}")
    total = len(trace.pages)
    spike_start = spike_start_frac * total
    spike_end = (spike_start_frac + spike_frac) * total
    pages = []
    for index, page in enumerate(trace.iter_pages()):
        in_spike = spike_start <= index < spike_end
        if in_spike and rng.random() < hot_fraction:
            pages.append([tuple(entry) for entry in hot_page])
        else:
            pages.append(page)
    return Trace(application=trace.application, pages=pages)


def scenario_arrivals(name: str, rate: float, seed: int, **overrides):
    """The arrival process a named scenario runs under."""
    spec = SCENARIOS.get(name)
    if spec is None:
        raise WorkloadError(
            f"unknown scenario {name!r}; pick one of "
            f"{', '.join(sorted(SCENARIOS))}"
        )
    if spec.arrival_kind == "flash_crowd":
        return FlashCrowdArrivals(rate=rate, seed=seed, **overrides)
    if spec.arrival_kind == "diurnal":
        return DiurnalArrivals(rate=rate, seed=seed, **overrides)
    return PoissonArrivals(rate=rate, seed=seed, **overrides)


@dataclass
class ScenarioDeployment:
    """A started scenario topology: stop() releases every socket."""

    name: str
    seed: int
    home_net: HomeNetServer
    servers: list[DsspNetServer]
    clients: list[WireClient]
    tenants: list[TenantWorkload]
    spec: _ScenarioSpec = field(repr=False)

    async def stop(self) -> None:
        for client in self.clients:
            await client.aclose()
        for server in self.servers:
            await server.stop()
        await self.home_net.stop()

    def server_snapshot(self) -> dict:
        """Merged metrics snapshot across the DSSP fleet.

        Feed this to :func:`repro.obs.per_app_counters` to recover the
        per-application request/shed books.
        """
        return merge_snapshots(
            *(server.metrics.snapshot() for server in self.servers)
        )

    def sum_invalidations(self) -> int:
        return sum(server.node.stats.invalidations for server in self.servers)


def _make_service_latency(latency_s: float):
    async def hook(frame, request_id):
        await asyncio.sleep(latency_s)

    return hook


async def deploy_scenario(
    name: str,
    *,
    heavy_app: str = "bookstore",
    scale: float = 0.2,
    seed: int = 1,
    nodes: int = 1,
    trace_pages: int = 400,
    service_latency_s: float = 0.004,
    max_in_flight: int | None = None,
    pipeline: int | None = None,
    retry_attempts: int = 1,
) -> ScenarioDeployment:
    """Stand up a named scenario on localhost sockets.

    ``trace_pages`` bounds how many pages a run (or a sweep) can issue
    before the trace wraps; replayed INSERTs collide on wrap, so size it
    above the total pages the measurement will issue.

    ``retry_attempts=1`` (the default) keeps the books exact: every
    client-side operation maps to exactly one server request, so per-app
    server counters reconcile with the report.  Raise it to measure
    retry behaviour instead of accounting.
    """
    spec = SCENARIOS.get(name)
    if spec is None:
        raise WorkloadError(
            f"unknown scenario {name!r}; pick one of "
            f"{', '.join(sorted(SCENARIOS))}"
        )
    max_in_flight = (
        spec.max_in_flight if max_in_flight is None else max_in_flight
    )
    pipeline = spec.pipeline if pipeline is None else pipeline
    apps = [heavy_app]
    weights = [1.0]
    if spec.multi_tenant:
        apps.extend(_light_apps(heavy_app))
        weights = [HEAVY_WEIGHT] + [LIGHT_WEIGHT] * (len(apps) - 1)

    homes = []
    tenants: list[TenantWorkload] = []
    registries = []
    for index, app in enumerate(apps):
        app_spec = _spec_for(app)
        instance = app_spec.instantiate(scale=scale, seed=seed + index)
        policy = ExposurePolicy.uniform(
            app_spec.registry, StrategyClass.MVIS.exposure_level
        )
        keyring = Keyring(app, app.encode().ljust(32, b"k")[:32])
        homes.append(
            HomeServer(
                app, instance.database, app_spec.registry, policy, keyring
            )
        )
        trace = record_trace(
            instance.sampler, trace_pages, seed=seed + index, application=app
        ).bind(app_spec.registry)
        hot_page = None
        if name == "flash_crowd" and app == heavy_app:
            hot_page = hot_query_page(trace, app_spec.registry)
        registries.append(app_spec.registry)
        tenants.append(
            TenantWorkload(
                app=app,
                codec=EnvelopeCodec(keyring),
                policy=policy,
                trace=trace,
                weight=weights[index],
                hot_page=hot_page,
            )
        )

    home_net = HomeNetServer(homes)
    await home_net.start()
    servers: list[DsspNetServer] = []
    clients: list[WireClient] = []
    try:
        for index in range(nodes):
            server = DsspNetServer(
                DsspNode(),
                node_id=f"dssp-{index}",
                fault_hook=_make_service_latency(service_latency_s),
                max_in_flight=max_in_flight,
            )
            for tenant, registry in zip(tenants, registries):
                server.register_application(
                    tenant.app, registry, home_net.address
                )
            await server.start()
            servers.append(server)
            clients.append(
                WireClient(
                    *server.address,
                    pipeline=pipeline,
                    retry=RetryPolicy(attempts=retry_attempts),
                )
            )
    except BaseException:
        for client in clients:
            await client.aclose()
        for server in servers:
            await server.stop()
        await home_net.stop()
        raise
    return ScenarioDeployment(
        name=name,
        seed=seed,
        home_net=home_net,
        servers=servers,
        clients=clients,
        tenants=tenants,
        spec=spec,
    )


async def run_scenario(
    deployment: ScenarioDeployment,
    *,
    rate: float,
    duration_s: float,
    seed: int | None = None,
    max_outstanding: int = 64,
    arrival_options: dict | None = None,
) -> LoadReport:
    """One open-loop run of the deployed scenario at ``rate``.

    Returns the :class:`LoadReport` with the schedule's digest attached
    (``report.arrival``) and the fleet's invalidation delta measured
    around the run.
    """
    seed = deployment.seed if seed is None else seed
    arrivals = scenario_arrivals(
        deployment.name, rate, seed, **(arrival_options or {})
    )
    schedule = arrivals.schedule(duration_s)
    before = deployment.sum_invalidations()
    report = await run_open_load(
        deployment.clients,
        deployment.tenants,
        schedule,
        max_outstanding=max_outstanding,
    )
    return report.with_invalidations(deployment.sum_invalidations() - before)


#: Largest share of arrivals a point may drop and still count as served.
KNEE_MAX_DROP_RATE = 0.01


def find_knee(points: list[dict], deadline_s: float) -> float | None:
    """Last offered rate (ascending) with p99 under the deadline and at
    most :data:`KNEE_MAX_DROP_RATE` of arrivals dropped (shedding keeps an
    overloaded point's p99 low by turning arrivals away).

    The prefix has to hold too: a point past saturation whose p99 dips
    back under the deadline must not resurrect the knee.  ``None`` when
    even the first point fails.
    """
    knee = None
    for point in points:
        if (
            point["p99_s"] > deadline_s
            or point["drop_rate"] > KNEE_MAX_DROP_RATE
        ):
            break
        knee = point["offered_rate_s"]
    return knee


async def sweep_scenario(
    deployment: ScenarioDeployment,
    *,
    rates: list[float],
    duration_s: float,
    deadline_s: float,
    seed: int | None = None,
    max_outstanding: int = 64,
) -> dict:
    """Tail latency vs offered load across ``rates``; the knee curve.

    One deployment serves the whole ascending sweep (caches stay warm —
    the paper's steady-state assumption), each point is one seeded
    open-loop run, and the knee is the last offered rate whose p99 held
    the deadline.
    """
    if list(rates) != sorted(rates):
        raise WorkloadError(f"sweep rates must ascend, got {rates}")
    points = []
    for rate in rates:
        report = await run_scenario(
            deployment,
            rate=rate,
            duration_s=duration_s,
            seed=seed,
            max_outstanding=max_outstanding,
        )
        points.append(
            {
                "rate": rate,
                "offered_rate_s": report.offered_rate_s,
                "achieved_rate_s": report.achieved_rate_s,
                "drop_rate": report.drop_rate,
                "offered": report.offered,
                "issued": report.issued,
                "dropped": report.dropped,
                "pages": report.pages,
                "late_pages": report.late_pages,
                "errors": report.errors,
                "hit_rate": report.hit_rate,
                "p50_s": report.p50_s,
                "p90_s": report.p90_s,
                "p99_s": report.p99_s,
                "arrival": report.arrival,
            }
        )
    return {
        "scenario": deployment.name,
        "deadline_s": deadline_s,
        "duration_s": duration_s,
        "points": points,
        "knee_rate_s": find_knee(points, deadline_s),
    }
