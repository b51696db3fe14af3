"""The paper's self-configuration and self-optimization engines (§V).

Each engine is a :class:`~repro.adaptation.controller.ControlLoop`
driven by a :class:`~repro.decision.planners.Planner`; their decision
streams per seed are pinned by the golden digests in
``tests/golden/engines.json``.

- :func:`build_cache_tuner` — self-optimization over a
  :class:`CacheTuningDomain`, the knob surface the four interchangeable
  planners compete on.  The default is the
  :class:`~repro.decision.planners.MarginalUtilityPlanner`.
- :class:`ElasticityEngine` — self-configuration (provider pool
  watermarks).  Scale actions carry a ``provider_cost_mb`` debit so an
  arbiter can charge pool growth against the same memory ledger cache
  capacity lives in.
- :class:`ReplicationEngine` — self-optimization (replication degree):
  repair, promote and demote sweeps over the chunk directory, plus
  :func:`migrate_chunks`, which elasticity uses to drain a provider.

Self-protection is not a planner loop: ``PolicyManagement.start()``
runs :meth:`~repro.security.detection.DetectionEngine.run`, and
``PolicyManagement.attach_journal`` journals each sanction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..adaptation.controller import ControlLoop
from ..blobseer.blob import ChunkDescriptor
from ..blobseer.deployment import BlobSeerDeployment
from ..blobseer.errors import BlobSeerError, NoProvidersAvailable
from ..blobseer.instrument import EV_REPLICA_REPAIR, MonitoringEvent
from ..blobseer.provider import DataProvider
from ..blobseer.rpc import TIMED_OUT, wait_or_timeout
from ..cluster.node import NodeDownError
from ..simulation.network import TransferAborted
from .actions import Action
from .planners import MarginalUtilityPlanner, Planner
from .signals import SignalRef

__all__ = [
    "CacheTuningDomain",
    "build_cache_tuner",
    "ElasticityEngine",
    "ReplicationEngine",
    "migrate_chunks",
]

_EPS = 1e-9


# ---------------------------------------------------------------------------
# Self-optimization: cache capacity (the pluggable knob domain)
# ---------------------------------------------------------------------------

class CacheTuningDomain:
    """Knob surface over registered caches (the planner protocol's
    reference implementation — see :mod:`repro.decision.planners`).

    Monitor: between steps each cache's cumulative :class:`CacheStats`
    are differenced and the interval rates published as metrics series
    (``cache.<name>.hit_rate``, ``.lookups_per_s``, ``.evictions_per_s``,
    ``.bytes_mb``, ``.capacity_mb``).  Analyze: signals are read back as
    sliding-window means through the query engine, so decisions
    integrate over ``window_s`` of history rather than one noisy
    interval.  ``pressure`` is evictions/s, ``activity`` is lookups/s.
    Execute: :meth:`~repro.cache.Cache.resize`; with ``total_budget_mb``
    set, :meth:`pool` bounds growth so the fleet-wide budget is
    conserved.  ``dry_run`` observes and publishes only (a cache-stats
    probe for dashboards).
    """

    def __init__(
        self,
        query,
        caches=(),
        window_s: Optional[float] = None,
        total_budget_mb: Optional[float] = None,
        min_capacity_mb: float = 4.0,
        max_capacity_mb: Optional[float] = None,
        dry_run: bool = False,
        resource: str = "memory_mb",
        reward_signal: Optional[SignalRef] = None,
        engine: str = "cache-tuner",
    ) -> None:
        self.query = query
        self.window_s = window_s
        self.total_budget_mb = total_budget_mb
        self.min_capacity_mb = min_capacity_mb
        self.max_capacity_mb = max_capacity_mb
        self.dry_run = dry_run
        #: Ledger name grow/shrink costs settle against.
        self.resource = resource
        #: Global objective for the search-based planners (hill-climb,
        #: bandit), e.g. ``SignalRef("client.throughput_mbps")``.
        self.reward_signal = reward_signal
        self.engine = engine
        self.caches: Dict[str, Any] = {}
        self._last: Dict[str, Tuple[int, int, int, float]] = {}
        #: (time, {cache: capacity_mb}) after each executed step.
        self.capacity_timeline: List[Tuple[float, Dict[str, float]]] = []
        for cache in caches:
            self.register(cache)

    def register(self, cache) -> "CacheTuningDomain":
        self.caches[cache.name] = cache
        return self

    # -- monitor -------------------------------------------------------------------
    def publish(self, now: float) -> None:
        metrics = self.query.metrics
        for name, cache in self.caches.items():
            stats = cache.stats
            snap = (stats.hits, stats.misses, stats.evictions, now)
            prev = self._last.get(name)
            self._last[name] = snap
            if prev is None or metrics is None:
                continue
            dt = now - prev[3]
            if dt <= 0:
                continue
            hits = snap[0] - prev[0]
            lookups = hits + (snap[1] - prev[1])
            evictions = snap[2] - prev[2]
            if lookups > 0:
                metrics.sample(f"cache.{name}.hit_rate", hits / lookups)
            metrics.sample(f"cache.{name}.lookups_per_s", lookups / dt)
            metrics.sample(f"cache.{name}.evictions_per_s", evictions / dt)
            metrics.sample(f"cache.{name}.bytes_mb", cache.bytes_used)
            metrics.sample(f"cache.{name}.capacity_mb", cache.capacity_mb)

    # -- planner protocol --------------------------------------------------------
    def knobs(self) -> List[str]:
        return list(self.caches)

    def value(self, name: str) -> float:
        return self.caches[name].capacity_mb

    def bytes_used(self, name: str) -> float:
        return self.caches[name].bytes_used

    def utilization(self, name: str) -> float:
        return self.caches[name].utilization

    def floor(self, name: str) -> float:
        return self.min_capacity_mb

    def ceiling(self, name: str) -> Optional[float]:
        return self.max_capacity_mb

    def signals(self, name: str) -> Optional[Dict[str, float]]:
        window = self.window_s
        evict_rate = self.query.window_stat(
            f"cache.{name}.evictions_per_s", "mean", window)
        lookup_rate = self.query.window_stat(
            f"cache.{name}.lookups_per_s", "mean", window)
        if evict_rate is None or lookup_rate is None:
            return None  # not enough history yet
        hit_rate = self.query.window_stat(
            f"cache.{name}.hit_rate", "mean", window)
        return {
            "pressure": evict_rate,
            "activity": lookup_rate,
            "hit_rate": hit_rate if hit_rate is not None else 0.0,
        }

    def evidence(self, name: str, signals: Dict[str, float]) -> Dict[str, float]:
        return {
            f"{name}.evictions_per_s": round(signals["pressure"], 6),
            f"{name}.lookups_per_s": round(signals["activity"], 6),
            f"{name}.hit_rate": round(signals["hit_rate"], 6),
        }

    def pool(self) -> Optional[float]:
        """Remaining shared headroom under ``total_budget_mb``, live."""
        if self.total_budget_mb is None:
            return None
        headroom = self.total_budget_mb - sum(
            c.capacity_mb for c in self.caches.values())
        return max(0.0, headroom)

    def reward(self) -> Optional[float]:
        if self.reward_signal is None:
            return None
        return self.reward_signal.resolve(self.query)

    # -- actuators ---------------------------------------------------------------
    def make_shrink(self, name: str, amount: float,
                    signals: Optional[Dict[str, float]] = None) -> Action:
        cache = self.caches[name]
        before = cache.capacity_mb
        after = before - amount
        detail: Dict[str, Any] = {
            "cache": name,
            "from_mb": round(before, 3),
            "to_mb": round(after, 3),
        }
        if signals is not None:
            detail["lookups_per_s"] = round(signals["activity"], 3)
            detail["evictions_per_s"] = round(signals["pressure"], 3)
        return Action(
            "cache_shrink", self.engine, subject=name,
            cost={self.resource: -amount}, detail=detail,
            apply=lambda: cache.resize(after),
            undo=lambda: cache.resize(before),
        )

    def make_grow(self, name: str, amount: float,
                  signals: Optional[Dict[str, float]] = None,
                  utility: Optional[float] = None) -> Action:
        cache = self.caches[name]
        before = cache.capacity_mb
        after = before + amount
        detail: Dict[str, Any] = {
            "cache": name,
            "from_mb": round(before, 3),
            "to_mb": round(after, 3),
        }
        if utility is not None:
            detail["utility"] = round(utility, 6)
        if signals is not None:
            detail["hit_rate"] = round(signals["hit_rate"], 3)
            detail["evictions_per_s"] = round(signals["pressure"], 3)
        return Action(
            "cache_grow", self.engine, subject=name,
            cost={self.resource: amount}, detail=detail,
            apply=lambda: cache.resize(after),
            undo=lambda: cache.resize(before),
        )

    # -- arbiter integration -----------------------------------------------------
    def held(self) -> float:
        """Total capacity currently allocated (seed for ``assume``)."""
        return sum(c.capacity_mb for c in self.caches.values())

    def reclaim(self, resource: str, amount: float) -> float:
        """Arbiter preemption hook: shrink caches to free *amount* MB.

        Least-utilized caches give way first (name breaks ties), each
        down to its occupancy floor.  Returns the MB actually freed.
        """
        if resource != self.resource:
            return 0.0
        freed = 0.0
        order = sorted(self.caches,
                       key=lambda n: (self.caches[n].utilization, n))
        for name in order:
            if freed >= amount - _EPS:
                break
            cache = self.caches[name]
            floor = max(self.min_capacity_mb, cache.bytes_used)
            give = min(cache.capacity_mb - floor, amount - freed)
            if give <= _EPS:
                continue
            cache.resize(cache.capacity_mb - give)
            freed += give
        return freed


class _CacheTunerLoop(ControlLoop):
    """Control loop around a :class:`CacheTuningDomain`."""

    name = "cache-tuner"

    def sense(self, now: float) -> None:
        self.domain.publish(now)

    def step(self, now: float):
        decisions = super().step(now)
        self.domain.capacity_timeline.append(
            (now, {name: c.capacity_mb
                   for name, c in self.domain.caches.items()})
        )
        return decisions

    # Domain views for benches and scenario plumbing.
    @property
    def caches(self) -> Dict[str, Any]:
        return self.domain.caches

    @property
    def capacity_timeline(self):
        return self.domain.capacity_timeline


def build_cache_tuner(
    query,
    caches=(),
    planner: Optional[Planner] = None,
    arbiter=None,
    interval_s: float = 10.0,
    cooldown_s: float = 0.0,
    window_s: Optional[float] = None,
    total_budget_mb: Optional[float] = None,
    min_capacity_mb: float = 4.0,
    max_capacity_mb: Optional[float] = None,
    dry_run: bool = False,
    resource: str = "memory_mb",
    reward_signal: Optional[SignalRef] = None,
    name: str = "cache-tuner",
    **loop_kwargs: Any,
) -> _CacheTunerLoop:
    """The self-optimizing cache tuner with a pluggable planner.

    Grows thrashing caches and shrinks insensitive ones; the default
    planner is :class:`MarginalUtilityPlanner`.
    """
    domain = CacheTuningDomain(
        query, caches,
        window_s=window_s,
        total_budget_mb=total_budget_mb,
        min_capacity_mb=min_capacity_mb,
        max_capacity_mb=max_capacity_mb,
        dry_run=dry_run,
        resource=resource,
        reward_signal=reward_signal,
        engine=name,
    )
    if planner is None:
        planner = MarginalUtilityPlanner()
    loop = _CacheTunerLoop(
        planner=planner, domain=domain, arbiter=arbiter, name=name,
        interval_s=interval_s, cooldown_s=cooldown_s, **loop_kwargs,
    )
    return loop


# ---------------------------------------------------------------------------
# Self-configuration: provider-pool elasticity
# ---------------------------------------------------------------------------

class _WatermarkPlanner(Planner):
    """Elasticity's built-in plan: watermark rules over pool signals."""

    name = "watermark"

    def __init__(self, engine: "ElasticityEngine") -> None:
        self.engine = engine

    def params(self) -> Dict[str, Any]:
        e = self.engine
        return {
            "high_load": e.high_load,
            "low_load": e.low_load,
            "high_fill": e.high_fill,
            "scale_up_step": e.scale_up_step,
        }

    def plan(self, loop, now: float) -> Iterable[Action]:
        return self.engine._plan(now)


class ElasticityEngine(ControlLoop):
    """Self-configuration: dynamic data-provider deployment (paper §V).

    "This is a means to support storage elasticity in BlobSeer, by
    enabling the data providers to scale up and down depending on the
    system's needs in terms of storage space and access load."

    Two signals: **access load** (mean NIC utilisation + disk-queue
    pressure across the active pool) and **storage space** (pool-wide
    disk fill).  Above the high watermark it adds providers (the
    dynamic VM deployment of the Nimbus integration); below the low
    watermark it drains the least-loaded provider, migrating its
    sole-copy chunks, and retires it.  With a *query* engine attached
    it publishes ``elasticity.pool_load`` / ``.pool_fill`` /
    ``.pool_size`` and smooths its readings over a sliding window.

    ``scale_up`` debits and ``scale_down`` credits ``provider_cost_mb``
    MB per provider against *resource*, so an arbiter can referee pool
    growth against cache capacity on one conserved memory ledger.
    """

    name = "elasticity"

    def __init__(
        self,
        deployment,
        min_providers: int = 2,
        max_providers: int = 256,
        high_load: float = 0.65,
        low_load: float = 0.15,
        high_fill: float = 0.85,
        scale_up_step: int = 2,
        interval_s: float = 5.0,
        cooldown_s: float = 15.0,
        provision_delay_s: float = 10.0,
        query=None,
        smooth_window_s: Optional[float] = None,
        arbiter=None,
        resource: str = "memory_mb",
        provider_cost_mb: float = 64.0,
        **loop_kwargs: Any,
    ) -> None:
        super().__init__(
            arbiter=arbiter, interval_s=interval_s, cooldown_s=cooldown_s,
            **loop_kwargs,
        )
        self.planner = _WatermarkPlanner(self)
        self.deployment = deployment
        self.env = deployment.env
        self.query = query
        self.smooth_window_s = (
            smooth_window_s if smooth_window_s is not None
            else 3.0 * interval_s
        )
        self.min_providers = min_providers
        self.max_providers = max_providers
        self.high_load = high_load
        self.low_load = low_load
        self.high_fill = high_fill
        self.scale_up_step = scale_up_step
        self.provision_delay_s = provision_delay_s
        self.resource = resource
        #: MB of ledger memory one provider's footprint occupies.
        self.provider_cost_mb = provider_cost_mb
        self.scale_ups = 0
        self.scale_downs = 0
        self._provisioning = 0
        self._draining: set = set()
        self.pool_timeline: List[tuple] = []

    # -- signals -------------------------------------------------------------------
    def pool_load(self) -> float:
        providers = self.deployment.pmanager.active_providers()
        if not providers:
            return 1.0
        total = 0.0
        for provider in providers:
            out_rate, in_rate = provider.node.network_load()
            nic = (out_rate + in_rate) / (
                provider.node.netnode.capacity_in
                + provider.node.netnode.capacity_out
            )
            queue = min(1.0, provider.disk_queue_length / 8.0)
            total += 0.7 * nic + 0.3 * queue
        return total / len(providers)

    def pool_fill(self) -> float:
        providers = self.deployment.pmanager.active_providers()
        if not providers:
            return 1.0
        used = sum(p.node.disk_used_mb for p in providers)
        capacity = sum(p.node.disk.capacity for p in providers)
        return used / capacity if capacity else 1.0

    # -- plan (watermark control law, costed actions) ------------------------------
    def _plan(self, now: float) -> Iterable[Action]:
        pool = self.deployment.pmanager.pool_size() + self._provisioning
        load = self.pool_load()
        fill = self.pool_fill()
        if self.query is not None and self.query.metrics is not None:
            metrics = self.query.metrics
            metrics.sample("elasticity.pool_load", load)
            metrics.sample("elasticity.pool_fill", fill)
            metrics.sample("elasticity.pool_size", float(pool))
            smoothed_load = self.query.window_stat(
                "elasticity.pool_load", "mean", self.smooth_window_s)
            smoothed_fill = self.query.window_stat(
                "elasticity.pool_fill", "mean", self.smooth_window_s)
            if smoothed_load is not None:
                load = smoothed_load
            if smoothed_fill is not None:
                fill = smoothed_fill
        self.pool_timeline.append((now, pool, load))
        self.note(pool_size=pool, pool_load=round(load, 6),
                  pool_fill=round(fill, 6),
                  smoothed=self.query is not None)

        if ((load > self.high_load or fill > self.high_fill)
                and pool < self.max_providers):
            count = min(self.scale_up_step, self.max_providers - pool)

            def scale_up() -> None:
                for _ in range(count):
                    self._provisioning += 1
                    self.env.process(self._provision(), name="elastic-up")
                self.scale_ups += count

            yield Action(
                "scale_up", self.name,
                cost={self.resource: count * self.provider_cost_mb},
                detail={"count": count, "load": round(load, 3),
                        "fill": round(fill, 3)},
                apply=scale_up,
            )
        elif (load < self.low_load and fill < self.high_fill
                and pool > self.min_providers):
            victim = self._pick_victim()
            if victim is not None:

                def scale_down() -> None:
                    self._draining.add(victim.provider_id)
                    self.env.process(self._drain(victim),
                                     name="elastic-down")
                    self.scale_downs += 1

                yield Action(
                    "scale_down", self.name, subject=victim.provider_id,
                    cost={self.resource: -self.provider_cost_mb},
                    detail={"provider": victim.provider_id,
                            "load": round(load, 3)},
                    apply=scale_down,
                )

    def _pick_victim(self):
        candidates = [
            p for p in self.deployment.pmanager.active_providers()
            if p.provider_id not in self._draining
        ]
        if len(candidates) <= self.min_providers:
            return None
        return min(candidates, key=lambda p: (len(p.chunks), p.load_score()))

    def _provision(self):
        yield self.env.timeout(self.provision_delay_s)
        self._provisioning -= 1
        self.deployment.add_provider()

    def _drain(self, provider):
        provider.decommission()
        self.deployment.active_pmanager().deregister(provider.provider_id)
        try:
            yield from migrate_chunks(provider, self.deployment)
        except NoProvidersAvailable:
            provider.recommission()
            self.deployment.active_pmanager().register(provider)
        finally:
            self._draining.discard(provider.provider_id)


# ---------------------------------------------------------------------------
# Self-optimization: replication degree
# ---------------------------------------------------------------------------

class _SweepPlanner(Planner):
    """Replication's built-in plan: the directory sweep."""

    name = "sweep"

    def __init__(self, engine: "ReplicationEngine") -> None:
        self.engine = engine

    def params(self) -> Dict[str, Any]:
        e = self.engine
        return {
            "target_replication": e.target_replication,
            "max_replication": e.max_replication,
            "hot_reads_per_s": e.hot_reads_per_s,
        }

    def plan(self, loop, now: float) -> Iterable[Action]:
        return self.engine._plan(now)


class ReplicationEngine(ControlLoop):
    """Self-optimization: automatic data replication (paper §V).

    "a data-management system has to automatically maintain the
    replication degree of data chunks and to support a dynamic
    adjustment of the replication degree, according to the load of the
    storage nodes and the applications access patterns."

    Each step sweeps the chunk directory:

    - **repair** — chunks whose live replica count fell below the
      target (node crashes) are re-replicated from a surviving copy;
    - **promote** — chunks read faster than ``hot_reads_per_s`` gain
      extra replicas (up to ``max_replication``) to spread read load;
    - **demote** — previously-hot chunks that cooled down drop back to
      the target degree.

    Actions are applied as the sweep yields them, so a demote frees
    disk that the very next repair's target pick can use.
    """

    name = "replication"

    def __init__(
        self,
        deployment,
        target_replication: int = 2,
        max_replication: int = 4,
        hot_reads_per_s: float = 1.0,
        interval_s: float = 5.0,
        max_repairs_per_step: int = 64,
        detector=None,
        repair_timeout_s: Optional[float] = None,
        query=None,
        arbiter=None,
        **loop_kwargs: Any,
    ) -> None:
        super().__init__(arbiter=arbiter, interval_s=interval_s,
                         **loop_kwargs)
        self.planner = _SweepPlanner(self)
        self.deployment = deployment
        self.env = deployment.env
        #: Optional introspection QueryEngine.  When set, each sweep
        #: publishes its directory view as metrics series
        #: (``replication.under_replicated`` / ``.hot_chunks`` /
        #: ``.chunks`` / ``.in_flight``), giving the decision journal a
        #: signal to attribute repair/promote effects against.
        self.query = query
        self.target_replication = target_replication
        self.max_replication = max_replication
        self.hot_reads_per_s = hot_reads_per_s
        self.max_repairs_per_step = max_repairs_per_step
        #: Optional HeartbeatFailureDetector.  When set, replica counts
        #: follow the detector's *view*, not the ``node.alive`` oracle:
        #: repair traffic for a crashed provider starts only after the
        #: detector confirms it dead.
        self.detector = detector
        #: Bound on each repair copy; a copy whose source turns out to
        #: be dead-but-undetected black-holes, and without a timeout the
        #: chunk would be stuck in-flight forever.  Defaults on only in
        #: detector mode (the oracle mode cannot black-hole).
        if repair_timeout_s is None and detector is not None:
            repair_timeout_s = 30.0
        self.repair_timeout_s = repair_timeout_s
        #: MB moved by repair/promotion traffic (bench metric).
        self.repair_traffic_mb = 0.0
        self.repairs_done = 0
        self.promotions = 0
        self.demotions = 0
        self.lost_chunks: List[str] = []
        #: read counters snapshot for hotness estimation
        self._read_counts: Dict[str, Tuple[float, int]] = {}
        self._in_flight: set[str] = set()

    # -- directory -----------------------------------------------------------------
    def chunk_directory(self) -> Dict[str, ChunkDescriptor]:
        """All chunks believed live, keyed by storage key."""
        directory: Dict[str, ChunkDescriptor] = {}
        for provider in self.deployment.pmanager.providers.values():
            if self._presumed_dead(provider):
                continue
            directory.update(provider.chunks)
        return directory

    def live_replicas(self, descriptor: ChunkDescriptor) -> List[DataProvider]:
        providers = self.deployment.pmanager.providers
        out = []
        for provider_id in descriptor.replicas:
            provider = providers.get(provider_id)
            if provider is not None and self._believed_live(provider):
                out.append(provider)
        return out

    def _presumed_dead(self, provider: DataProvider) -> bool:
        if (self.detector is not None
                and self.detector.watches(provider.node.name)):
            return self.detector.confirmed_dead(provider.node.name)
        return not provider.node.alive

    def _believed_live(self, provider: DataProvider) -> bool:
        if provider.decommissioned:
            return False
        if (self.detector is not None
                and self.detector.watches(provider.node.name)):
            # The detector's view, not the oracle: a crashed provider
            # still counts as a replica until its death is *confirmed*,
            # so repair traffic begins only after detection.
            return not self.detector.confirmed_dead(provider.node.name)
        return provider.node.alive

    def _pick_source(self, replicas: List[DataProvider]) -> DataProvider:
        """Prefer a replica the detector believes healthy (not suspected)."""
        if self.detector is not None:
            for provider in replicas:
                if self.detector.thinks_alive(provider.node.name):
                    return provider
        return replicas[0]

    def _pick_target(self, descriptor: ChunkDescriptor) -> Optional[DataProvider]:
        candidates = [
            p for p in self.deployment.pmanager.active_providers()
            if p.provider_id not in descriptor.replicas
            and p.free_mb >= descriptor.size_mb
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda p: p.load_score())

    def _desired_degree(self, descriptor: ChunkDescriptor, now: float) -> int:
        """Target + hotness bonus, capped at max_replication."""
        degree = self.target_replication
        rate = self._read_rate(descriptor, now)
        if rate > self.hot_reads_per_s:
            extra = int(rate / self.hot_reads_per_s)
            degree = min(self.max_replication, degree + extra)
        return degree

    def _read_rate(self, descriptor: ChunkDescriptor, now: float) -> float:
        """Reads/s of this chunk since the previous sweep."""
        key = descriptor.storage_key
        previous = self._read_counts.get(key)
        self._read_counts[key] = (now, descriptor.read_count)
        if previous is None:
            return 0.0
        prev_time, prev_count = previous
        span = max(now - prev_time, 1e-9)
        return (descriptor.read_count - prev_count) / span

    # -- plan (the sweep) ----------------------------------------------------------
    def _plan(self, now: float) -> Iterable[Action]:
        repairs = 0
        directory = self.chunk_directory()
        under_replicated = hot = 0
        for key, descriptor in directory.items():
            if key in self._in_flight:
                continue
            replicas = self.live_replicas(descriptor)
            if not replicas:
                if key not in self.lost_chunks:
                    self.lost_chunks.append(key)
                continue
            want = self._desired_degree(descriptor, now)
            if len(replicas) < self.target_replication:
                under_replicated += 1
            if want > self.target_replication:
                hot += 1
            if len(replicas) < want and repairs < self.max_repairs_per_step:
                target = self._pick_target(descriptor)
                if target is None:
                    continue
                repairs += 1
                kind = ("repair" if len(replicas) < self.target_replication
                        else "promote")
                source = self._pick_source(replicas)

                def start_copy(descriptor=descriptor, source=source,
                               target=target, kind=kind, key=key) -> None:
                    self._in_flight.add(key)
                    self.env.process(
                        self._copy(descriptor, source, target, kind),
                        name=f"repl-{kind}",
                    )

                yield Action(
                    kind, self.name, subject=key,
                    detail={"chunk": key, "to": target.provider_id},
                    apply=start_copy,
                )
            elif len(replicas) > want:
                victim = replicas[-1]

                def drop_replica(victim=victim, key=key) -> None:
                    victim.delete_chunk(key)
                    self.demotions += 1

                yield Action(
                    "demote", self.name, subject=key,
                    detail={"chunk": key, "from": victim.provider_id},
                    apply=drop_replica,
                )
        self._publish(now, len(directory), under_replicated, hot)
        # Provenance: the sweep's view of the directory this step.
        self.note(chunks=len(directory), under_replicated=under_replicated,
                  hot_chunks=hot, lost_chunks=len(self.lost_chunks),
                  in_flight=len(self._in_flight))

    def _publish(self, now: float, chunks: int, under_replicated: int,
                 hot: int) -> None:
        """Publish the sweep's directory view as metrics series."""
        if self.query is None or self.query.metrics is None:
            return
        metrics = self.query.metrics
        metrics.sample("replication.chunks", float(chunks))
        metrics.sample("replication.under_replicated",
                       float(under_replicated))
        metrics.sample("replication.hot_chunks", float(hot))
        metrics.sample("replication.in_flight", float(len(self._in_flight)))

    # -- execute -------------------------------------------------------------------
    def _copy(self, descriptor: ChunkDescriptor, source: DataProvider,
              target: DataProvider, kind: str):
        try:
            done = target.ingest(source.node, descriptor, client_id=None)
            if self.repair_timeout_s is not None:
                # A dead-but-undetected source black-holes the copy;
                # give up after the bound and let a later sweep retry
                # from a (by then better-informed) replica choice.
                value = yield from wait_or_timeout(
                    self.env, done, self.repair_timeout_s
                )
                if value is TIMED_OUT:
                    return
            else:
                yield done
        except Exception:
            return
        finally:
            self._in_flight.discard(descriptor.storage_key)
        if target.provider_id not in descriptor.replicas:
            descriptor.replicas.append(target.provider_id)
        self.repair_traffic_mb += descriptor.size_mb
        if kind == "repair":
            self.repairs_done += 1
        else:
            self.promotions += 1
        self.deployment.sink.emit(MonitoringEvent(
            time=self.env.now,
            actor_type="adaptation",
            actor_id="replication",
            event_type=EV_REPLICA_REPAIR,
            blob_id=descriptor.blob_id,
            fields={"chunk": descriptor.storage_key, "kind": kind,
                    "size_mb": descriptor.size_mb},
        ))


def migrate_chunks(provider: DataProvider, deployment: BlobSeerDeployment):
    """Generator: move every chunk off *provider* (elastic scale-down).

    Returns the number of chunks migrated.  Chunks with another live
    replica are simply dropped here (cheap); sole copies are transferred
    to the least-loaded remaining provider first.
    """
    pmanager = deployment.pmanager
    moved = 0
    for key in list(provider.chunks):
        descriptor = provider.chunks.get(key)
        if descriptor is None:
            continue
        others = [
            pid for pid in descriptor.replicas
            if pid != provider.provider_id
            and pid in pmanager.providers
            and pmanager.providers[pid].available
        ]
        if not others:
            candidates = [
                p for p in pmanager.active_providers()
                if p.provider_id != provider.provider_id
                and p.free_mb >= descriptor.size_mb
            ]
            if not candidates:
                raise NoProvidersAvailable(
                    f"cannot drain {provider.provider_id}: no space elsewhere"
                )
            target = min(candidates, key=lambda p: p.load_score())
            try:
                yield target.ingest(provider.node, descriptor, client_id=None)
            except (TransferAborted, NodeDownError, BlobSeerError):
                continue
            if target.provider_id not in descriptor.replicas:
                descriptor.replicas.append(target.provider_id)
            moved += 1
        provider.delete_chunk(key)
    return moved
