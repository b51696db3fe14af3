"""Sliding-window introspection queries for the self-* components.

The paper's introspection layer must "identify and generate relevant
information related to the state and the behavior of the system ... fed
as input to various higher-level self-* components" (§III-B).  This
module is that query surface: windowed statistics over
:class:`~repro.telemetry.metrics.MetricsRegistry` time series, and
windowed rollups over the monitoring repository's event records —
per-provider, per-site, hot-blob and hot-chunk access patterns.

Three design points keep continuous polling cheap:

* Metrics series are append-only and time-ordered, so every window is a
  bisect, never a scan of history — and a per-step memo collapses
  repeat queries of the same (series, window) pair within one instant
  to a single scan.
* Repository records arrive through an incremental
  :class:`~repro.monitoring.repository.RepositoryCursor`: each
  :meth:`QueryEngine.refresh` consumes only records persisted since the
  last call and retains just the retention horizon in memory.
* With an attached :class:`~repro.introspection.rollup.RollupStore`,
  queries whose shape matches a materialized rollup are answered from
  O(1) incremental pre-aggregates instead of scanning the window at
  all; everything else transparently falls back to the raw scan.  Every
  query is accounted per shape (:attr:`QueryEngine.query_stats`) so the
  :class:`~repro.introspection.advisor.RollupAdvisor` can materialize
  hot shapes and retire cold ones.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from math import fsum, inf
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..blobseer.instrument import EV_CHUNK_READ, EV_CHUNK_WRITE, MonitoringEvent
from .rollup import RollupStore, Shape

__all__ = ["WindowRollup", "ShapeStat", "QueryEngine"]

_POINT_TIME = lambda p: p[0]  # noqa: E731 - bisect key for (time, value)


@dataclass
class WindowRollup:
    """Windowed activity of one provider (or one site)."""

    key: str
    window_s: float
    chunk_reads: int = 0
    chunk_writes: int = 0
    mb_read: float = 0.0
    mb_written: float = 0.0
    events: int = 0
    actors: set = field(default_factory=set)

    @property
    def ops(self) -> int:
        return self.chunk_reads + self.chunk_writes

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.window_s if self.window_s > 0 else 0.0

    @property
    def mb_per_s(self) -> float:
        total = self.mb_read + self.mb_written
        return total / self.window_s if self.window_s > 0 else 0.0


@dataclass
class ShapeStat:
    """Per-query-shape accounting: the advisor's query log."""

    raw_scans: int = 0        # windowed queries answered by scanning
    scanned_points: int = 0   # raw points (or events) folded during scans
    rollup_hits: int = 0      # queries answered from a materialized rollup
    last_raw: float = -inf
    last_hit: float = -inf


class QueryEngine:
    """Windowed queries over metrics series and monitoring records.

    Parameters
    ----------
    metrics:
        A :class:`MetricsRegistry` (or ``None`` if only repository
        queries are wanted).
    repository:
        A :class:`StorageRepository` (or ``None`` for series-only use).
    env:
        Environment supplying ``now`` when queries omit it.
    window_s:
        Default sliding-window width.
    retention_s:
        How much repository history to keep buffered; must cover the
        largest window queried.
    site_of:
        Maps an actor id (``provider-3``) to its site/rack name for
        :meth:`site_rollup` — a dict or a callable.  Unknown actors fall
        into site ``"?"``.
    rollups:
        ``True`` to attach a fresh :class:`RollupStore`, or an existing
        store to share.  With a store attached, queries whose shape
        matches a materialized rollup are answered O(1); use
        :meth:`materialize` / the :class:`RollupAdvisor` to create them.
    """

    def __init__(
        self,
        metrics=None,
        repository=None,
        env=None,
        window_s: float = 60.0,
        retention_s: Optional[float] = None,
        site_of: "Mapping[str, str] | Callable[[str], str] | None" = None,
        rollups: "RollupStore | bool | None" = None,
    ) -> None:
        self.metrics = metrics
        self.repository = repository
        self.env = env
        self.window_s = float(window_s)
        self.retention_s = float(retention_s) if retention_s is not None else max(
            300.0, 5.0 * self.window_s
        )
        if callable(site_of):
            self._site_of = site_of
        elif site_of is not None:
            mapping = dict(site_of)
            self._site_of = lambda actor: mapping.get(actor, "?")
        else:
            self._site_of = lambda actor: "?"
        self._cursor = repository.cursor() if repository is not None else None
        self._events: deque[MonitoringEvent] = deque()
        #: Per-shape query accounting (the advisor's knowledge base).
        self.query_stats: Dict[Shape, ShapeStat] = {}
        #: Per-step memo: (name, width) -> (series length, window slice).
        self._memo: Dict[Tuple[str, float], Tuple[int, List]] = {}
        self._memo_now: Optional[float] = None
        self.rollups: Optional[RollupStore] = None
        if rollups:
            self.attach_rollups(None if rollups is True else rollups)

    # -- rollup plumbing ---------------------------------------------------------
    def attach_rollups(self, store: Optional[RollupStore] = None) -> RollupStore:
        """Attach a rollup store and subscribe it to the sample stream.

        Every later ``metrics.sample`` fans into matching rollups, so a
        rollup materialized (and backfilled) once stays consistent with
        its raw series forever.  Returns the attached store.
        """
        if self.rollups is not None:
            return self.rollups
        if store is None:
            store = RollupStore()
        self.rollups = store
        if self.metrics is not None:
            self.metrics.add_sample_listener(store.observe_sample)
        return store

    def materialize(self, name: str, window_s: Optional[float] = None):
        """Materialize (and backfill) a series rollup; returns it."""
        if self.metrics is None:
            raise ValueError("materialize() needs a metrics registry")
        store = self.attach_rollups()
        width = self.window_s if window_s is None else float(window_s)
        return store.materialize_series(self.metrics.series(name), width)

    def materialize_events(self, kind: str, window_s: Optional[float] = None):
        """Materialize a provider/site event rollup, backfilled from the
        currently retained repository events."""
        store = self.attach_rollups()
        width = self.window_s if window_s is None else float(window_s)
        self.refresh()
        return store.materialize_events(
            kind, width, events=self._events, site_of=self._site_of)

    def _note_query(self, shape: Shape, now: float, hit: bool,
                    cost: int = 0) -> None:
        stat = self.query_stats.get(shape)
        if stat is None:
            stat = self.query_stats[shape] = ShapeStat()
        if hit:
            stat.rollup_hits += 1
            stat.last_hit = now
            if self.metrics is not None:
                self.metrics.counter("introspection.query.rollup_hits").inc()
        else:
            stat.raw_scans += 1
            stat.scanned_points += cost
            stat.last_raw = now
            if self.metrics is not None:
                self.metrics.counter("introspection.query.raw_scans").inc()

    # -- time plumbing ---------------------------------------------------------
    def _resolve_now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        if self.env is not None:
            return self.env.now
        if self._events:
            return self._events[-1].time
        return 0.0

    # -- metrics series windows ------------------------------------------------
    def window_points(
        self,
        name: str,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Series points with ``now - window < t <= now`` (bisect, no scan).

        Repeat queries of the same (series, window) pair at the same
        instant are memoized: within one step the raw series is sliced
        once, however many statistics are asked of it.  The memo is
        invalidated by time moving on or by new samples landing.
        """
        if self.metrics is None:
            return []
        now = self._resolve_now(now)
        width = self.window_s if window_s is None else window_s
        if now != self._memo_now:
            self._memo.clear()
            self._memo_now = now
        points = self.metrics.series(name).points
        key = (name, width)
        memo = self._memo.get(key)
        if memo is not None and memo[0] == len(points):
            return memo[1]
        if not points:
            result: List[Tuple[float, float]] = []
        else:
            lo = bisect_right(points, now - width, key=_POINT_TIME)
            hi = bisect_right(points, now, key=_POINT_TIME)
            result = points[lo:hi]
            self._note_query(("series", name, width), now, hit=False,
                             cost=len(result))
        self._memo[key] = (len(points), result)
        return result

    def window_stat(
        self,
        name: str,
        statistic: str = "mean",
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """One windowed statistic of a series; ``None`` with no data.

        Statistics: ``mean``, ``min``, ``max``, ``sum``, ``latest``,
        ``count``, ``rate`` (samples/s), ``value_rate`` (sum/s), and
        percentiles ``p50``/``p90``/``p95``/``p99`` (nearest rank).

        With a matching materialized rollup attached the answer comes
        from O(1) pre-aggregates; rollup answers are bitwise identical
        to the raw scan for every statistic except percentiles (reservoir
        approximation).  Sums/means use ``math.fsum`` (correctly rounded,
        order-independent) so the two paths agree exactly.
        """
        width = self.window_s if window_s is None else window_s
        store = self.rollups
        if store is not None:
            rollup = store.series_rollup(name, width)
            if rollup is not None:
                resolved = self._resolve_now(now)
                if rollup.covers(resolved):
                    value = rollup.stat(statistic, resolved)
                    self._note_query(("series", name, width), resolved,
                                     hit=True)
                    return value
        points = self.window_points(name, window_s, now)
        if not points:
            return None
        values = [v for _t, v in points]
        if statistic == "mean":
            return fsum(values) / len(values)
        if statistic == "min":
            return min(values)
        if statistic == "max":
            return max(values)
        if statistic == "sum":
            return fsum(values)
        if statistic == "latest":
            return values[-1]
        if statistic == "count":
            return float(len(values))
        if statistic == "rate":
            return len(values) / width if width > 0 else 0.0
        if statistic == "value_rate":
            return fsum(values) / width if width > 0 else 0.0
        if statistic.startswith("p"):
            q = float(statistic[1:])
            ordered = sorted(values)
            rank = max(0, min(len(ordered) - 1,
                              int(round(q / 100.0 * (len(ordered) - 1)))))
            return ordered[rank]
        raise ValueError(f"unknown statistic {statistic!r}")

    def window_percentile(
        self,
        name: str,
        q: float,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        return self.window_stat(name, f"p{q:g}", window_s, now)

    # -- repository event windows ----------------------------------------------
    def refresh(self, now: Optional[float] = None) -> int:
        """Pull newly persisted records through the cursor; returns count.

        Evicts buffered events older than the retention horizon, so a
        long-running consumer holds O(retention) state, not O(history).
        """
        if self._cursor is None:
            return 0
        fresh = self._cursor.advance()
        self._events.extend(fresh)
        store = self.rollups
        if fresh and store is not None and store.has_event_rollups():
            for event in fresh:
                store.observe_event(event, self._site_of)
        horizon = self._resolve_now(now) - self.retention_s
        while self._events and self._events[0].time < horizon:
            self._events.popleft()
        return len(fresh)

    def events_in_window(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
        event_type: Optional[str] = None,
        actor_type: Optional[str] = None,
    ) -> List[MonitoringEvent]:
        self.refresh(now)
        now = self._resolve_now(now)
        width = self.window_s if window_s is None else window_s
        lo = now - width
        out = []
        for event in self._events:
            if event.time <= lo or event.time > now:
                continue
            if event_type is not None and event.event_type != event_type:
                continue
            if actor_type is not None and event.actor_type != actor_type:
                continue
            out.append(event)
        return out

    def _data_rollup(
        self,
        kind: str,
        key_of: Callable[[MonitoringEvent], str],
        window_s: Optional[float],
        now: Optional[float],
    ) -> Dict[str, WindowRollup]:
        width = self.window_s if window_s is None else window_s
        store = self.rollups
        if store is not None:
            materialized = store.event_rollup(kind, width)
            if materialized is not None:
                # Ingest anything new first so the rollup is current.
                self.refresh(now)
                resolved = self._resolve_now(now)
                if materialized.covers(resolved):
                    self._note_query(("events", kind, width), resolved,
                                     hit=True)
                    return materialized.query(resolved)
        rollups: Dict[str, WindowRollup] = {}
        events = self.events_in_window(window_s, now, actor_type="provider")
        self._note_query(("events", kind, width), self._resolve_now(now),
                         hit=False, cost=len(self._events))
        for event in events:
            key = key_of(event)
            entry = rollups.get(key)
            if entry is None:
                entry = rollups[key] = WindowRollup(key, width)
            entry.events += 1
            entry.actors.add(event.actor_id)
            count = int(event.fields.get("count", 1))
            size = float(event.fields.get("size_mb", 0.0))
            if event.event_type == EV_CHUNK_WRITE:
                entry.chunk_writes += count
                entry.mb_written += size
            elif event.event_type == EV_CHUNK_READ:
                entry.chunk_reads += count
                entry.mb_read += size
        return rollups

    def provider_rollup(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, WindowRollup]:
        """Windowed data-path activity keyed by provider id."""
        return self._data_rollup("provider", lambda e: e.actor_id,
                                 window_s, now)

    def site_rollup(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, WindowRollup]:
        """Windowed data-path activity keyed by site (via ``site_of``)."""
        return self._data_rollup("site", lambda e: self._site_of(e.actor_id),
                                 window_s, now)

    # -- access-pattern reports (§III-B) ----------------------------------------
    def hot_blobs(
        self,
        top: int = 5,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[int, int, float]]:
        """Most-accessed blobs: (blob_id, accesses, MB touched), desc."""
        accesses: Counter = Counter()
        volume: Dict[int, float] = {}
        for event in self.events_in_window(window_s, now):
            if event.blob_id is None:
                continue
            if event.event_type not in (EV_CHUNK_READ, EV_CHUNK_WRITE):
                continue
            count = int(event.fields.get("count", 1))
            accesses[event.blob_id] += count
            volume[event.blob_id] = volume.get(event.blob_id, 0.0) + float(
                event.fields.get("size_mb", 0.0)
            )
        ranked = sorted(accesses.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(blob, n, volume.get(blob, 0.0)) for blob, n in ranked[:top]]

    def hot_chunks(
        self,
        top: int = 5,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[str, int]]:
        """Most-accessed chunk keys: (storage_key, accesses), desc."""
        accesses: Counter = Counter()
        for event in self.events_in_window(window_s, now):
            if event.event_type not in (EV_CHUNK_READ, EV_CHUNK_WRITE):
                continue
            chunk = event.fields.get("chunk")
            if chunk is None:
                continue
            accesses[chunk] += int(event.fields.get("count", 1))
        return sorted(accesses.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    # -- cache rollups (repro.cache tiers) -----------------------------------------
    #: ``cache.<name>.<field>`` series fields and how each is rolled up:
    #: rates/ratios average over the window, occupancy takes the latest.
    _CACHE_FIELDS = {
        "hit_rate": "mean",
        "lookups_per_s": "mean",
        "evictions_per_s": "mean",
        "bytes_mb": "latest",
        "capacity_mb": "latest",
    }

    def cache_stats(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Windowed per-cache rollup keyed by cache name.

        Consumes the ``cache.<name>.<field>`` series published by the
        cache tuner (:func:`~repro.decision.engines.build_cache_tuner`)
        or any other sampler.
        Fields without samples in the window are omitted, so a cache
        appears as soon as any of its series has data.
        """
        if self.metrics is None:
            return {}
        out: Dict[str, Dict[str, float]] = {}
        for series_name in self.metrics.series_names("cache."):
            body = series_name[len("cache."):]
            name, _, field_name = body.rpartition(".")
            statistic = self._CACHE_FIELDS.get(field_name)
            if not name or statistic is None:
                continue
            value = self.window_stat(series_name, statistic, window_s, now)
            if value is None:
                continue
            out.setdefault(name, {})[field_name] = value
        return out

    # -- convenience constructors ------------------------------------------------
    @classmethod
    def for_deployment(
        cls,
        deployment,
        monitoring=None,
        window_s: float = 60.0,
        retention_s: Optional[float] = None,
        rollups: "RollupStore | bool | None" = None,
    ) -> "QueryEngine":
        """Wire an engine to a deployment (+ optional MonitoringStack).

        Sites come from the deployment's actor→node map; metrics from
        ``env.metrics`` (may be ``None`` when telemetry is disabled).
        Pass ``rollups=True`` to attach a fresh :class:`RollupStore`.
        """
        actor_nodes = getattr(deployment, "actor_nodes", {})
        sites = {actor: node.site for actor, node in actor_nodes.items()}
        repository = None
        if monitoring is not None:
            repository = getattr(monitoring, "repository", monitoring)
        return cls(
            metrics=deployment.env.metrics,
            repository=repository,
            env=deployment.env,
            window_s=window_s,
            retention_s=retention_s,
            site_of=sites,
            rollups=rollups,
        )
