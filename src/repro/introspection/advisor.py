"""Self-optimizing introspection: the materialized-rollup advisor.

The paper's MAPE-K engines adapt the *data* layer; the
:class:`RollupAdvisor` applies the same loop to the *monitoring* layer
itself (self-aware architectures manage their own introspection,
arXiv:1912.05058).  It watches the :class:`QueryEngine`'s per-shape
query log and decides which windowed query shapes deserve a
materialized rollup:

- **Monitor** — each step it diffs :attr:`QueryEngine.query_stats`
  against the previous step: how often was each shape answered by a raw
  scan, and how many raw points did those scans fold?
- **Analyze** — a shape is *hot* when it was raw-scanned at least
  ``min_scans`` times this interval at an average cost of at least
  ``min_points_per_scan`` points per scan (cheap scans are not worth
  materializing).  A materialized shape is *cold* when it has served no
  rollup hit for ``retire_after_s``.
- **Plan** — hot shapes are ranked by total scan cost (points folded),
  the reuse being wasted per interval; creations are capped per step
  and by the byte budget, with cold retirements freeing budget first.
- **Execute** — :meth:`QueryEngine.materialize` /
  :meth:`~QueryEngine.materialize_events` (backfilled, so answers stay
  consistent from the first post-creation query) and
  :meth:`RollupStore.retire`.

Because rollup-answered queries are bitwise identical to raw scans for
non-percentile statistics, the advisor is *observably read-only*: runs
with it enabled keep simulated observables byte-identical per seed, like
a ``dry_run`` cache tuner.  With ``dry_run=True`` it does not even touch
the store — it only records :attr:`suggestions`.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Tuple

from ..adaptation.controller import AdaptationDecision, ControlLoop
from .query import QueryEngine
from .rollup import RollupStore, Shape, shape_label

__all__ = ["RollupAdvisor"]


class RollupAdvisor(ControlLoop):
    """Creates rollups for hot query shapes, retires cold ones."""

    name = "rollup-advisor"

    def __init__(
        self,
        query: QueryEngine,
        store: Optional[RollupStore] = None,
        interval_s: float = 15.0,
        cooldown_s: float = 0.0,
        min_scans: int = 2,
        min_points_per_scan: float = 32.0,
        budget_bytes: Optional[int] = 512 * 1024,
        retire_after_s: float = 90.0,
        max_creates_per_step: int = 4,
        dry_run: bool = False,
    ) -> None:
        super().__init__(interval_s=interval_s, cooldown_s=cooldown_s)
        self.query = query
        self.min_scans = min_scans
        self.min_points_per_scan = min_points_per_scan
        self.budget_bytes = budget_bytes
        self.retire_after_s = retire_after_s
        self.max_creates_per_step = max_creates_per_step
        #: Suggest-only mode: never attaches or mutates a store.
        self.dry_run = dry_run
        if not dry_run:
            query.attach_rollups(store)
        self.store = query.rollups if not dry_run else store
        #: Hot shapes the advisor would materialize (always recorded;
        #: the only output in ``dry_run``).
        self.suggestions: List[Dict] = []
        #: (raw_scans, scanned_points, rollup_hits) at the previous step.
        self._prev: Dict[Shape, Tuple[int, int, int]] = {}
        #: When each materialized shape was first seen (creation grace).
        self._created_at: Dict[Shape, float] = {}
        self.budget_rejects = 0

    # -- analyze helpers ---------------------------------------------------------
    def _deltas(self) -> Dict[Shape, Tuple[int, int]]:
        """Per-shape (raw scans, scanned points) since the previous step."""
        out: Dict[Shape, Tuple[int, int]] = {}
        for shape, stat in self.query.query_stats.items():
            prev = self._prev.get(shape, (0, 0, 0))
            scans = stat.raw_scans - prev[0]
            points = stat.scanned_points - prev[1]
            self._prev[shape] = (stat.raw_scans, stat.scanned_points,
                                 stat.rollup_hits)
            if scans > 0:
                out[shape] = (scans, points)
        return out

    def _estimate_bytes(self, shape: Shape) -> int:
        store = self.store if self.store is not None else RollupStore()
        if shape[0] == "series":
            return store.estimate_new_series_bytes()
        return store.estimate_new_events_bytes()

    def _materialize(self, shape: Shape) -> None:
        kind, key, window_s = shape
        if kind == "series":
            self.query.materialize(key, window_s)
        else:
            self.query.materialize_events(key, window_s)

    # -- MAPE step ---------------------------------------------------------------
    def step(self, now: float) -> List[AdaptationDecision]:
        decisions: List[AdaptationDecision] = []
        deltas = self._deltas()
        store = self.store

        # Retire first: cold rollups free budget for this step's creations.
        if not self.dry_run and store is not None:
            stats = self.query.query_stats
            for shape in store.shapes():
                born = self._created_at.setdefault(shape, now)
                if now - born < self.retire_after_s:
                    continue
                stat = stats.get(shape)
                last_hit = stat.last_hit if stat is not None else -inf
                if now - last_hit <= self.retire_after_s:
                    continue
                if store.retire(shape):
                    self._created_at.pop(shape, None)
                    decisions.append(AdaptationDecision(
                        now, self.name, "rollup_retire", {
                            "shape": shape_label(shape),
                            "idle_s": round(now - max(last_hit, born), 3),
                        },
                    ))

        hot: List[Tuple[int, int, Shape]] = []
        for shape, (scans, points) in deltas.items():
            if scans < self.min_scans:
                continue
            if points / scans < self.min_points_per_scan:
                continue
            if store is not None and (
                store.series_rollup(shape[1], shape[2]) is not None
                if shape[0] == "series"
                else store.event_rollup(shape[1], shape[2]) is not None
            ):
                continue
            hot.append((points, scans, shape))
        hot.sort(key=lambda item: (-item[0], item[2]))
        # Provenance: the query-log deltas this plan is based on.
        self.note(shapes_scanned=len(deltas), hot_shapes=len(hot),
                  bytes_used=store.bytes_used() if store is not None else 0)

        created = 0
        for points, scans, shape in hot:
            if created >= self.max_creates_per_step:
                break
            suggestion = {
                "time": now,
                "shape": shape_label(shape),
                "scans_per_interval": scans,
                "scan_cost_points": points,
            }
            self.suggestions.append(suggestion)
            if self.dry_run:
                created += 1
                decisions.append(AdaptationDecision(
                    now, self.name, "rollup_suggest", dict(suggestion)))
                continue
            estimate = self._estimate_bytes(shape)
            if (self.budget_bytes is not None and store is not None
                    and store.bytes_used() + estimate > self.budget_bytes):
                self.budget_rejects += 1
                if self.query.metrics is not None:
                    self.query.metrics.counter(
                        "introspection.advisor.budget_rejects").inc()
                continue
            self._materialize(shape)
            self._created_at[shape] = now
            created += 1
            decisions.append(AdaptationDecision(
                now, self.name, "rollup_create", {
                    "shape": shape_label(shape),
                    "scans_per_interval": scans,
                    "scan_cost_points": points,
                    "est_bytes": estimate,
                },
            ))

        metrics = self.query.metrics
        if metrics is not None and store is not None:
            metrics.gauge("introspection.query.rollup_bytes").set(
                store.bytes_used())
        return decisions
