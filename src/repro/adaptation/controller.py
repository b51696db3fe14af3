"""MAPE-K control loop shared by every self-* engine (paper §V).

All adaptation engines share the same skeleton: a periodic simulated
process that Monitors (via the introspection layer), Analyzes, Plans and
Executes, with shared Knowledge in the engine's own state.  Decisions
are logged so benches can report *when* and *why* the system adapted.

The default step is wired from the decision framework's parts
(:mod:`repro.decision`): a ``sense`` hook (Monitor — publish fresh
samples), a :class:`~repro.decision.planners.Planner` over a knob
domain (Analyze + Plan), and arbitrated execution (Execute — every
action is funded through the :class:`~repro.decision.arbiter.Arbiter`
before its ``apply`` hook runs).  Actions are applied **as the planner
yields them** (no batch barrier): a generator planner that reads the
domain after yielding a shrink sees the post-shrink state.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["AdaptationDecision", "ControlLoop"]


@dataclass
class AdaptationDecision:
    """One executed adaptation action."""

    time: float
    engine: str
    action: str
    detail: Dict[str, Any] = field(default_factory=dict)


class ControlLoop:
    """Periodic monitor→analyze→plan→execute loop.

    Each tick runs :meth:`step`, which returns a list of decisions
    (possibly empty).  By default it senses, then funds and applies
    every action the attached *planner* yields over *domain*; without a
    planner it decides nothing.  Engines whose plan is not a framework
    planner (removal, the rollup advisor) override :meth:`step`.  A
    cooldown suppresses oscillation: after any non-empty step, the loop
    holds off for ``cooldown_s``.

    Health signals (§III-B → §V): after :meth:`attach_health`, each tick
    drains the monitor's new :class:`~repro.introspection.health.HealthEvent`\\ s
    into :attr:`health_inbox` right before :meth:`step`, so subclasses
    can react to SLO violations and anomalies alongside their own
    triggers.  A ``critical`` health event also overrides the cooldown —
    an engine holding off after a routine action must still answer an
    SLO breach immediately.

    Provenance: :attr:`decisions` is a **bounded** window — the newest
    ``max_decisions`` survive, :attr:`decisions_total` counts all-time —
    and each executed step resets :attr:`evidence`, a dict subclasses
    fill with the windowed stats they consulted while planning.  With a
    :class:`~repro.introspection.provenance.DecisionJournal` attached
    (:meth:`attach_journal`), every decision is journaled together with
    that evidence, the health inbox, the active trace context and the
    planner's wall-clock latency.

    With ``latency_metrics=True`` (and a metrics registry on the
    environment) each executed step also emits
    ``adaptation.<engine>.decision_latency`` (histogram, wall seconds)
    and an ``adaptation.<engine>.step_duration_s`` gauge so slow
    planners are visible in metrics.  Off by default: wall-clock values
    differ run to run, and the default must keep metric snapshots
    byte-identical per seed.
    """

    name = "control-loop"

    def __init__(
        self,
        interval_s: float = 5.0,
        cooldown_s: float = 0.0,
        max_decisions: int = 2048,
        latency_metrics: bool = False,
        planner=None,
        domain=None,
        arbiter=None,
        name: Optional[str] = None,
    ) -> None:
        if max_decisions < 1:
            raise ValueError("max_decisions must be >= 1")
        if name is not None:
            self.name = name
        self.planner = planner
        self.domain = domain
        #: Optional Arbiter; actions it refuses to fund are not applied.
        self.arbiter = arbiter
        self.applied = 0
        self.denied = 0
        self.interval_s = interval_s
        self.cooldown_s = cooldown_s
        #: Retained decision window (plain list: slicing keeps working).
        self.decisions: List[AdaptationDecision] = []
        self.max_decisions = max_decisions
        #: All-time executed-decision count (survives ring eviction).
        self.decisions_total = 0
        self.decisions_dropped = 0
        self._cooldown_until = -float("inf")
        self.enabled = True
        self.steps = 0
        #: Optional HealthMonitor (duck-typed: needs ``events_since``).
        self.health = None
        self._health_pos = 0
        #: Health events that arrived since the previous executed step.
        self.health_inbox: List[Any] = []
        #: Windowed stats consumed during the current/last executed step;
        #: reset before each step, filled by subclasses via :meth:`note`.
        self.evidence: Dict[str, Any] = {}
        #: Optional DecisionJournal recording decisions with provenance.
        self.journal = None
        self.latency_metrics = latency_metrics
        #: Wall-clock seconds the most recent executed step took.
        self.last_step_wall_s: Optional[float] = None

    def attach_health(self, monitor) -> "ControlLoop":
        """Feed a :class:`HealthMonitor`'s events into this loop."""
        self.health = monitor
        self._health_pos = len(monitor.events)
        return self

    def attach_journal(self, journal) -> "ControlLoop":
        """Record every decision (with evidence) into *journal*.

        Also registers this engine's planner (name + parameters, from
        :meth:`planner_info`) with the journal, so scorecards and
        timeline exports can say *which* decision technique produced
        each engine's numbers.
        """
        self.journal = journal
        info = self.planner_info()
        if info and hasattr(journal, "set_planner"):
            journal.set_planner(self.name, info.get("name"),
                                info.get("params"))
        return self

    def planner_info(self) -> Optional[Dict[str, Any]]:
        """Name + parameters of the attached planner (``None`` = none)."""
        if self.planner is None:
            return None
        return self.planner.info()

    def note(self, **evidence: Any) -> None:
        """Stash planning evidence for provenance (cheap, unconditional)."""
        self.evidence.update(evidence)

    def _pending_health(self) -> List[Any]:
        if self.health is None:
            return []
        _pos, fresh = self.health.events_since(self._health_pos)
        return fresh

    def _drain_health(self) -> None:
        if self.health is None:
            self.health_inbox = []
            return
        self._health_pos, self.health_inbox = self.health.events_since(
            self._health_pos
        )

    # -- framework hooks ---------------------------------------------------------
    def sense(self, now: float) -> None:
        """Monitor stage: publish fresh samples before planning."""

    def plan(self, now: float) -> Iterable[Any]:
        """Plan stage; defaults to the attached planner."""
        if self.planner is None:
            return ()
        return self.planner.plan(self, now)

    def submit(self, action, now: float) -> Optional[AdaptationDecision]:
        """Fund and apply one action; None if the arbiter denied it."""
        if self.arbiter is not None and not self.arbiter.admit(action):
            self.denied += 1
            return None
        action.execute()
        self.applied += 1
        return action.decision(now)

    def step(self, now: float) -> List[AdaptationDecision]:
        self.sense(now)
        decisions: List[AdaptationDecision] = []
        # Consume lazily: each action is funded and applied before the
        # planner resumes, so the plan observes post-apply state.
        for action in self.plan(now):
            decision = self.submit(action, now)
            if decision is not None:
                decisions.append(decision)
        return decisions

    def run(self, env):
        """Generator: start with ``env.process(loop.run(env))``."""
        while True:
            yield env.timeout(self.interval_s)
            if not self.enabled:
                continue
            if env.now < self._cooldown_until:
                # Cooldown suppresses routine re-runs, not emergencies:
                # a pending critical health event forces the step.
                if not any(e.severity == "critical"
                           for e in self._pending_health()):
                    continue
            self.steps += 1
            self._drain_health()
            self.evidence = {}
            started = _time.perf_counter()
            decisions = self.step(env.now)
            wall_s = _time.perf_counter() - started
            self.last_step_wall_s = wall_s
            metrics = env.metrics
            if self.latency_metrics and metrics is not None:
                metrics.histogram(
                    f"adaptation.{self.name}.decision_latency"
                ).observe(wall_s)
                metrics.gauge(
                    f"adaptation.{self.name}.step_duration_s"
                ).set(wall_s)
            if decisions:
                self.decisions.extend(decisions)
                self.decisions_total += len(decisions)
                if len(self.decisions) > self.max_decisions:
                    overflow = len(self.decisions) - self.max_decisions
                    del self.decisions[:overflow]
                    self.decisions_dropped += overflow
                self._cooldown_until = env.now + self.cooldown_s
                tracer = env.tracer
                journal = self.journal
                for decision in decisions:
                    if tracer.enabled:
                        tracer.instant(
                            f"adapt.{decision.action}", track=self.name,
                            cat="adaptation", engine=decision.engine,
                            **{k: v for k, v in decision.detail.items()
                               if isinstance(v, (str, int, float, bool))},
                        )
                    if metrics is not None:
                        metrics.counter(
                            f"adaptation.{decision.action}"
                        ).inc()
                    if journal is not None:
                        journal.record_decision(
                            decision,
                            evidence=self.evidence,
                            health=self.health_inbox,
                            latency_s=wall_s,
                        )

    def decisions_of(self, action: str) -> List[AdaptationDecision]:
        """Decisions with *action* in the retained window."""
        return [d for d in self.decisions if d.action == action]
