"""Tests for the repro.decision framework core.

Covers the PR-9 contract, engine-independently:

- :class:`SignalRef` sensors resolve through the query engine and carry
  stable provenance keys;
- :class:`Action` actuators apply, revert, and convert to standard
  :class:`AdaptationDecision` records;
- :class:`ResourceLedger` conservation: ``used() <= capacity`` is a hard
  invariant (overspend raises), peak usage is tracked;
- :class:`Arbiter` semantics: grants, credits capped at holdings,
  deterministic band-ordered preemption through reclaim hooks, atomic
  multi-resource rollback, the denial log, and ``require`` raising;
- :class:`ControlLoop` runs any planner over any knob domain behind its
  full surface — including the cooldown, critical-health override, and
  bounded decision-ring paths of ``ControlLoop.run``;
- all four planners behave and stay deterministic: threshold rules,
  marginal-utility ranking with post-shrink funding, hill-climb
  direction flips, epsilon-greedy arm accounting on an injected stream.
"""

import pytest

from repro.adaptation import AdaptationDecision, ControlLoop
from repro.decision import (
    Action,
    Arbiter,
    EpsilonGreedyPlanner,
    HillClimbPlanner,
    MarginalUtilityPlanner,
    ResourceLedger,
    SignalRef,
    ThresholdPlanner,
    make_planner,
)
from repro.decision.arbiter import ArbitrationDenied
from repro.decision.planners import PLANNERS, Planner
from repro.decision.signals import resolve_all
from repro.introspection import DecisionJournal
from repro.introspection.query import QueryEngine
from repro.simulation import Environment
from repro.telemetry import MetricsRegistry


# ------------------------------------------------------------------ fixtures
class ToyDomain:
    """Minimal knob domain: plain dict state, scripted signals/rewards."""

    def __init__(
        self,
        values,
        floors=None,
        ceilings=None,
        used=None,
        budget=None,
        signal_map=None,
        rewards=None,
        dry_run=False,
        resource="mb",
        engine="toy",
    ):
        self.values = dict(values)
        self.floors = dict(floors or {})
        self.ceilings = dict(ceilings or {})
        self.used = dict(used or {})
        self.budget = budget
        self.signal_map = dict(signal_map or {})
        self.rewards = list(rewards or [])
        self._reward_pos = 0
        self.dry_run = dry_run
        self.resource = resource
        self.engine = engine
        self.applied = []

    def knobs(self):
        return list(self.values)

    def value(self, name):
        return self.values[name]

    def bytes_used(self, name):
        return self.used.get(name, 0.0)

    def utilization(self, name):
        return self.bytes_used(name) / self.values[name]

    def floor(self, name):
        return self.floors.get(name, 1.0)

    def ceiling(self, name):
        return self.ceilings.get(name)

    def signals(self, name):
        return self.signal_map.get(name)

    def evidence(self, name, signals):
        return {f"{name}.pressure": signals["pressure"],
                f"{name}.activity": signals["activity"]}

    def pool(self):
        if self.budget is None:
            return None
        return max(0.0, self.budget - sum(self.values.values()))

    def reward(self):
        if not self.rewards:
            return None
        value = self.rewards[min(self._reward_pos, len(self.rewards) - 1)]
        self._reward_pos += 1
        return value

    def _move(self, name, delta):
        def apply():
            self.values[name] += delta
            self.applied.append((name, delta))
        return apply

    def make_grow(self, name, amount, signals=None, utility=None):
        detail = {"knob": name, "amount": round(amount, 6)}
        if utility is not None:
            detail["utility"] = round(utility, 6)
        return Action("grow", self.engine, subject=name,
                      cost={self.resource: amount}, detail=detail,
                      apply=self._move(name, amount),
                      undo=self._move(name, -amount))

    def make_shrink(self, name, amount, signals=None):
        return Action("shrink", self.engine, subject=name,
                      cost={self.resource: -amount},
                      detail={"knob": name, "amount": round(amount, 6)},
                      apply=self._move(name, -amount),
                      undo=self._move(name, amount))


BUSY = {"pressure": 1.0, "activity": 10.0, "hit_rate": 0.5}
IDLE = {"pressure": 0.0, "activity": 0.0, "hit_rate": 0.0}
CALM = {"pressure": 0.0, "activity": 10.0, "hit_rate": 0.9}


class FakeHealth:
    """Duck-typed HealthMonitor: an events list + events_since."""

    class _Event:
        def __init__(self, severity):
            self.severity = severity

    def __init__(self):
        self.events = []

    def emit(self, severity):
        self.events.append(self._Event(severity))

    def events_since(self, index):
        if index >= len(self.events):
            return index, []
        return len(self.events), self.events[index:]


# ------------------------------------------------------------------ signals
def test_signal_ref_resolves_window_stat():
    env = Environment()
    metrics = MetricsRegistry(env)
    query = QueryEngine(metrics=metrics, env=env, window_s=60.0)
    for t, v in [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]:
        metrics.sample("sig", v, time=t)
    ref = SignalRef("sig")
    assert ref.resolve(query, now=3.0) == pytest.approx(20.0)
    assert SignalRef("sig", "max").resolve(query, now=3.0) == pytest.approx(30.0)
    assert SignalRef("missing").resolve(query, now=3.0) is None
    assert ref.resolve(None) is None


def test_signal_ref_keys_and_resolve_all():
    assert SignalRef("a.b").key == "a.b:mean@engine"
    assert SignalRef("a.b", "p99", 30.0).key == "a.b:p99@30s"
    env = Environment()
    metrics = MetricsRegistry(env)
    query = QueryEngine(metrics=metrics, env=env)
    metrics.sample("a.b", 5.0, time=1.0)
    out = resolve_all([SignalRef("a.b"), SignalRef("none")], query, now=2.0)
    assert out == {"a.b:mean@engine": 5.0, "none:mean@engine": None}


def test_signal_ref_is_hashable_config():
    assert SignalRef("x") == SignalRef("x")
    assert len({SignalRef("x"), SignalRef("x"), SignalRef("y")}) == 2


# ------------------------------------------------------------------ actions
def test_action_execute_revert_and_decision():
    domain = ToyDomain({"a": 10.0})
    action = domain.make_grow("a", 2.0)
    action.execute()
    assert domain.values["a"] == 12.0
    action.revert()
    assert domain.values["a"] == 10.0
    decision = action.decision(7.0)
    assert isinstance(decision, AdaptationDecision)
    assert (decision.time, decision.engine, decision.action) == (7.0, "toy", "grow")
    assert decision.detail == {"knob": "a", "amount": 2.0}
    # detail is copied, not aliased
    decision.detail["extra"] = True
    assert "extra" not in action.detail


def test_action_str_mentions_cost_and_subject():
    action = Action("grow", "toy", subject="a", cost={"mb": 4.0})
    assert "toy.grow a" in str(action) and "mb+4" in str(action)
    bare = Action("noop", "toy")
    bare.execute()  # no apply hook: a no-op, not an error
    bare.revert()


# ------------------------------------------------------------------ ledger
def test_ledger_tracks_holdings_and_peak():
    ledger = ResourceLedger("mem", capacity=100.0)
    ledger._settle("a", 40.0)
    ledger._settle("b", 30.0)
    assert ledger.used() == pytest.approx(70.0)
    assert ledger.free() == pytest.approx(30.0)
    assert ledger.holding("a") == pytest.approx(40.0)
    ledger._settle("a", -40.0)
    assert "a" not in ledger.holdings  # fully released holdings vanish
    assert ledger.peak_used == pytest.approx(70.0)


def test_ledger_overspend_raises():
    ledger = ResourceLedger("mem", capacity=10.0)
    with pytest.raises(AssertionError, match="overspent"):
        ledger._settle("a", 11.0)


def test_ledger_to_dict_rounds_holdings():
    ledger = ResourceLedger("mem", capacity=10.0)
    ledger._settle("a", 1.0 / 3.0)
    snap = ledger.to_dict()
    assert snap["capacity"] == 10.0
    assert snap["holdings"] == {"a": round(1.0 / 3.0, 6)}


# ------------------------------------------------------------------ arbiter
def test_arbiter_requires_capacity_to_create_ledger():
    arbiter = Arbiter()
    with pytest.raises(KeyError):
        arbiter.ledger("mem")
    ledger = arbiter.ledger("mem", capacity=50.0)
    assert arbiter.ledger("mem") is ledger
    # Re-declaring with a capacity resizes; shrinking below use raises.
    arbiter.assume("a", "mem", 40.0)
    with pytest.raises(AssertionError):
        arbiter.ledger("mem", capacity=30.0)


def test_arbiter_assume_rejects_negative():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=10.0)
    with pytest.raises(ValueError):
        arbiter.assume("a", "mem", -1.0)


def test_arbiter_grants_within_budget_and_ignores_unmanaged():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=10.0)
    assert arbiter.admit(Action("grow", "a", cost={"mem": 6.0}))
    # Unmanaged resources are always granted and never tracked.
    assert arbiter.admit(Action("grow", "a", cost={"gpu": 999.0}))
    assert arbiter.grants == 2
    assert arbiter.ledgers["mem"].used() == pytest.approx(6.0)
    assert "gpu" not in arbiter.ledgers


def test_arbiter_denies_and_logs_when_no_room():
    env = Environment()
    env.run(until=3.0)
    arbiter = Arbiter(env=env)
    arbiter.ledger("mem", capacity=10.0)
    arbiter.assume("other", "mem", 8.0)
    assert not arbiter.admit(Action("grow", "a", cost={"mem": 5.0}))
    assert arbiter.denials == 1
    (when, engine, action, resource, shortfall), = arbiter.denied_log
    assert (when, engine, action, resource) == (3.0, "a", "grow", "mem")
    assert shortfall == pytest.approx(3.0)
    # The failed debit left nothing behind.
    assert arbiter.ledgers["mem"].holding("a") == 0.0


def test_arbiter_credit_capped_at_holding():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=10.0)
    arbiter.assume("a", "mem", 3.0)
    # Releasing more than held only releases what is held: the ledger
    # never goes negative and later math stays conserved.
    assert arbiter.admit(Action("shrink", "a", cost={"mem": -9.0}))
    assert arbiter.ledgers["mem"].holding("a") == 0.0
    assert arbiter.ledgers["mem"].used() == 0.0


def test_arbiter_preempts_lower_band_through_reclaim_hook():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=10.0)
    freed_calls = []

    def reclaim(resource, amount):
        freed_calls.append((resource, amount))
        return amount  # fully cooperative victim

    arbiter.register("hi", band=0)
    arbiter.register("lo", band=2, reclaim=reclaim)
    arbiter.assume("lo", "mem", 8.0)
    assert arbiter.admit(Action("grow", "hi", cost={"mem": 6.0}))
    # 2 MB were free; the remaining 4 MB were reclaimed from `lo`.
    assert freed_calls == [("mem", pytest.approx(4.0))]
    assert arbiter.ledgers["mem"].holding("hi") == pytest.approx(6.0)
    assert arbiter.ledgers["mem"].holding("lo") == pytest.approx(4.0)
    assert len(arbiter.preemptions) == 1
    _t, requester, holder, resource, freed = arbiter.preemptions[0]
    assert (requester, holder, resource) == ("hi", "lo", "mem")
    assert freed == pytest.approx(4.0)


def test_arbiter_never_preempts_same_or_higher_band():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=10.0)
    arbiter.register("a", band=1, reclaim=lambda r, x: x)
    arbiter.register("b", band=1, reclaim=lambda r, x: x)
    arbiter.assume("a", "mem", 9.0)
    assert not arbiter.admit(Action("grow", "b", cost={"mem": 5.0}))
    assert arbiter.preemptions == []
    assert arbiter.ledgers["mem"].holding("a") == pytest.approx(9.0)


def test_arbiter_preemption_order_is_band_then_name():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=12.0)
    order = []

    def hook(name):
        def reclaim(resource, amount):
            order.append(name)
            return amount
        return reclaim

    arbiter.register("hi", band=0)
    for name, band in [("mid", 1), ("low-b", 2), ("low-a", 2)]:
        arbiter.register(name, band=band, reclaim=hook(name))
        arbiter.assume(name, "mem", 4.0)
    assert arbiter.admit(Action("grow", "hi", cost={"mem": 9.0}))
    # Lowest band first; names break ties alphabetically; mid only pays
    # the 1 MB remainder.
    assert order == ["low-a", "low-b", "mid"]
    assert arbiter.ledgers["mem"].holding("mid") == pytest.approx(3.0)


def test_arbiter_partial_reclaim_still_denies():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=10.0)
    arbiter.register("hi", band=0)
    # The victim frees only half of what is asked of it.
    arbiter.register("lo", band=1, reclaim=lambda r, x: x / 2.0)
    arbiter.assume("lo", "mem", 10.0)
    assert not arbiter.admit(Action("grow", "hi", cost={"mem": 8.0}))
    assert arbiter.denials == 1
    # What was physically reclaimed stays reclaimed (the cache really
    # shrank), but the requester holds nothing.
    assert arbiter.ledgers["mem"].holding("hi") == 0.0
    assert arbiter.ledgers["mem"].holding("lo") == pytest.approx(6.0)


def test_arbiter_multi_resource_rollback_is_atomic():
    arbiter = Arbiter()
    arbiter.ledger("cpu", capacity=10.0)
    arbiter.ledger("mem", capacity=2.0)
    # Costs settle in sorted resource order: cpu first (fits), then mem
    # (does not) — the cpu settlement must roll back.
    assert not arbiter.admit(
        Action("grow", "a", cost={"cpu": 5.0, "mem": 5.0}))
    assert arbiter.ledgers["cpu"].used() == 0.0
    assert arbiter.ledgers["mem"].used() == 0.0
    assert arbiter.denials == 1


def test_arbiter_require_raises_on_denial():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=1.0)
    with pytest.raises(ArbitrationDenied):
        arbiter.require(Action("grow", "a", cost={"mem": 5.0}))
    arbiter.require(Action("grow", "a", cost={"mem": 0.5}))


def test_arbiter_journals_preemptions():
    env = Environment()
    journal = DecisionJournal(env)
    arbiter = Arbiter(env=env, journal=journal)
    arbiter.ledger("mem", capacity=4.0)
    arbiter.register("hi", band=0)
    arbiter.register("lo", band=1, reclaim=lambda r, x: x)
    arbiter.assume("lo", "mem", 4.0)
    assert arbiter.admit(Action("grow", "hi", cost={"mem": 3.0}))
    entry, = journal.for_engine("arbiter")
    assert entry.action == "preempt"
    assert entry.detail == {"for": "hi", "from": "lo",
                            "resource": "mem", "freed": 3.0}


def test_arbiter_to_dict_reports_state():
    arbiter = Arbiter()
    arbiter.ledger("mem", capacity=10.0)
    arbiter.register("a", band=0)
    arbiter.admit(Action("grow", "a", cost={"mem": 4.0}))
    snap = arbiter.to_dict()
    assert snap["grants"] == 1 and snap["denials"] == 0
    assert snap["bands"] == {"a": 0}
    assert snap["ledgers"]["mem"]["used"] == pytest.approx(4.0)


# ------------------------------------------------------------------ decision loop
def run_loop(loop, until, env=None):
    env = env or Environment()
    env.process(loop.run(env))
    env.run(until=until)
    return env


def test_decision_loop_applies_planner_actions():
    domain = ToyDomain({"a": 10.0, "b": 10.0}, budget=40.0,
                       signal_map={"a": BUSY, "b": IDLE},
                       used={"b": 0.0})
    loop = ControlLoop(planner=ThresholdPlanner(), domain=domain,
                        name="toy", interval_s=1.0)
    run_loop(loop, until=1.5)
    # One tick: a grew (busy + pressure), b shrank (idle).
    assert domain.values["a"] == pytest.approx(12.5)
    assert domain.values["b"] == pytest.approx(7.5)
    assert loop.applied == 2 and loop.denied == 0
    assert [d.action for d in loop.decisions] == ["grow", "shrink"]
    assert loop.evidence["a.pressure"] == 1.0


def test_decision_loop_without_planner_is_inert():
    domain = ToyDomain({"a": 10.0}, signal_map={"a": BUSY})
    loop = ControlLoop(domain=domain, interval_s=1.0)
    run_loop(loop, until=3.5)
    assert loop.steps == 3 and loop.applied == 0
    assert domain.values["a"] == 10.0
    assert loop.planner_info() is None


def test_decision_loop_denied_actions_are_not_applied():
    domain = ToyDomain({"a": 10.0}, signal_map={"a": BUSY})
    arbiter = Arbiter()
    arbiter.ledger("mb", capacity=11.0)
    arbiter.assume("toy", "mb", 10.0)
    loop = ControlLoop(planner=ThresholdPlanner(), domain=domain,
                        arbiter=arbiter, name="toy", interval_s=1.0)
    run_loop(loop, until=1.5)
    # Wanted +2.5 MB, only 1 MB free, nobody to preempt: denied.
    assert loop.denied == 1 and loop.applied == 0
    assert domain.values["a"] == 10.0
    assert loop.decisions == []
    assert arbiter.denials == 1


def test_decision_loop_registers_planner_with_journal():
    env = Environment()
    journal = DecisionJournal(env)
    loop = ControlLoop(planner=ThresholdPlanner(step_fraction=0.5),
                        domain=ToyDomain({"a": 10.0}), name="toy")
    loop.attach_journal(journal)
    assert journal.planner_of("toy") == {
        "name": "threshold",
        "params": {"pressure_threshold": 0.1, "idle_activity": 0.05,
                   "step_fraction": 0.5},
    }


def test_control_loop_without_planner_steps_and_decides_nothing():
    loop = ControlLoop(interval_s=1.0)
    assert loop.step(0.0) == []
    run_loop(loop, until=3.5)
    assert loop.steps == 3
    assert loop.decisions == [] and loop.decisions_total == 0
    assert loop.applied == 0 and loop.denied == 0


def test_decision_loop_cooldown_suppresses_and_critical_health_overrides():
    domain = ToyDomain({"a": 8.0}, ceilings={"a": 1000.0},
                       signal_map={"a": BUSY})
    health = FakeHealth()
    loop = ControlLoop(planner=ThresholdPlanner(), domain=domain,
                        name="toy", interval_s=1.0, cooldown_s=10.0)
    loop.attach_health(health)
    env = run_loop(loop, until=3.5)
    # First decision at t=1 started the cooldown: ticks 2 and 3 skipped.
    assert loop.steps == 1
    # A critical health event forces the next tick through the cooldown.
    health.emit("critical")
    env.run(until=4.5)
    assert loop.steps == 2
    assert [e.severity for e in loop.health_inbox] == ["critical"]
    # Non-critical events do not override.
    health.emit("warning")
    env.run(until=5.5)
    assert loop.steps == 2


def test_decision_loop_ring_bounds_decisions():
    domain = ToyDomain({"a": 1.0}, ceilings={"a": 1e9},
                       signal_map={"a": BUSY})
    loop = ControlLoop(planner=ThresholdPlanner(), domain=domain,
                        name="toy", interval_s=1.0, max_decisions=3)
    run_loop(loop, until=7.5)
    assert loop.decisions_total == 7
    assert loop.decisions_dropped == 4
    assert len(loop.decisions) == 3
    # The ring keeps the newest decisions.
    assert [d.time for d in loop.decisions] == [5.0, 6.0, 7.0]


def test_decision_loop_emits_trace_instants_and_counters():
    from repro.telemetry.tracer import Tracer

    env = Environment()
    env.tracer = Tracer(env)
    env.metrics = MetricsRegistry(env)
    domain = ToyDomain({"a": 10.0}, ceilings={"a": 1000.0},
                       signal_map={"a": BUSY})
    loop = ControlLoop(planner=ThresholdPlanner(), domain=domain,
                        name="toy", interval_s=1.0)
    run_loop(loop, until=2.5, env=env)
    marks = [m for m in env.tracer.instants if m.name == "adapt.grow"]
    assert len(marks) == 2 and marks[0].track == "toy"
    assert env.metrics.counter("adaptation.grow").value == 2


# ------------------------------------------------------------------ planners
def plan_once(planner, domain, now=0.0):
    loop = ControlLoop(planner=planner, domain=domain, name=domain.engine)
    return loop.step(now), loop


def test_threshold_planner_respects_bounds_and_dry_run():
    domain = ToyDomain({"a": 10.0, "b": 10.0}, budget=21.0,
                       ceilings={"a": 11.0},
                       signal_map={"a": BUSY, "b": BUSY})
    decisions, _loop = plan_once(ThresholdPlanner(), domain)
    # a capped by its ceiling (+1), b by the remaining pool (1 left - 1
    # just granted... pool is re-read live: b gets min(2.5, 0) after a
    # grew into the slack).
    assert [(d.detail["knob"], d.detail["amount"]) for d in decisions] == [
        ("a", 1.0)]
    dry = ToyDomain({"a": 10.0}, signal_map={"a": BUSY}, dry_run=True)
    decisions, _loop = plan_once(ThresholdPlanner(), dry)
    assert decisions == [] and dry.applied == []


def test_threshold_planner_skips_knobs_without_history():
    domain = ToyDomain({"a": 10.0, "b": 10.0}, signal_map={"b": IDLE})
    decisions, loop = plan_once(ThresholdPlanner(), domain)
    assert [d.detail["knob"] for d in decisions] == ["b"]
    assert "a.pressure" not in loop.evidence


def test_marginal_utility_shrinks_only_to_fund_growth():
    # All-idle fleet: no growers, so nothing shrinks either.
    domain = ToyDomain({"a": 10.0, "b": 10.0},
                       signal_map={"a": IDLE, "b": IDLE})
    decisions, _loop = plan_once(MarginalUtilityPlanner(), domain)
    assert decisions == []


def test_marginal_utility_funds_growers_from_shrinkers_by_utility():
    hot = {"pressure": 4.0, "activity": 10.0, "hit_rate": 0.2}
    warm = {"pressure": 1.0, "activity": 10.0, "hit_rate": 0.6}
    domain = ToyDomain(
        {"hot": 8.0, "warm": 16.0, "cold": 12.0},
        floors={"cold": 1.0},
        budget=36.0,  # fully allocated: growth must be funded by shrink
        signal_map={"hot": hot, "warm": warm, "cold": IDLE},
    )
    decisions, _loop = plan_once(MarginalUtilityPlanner(), domain)
    kinds = [(d.action, d.detail["knob"]) for d in decisions]
    # cold shrinks first, then growers in descending utility order
    # (hot: 4/8=0.5 beats warm: 1/16=0.0625).
    assert kinds == [("shrink", "cold"), ("grow", "hot"), ("grow", "warm")]
    shrink, grow_hot, grow_warm = decisions
    assert shrink.detail["amount"] == pytest.approx(3.0)
    assert grow_hot.detail["amount"] == pytest.approx(2.0)  # step 25% of 8
    # warm wanted 4 but only 1 MB of pool remained after hot grew.
    assert grow_warm.detail["amount"] == pytest.approx(1.0)
    assert grow_hot.detail["utility"] == pytest.approx(0.5)
    # Budget stays conserved.
    assert sum(domain.values.values()) <= 36.0 + 1e-9


def test_marginal_utility_busy_spare_knob_gives_only_unused_room():
    domain = ToyDomain(
        {"hot": 8.0, "spare": 16.0},
        used={"spare": 15.0},
        budget=24.0,
        signal_map={"hot": BUSY, "spare": CALM},
    )
    decisions, _loop = plan_once(MarginalUtilityPlanner(spare_utilization=0.99),
                                 domain)
    shrink = next(d for d in decisions if d.action == "shrink")
    # Floor raised to bytes_used: only the single unused MB is released.
    assert shrink.detail["amount"] == pytest.approx(1.0)


def test_hill_climb_flips_direction_on_reward_drop():
    domain = ToyDomain({"a": 16.0}, ceilings={"a": 1000.0},
                       rewards=[10.0, 5.0, 4.0])
    planner = HillClimbPlanner()
    loop = ControlLoop(planner=planner, domain=domain, name="toy")
    d1 = loop.step(0.0)
    assert d1[0].action == "grow"  # initial direction is up
    d2 = loop.step(1.0)  # reward dropped 10 -> 5: flip to shrink
    assert d2[0].action == "shrink"
    d3 = loop.step(2.0)  # dropped again 5 -> 4: flip back to grow
    assert d3[0].action == "grow"
    assert loop.evidence["reward"] == 4.0


def test_hill_climb_reverses_when_pinned_and_skips_without_reward():
    domain = ToyDomain({"a": 10.0}, ceilings={"a": 10.0}, rewards=[1.0])
    planner = HillClimbPlanner()
    loop = ControlLoop(planner=planner, domain=domain, name="toy")
    decisions = loop.step(0.0)
    # Pinned at the ceiling: the planner reverses and shrinks instead.
    assert [d.action for d in decisions] == ["shrink"]
    no_reward = ToyDomain({"a": 10.0})
    decisions, loop = plan_once(HillClimbPlanner(), no_reward)
    assert decisions == [] and no_reward.applied == []


def test_hill_climb_round_robins_knobs():
    domain = ToyDomain({"a": 8.0, "b": 8.0}, ceilings={"a": 1e9, "b": 1e9},
                       rewards=[1.0, 1.0, 1.0, 1.0])
    loop = ControlLoop(planner=HillClimbPlanner(), domain=domain, name="toy")
    knobs = [loop.step(float(i))[0].detail["knob"] for i in range(4)]
    assert knobs == ["a", "b", "a", "b"]


class FakeRng:
    """Scripted numpy-like generator for exact bandit control."""

    def __init__(self, randoms, integers=()):
        self.randoms = list(randoms)
        self.integers_seq = list(integers)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, n):
        return self.integers_seq.pop(0) % n


def test_epsilon_greedy_requires_rng():
    with pytest.raises(ValueError):
        EpsilonGreedyPlanner(None)


def test_epsilon_greedy_probes_then_exploits_best_arm():
    # epsilon=0: pure exploitation; probe untried arms in order first.
    domain = ToyDomain({"a": 8.0}, ceilings={"a": 1e9},
                       rewards=[0.0, 10.0, 10.0, 20.0])
    planner = EpsilonGreedyPlanner(FakeRng([0.9] * 8), epsilon=0.0)
    loop = ControlLoop(planner=planner, domain=domain, name="toy")
    d1 = loop.step(0.0)
    assert (d1[0].action, loop.evidence["mode"]) == ("grow", "probe")
    d2 = loop.step(1.0)  # a+ credited +10; a- still untried
    assert (d2[0].action, loop.evidence["mode"]) == ("shrink", "probe")
    d3 = loop.step(2.0)  # a- credited 0; best mean is a+ (+10)
    assert (d3[0].action, loop.evidence["mode"]) == ("grow", "exploit")
    assert planner._means[("a", 1)] == pytest.approx(10.0)
    assert planner._means[("a", -1)] == pytest.approx(0.0)


def test_epsilon_greedy_explores_on_epsilon():
    domain = ToyDomain({"a": 8.0, "b": 8.0},
                       ceilings={"a": 1e9, "b": 1e9}, rewards=[1.0])
    planner = EpsilonGreedyPlanner(FakeRng([0.1], integers=[3]),
                                   epsilon=0.2)
    loop = ControlLoop(planner=planner, domain=domain, name="toy")
    decisions = loop.step(0.0)
    # Arms are [(a,+),(a,-),(b,+),(b,-)]: index 3 is b-.
    assert decisions[0].detail["knob"] == "b"
    assert decisions[0].action == "shrink"
    assert loop.evidence == {"reward": 1.0, "arm": "b-", "mode": "explore"}


def test_epsilon_greedy_identical_streams_identical_decisions():
    def run(seed_draws):
        domain = ToyDomain({"a": 8.0, "b": 4.0},
                           ceilings={"a": 1e9, "b": 1e9},
                           rewards=[1.0, 2.0, 1.5, 3.0, 2.5])
        planner = EpsilonGreedyPlanner(
            FakeRng(seed_draws, integers=[1, 2, 0, 3, 1]), epsilon=0.3)
        loop = ControlLoop(planner=planner, domain=domain, name="toy")
        out = []
        for i in range(5):
            out.extend((d.time, d.action, tuple(sorted(d.detail.items())))
                       for d in loop.step(float(i)))
        return out

    draws = [0.1, 0.9, 0.2, 0.95, 0.05]
    assert run(list(draws)) == run(list(draws))


def test_make_planner_registry():
    assert sorted(PLANNERS) == ["epsilon-greedy", "hill-climb",
                                "marginal-utility", "threshold"]
    assert isinstance(make_planner("threshold"), ThresholdPlanner)
    assert isinstance(make_planner("hill-climb", step_fraction=0.5),
                      HillClimbPlanner)
    bandit = make_planner("epsilon-greedy", rng=FakeRng([0.5]), epsilon=0.1)
    assert isinstance(bandit, EpsilonGreedyPlanner) and bandit.epsilon == 0.1
    with pytest.raises(KeyError, match="unknown planner"):
        make_planner("simulated-annealing")


def test_planner_info_shape():
    for name in PLANNERS:
        planner = make_planner(name, rng=FakeRng([]))
        info = planner.info()
        assert info["name"] == name
        assert isinstance(info["params"], dict)
    with pytest.raises(NotImplementedError):
        Planner().plan(None, 0.0)
