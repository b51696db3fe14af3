"""Tests for the self-* engines built on the decision framework.

Golden digests pin each engine's behaviour at a fixed seed: the full
decision stream plus the engine's own counters and, where the scenario
defines it, the canonical ``observables()`` string.  The digests in
``tests/golden/engines.json`` were generated from the original,
pre-framework engines, so they also pin the framework ports to them.

Also covered here:

- the BENCH-DECIDE contention scenario: the arbiter referees one
  conserved memory ledger between the cache tuner and elasticity, never
  exceeding capacity, preempting cache bytes for higher-band scale-ups;
- effect-attribution signals for elasticity and replication (scorecard
  time-to-effect populated for every engine);
- self-protection provenance: every violation of a live attack is
  journaled as a sanction;
- determinism: stateful planners (hill-climb, epsilon-greedy) are
  byte-identical across reruns per seed.
"""

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.decision import (
    ElasticityEngine,
    ReplicationEngine,
    build_cache_tuner,
)
from repro.introspection import DecisionJournal
from repro.introspection.query import QueryEngine
from repro.workloads import (
    CorrectWriter,
    build_contention_scenario,
    build_disturbance_scenario,
    build_dos_scenario,
)

from .golden import assert_digest

# Small-but-eventful disturbance config shared by the tuner twins.
DISTURB = dict(readers=3, dataset_chunks=24, shift_at=30.0, churn_at=55.0,
               churn_heal_s=15.0, duration=80.0, seed=3)


def decision_stream(loop):
    """The comparable record of every decision an engine executed."""
    return [(d.time, d.engine, d.action, tuple(sorted(d.detail.items())))
            for d in loop.decisions]


def make_deployment(seed=7, **overrides):
    defaults = dict(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=64.0,
        testbed=TestbedConfig(seed=seed),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def write_blob(dep, client, size_mb=256.0, chunk=64.0):
    def scenario(env):
        blob_id = yield env.process(client.create_blob(chunk))
        yield env.process(client.append(blob_id, size_mb))
        return blob_id

    process = dep.env.process(scenario(dep.env))
    return dep.run(until=process)


# ------------------------------------------------------------------ cache tuner
def test_cache_tuner_matches_golden_digest():
    scenario = build_disturbance_scenario(**DISTURB)
    scenario.run()
    assert scenario.tuner.decisions, "the world must actually adapt"
    assert_digest("engines", "cache-tuner", {
        "decisions": decision_stream(scenario.tuner),
        "capacity_timeline": scenario.tuner.capacity_timeline,
        "planner": scenario.tuner.planner_info(),
        "observables": scenario.observables(),
    })


def test_framework_tuner_default_planner_matches_legacy_params():
    # The thresholds of the original cache tuner.
    query = QueryEngine.for_deployment(make_deployment())
    assert build_cache_tuner(query).planner_info() == {
        "name": "marginal-utility",
        "params": {"pressure_threshold": 0.1, "idle_activity": 0.05,
                   "spare_utilization": 0.5, "step_fraction": 0.25},
    }
    assert build_disturbance_scenario().planner_name == "marginal-utility"


def test_every_planner_drives_the_disturbance_scenario():
    small = dict(DISTURB, readers=2, dataset_chunks=16, duration=45.0,
                 shift_at=20.0, churn_at=35.0, churn_heal_s=8.0)
    for planner in ("threshold", "marginal-utility", "hill-climb",
                    "epsilon-greedy"):
        scenario = build_disturbance_scenario(planner=planner, **small)
        scenario.run()
        assert scenario.tuner.steps > 0
        assert scenario.tuner.planner_info()["name"] == planner
        assert scenario.total_read_mb() > 0


# ------------------------------------------------------------------ elasticity
def elasticity_world(seed):
    dep = make_deployment(data_providers=3, seed=seed)
    engine = ElasticityEngine(
        dep, min_providers=3, max_providers=10,
        high_load=0.3, interval_s=2.0, cooldown_s=4.0,
        provision_delay_s=1.0,
    )
    dep.env.process(engine.run(dep.env))
    writers = [CorrectWriter(dep.new_client(f"w{i}"), op_mb=512.0, max_ops=6)
               for i in range(6)]
    for writer in writers:
        dep.env.process(writer.run(dep.env))
    dep.run(until=90.0)
    return dep, engine


def test_elasticity_matches_golden_digest():
    dep, engine = elasticity_world(11)
    assert engine.scale_ups > 0, "the world must actually scale"
    assert_digest("engines", "elasticity", {
        "decisions": decision_stream(engine),
        "pool_timeline": engine.pool_timeline,
        "scale_ups": engine.scale_ups,
        "scale_downs": engine.scale_downs,
        "pool_size": dep.pmanager.pool_size(),
        "events": dep.env.events_processed,
    })


def test_elasticity_effect_attribution_populates_time_to_effect():
    dep = make_deployment(data_providers=3, seed=11)
    from repro.telemetry import MetricsRegistry

    dep.env.metrics = MetricsRegistry(dep.env)
    query = QueryEngine.for_deployment(dep)
    journal = DecisionJournal(dep.env, effect_window_s=20.0)
    journal.watch("elasticity", ["elasticity.pool_size"])
    engine = ElasticityEngine(
        dep, min_providers=3, max_providers=10, high_load=0.3,
        interval_s=2.0, cooldown_s=4.0, provision_delay_s=1.0, query=query,
    ).attach_journal(journal)
    dep.env.process(engine.run(dep.env))
    for i in range(6):
        writer = CorrectWriter(dep.new_client(f"w{i}"), op_mb=512.0, max_ops=6)
        dep.env.process(writer.run(dep.env))
    dep.run(until=90.0)
    journal.resolve_effects()
    ups = [e for e in journal.for_engine("elasticity")
           if e.action == "scale_up"]
    assert ups, "load must trigger at least one scale-up"
    attributed = [e for e in ups
                  if e.effect.get("elasticity.pool_size", {})
                  .get("time_to_effect_s") is not None]
    assert attributed, "pool_size effect attribution must resolve"
    # Scorecard time-to-effect is therefore populated for this engine.
    from repro.introspection import AdaptationScorecard

    report = AdaptationScorecard(journal=journal).engine_report(
        0.0, dep.env.now)
    assert report["elasticity"]["mean_time_to_effect_s"] is not None
    assert report["elasticity"]["planner"] == "watermark"


# ------------------------------------------------------------------ replication
def replication_world(seed, with_journal=False):
    dep = make_deployment(replication=2, seed=seed)
    client = dep.new_client("c1")
    write_blob(dep, client)
    journal = None
    query = None
    if with_journal:
        from repro.telemetry import MetricsRegistry

        dep.env.metrics = MetricsRegistry(dep.env)
        query = QueryEngine.for_deployment(dep)
        journal = DecisionJournal(dep.env, effect_window_s=20.0)
        journal.watch("replication", ["replication.under_replicated"])
    manager = ReplicationEngine(dep, target_replication=2,
                                max_replication=3, hot_reads_per_s=0.5,
                                interval_s=2.0, query=query)
    if journal is not None:
        manager.attach_journal(journal)
    dep.env.process(manager.run(dep.env))
    victim = next(p for p in dep.providers.values() if p.chunks)
    assert victim.chunks
    victim.node.fail()
    dep.run(until=dep.now + 30.0)
    return dep, manager, journal


def test_replication_matches_golden_digest():
    dep, engine, _ = replication_world(7)
    assert engine.repairs_done > 0, "the world must actually repair"
    assert engine.evidence["chunks"] > 0  # sweep provenance noted
    for descriptor in engine.chunk_directory().values():
        assert len(engine.live_replicas(descriptor)) >= 2
    assert_digest("engines", "replication", {
        "decisions": decision_stream(engine),
        "repairs": engine.repairs_done,
        "promotions": engine.promotions,
        "demotions": engine.demotions,
        "repair_traffic_mb": engine.repair_traffic_mb,
        "lost_chunks": engine.lost_chunks,
        "events": dep.env.events_processed,
    })


def test_replication_effect_attribution_populates_time_to_effect():
    _dep, manager, journal = replication_world(7, with_journal=True)
    journal.resolve_effects()
    repairs = [e for e in journal.for_engine("replication")
               if e.action == "repair"]
    assert repairs, "the crash must trigger repairs"
    attributed = [e for e in repairs
                  if e.effect.get("replication.under_replicated", {})
                  .get("time_to_effect_s") is not None]
    assert attributed, "under_replicated effect attribution must resolve"


# ------------------------------------------------------------------ security
def test_security_journals_every_violation_as_a_sanction():
    scenario = build_dos_scenario(
        n_clients=6, malicious_fraction=0.5, security_enabled=True,
        data_providers=12, metadata_providers=2, monitoring_services=2,
        op_mb=256.0, attack_start=10.0, attack_stagger_s=5.0,
        attack_parallel=32, seed=4, scan_interval_s=5.0,
        history_pull_interval_s=2.0, flush_interval_s=1.0, confirmations=1,
    )
    env = scenario.deployment.env
    for i, writer in enumerate(scenario.correct):
        env.process(writer.run(env), name=f"writer-{i}")
    for i, attacker in enumerate(scenario.attackers):
        env.process(attacker.run(env), name=f"attacker-{i}")
    journal = DecisionJournal(env)
    scenario.security.attach_journal(journal)
    scenario.security.start()
    scenario.deployment.run(until=75.0)

    violations = scenario.security.violations
    assert violations, "the attack must be detected"
    sanctions = [e for e in journal.for_engine("security")
                 if e.action == "sanction"]
    assert [(e.time, e.detail["client"], e.detail["policy"])
            for e in sanctions] == \
        [(v.time, v.client_id, v.policy.name) for v in violations]
    assert [e.evidence["occurrence"] for e in sanctions] == \
        [v.occurrence for v in violations]
    assert all(0.0 <= e.evidence["trust"] <= 1.0 for e in sanctions)
    assert journal.planner_of("security")["name"] == "policy-scan"
    assert journal.planner_of("security")["params"]["scan_interval_s"] == 5.0


# ------------------------------------------------------------------ contention
CONTEND = dict(readers=4, load_writers=3, dataset_chunks=24,
               shift_at=30.0, duration=90.0, seed=0)


def test_contention_arbiter_never_exceeds_budget_and_preempts():
    # The builder defaults: enough bulk-write load that elasticity must
    # scale up into the deliberately-too-small slack.
    scenario = build_contention_scenario(with_journal=True)
    scenario.run()
    ledger = scenario.arbiter.ledgers["memory_mb"]
    # The conserved-budget invariant held at every settlement (checked
    # live by assert_conserved) and at the end.
    assert ledger.used() <= ledger.capacity + 1e-9
    assert ledger.peak_used <= ledger.capacity + 1e-9
    # Real contention: the budget was actually fought over.
    assert scenario.arbiter.grants > 0
    assert scenario.elasticity.scale_ups > 0
    assert scenario.arbiter.preemptions, \
        "scale-up under a tight budget must preempt cache capacity"
    # Preemption physically shrank caches below their initial footprint
    # at the moment it happened (the tuner may re-grow later).
    _t, requester, holder, resource, freed = scenario.arbiter.preemptions[0]
    assert (requester, holder, resource) == \
        ("elasticity", "cache-tuner", "memory_mb")
    assert freed > 0
    # Both engines journaled under their advertised planners.
    assert scenario.journal.planner_of("cache-tuner")["name"] == \
        "marginal-utility"
    assert scenario.journal.planner_of("elasticity")["name"] == "watermark"
    # Arbiter preemptions land on the shared timeline too.
    assert [e for e in scenario.journal.for_engine("arbiter")
            if e.action == "preempt"]


def test_contention_denials_are_logged_not_applied():
    scenario = build_contention_scenario(with_journal=False, **CONTEND)
    scenario.run()
    if scenario.arbiter.denials:
        assert len(scenario.arbiter.denied_log) == scenario.arbiter.denials
        for _t, engine, _action, resource, shortfall in \
                scenario.arbiter.denied_log:
            assert resource == "memory_mb" and shortfall > 0
            assert engine in ("cache-tuner", "elasticity")
    # Denied actions were never applied: the loop counters agree.
    denied = scenario.tuner.denied + scenario.elasticity.denied
    assert denied == scenario.arbiter.denials


def test_contention_run_is_deterministic_per_seed():
    runs = []
    for _ in range(2):
        scenario = build_contention_scenario(with_journal=False, **CONTEND)
        scenario.run()
        runs.append(scenario.observables())
    assert runs[0] == runs[1]


# ------------------------------------------------------------------ determinism
@pytest.mark.parametrize("planner", ["hill-climb", "epsilon-greedy"])
def test_stateful_planners_are_deterministic_per_seed(planner):
    small = dict(DISTURB, readers=2, dataset_chunks=16, duration=50.0,
                 shift_at=20.0, churn_at=35.0, churn_heal_s=8.0)
    runs = []
    for _ in range(2):
        scenario = build_disturbance_scenario(planner=planner, **small)
        scenario.run()
        runs.append((decision_stream(scenario.tuner),
                     scenario.observables()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
