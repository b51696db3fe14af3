"""Materialized rollups: exact sliding aggregates, advisor, transparency.

The contract under test is strong: a query answered from a materialized
rollup must be *bitwise identical* to the raw scan for every
non-percentile statistic, at arbitrary query times, so rollups (and the
advisor that manages them) are observably read-only — enabling them in
a simulation changes no simulated observable.
"""

import math
import random

import pytest

from repro.blobseer.instrument import EV_CHUNK_READ, EV_CHUNK_WRITE, MonitoringEvent
from repro.cluster import Testbed
from repro.introspection import ExactSum, QueryEngine, RollupAdvisor, RollupStore
from repro.introspection.rollup import SeriesRollup, shape_label
from repro.monitoring import StorageRepository, StorageServer
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads import build_hotspot_scenario

STATS_EXACT = ["count", "sum", "min", "max", "mean", "latest", "rate",
               "value_rate"]


def fill(registry, name, n, seed, dt=1.0):
    rng = random.Random(seed)
    for i in range(n):
        registry.sample(name, rng.uniform(-50.0, 50.0), time=i * dt)


def ev(t, actor_id="provider-0", etype=EV_CHUNK_WRITE, blob=1, chunk=None,
       size=0.0, count=1):
    fields = {"count": count, "size_mb": size}
    if chunk is not None:
        fields["chunk"] = chunk
    return MonitoringEvent(
        time=t, actor_type="provider", actor_id=actor_id, event_type=etype,
        client_id="c", blob_id=blob, fields=fields,
    )


def make_repo(n=2, rate=1e9):
    bed = Testbed()
    servers = [
        StorageServer(bed.add_node(f"s{i}"), f"s{i}", write_rate_eps=rate)
        for i in range(n)
    ]
    return bed, StorageRepository(servers)


# ------------------------------------------------------------------ ExactSum
def test_exact_sum_matches_fsum_bitwise():
    rng = random.Random(13)
    values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-8, 8)
              for _ in range(500)]
    acc = ExactSum()
    for v in values:
        acc.add(v)
    assert acc.value() == math.fsum(values)


def test_exact_sum_remove_is_exact():
    # The killer case for naive running sums: catastrophic cancellation.
    acc = ExactSum()
    for v in (1e16, 1.0, -1e16):
        acc.add(v)
    assert acc.value() == 1.0  # float((1e16 + 1.0) - 1e16) would be 0.0

    rng = random.Random(7)
    values = [rng.uniform(-1e9, 1e9) for _ in range(1000)]
    for v in values:
        acc.add(v)
    # Evict the first 600 in order; the survivors must sum exactly.
    for v in values[:600]:
        acc.remove(v)
    assert acc.value() == math.fsum([1e16, 1.0, -1e16] + values[600:])
    # The expansion stays compact (non-overlapping doubles), not O(n).
    assert len(acc) < 64


# ------------------------------------------------------------ series rollups
@pytest.mark.parametrize("seed", [1, 42])
def test_rollup_answers_bitwise_match_raw_scans(seed):
    raw_reg, roll_reg = MetricsRegistry(), MetricsRegistry()
    raw = QueryEngine(metrics=raw_reg, window_s=40.0)
    rolled = QueryEngine(metrics=roll_reg, window_s=40.0, rollups=True)
    rolled.materialize("lat", 40.0)  # materialize-then-stream
    fill(raw_reg, "lat", 500, seed)
    fill(roll_reg, "lat", 500, seed)

    # Query times at/after the stream head, strictly increasing: the
    # streamed rollup's window already slid to the newest sample (499),
    # and it cannot rewind behind a slide it applied (historical queries
    # fall back to raw scans; see the fallback test below).
    for now in (499.0, 499.25, 505.5, 512.0, 527.75, 538.5):
        for stat in STATS_EXACT:
            want = raw.window_stat("lat", stat, now=now)
            got = rolled.window_stat("lat", stat, now=now)
            assert got == want, f"now={now} stat={stat}: {got!r} != {want!r}"

    shape = ("series", "lat", 40.0)
    assert rolled.query_stats[shape].rollup_hits == 6 * len(STATS_EXACT)
    assert rolled.query_stats[shape].raw_scans == 0


def test_backfilled_rollup_matches_streamed_rollup():
    # materialize() after the fact == materialize-then-stream: both are
    # bitwise equal to the raw scan, hence to each other.
    reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
    a = QueryEngine(metrics=reg_a, window_s=25.0, rollups=True)
    b = QueryEngine(metrics=reg_b, window_s=25.0, rollups=True)
    b.materialize("x", 25.0)
    fill(reg_a, "x", 300, seed=5)
    fill(reg_b, "x", 300, seed=5)
    a.materialize("x", 25.0)  # backfill path
    for stat in STATS_EXACT + ["p50", "p95", "p99"]:
        assert (a.window_stat("x", stat, now=299.0)
                == b.window_stat("x", stat, now=299.0))


@pytest.mark.parametrize("seed", [3, 17])
def test_rollup_percentiles_track_raw_within_tolerance(seed):
    raw_reg, roll_reg = MetricsRegistry(), MetricsRegistry()
    fill(raw_reg, "lat", 2000, seed)
    fill(roll_reg, "lat", 2000, seed)
    raw = QueryEngine(metrics=raw_reg, window_s=1000.0)
    rolled = QueryEngine(metrics=roll_reg, window_s=1000.0, rollups=True)
    rolled.materialize("lat", 1000.0)

    spread = 100.0  # uniform(-50, 50)
    for q in (50, 90, 95, 99):
        want = raw.window_stat("lat", f"p{q}", now=1999.0)
        got = rolled.window_stat("lat", f"p{q}", now=1999.0)
        # Reservoir approximation: right ballpark, not bitwise.
        assert abs(got - want) < 0.25 * spread

    # Seeded reservoirs: an identical rerun gives identical percentiles.
    reg2 = MetricsRegistry()
    fill(reg2, "lat", 2000, seed)
    rolled2 = QueryEngine(metrics=reg2, window_s=1000.0, rollups=True)
    rolled2.materialize("lat", 1000.0)
    for q in (50, 95, 99):
        assert (rolled2.window_stat("lat", f"p{q}", now=1999.0)
                == rolled.window_stat("lat", f"p{q}", now=1999.0))


def test_rollup_falls_back_when_it_cannot_answer():
    registry = MetricsRegistry()
    engine = QueryEngine(metrics=registry, window_s=10.0, rollups=True)
    fill(registry, "x", 100, seed=9)
    engine.materialize("x", 10.0)
    shape = ("series", "x", 10.0)

    assert engine.window_stat("x", "mean", now=99.0) is not None
    assert engine.query_stats[shape].rollup_hits == 1

    # Historical query behind the applied window slide: raw fallback,
    # same answer as a fresh raw engine.
    hist = engine.window_stat("x", "mean", now=50.0)
    assert engine.query_stats[shape].raw_scans == 1
    raw_engine = QueryEngine(metrics=registry, window_s=10.0)
    assert hist == raw_engine.window_stat("x", "mean", now=50.0)

    # Unmatched window tier and unmaterialized series: raw fallbacks.
    engine.window_stat("x", "mean", window_s=25.0, now=99.5)
    assert engine.query_stats[("series", "x", 25.0)].raw_scans == 1
    engine.window_stat("y", "mean", now=99.5)
    assert ("series", "y", 10.0) not in engine.rollups._by_name


def test_rollup_counters_and_store_accounting():
    registry = MetricsRegistry()
    engine = QueryEngine(metrics=registry, window_s=20.0, rollups=True)
    fill(registry, "a", 50, seed=2)
    fill(registry, "b", 50, seed=3)
    engine.materialize("a", 20.0)

    engine.window_stat("a", "mean", now=49.0)   # hit
    engine.window_stat("b", "mean", now=49.0)   # raw scan
    engine.window_stat("b", "sum", now=49.0)    # memoized -> no new scan
    assert registry.counter("introspection.query.rollup_hits").value == 1
    assert registry.counter("introspection.query.raw_scans").value == 1

    store = engine.rollups
    assert store.shapes() == [("series", "a", 20.0)]
    assert shape_label(store.shapes()[0]) == "series:a@20s"
    assert store.bytes_used() > 0
    assert store.samples_routed == 0  # listener fed only post-materialize
    registry.sample("a", 1.0, time=50.0)
    assert store.samples_routed == 1

    assert store.retire(("series", "a", 20.0)) is True
    assert store.retire(("series", "a", 20.0)) is False
    assert store.shapes() == []
    assert (store.created, store.retired) == (1, 1)


# ------------------------------------------------------------------ the memo
def test_window_queries_are_memoized_within_a_step():
    registry = MetricsRegistry()
    fill(registry, "x", 200, seed=4)
    engine = QueryEngine(metrics=registry, window_s=50.0)
    shape = ("series", "x", 50.0)

    for stat in STATS_EXACT + ["p50", "p95"]:
        engine.window_stat("x", stat, now=150.0)
    # One raw slice served all ten statistics.
    assert engine.query_stats[shape].raw_scans == 1
    assert engine.query_stats[shape].scanned_points == 50

    # Time moving on invalidates the memo...
    engine.window_stat("x", "mean", now=151.0)
    assert engine.query_stats[shape].raw_scans == 2
    # ...and so does a new sample landing at the same instant.
    registry.sample("x", 7.0, time=151.0)
    assert engine.window_stat("x", "max", now=151.0) >= 7.0
    assert engine.query_stats[shape].raw_scans == 3


def test_sample_listener_add_remove():
    registry = MetricsRegistry()
    seen = []
    listener = lambda name, t, v: seen.append((name, t, v))
    registry.add_sample_listener(listener)
    registry.add_sample_listener(listener)  # dedup
    registry.sample("s", 1.0, time=0.5)
    assert seen == [("s", 0.5, 1.0)]
    registry.remove_sample_listener(listener)
    registry.sample("s", 2.0, time=1.0)
    assert len(seen) == 1


# ------------------------------------------------------------- event rollups
def test_event_rollups_match_raw_event_scans():
    bed, repo = make_repo(n=2)
    sites = {"provider-0": "rack-A", "provider-1": "rack-A",
             "provider-2": "rack-B"}
    raw = QueryEngine(repository=repo, env=bed.env, window_s=60.0,
                      site_of=sites)
    rolled = QueryEngine(repository=repo, env=bed.env, window_s=60.0,
                         site_of=sites, rollups=True)
    rolled.materialize_events("provider", 60.0)
    rolled.materialize_events("site", 60.0)

    repo.store([
        ev(10.0, "provider-0", EV_CHUNK_WRITE, blob=1, chunk="b1:0", size=32.0),
        ev(11.0, "provider-0", EV_CHUNK_READ, blob=1, chunk="b1:0", size=32.0),
        ev(12.0, "provider-1", EV_CHUNK_WRITE, blob=2, chunk="b2:0", size=64.0),
        ev(13.0, "provider-2", EV_CHUNK_READ, blob=1, chunk="b1:0", size=32.0),
        ev(14.0, "provider-2", EV_CHUNK_READ, blob=1, chunk="b1:1", size=32.0),
    ])
    bed.run(until=1.0)

    want = raw.provider_rollup(now=20.0)
    got = rolled.provider_rollup(now=20.0)
    assert set(got) == set(want)
    for key in want:
        for field in ("chunk_reads", "chunk_writes", "mb_read",
                      "mb_written", "events", "actors"):
            assert getattr(got[key], field) == getattr(want[key], field)
    assert rolled.query_stats[("events", "provider", 60.0)].rollup_hits == 1

    by_site = rolled.site_rollup(now=20.0)
    want_site = raw.site_rollup(now=20.0)
    assert {k: r.mb_read for k, r in by_site.items()} == \
        {k: r.mb_read for k, r in want_site.items()}

    # Incremental: events stored after materialization flow in too.
    repo.store([ev(30.0, "provider-1", EV_CHUNK_READ, chunk="b2:1",
                   size=16.0)])
    bed.run(until=2.0)
    assert rolled.provider_rollup(now=40.0)["provider-1"].chunk_reads == 1
    assert raw.provider_rollup(now=40.0)["provider-1"].chunk_reads == 1


# ----------------------------------------------------------------- advisor
def advisor_rig(window_s=10.0, **kwargs):
    registry = MetricsRegistry()
    engine = QueryEngine(metrics=registry, window_s=window_s)
    advisor = RollupAdvisor(engine, interval_s=5.0, **kwargs)
    return registry, engine, advisor


def test_advisor_materializes_hot_shapes():
    registry, engine, advisor = advisor_rig(min_scans=2,
                                            min_points_per_scan=8.0)
    fill(registry, "hot", 100, seed=6)
    fill(registry, "cold", 100, seed=8)
    for i in range(5):
        engine.window_stat("hot", "mean", now=99.0 + i)
    engine.window_stat("cold", "mean", now=104.0)  # one scan: not hot

    decisions = advisor.step(now=105.0)
    assert [d.action for d in decisions] == ["rollup_create"]
    assert decisions[0].detail["shape"] == "series:hot@10s"
    store = engine.rollups
    assert store.series_rollup("hot", 10.0) is not None
    assert store.series_rollup("cold", 10.0) is None

    # Post-creation queries hit the rollup, and the next step does not
    # re-create it.
    engine.window_stat("hot", "mean", now=106.0)
    assert engine.query_stats[("series", "hot", 10.0)].rollup_hits == 1
    assert advisor.step(now=110.0) == []
    assert registry.gauge("introspection.query.rollup_bytes").value > 0


def test_advisor_retires_cold_rollups():
    registry, engine, advisor = advisor_rig(min_scans=1,
                                            min_points_per_scan=1.0,
                                            retire_after_s=20.0)
    fill(registry, "x", 50, seed=1)
    for i in range(3):
        engine.window_stat("x", "mean", now=49.0 + i)
    assert [d.action for d in advisor.step(now=52.0)] == ["rollup_create"]

    # Still inside the grace period: kept even with no hits.
    assert advisor.step(now=60.0) == []
    assert engine.rollups.shapes() != []
    # Cold past the grace period: retired.
    retired = advisor.step(now=100.0)
    assert [d.action for d in retired] == ["rollup_retire"]
    assert engine.rollups.shapes() == []


def test_advisor_respects_byte_budget():
    registry, engine, advisor = advisor_rig(min_scans=1,
                                            min_points_per_scan=1.0,
                                            budget_bytes=1)
    fill(registry, "x", 50, seed=1)
    engine.window_stat("x", "mean", now=49.0)
    assert advisor.step(now=50.0) == []
    assert advisor.budget_rejects == 1
    assert engine.rollups.shapes() == []
    assert registry.counter("introspection.advisor.budget_rejects").value == 1


def test_advisor_dry_run_only_suggests():
    registry = MetricsRegistry()
    engine = QueryEngine(metrics=registry, window_s=10.0)
    advisor = RollupAdvisor(engine, interval_s=5.0, dry_run=True,
                            min_scans=1, min_points_per_scan=1.0)
    fill(registry, "x", 50, seed=1)
    engine.window_stat("x", "mean", now=49.0)
    decisions = advisor.step(now=50.0)
    assert [d.action for d in decisions] == ["rollup_suggest"]
    assert advisor.suggestions[0]["shape"] == "series:x@10s"
    assert engine.rollups is None  # never attached a store


def _hotspot_observables(with_advisor):
    scenario = build_hotspot_scenario(
        readers=4, dataset_chunks=16, chunk_size_mb=4.0,
        reads_per_client=25, data_providers=6, with_caches=True,
        with_tuner=True, tuner_interval_s=4.0, seed=11,
    )
    for reader in scenario.readers:
        reader.think_s = 1.5  # stretch the run so control loops step
    if with_advisor:
        advisor = RollupAdvisor(scenario.tuner.domain.query, interval_s=6.0,
                                min_scans=1, min_points_per_scan=1.0)
        scenario.deployment.env.process(
            advisor.run(scenario.deployment.env), name="rollup-advisor")
    scenario.run()
    store = scenario.tuner.domain.query.rollups
    return {
        "read_end": scenario.read_end,
        "per_reader_mb": [r.total_read_mb() for r in scenario.readers],
        "caches": scenario.cache_report(),
        "tuner_actions": [(d.time, d.action, d.detail)
                          for d in scenario.tuner.decisions],
    }, store


def test_advisor_is_observably_read_only():
    """The determinism contract: enabling the advisor (which swaps hot
    tuner queries from raw scans to rollups mid-run) changes nothing the
    simulation can observe — because rollup answers are bitwise exact.
    """
    baseline, _ = _hotspot_observables(with_advisor=False)
    advised, store = _hotspot_observables(with_advisor=True)
    assert store is not None and store.created > 0  # it really kicked in
    assert advised == baseline


# ------------------------------------------------------------- elasticity
def test_elasticity_controller_publishes_and_smooths_with_query():
    from repro.decision import ElasticityEngine
    from repro.blobseer import BlobSeerConfig, BlobSeerDeployment

    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=3, metadata_providers=1))
    env = deployment.env
    registry = MetricsRegistry(env)
    engine = QueryEngine(metrics=registry, env=env, window_s=30.0)
    controller = ElasticityEngine(deployment, query=engine,
                                  interval_s=5.0)
    assert controller.smooth_window_s == 15.0

    raw_load = controller.pool_load()
    # A synthetic earlier reading drags the windowed mean away from the
    # instantaneous value — proof the controller acts on the smoothed
    # signal.
    registry.sample("elasticity.pool_load", raw_load + 1.0, time=0.0)
    controller.step(env.now)
    assert len(registry.series("elasticity.pool_load")) == 2
    assert len(registry.series("elasticity.pool_fill")) == 1
    assert len(registry.series("elasticity.pool_size")) == 1
    _now, _pool, used_load = controller.pool_timeline[0]
    assert used_load == pytest.approx(raw_load + 0.5)

    # Without a query engine nothing is published and raw signals rule.
    bare = ElasticityEngine(BlobSeerDeployment(BlobSeerConfig(
        data_providers=3, metadata_providers=1)))
    bare.step(0.0)
    assert bare.pool_timeline[0][2] == pytest.approx(bare.pool_load())
