"""Visualization demo: the §IV-A dashboard over a mixed workload.

Runs writers and readers under the full monitoring stack, then renders
every panel the paper's visualization tool provided: physical
parameters, per-provider and system storage, BLOB access patterns,
BLOB distribution, and client throughput.

New in the observability-loop revision, the run is *live*: a periodic
refresh process polls the introspection :class:`QueryEngine` (windowed
rates, hot blobs, per-site rollups — all via incremental repository
cursors) and a :class:`HealthMonitor` evaluates SLO rules and EWMA
z-score anomaly detection in simulation time, printing a compact status
line per refresh and a health timeline at the end.

The run executes with cross-layer telemetry enabled and also writes a
Chrome trace-event file (``introspection_dashboard.trace.json`` by
default) — open it in https://ui.perfetto.dev or chrome://tracing to
see the span trees (with cross-process flow arrows) behind the
dashboard numbers.

Run:  python examples/introspection_dashboard.py
"""

from repro import telemetry
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.decision import build_cache_tuner
from repro.introspection import (
    AdaptationScorecard,
    Dashboard,
    DecisionJournal,
    HealthMonitor,
    IntrospectionLayer,
    QueryEngine,
    RollupAdvisor,
    SignalSpec,
    SLORule,
    adaptation_scorecard,
    journal_tail,
)
from repro.monitoring import MonitoringConfig, MonitoringStack
from repro.workloads import CorrectReader, CorrectWriter

DEFAULT_TRACE_PATH = "introspection_dashboard.trace.json"


def main(trace_path: str = DEFAULT_TRACE_PATH, until: float = 150.0) -> None:
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=10,
        metadata_providers=2,
        chunk_size_mb=64.0,
        # Cache tiers on, so the dashboard has hit rates to show (a
        # 64 MB chunk needs 2x capacity to pass size admission).
        client_chunk_cache_mb=256.0,
        client_metadata_cache_mb=8.0,
        provider_cache_mb=256.0,
        testbed=TestbedConfig(seed=3, rate_granularity_s=0.01),
    ))
    monitoring = MonitoringStack(deployment.testbed, MonitoringConfig(
        services=2,
        storage_servers=2,
        flush_interval_s=1.0,
        physical_sample_interval_s=5.0,
        sensor_stop_at=120.0,
    ))
    monitoring.attach(deployment)
    env = deployment.env
    tele = telemetry.enable(deployment)

    # Introspection query engine + health monitor: the live side of the
    # observability loop.  rollups=True attaches a RollupStore so hot
    # query shapes can be answered from O(1) materialized pre-aggregates.
    engine = QueryEngine.for_deployment(deployment, monitoring, window_s=30.0,
                                        rollups=True)
    health = HealthMonitor(
        engine,
        rules=[
            SLORule("client.throughput_mbps", statistic="mean",
                    min_value=20.0, window_s=30.0,
                    description="per-op client throughput SLO"),
        ],
        anomaly_signals=["client.throughput_mbps"],
        interval_s=5.0,
        z_threshold=3.0,
        warmup_s=10.0,
    )
    health.start(env)

    # Provenance journal: every decision any engine executes lands here
    # with its evidence, health inbox, trace context, and a post-decision
    # effect-attribution window against the watched series.
    journal = DecisionJournal(env, metrics=tele.metrics, effect_window_s=20.0)
    journal.watch("rollup-advisor", ["client.throughput_mbps"])

    # Dry-run cache tuner = cache-stats probe: it publishes the
    # cache.<name>.* series the query engine rolls up, without resizing.
    tuner = build_cache_tuner(engine, caches=deployment.caches,
                              interval_s=10.0, dry_run=True)
    tuner.attach_journal(journal)
    env.process(tuner.run(env), name="cache-tuner")

    # Rollup advisor: watches the engine's query log and materializes
    # pre-aggregates for hot shapes so repeated dashboard/health/tuner
    # queries stop re-scanning raw series.
    advisor = RollupAdvisor(engine, interval_s=15.0, min_scans=2,
                            min_points_per_scan=8.0)
    advisor.attach_journal(journal)
    env.process(advisor.run(env), name="rollup-advisor")

    writers = [
        CorrectWriter(deployment.new_client(f"w{i}"), op_mb=512.0,
                      max_ops=4, think_s=2.0)
        for i in range(3)
    ]
    for writer in writers:
        env.process(writer.run(env))

    # A reader hammers the first writer's blob once it exists.
    def reader_when_ready(env):
        while writers[0].blob_id is None or not writers[0].results:
            yield env.timeout(1.0)
        reader = CorrectReader(
            deployment.new_client("reader"), writers[0].blob_id,
            op_mb=512.0, max_ops=6,
        )
        yield env.process(reader.run(env))

    env.process(reader_when_ready(env))

    # Live terminal refresh: one compact status line per interval,
    # rendered from the sliding-window query engine, plus any journal
    # entries recorded since the previous refresh (the live tail).
    def live_refresh(env, interval_s=15.0):
        seen = 0
        while True:
            yield env.timeout(interval_s)
            nonlocal_total = journal.total
            if nonlocal_total > seen:
                for entry in journal.tail(nonlocal_total - seen):
                    print(f"  journal> {entry}")
                seen = nonlocal_total
            tput = engine.window_stat("client.throughput_mbps", "mean")
            rollup = engine.site_rollup()
            data_rate = sum(r.mb_per_s for r in rollup.values())
            hot = engine.hot_blobs(top=1)
            hot_txt = f"hot blob #{hot[0][0]} ({hot[0][1]} chunk ops)" if hot else "-"
            alerts = len(health.events)
            metrics = engine.metrics
            hits = metrics.counter("introspection.query.rollup_hits").value
            scans = metrics.counter("introspection.query.raw_scans").value
            rbytes = metrics.gauge("introspection.query.rollup_bytes").value
            print(f"[{env.now:7.1f}s] tput(30s)="
                  f"{tput:6.1f} MB/s | data {data_rate:7.1f} MB/s | "
                  f"{hot_txt} | health events: {alerts} | "
                  f"rollups: {hits:.0f} hits / {scans:.0f} raw scans, "
                  f"{rbytes / 1024.0:.1f} KiB"
                  if tput is not None else
                  f"[{env.now:7.1f}s] warming up...")

    env.process(live_refresh(env))
    deployment.run(until=until)

    layer = IntrospectionLayer(monitoring.repository)
    dashboard = Dashboard(layer)
    provider_nodes = [f"provider-{i}-node" for i in range(4)]
    print()
    print(dashboard.render(node_names=provider_nodes))
    print()
    print(f"monitoring: {monitoring.events_emitted} events emitted, "
          f"{monitoring.repository.stored_count} stored, "
          f"{monitoring.parameter_count()} distinct parameters")

    # Cache tiers: per-cache rollup from the published series (window =
    # whole run, so tiers that went quiet early still show up).
    print("\n== Cache tiers (windowed) ==")
    cache_rollup = engine.cache_stats(window_s=until)
    busy = {n: s for n, s in cache_rollup.items()
            if s.get("lookups_per_s", 0.0) > 0}
    if busy:
        for name in sorted(busy):
            s = busy[name]
            print(f"{name:24s} hit_rate={s.get('hit_rate', 0.0):5.2f}  "
                  f"lookups/s={s.get('lookups_per_s', 0.0):7.2f}  "
                  f"cached={s.get('bytes_mb', 0.0):7.1f}"
                  f"/{s.get('capacity_mb', 0.0):.0f} MB")
    else:
        print("(no cache activity in window)")

    # Materialized rollups: what the advisor decided and what it bought.
    print("\n== Materialized rollups ==")
    store = engine.rollups
    if store is not None and store.shapes():
        from repro.introspection.rollup import shape_label
        for shape in sorted(store.shapes()):
            print(f"  {shape_label(shape)}")
    else:
        print("  (none materialized)")
    metrics = engine.metrics
    print(f"  {metrics.counter('introspection.query.rollup_hits').value:.0f} "
          f"rollup hits, "
          f"{metrics.counter('introspection.query.raw_scans').value:.0f} "
          f"raw scans, {store.bytes_used() / 1024.0 if store else 0.0:.1f} KiB "
          f"materialized")
    for decision in advisor.decisions:
        print(f"  [{decision.time:7.1f}s] {decision.action} {decision.detail}")

    # Health timeline: every SLO violation / recovery / anomaly.
    print("\n== Health timeline ==")
    if health.events:
        for event in health.events:
            print(str(event))
    else:
        print("(no SLO violations or anomalies)")

    # Provenance: the journal tail and the quality-of-adaptation scorecard.
    print()
    print(journal_tail(journal, n=10))
    score = AdaptationScorecard(
        journal=journal,
        metrics=tele.metrics,
        signals=[SignalSpec("client.throughput_mbps", min_value=20.0,
                            hold_s=10.0, label="throughput")],
    ).compute(t1=env.now)
    print()
    print(adaptation_scorecard(score))

    tele.write_chrome_trace(trace_path, journal=journal)
    print(f"\ntelemetry: {len(tele.tracer.spans)} spans on "
          f"{len(tele.tracer.tracks())} tracks -> {trace_path} "
          f"(open in https://ui.perfetto.dev; adaptation:* tracks carry "
          f"the journaled decisions and their effect arrows)")


if __name__ == "__main__":
    main()
