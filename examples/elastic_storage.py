"""Self-configuration demo: the provider pool breathes with the load.

A burst of writers arrives, the elasticity engine expands the data-
provider pool; when the burst ends it drains and retires providers,
migrating sole-copy chunks first (no data loss).  Alongside, the
replication engine heals a provider crash.

Run:  python examples/elastic_storage.py
"""

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import FaultInjector, TestbedConfig
from repro.decision import ElasticityEngine, ReplicationEngine
from repro.workloads import CorrectWriter


def main() -> None:
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=4,
        metadata_providers=2,
        chunk_size_mb=64.0,
        replication=2,
        testbed=TestbedConfig(seed=21, rate_granularity_s=0.01),
    ))
    env = deployment.env

    elasticity = ElasticityEngine(
        deployment,
        min_providers=4,
        max_providers=24,
        high_load=0.5,
        low_load=0.1,
        interval_s=5.0,
        cooldown_s=10.0,
        provision_delay_s=8.0,
    )
    replication = ReplicationEngine(deployment, target_replication=2, interval_s=5.0)
    env.process(elasticity.run(env))
    env.process(replication.run(env))

    # Load burst between t=20 and t=120: twelve 1 GB writers.
    writers = [
        CorrectWriter(
            deployment.new_client(f"w{i}"),
            op_mb=1024.0, start_at=20.0, stop_at=120.0,
        )
        for i in range(12)
    ]
    for writer in writers:
        env.process(writer.run(env))

    # One provider crashes mid-burst; the replication engine repairs.
    injector = FaultInjector(deployment.testbed)
    injector.crash_at(deployment.providers["provider-1"].node, at=60.0)

    deployment.run(until=240.0)

    print("pool size over time (sampled by the controller):")
    for t, pool, load in elasticity.pool_timeline:
        if int(t) % 20 == 0 or t < 10:
            print(f"  t={t:6.1f}s  pool={pool:2d}  load={load:0.2f}")
    print(f"\nscale-ups: {elasticity.scale_ups}, scale-downs: {elasticity.scale_downs}")
    print(f"crash repairs: {replication.repairs_done} chunks "
          f"({replication.repair_traffic_mb:.0f} MB of repair traffic)")
    print(f"final pool size: {deployment.pmanager.pool_size()}")

    written = sum(w.total_written_mb() for w in writers)
    print(f"\ntotal data written during the burst: {written:.0f} MB")
    print(f"mean writer throughput: "
          f"{sum(w.mean_throughput() for w in writers) / len(writers):.1f} MB/s")
    for decision in elasticity.decisions[:6]:
        print(f"  [{decision.time:6.1f}s] {decision.action}: {decision.detail}")


if __name__ == "__main__":
    main()
