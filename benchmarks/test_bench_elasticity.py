"""ABL-2: elastic provider pool (self-configuration, §V).

"...contracting and expanding the pool of data providers based on the
system's load."  A load spike hits a small pool; we compare a static
deployment against one governed by the elasticity controller: the
elastic pool should absorb the spike (higher client throughput during
the burst) and then contract back, paying only a transient provider
surplus.
"""

from _util import once, report

from repro.decision import ElasticityEngine
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.workloads import CorrectWriter

BURST_WRITERS = 12
BURST_START = 10.0
BURST_END = 120.0
DURATION = 240.0


def run_config(elastic: bool):
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=4,
        metadata_providers=2,
        chunk_size_mb=64.0,
        testbed=TestbedConfig(seed=41, rate_granularity_s=0.01),
    ))
    env = deployment.env
    controller = None
    if elastic:
        controller = ElasticityEngine(
            deployment,
            min_providers=4, max_providers=24,
            high_load=0.45, low_load=0.1,
            interval_s=5.0, cooldown_s=10.0, provision_delay_s=8.0,
        )
        env.process(controller.run(env))
    writers = [
        CorrectWriter(deployment.new_client(f"w{i}"), op_mb=1024.0,
                      start_at=BURST_START, stop_at=BURST_END)
        for i in range(BURST_WRITERS)
    ]
    for writer in writers:
        env.process(writer.run(env))
    deployment.run(until=DURATION)

    throughput = sum(w.mean_throughput() for w in writers) / len(writers)
    written = sum(w.total_written_mb() for w in writers)
    peak_pool = (
        max(pool for _t, pool, _l in controller.pool_timeline)
        if controller else deployment.pmanager.pool_size()
    )
    final_pool = deployment.pmanager.pool_size()
    ups = controller.scale_ups if controller else 0
    downs = controller.scale_downs if controller else 0
    return throughput, written, peak_pool, final_pool, ups, downs


def test_abl2_elasticity(benchmark):
    def run():
        return {
            "static (4 providers)": run_config(elastic=False),
            "elastic (4..24)": run_config(elastic=True),
        }

    results = once(benchmark, run)
    rows = [
        (name, f"{tput:.1f}", f"{written:.0f}", peak, final, ups, downs)
        for name, (tput, written, peak, final, ups, downs) in results.items()
    ]
    report(
        "ABL-2",
        f"load spike ({BURST_WRITERS} writers x 1 GB ops) on a small pool",
        ["config", "client MB/s", "MB written", "peak pool", "final pool",
         "scale-ups", "scale-downs"],
        rows,
        notes=[
            "elastic pool should absorb the burst (more data moved, higher "
            "per-client throughput) and contract afterwards",
        ],
    )
    static = results["static (4 providers)"]
    elastic = results["elastic (4..24)"]
    # Shape claims: elasticity grows the pool under load ...
    assert elastic[2] > 4
    assert elastic[4] >= 1
    # ... moves more data at higher client throughput ...
    assert elastic[1] > static[1] * 1.15, (static[1], elastic[1])
    assert elastic[0] > static[0] * 1.15, (static[0], elastic[0])
    # ... and contracts again once the burst ends.
    assert elastic[5] >= 1
    assert elastic[3] < elastic[2]
