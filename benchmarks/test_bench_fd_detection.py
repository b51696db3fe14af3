"""BENCH-FD: failure detection latency and write availability under churn.

The seed repo's crash model is an oracle: the instant a provider dies,
every other actor knows.  This bench measures the robustness layer that
replaces it — a heartbeat failure detector (period 1 s, timeout 3 s)
whose *view* gates allocation and repair — under Poisson provider churn
(crash + later recovery), with clients running RPC timeouts + retries.

Reported per mode (oracle vs detector):

- detection latency (mean/max over confirmed crashes; oracle = 0 by
  construction),
- write availability (fraction of client appends that succeeded),
- repair work done and when it *started* relative to detection.

Shape claims: detection latency is strictly positive and close to
``timeout_s + (confirm_misses-1) * period_s``; repair traffic begins
only after the first confirmation, never before.
"""

from _util import env_stats, once, report

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.blobseer.errors import BlobSeerError
from repro.cluster import FaultInjector, NodeDownError, TestbedConfig
from repro.decision import ReplicationEngine
from repro.robustness import RetryPolicy
from repro.simulation.network import TransferAborted
from repro.telemetry.metrics import MetricsRegistry

PERIOD_S = 1.0
TIMEOUT_S = 3.0
CONFIRM_MISSES = 2


def run_churn(detector_on: bool):
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=12,
        metadata_providers=2,
        chunk_size_mb=8.0,
        replication=2,
        testbed=TestbedConfig(seed=53, rate_granularity_s=0.01),
    ))
    env = deployment.env
    metrics = MetricsRegistry(env)
    env.metrics = metrics

    detector = None
    retry = None
    timeout_s = None
    if detector_on:
        detector = deployment.attach_failure_detector(
            period_s=PERIOD_S, timeout_s=TIMEOUT_S,
            confirm_misses=CONFIRM_MISSES,
        )
        retry = RetryPolicy(
            max_attempts=4, base_delay_s=0.2, max_delay_s=2.0,
            jitter=0.1, rng=deployment.rng.stream("bench.retry"),
        )
        timeout_s = 8.0
    manager = ReplicationEngine(
        deployment, target_replication=2, interval_s=5.0, detector=detector,
    )
    env.process(manager.run(env))

    # Three writers appending steadily; every attempt is counted so the
    # ok/total ratio is the write availability under churn.
    outcome = {"ok": 0, "total": 0}

    def writer(client):
        blob_id = yield env.process(client.create_blob(8.0))
        while env.now < 180.0:
            outcome["total"] += 1
            try:
                result = yield env.process(client.append(blob_id, 32.0))
                if result.ok:
                    outcome["ok"] += 1
            except (BlobSeerError, NodeDownError, TransferAborted):
                pass
            yield env.timeout(5.0)

    for i in range(3):
        client = deployment.new_client(
            f"w{i}", rpc_timeout_s=timeout_s, rpc_retry=retry,
        )
        env.process(writer(client), name=f"writer-{i}")

    # Poisson churn: crashed providers come back 40 s later (cold, empty).
    injector = FaultInjector(deployment.testbed)
    nodes = [deployment.providers[f"provider-{i}"].node for i in range(12)]
    injector.poisson_crashes(
        nodes, rate_per_second=0.02, stop_at=120.0,
        recover_after=40.0, max_crashes=4,
    )
    deployment.run(until=220.0)

    crash_times = [e.time for e in injector.events_of("crash")]
    repair_times = [d.time for d in manager.decisions if d.action == "repair"]
    if detector_on:
        latencies = detector.detection_latencies
        confirm_times = sorted(
            v.confirmed_at for v in detector.views()
            if v.confirmed_at is not None
        )
    else:
        latencies = [0.0] * len(crash_times)  # the oracle: instant knowledge
        confirm_times = crash_times
    return {
        "crashes": len(crash_times),
        "first_crash": min(crash_times) if crash_times else None,
        "latencies": latencies,
        "first_confirm": confirm_times[0] if confirm_times else None,
        "first_repair": min(repair_times) if repair_times else None,
        "repairs": manager.repairs_done,
        "ok": outcome["ok"],
        "total": outcome["total"],
        "rpc_retries": metrics.counter("rpc.retries").value,
        "rpc_timeouts": metrics.counter("rpc.timeouts").value,
        "pings": detector.pings_sent if detector_on else 0,
        "stats": env_stats(env, net=deployment.testbed.net, deployment=deployment),
    }


def test_bench_fd_detection(benchmark):
    def run():
        return {
            "oracle": run_churn(detector_on=False),
            "detector": run_churn(detector_on=True),
        }

    grid = once(benchmark, run)
    rows = []
    for mode in ("oracle", "detector"):
        r = grid[mode]
        lat = r["latencies"]
        mean_lat = sum(lat) / len(lat) if lat else 0.0
        rows.append((
            mode, r["crashes"],
            f"{mean_lat:.2f}", f"{max(lat):.2f}" if lat else "-",
            f"{r['ok']}/{r['total']}",
            f"{r['ok'] / r['total'] * 100:.1f}%",
            r["repairs"], int(r["rpc_retries"]), int(r["rpc_timeouts"]),
        ))
    report(
        "BENCH-FD",
        "heartbeat failure detection vs the instant-crash oracle under "
        "Poisson provider churn (up to 4 crashes, 40 s recovery, 12 providers)",
        ["mode", "crashes", "mean detect s", "max detect s",
         "appends ok", "availability", "repairs", "rpc retries",
         "rpc timeouts"],
        rows,
        notes=[
            f"detector: period {PERIOD_S} s, timeout {TIMEOUT_S} s, "
            f"{CONFIRM_MISSES} misses to confirm -> expected latency "
            f"~{TIMEOUT_S + (CONFIRM_MISSES - 1) * PERIOD_S:.0f}-"
            f"{TIMEOUT_S + CONFIRM_MISSES * PERIOD_S:.0f} s",
            "repair is detection-gated: no repair traffic before the "
            "first confirmation",
        ],
        stats=grid["detector"]["stats"],
    )

    det = grid["detector"]
    # Detection happened, took strictly positive time, and is bounded by
    # the configured period/timeout/confirm window (+1 period of phase).
    assert det["crashes"] >= 1
    assert len(det["latencies"]) >= 1
    assert all(lat > 0.0 for lat in det["latencies"])
    bound = TIMEOUT_S + CONFIRM_MISSES * PERIOD_S + PERIOD_S
    assert all(lat <= bound for lat in det["latencies"])
    # Repair begins only after detection.
    if det["first_repair"] is not None:
        assert det["first_repair"] >= det["first_confirm"]
        assert det["first_repair"] > det["first_crash"]
    # The oracle mode never times out or retries (no timeouts configured).
    assert grid["oracle"]["rpc_retries"] == 0
    assert grid["oracle"]["rpc_timeouts"] == 0
    # Clients stayed mostly available through churn in both modes.
    for mode in ("oracle", "detector"):
        r = grid[mode]
        assert r["ok"] / r["total"] >= 0.7
