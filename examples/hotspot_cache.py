"""Hot-spot reads through the multi-tier caches and the cache tuner.

Runs the Zipf hot-spot scenario three times on the same seed:

1. caches off (the baseline — every read walks metadata + providers),
2. caches on at fixed capacities (client chunk + metadata tiers,
   provider memory-over-disk tier),
3. caches on but under-provisioned at the clients, with the adaptive
   cache tuner (:func:`~repro.decision.engines.build_cache_tuner`)
   reallocating capacity live.

Prints aggregate read throughput for each mode, per-tier hit rates, the
tuner's decisions and its capacity timeline (watch the thrashing reader
caches grow while the idle writer cache drains to the floor).

Run:  python examples/hotspot_cache.py
"""

from repro.workloads import build_hotspot_scenario

SEED = 11


def run(label, **kwargs):
    scenario = build_hotspot_scenario(
        readers=6, dataset_chunks=48, chunk_size_mb=8.0,
        reads_per_client=120, seed=SEED, **kwargs,
    )
    scenario.run()
    print(f"{label:10s} aggregate read throughput: "
          f"{scenario.aggregate_read_throughput():8.1f} MB/s")
    return scenario


def tier_summary(scenario, prefix):
    tiers = [c for c in scenario.deployment.caches if c.name.startswith(prefix)]
    lookups = sum(c.stats.lookups for c in tiers)
    hits = sum(c.stats.hits for c in tiers)
    return hits / lookups if lookups else 0.0, lookups


def main() -> None:
    run("off")
    on = run("on", with_caches=True)
    tuned = run("tuned", with_caches=True, chunk_cache_mb=16.0,
                with_tuner=True, tuner_interval_s=0.5)

    print("\n== Fixed-capacity tiers (mode: on) ==")
    for prefix, label in (("chunk.", "client chunk"),
                          ("meta.", "client metadata"),
                          ("provider.", "provider memory")):
        rate, lookups = tier_summary(on, prefix)
        print(f"{label:18s} hit rate {rate * 100:5.1f}%  ({lookups} lookups)")

    tuner = tuned.tuner
    print(f"\n== Cache tuner: {len(tuner.decisions)} decisions ==")
    for decision in tuner.decisions[:6]:
        d = decision.detail
        print(f"[{decision.time:6.1f}s] {decision.action:12s} "
              f"{d['cache']:24s} {d['from_mb']:6.1f} -> {d['to_mb']:6.1f} MB")
    if len(tuner.decisions) > 6:
        print(f"... {len(tuner.decisions) - 6} more")

    print("\n== Capacity timeline (MB) ==")
    first_t, first = tuner.capacity_timeline[0]
    last_t, last = tuner.capacity_timeline[-1]
    moved = [n for n in sorted(first) if abs(first[n] - last[n]) > 1e-9]
    for name in moved:
        print(f"{name:24s} {first[name]:7.1f} @ {first_t:.1f}s"
              f"  ->  {last[name]:7.1f} @ {last_t:.1f}s")


if __name__ == "__main__":
    main()
