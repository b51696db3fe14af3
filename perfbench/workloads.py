"""The benchmark's four workloads, built with the public ``build_*_scenario``
functions of ``repro.workloads.scenarios``.

Each workload is a fixed amount of simulated work: a fixed number of
client operations, or a fixed simulated horizon.  Every simulated client
is closed-loop (it waits for each reply before its next request).  The
seed is the only input; every random stream derives from it.

Why each workload exists, and which layer it stresses, is written in
``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from typing import Dict, List

from repro.workloads.scenarios import (
    build_disturbance_scenario,
    build_dos_scenario,
    build_fanout_scenario,
    build_write_scenario,
)

from checks import segment_tree_violations, writer_blob_violations

__all__ = ["WORKLOADS", "Workload", "latency_summary"]

DATA_OPS = ("append", "write", "read")


def latency_summary(durations: List[float]) -> Dict[str, float]:
    """Median and tail of *durations* (nearest rank).

    The tail is p99 when at least ten samples lie beyond it, otherwise
    the highest percentile that still has ten samples beyond it.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 0.0}
    p50 = ordered[max(0, math.ceil(0.5 * n) - 1)]
    if n <= 10:
        return {"n": n, "p50": p50, "tail": ordered[-1], "tail_pct": 100.0}
    q = min(0.99, (n - 10) / n)
    rank = math.ceil(q * n - 1e-9)
    return {"n": n, "p50": p50, "tail": ordered[rank - 1],
            "tail_pct": round(100.0 * q, 2)}


class Workload:
    """One benchmark workload: set-up, a measured phase, and its outputs."""

    name = ""
    #: Client operation kind the end-to-end latency metrics describe.
    op_kind = "write"

    def __init__(self) -> None:
        self.scenario = None
        self.phase_start = 0.0

    # -- lifecycle ----------------------------------------------------------------
    def setup(self, seed: int) -> None:
        """Build the testbed and deployment, attach stacks, preload."""
        raise NotImplementedError

    def run(self) -> None:
        """The measured phase."""
        raise NotImplementedError

    @property
    def deployment(self):
        return self.scenario.deployment

    @property
    def env(self):
        return self.scenario.deployment.env

    def benign_clients(self) -> list:
        raise NotImplementedError

    # -- outputs -------------------------------------------------------------------
    def ops(self) -> list:
        """Benign data operations finished in the measured phase."""
        return [op for client in self.benign_clients() for op in client.history
                if op.op in DATA_OPS and op.started_at >= self.phase_start]

    def end_to_end_sim(self) -> Dict[str, float]:
        """Simulated end-to-end figures of the benign operations."""
        ops = self.ops()
        done = [op for op in ops if op.ok]
        lat = latency_summary([op.duration_s for op in done])
        elapsed = self.env.now - self.phase_start
        mb = sum(op.size_mb for op in done)
        return {
            "op_p50_sim_s": lat["p50"],
            "op_tail_sim_s": lat["tail"],
            "op_tail_pct": lat["tail_pct"],
            "op_samples": lat["n"],
            "op_mbps_sim": mb / elapsed if elapsed > 0 else 0.0,
            "attempted": len(ops),
            "failed": len(ops) - len(done),
        }

    def outcome(self) -> Dict[str, float]:
        """Workload-specific simulated outcomes (self-* results)."""
        return {}

    def observables(self) -> str:
        """Canonical JSON of every simulated observable of the run."""
        return self.scenario.observables()

    def digest(self) -> str:
        return hashlib.sha256(self.observables().encode()).hexdigest()

    def violations(self) -> List[str]:
        clients = list(self.deployment.clients.values())
        return segment_tree_violations(self.deployment, clients)

    def counters(self) -> Dict[str, float]:
        """Cumulative counters the layers expose (diffed around the run)."""
        d = self.deployment
        net = d.net
        out: Dict[str, float] = {
            "events": self.env.events_processed,
            "reallocations": net.reallocations,
            "realloc_flow_slots": net.realloc_flow_slots,
            "blackholed": net.blackholed_transfers,
            "meta_puts": sum(p.puts for p in d.metadata_providers),
            "meta_gets": sum(p.gets for p in d.metadata_providers),
            "pm_allocations": sum(pm.allocations for pm in d.pm_shards),
            "vm_batches": 0,
            "vm_batched_ops": 0,
            "cache_evictions": 0,
        }
        for vm in d.authority_vms():
            if vm.batch_gate is not None:
                out["vm_batches"] += vm.batch_gate.batches
                out["vm_batched_ops"] += vm.batch_gate.batched_ops
        for kind in ("chunk", "meta", "provider"):
            out[f"cache_{kind}_hits"] = 0
            out[f"cache_{kind}_lookups"] = 0
        for cache in d.caches:
            kind = cache.name.split(".", 1)[0]
            out[f"cache_{kind}_hits"] += cache.stats.hits
            out[f"cache_{kind}_lookups"] += cache.stats.lookups
            out["cache_evictions"] += cache.stats.evictions
        monitoring = getattr(self.scenario, "monitoring", None)
        out["mon_emitted"] = monitoring.events_emitted if monitoring else 0
        out["mon_dropped"] = (monitoring.repository.dropped_count
                              if monitoring else 0)
        security = getattr(self.scenario, "security", None)
        out["sec_scans"] = security.engine.scans if security else 0
        out["sec_pulled"] = security.source.pulled if security else 0
        tuner = getattr(self.scenario, "tuner", None)
        out["dec_steps"] = tuner.steps if tuner else 0
        out["dec_decisions"] = tuner.decisions_total if tuner else 0
        return out


def _client_observables(deployment, clients, extra: dict) -> str:
    env = deployment.env
    payload = {
        "end": env.now,
        "events": env.events_processed,
        "completions": [
            [c.client_id,
             [[op.op, op.blob_id, round(op.size_mb, 6),
               round(op.started_at, 9), round(op.finished_at, 9),
               op.ok, op.version]
              for op in c.history]]
            for c in clients
        ],
        "control_plane": deployment.control_plane_stats(),
        "pool": deployment.storage_stats(),
        "reallocations": deployment.net.reallocations,
        **extra,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _ClosedWriters(Workload):
    """Writers that each append a fixed number of times to their own blob;
    the measured phase ends when the last one finishes."""

    def run(self) -> None:
        self.scenario.run()

    def benign_clients(self) -> list:
        return [w.client for w in self.scenario.writers]

    def violations(self) -> List[str]:
        return (super().violations()
                + writer_blob_violations(self.deployment,
                                         self.scenario.writers))


class MetaWrite(_ClosedWriters):
    """Many writers, each appending 1 MB single-chunk writes to its own
    blob through the sharded, group-committed control plane."""

    name = "meta-write"
    writers = 200
    ops_per_writer = 5

    def setup(self, seed: int) -> None:
        self.scenario = build_fanout_scenario(
            self.writers, ops_per_writer=self.ops_per_writer,
            vm_shards=4, pm_shards=4, vm_batch=True, seed=seed,
        )
        # build_fanout_scenario spaces arrivals evenly over one second;
        # the seed jitters each writer within its slot.
        rng = random.Random(seed)
        slot = 1.0 / self.writers
        for writer in self.scenario.writers:
            writer.start_at += rng.uniform(0.0, slot)


class BulkWrite(_ClosedWriters):
    """The §IV-B write experiment: 1 GB appends in 64 MB chunks to 150
    providers, with the monitoring stack attached."""

    name = "bulk-write"
    clients = 50
    ops_per_client = 2

    def setup(self, seed: int) -> None:
        self.scenario = build_write_scenario(
            self.clients, ops_per_client=self.ops_per_client, seed=seed,
        )
        # Nothing in this deployment draws from the seed (round-robin
        # placement, fixed sizes), so the seed sets the arrival times.
        rng = random.Random(seed)
        for writer in self.scenario.writers:
            writer.start_at = rng.uniform(0.0, 2.0)

    def observables(self) -> str:
        return _client_observables(
            self.deployment, self.benign_clients(),
            {"monitoring": self.scenario.monitoring.stats()},
        )


class AdaptRead(Workload):
    """Zipf hot-spot reads through client and provider caches under the
    framework cache tuner, hit by a hot-set shift."""

    name = "adapt-read"
    op_kind = "read"
    readers = 36
    shift_at_s = 45.0
    duration_s = 90.0

    def setup(self, seed: int) -> None:
        # Provider churn stays off: a crash aborts the reads in flight on
        # the crashed providers, and the benchmark's workloads are chosen
        # so that no operation fails.
        self.scenario = build_disturbance_scenario(
            readers=self.readers, shift_at=self.shift_at_s,
            duration=self.duration_s, churn_providers=0,
            planner="marginal-utility", with_journal=True, seed=seed,
        )
        self.scenario.preload()

    def run(self) -> None:
        self.phase_start = self.env.now
        self.scenario.run()

    def benign_clients(self) -> list:
        return [r.client for r in self.scenario.readers]

    def outcome(self) -> Dict[str, float]:
        fleet = self.scenario.scorecard()["fleet"]
        return {"slo_violation_sim_s": fleet["slo_violation_s"],
                "decision_oscillations": fleet["oscillations"]}

    def violations(self) -> List[str]:
        problems = super().violations()
        delivered = self.scenario.total_read_mb()
        acknowledged = sum(op.size_mb for op in self.ops() if op.ok)
        counted = sum(r.chunk_size_mb * sum(r.chunk_reads.values())
                      for r in self.scenario.readers)
        if abs(delivered - acknowledged) > 1e-6 or abs(delivered - counted) > 1e-6:
            problems.append(f"delivered {delivered} MB, acknowledged reads "
                            f"{acknowledged} MB, chunks read {counted} MB")
        return problems


class DosProtect(Workload):
    """The §IV-C attack: 20 clients, half of them flooding the version
    manager with small appends, under monitoring and the security
    framework."""

    name = "dos-protect"
    horizon_s = 30.0

    def setup(self, seed: int) -> None:
        # A faster detection loop than build_dos_scenario's defaults keeps one
        # run short; attacks start within one second of each other so the
        # flood's length, and with it the work per run, varies little
        # from seed to seed.
        self.scenario = build_dos_scenario(
            20, 0.5, op_mb=128.0,
            attack_start=5.0, attack_stagger_s=1.0, attack_parallel=32,
            scan_interval_s=2.0, history_pull_interval_s=1.0,
            flush_interval_s=1.0, policy_window_s=10.0, seed=seed,
        )

    def run(self) -> None:
        self.scenario.run(until=self.horizon_s)

    def benign_clients(self) -> list:
        return [w.client for w in self.scenario.correct]

    def outcome(self) -> Dict[str, float]:
        delays = self.scenario.detection_delays()
        return {"detect_delay_sim_s":
                statistics.median(delays) if delays else 0.0}

    def observables(self) -> str:
        s = self.scenario
        return _client_observables(self.deployment, self.benign_clients(), {
            "detections": [round(t, 9) for t in s.detection_times()],
            "blocked": sorted(s.security.enforcement.blocked_clients()),
            "security": {k: v for k, v in s.security.summary().items()
                         if k != "blocked"},
            "monitoring": s.monitoring.stats(),
            "attackers": [[a.client.client_id, a.ops_issued, a.ops_completed]
                          for a in s.attackers],
        })

    def violations(self) -> List[str]:
        problems = super().violations()
        attackers = {a.client.client_id for a in self.scenario.attackers}
        sanctioned = set(self.scenario.security.enforcement.blocked_clients())
        # What actually gates operations is the access table.
        blocked = {cid for cid in self.deployment.clients
                   if self.scenario.access.is_blocked(cid)}
        for name, found in (("sanctioned", sanctioned), ("blocked", blocked)):
            if found != attackers:
                problems.append(f"{name} {sorted(found)} != attackers "
                                f"{sorted(attackers)}")
        return problems


WORKLOADS = {w.name: w for w in (MetaWrite, BulkWrite, AdaptRead, DosProtect)}
