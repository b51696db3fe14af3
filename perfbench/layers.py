"""Per-layer metrics of a traced run.

Counts (``*_per_op``, ``*_per_write``, ``*_passes`` ...) and simulated
means (``*_sim_s``) repeat exactly for a seed; ``*_self_s`` is wall time
spent in the layer's own frames (see ``tracing.py``).  A layer that does
not run on a workload reports 0.

Denominators: an *op* is a client data operation (append, write or
read, attackers' included); a *write* is a segment-tree update and a
*read* a segment-tree query.  Each workload's measured phase either
only updates trees or only queries them, so provider-side metadata gets
are charged to whichever of the two ran.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["PER_LAYER", "layer_metrics"]

#: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "engine.events_per_op": "count",
    "engine.self_s": "s",
    "client.self_s": "s",
    "network.messages_per_op": "count",
    "network.flows_per_op": "count",
    "network.transfer_s": "s",
    "network.solver_passes": "count",
    "network.solver_flow_slots": "count",
    "network.solver_s": "s",
    "network.blackholed": "count",
    "metadata.puts_per_write": "count",
    "metadata.gets_per_write": "count",
    "metadata.gets_per_read": "count",
    "metadata.update_sim_s": "sim_s",
    "metadata.query_sim_s": "sim_s",
    "metadata.self_s": "s",
    "version_manager.rpcs_per_write": "count",
    "version_manager.ticket_sim_s": "sim_s",
    "version_manager.publish_sim_s": "sim_s",
    "version_manager.batch_mean": "count",
    "version_manager.self_s": "s",
    "provider_manager.alloc_rpcs_per_write": "count",
    "provider_manager.alloc_sim_s": "sim_s",
    "provider_manager.self_s": "s",
    "provider.ingest_sim_s": "sim_s",
    "provider.serve_sim_s": "sim_s",
    "provider.self_s": "s",
    "cache.chunk_hit_rate": "ratio",
    "cache.metadata_hit_rate": "ratio",
    "cache.provider_hit_rate": "ratio",
    "cache.evictions": "count",
    "cache.self_s": "s",
    "monitoring.events_per_op": "count",
    "monitoring.dropped": "count",
    "monitoring.self_s": "s",
    "introspection.queries": "count",
    "introspection.self_s": "s",
    "decision.steps": "count",
    "decision.decisions": "count",
    "decision.oscillations": "count",
    "decision.slo_violation_sim_s": "sim_s",
    "decision.self_s": "s",
    "security.scans": "count",
    "security.history_events": "count",
    "security.detect_delay_sim_s": "sim_s",
    "security.self_s": "s",
    "telemetry.samples": "count",
    "telemetry.self_s": "s",
    "tracing.overhead_s": "s",
}

_VM_RPCS = ("VersionManager.remote_create_blob", "VersionManager.remote_ticket",
            "VersionManager.remote_complete", "VersionManager.remote_get_latest")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, before: Dict[str, float], after: Dict[str, float],
                  outcome: Dict[str, float], run_s: float) -> Dict[str, float]:
    """Every per-layer metric except ``tracing.overhead_s`` (which needs
    the untraced runs too)."""
    delta = {key: after[key] - before[key] for key in after}
    calls = tracer.calls
    self_s = tracer.self_s
    ops = (calls["BlobSeerClient.append"] + calls["BlobSeerClient.write"]
           + calls["BlobSeerClient.read"])
    writes = calls["tree_update"]
    reads = calls["tree_query"]
    gets = delta["meta_gets"]

    def hit_rate(kind: str) -> float:
        return _ratio(delta[f"cache_{kind}_hits"], delta[f"cache_{kind}_lookups"])

    return {
        "engine.events_per_op": _ratio(delta["events"], ops),
        "engine.self_s": run_s - sum(self_s.values()),
        "client.self_s": self_s["client"],
        "network.messages_per_op": _ratio(calls["FlowNetwork._deliver_message"], ops),
        "network.flows_per_op": _ratio(calls["FlowNetwork._admit"], ops),
        "network.transfer_s": self_s["network"],
        "network.solver_passes": delta["reallocations"],
        "network.solver_flow_slots": delta["realloc_flow_slots"],
        "network.solver_s": self_s["solver"],
        "network.blackholed": delta["blackholed"],
        "metadata.puts_per_write": _ratio(delta["meta_puts"], writes),
        "metadata.gets_per_write": 0.0 if reads else _ratio(gets, writes),
        "metadata.gets_per_read": 0.0 if writes else _ratio(gets, reads),
        "metadata.update_sim_s": tracer.mean_sim_s("tree_update"),
        "metadata.query_sim_s": tracer.mean_sim_s("tree_query"),
        "metadata.self_s": self_s["metadata"],
        "version_manager.rpcs_per_write": _ratio(
            sum(calls[name] for name in _VM_RPCS), writes),
        "version_manager.ticket_sim_s": tracer.mean_sim_s(
            "VersionManager.remote_ticket"),
        "version_manager.publish_sim_s": tracer.mean_sim_s(
            "VersionManager.remote_complete"),
        "version_manager.batch_mean": _ratio(delta["vm_batched_ops"],
                                             delta["vm_batches"]),
        "version_manager.self_s": self_s["version_manager"],
        "provider_manager.alloc_rpcs_per_write": _ratio(
            delta["pm_allocations"], writes),
        "provider_manager.alloc_sim_s": tracer.mean_sim_s(
            "ProviderManager.remote_allocate"),
        "provider_manager.self_s": self_s["provider_manager"],
        "provider.ingest_sim_s": tracer.mean_sim_s("DataProvider._ingest"),
        "provider.serve_sim_s": tracer.mean_sim_s("DataProvider._serve"),
        "provider.self_s": self_s["provider"],
        "cache.chunk_hit_rate": hit_rate("chunk"),
        "cache.metadata_hit_rate": hit_rate("meta"),
        "cache.provider_hit_rate": hit_rate("provider"),
        "cache.evictions": delta["cache_evictions"],
        "cache.self_s": self_s["cache"],
        "monitoring.events_per_op": _ratio(delta["mon_emitted"], ops),
        "monitoring.dropped": delta["mon_dropped"],
        "monitoring.self_s": self_s["monitoring"],
        "introspection.queries": (tracer.entries["introspection"]
                                  - calls["DecisionJournal.record_decision"]),
        "introspection.self_s": self_s["introspection"],
        "decision.steps": delta["dec_steps"],
        "decision.decisions": delta["dec_decisions"],
        "decision.oscillations": outcome.get("decision_oscillations", 0),
        "decision.slo_violation_sim_s": outcome.get("slo_violation_sim_s", 0.0),
        "decision.self_s": self_s["decision"],
        "security.scans": delta["sec_scans"],
        "security.history_events": delta["sec_pulled"],
        "security.detect_delay_sim_s": outcome.get("detect_delay_sim_s", 0.0),
        "security.self_s": self_s["security"],
        "telemetry.samples": calls["MetricsRegistry.sample"],
        "telemetry.self_s": self_s["telemetry"],
    }
