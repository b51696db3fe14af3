"""Satellite tests: the client write path survives a provider crashing
mid-push by re-placing the chunk on a fresh provider."""

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import FaultInjector, TestbedConfig


def make_deployment(replication=1, **overrides):
    defaults = dict(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=64.0,
        replication=replication,
        testbed=TestbedConfig(seed=19),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def run_write_with_crash(dep, crash_delay=0.2, size_mb=64.0):
    """Append one op, crashing the first provider to receive data
    *crash_delay* seconds into the push.  Returns (result, victim)."""
    env = dep.env
    client = dep.new_client("c1")
    state = {}

    def scenario():
        blob_id = yield env.process(client.create_blob(64.0))
        state["blob"] = blob_id
        append = env.process(client.append(blob_id, size_mb))
        yield env.timeout(crash_delay)
        # Crash whichever provider is mid-ingest right now.
        receiving = {
            f.dst.name for f in dep.net.flows
            if f.src.name == client.node.name and f.size > 1.0
        }
        assert receiving, "expected an in-flight chunk push"
        victim = next(
            p for p in dep.providers.values() if p.node.name in receiving
        )
        state["victim"] = victim
        FaultInjector(dep.testbed).crash_at(victim.node, at=env.now)
        state["result"] = yield append

    process = env.process(scenario())
    dep.run(until=process)
    return state


def test_write_replaces_chunk_after_midpush_crash():
    dep = make_deployment(replication=1)
    state = run_write_with_crash(dep)
    result, victim = state["result"], state["victim"]

    assert result.ok
    assert victim.chunks == {}  # crashed before the chunk committed
    # The chunk landed somewhere else, with its replica list scrubbed.
    directory = {}
    for provider in dep.providers.values():
        directory.update(provider.chunks)
    assert len(directory) == 1
    descriptor = next(iter(directory.values()))
    assert victim.provider_id not in descriptor.replicas
    assert len(descriptor.replicas) == 1


def test_written_version_reads_back_intact():
    dep = make_deployment(replication=1)
    state = run_write_with_crash(dep)
    env = dep.env
    reader = dep.new_client("r1")

    def check(env):
        result = yield env.process(reader.read(state["blob"], 0.0, 64.0))
        return result

    process = env.process(check(env))
    dep.run(until=process)
    read_result = process.value
    assert read_result.ok
    assert read_result.size_mb == 64.0


def test_replicated_write_heals_to_full_degree():
    dep = make_deployment(replication=2)
    state = run_write_with_crash(dep)
    result, victim = state["result"], state["victim"]

    assert result.ok
    directory = {}
    for provider in dep.providers.values():
        directory.update(provider.chunks)
    descriptor = next(iter(directory.values()))
    # Both replicas live, neither on the crashed provider.
    assert len(descriptor.replicas) == 2
    assert victim.provider_id not in descriptor.replicas
    for pid in descriptor.replicas:
        assert dep.providers[pid].available
        assert descriptor.storage_key in dep.providers[pid].chunks


def test_write_retry_works_under_failure_detector():
    """Same crash, but with black-hole semantics + client rpc timeouts:
    the dead provider refuses new ingests, the push is re-placed, and
    the write still completes before the detector even confirms."""
    dep = make_deployment(replication=1, chunk_size_mb=64.0)
    dep.attach_failure_detector(period_s=1.0, timeout_s=3.0)
    state = run_write_with_crash(dep)
    assert state["result"].ok
    directory = {}
    for provider in dep.providers.values():
        directory.update(provider.chunks)
    descriptor = next(iter(directory.values()))
    assert state["victim"].provider_id not in descriptor.replicas


def test_metadata_provider_crash_abandons_append_then_next_append_chains():
    from repro.blobseer.segment_tree import tree_query
    from repro.cluster.node import NodeDownError

    dep = make_deployment()
    env = dep.env
    client = dep.new_client("c1")
    meta_node = dep.metadata_providers[0].node
    state = {}

    def scenario():
        blob_id = yield env.process(client.create_blob(64.0))
        state["blob"] = blob_id
        yield env.process(client.append(blob_id, 128.0))  # v1: chunks 0, 1
        append = env.process(client.append(blob_id, 64.0))
        yield env.timeout(0.2)
        assert any(f.src.name == client.node.name and f.size > 1.0
                   for f in dep.net.flows), "expected an in-flight chunk push"
        meta_node.fail()  # before the append reaches its metadata write
        try:
            yield append
        except NodeDownError as exc:
            state["error"] = exc
        meta_node.recover()
        state["next"] = yield env.process(client.append(blob_id, 64.0))
        state["read"] = yield env.process(client.read(blob_id, 0.0, 192.0))
        state["tree"] = yield from tree_query(
            client.meta, blob_id, state["next"].version, 0, 4,
            capacity=dep.vmanager.tree_capacity,
        )

    dep.run(until=env.process(scenario()))
    blob_id = state["blob"]
    assert isinstance(state["error"], NodeDownError)
    assert dep.vmanager.blob_info(blob_id).versions[2].abandoned
    assert state["next"].ok and state["next"].version == 3
    assert dep.vmanager.latest(blob_id)[:2] == (3, 192.0)
    assert state["read"].ok
    # v3 inherits v1's chunks: it chained onto the latest published
    # version, not onto the abandoned v2 (which has no tree).
    tree = state["tree"]
    assert sorted(tree) == [0, 1, 2]
    assert [tree[i].version for i in range(3)] == [1, 1, 3]
