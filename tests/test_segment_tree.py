"""Unit + property tests for the copy-on-write segment-tree metadata."""

from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.blob import ChunkDescriptor
from repro.blobseer.metadata import LocalKV
from repro.blobseer.segment_tree import (
    border_children,
    node_key,
    tree_node_count,
    tree_query,
    tree_update,
)
from repro.blobseer.version_manager import VersionManager
from repro.cluster import Testbed, TestbedConfig


def drain(generator):
    """Run a KV-generator to completion synchronously (LocalKV yields nothing)."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def make_descriptors(blob_id, first, count, version=1):
    return {
        first + i: ChunkDescriptor(
            blob_id=blob_id,
            storage_key=f"b{blob_id}.w{version}.c{first + i}",
            size_mb=64.0,
            replicas=["p0"],
        )
        for i in range(count)
    }


CAP = 16  # small capacity for readable tests


class Writer:
    """Writes blob 1 the way a client does: ticket from a real version
    manager (chunk size 1 MB, so offsets are chunk indices), tree nodes
    from the ticket's border stamps, then publish."""

    def __init__(self, kv, capacity=CAP):
        self.kv = kv
        self.capacity = capacity
        node = Testbed(TestbedConfig(seed=1)).add_node("vm")
        self.vm = VersionManager(node, tree_capacity=capacity)
        self.blob_id = self.vm.create_blob(1.0)

    def ticket(self, first, count):
        return self.vm._issue_ticket(self.blob_id, float(count), "w", float(first))

    def write(self, first, count):
        """Write and publish chunks [first, first+count); returns the
        (version, descriptors, nodes stored)."""
        ticket = self.ticket(first, count)
        descs = make_descriptors(self.blob_id, first, count, version=ticket.version)
        stored = drain(tree_update(self.kv, self.blob_id, ticket.version,
                                   ticket.border_stamps, descs,
                                   capacity=self.capacity))
        self.vm._publish(self.blob_id, ticket.version)
        return ticket.version, descs, stored


# -- reference writer: the depth-first recursion tree_update replaced ---------
def reference_update(kv, blob_id, version, prev_version, descriptors, capacity):
    """Generator: store *version*'s nodes one blocking put at a time,
    fetching each partially covered predecessor just before its children.
    Returns the number of puts."""
    lo_w = min(descriptors)
    hi_w = max(descriptors) + 1
    return (yield from _update_node(
        kv, blob_id, version, prev_version, 0, capacity, descriptors, lo_w, hi_w
    ))


def _update_node(
    kv,
    blob_id: int,
    version: int,
    prev_stamp: Optional[int],
    lo: int,
    hi: int,
    descriptors: Dict[int, ChunkDescriptor],
    lo_w: int,
    hi_w: int,
):
    """Recursively write the subtree [lo, hi); returns KV put count."""
    if hi - lo == 1:
        descriptor = descriptors[lo]
        yield from kv.put(node_key(blob_id, version, lo, hi), ("leaf", descriptor))
        return 1

    mid = (lo + hi) // 2
    # Child stamps from the previous version of this node (if any).
    # When the write covers this whole subtree both children are about to
    # be rewritten, so the old node need not be fetched.
    left_stamp: Optional[int] = None
    right_stamp: Optional[int] = None
    fully_covered = lo_w <= lo and hi <= hi_w
    if prev_stamp is not None and not fully_covered:
        prev = yield from kv.get(node_key(blob_id, prev_stamp, lo, hi))
        if prev is not None:
            _tag, left_stamp, right_stamp = prev

    writes = 0
    if lo_w < mid:  # write range intersects the left child
        writes += yield from _update_node(
            kv, blob_id, version, left_stamp, lo, mid,
            descriptors, lo_w, min(hi_w, mid),
        )
        left_stamp = version
    if hi_w > mid:  # intersects the right child
        writes += yield from _update_node(
            kv, blob_id, version, right_stamp, mid, hi,
            descriptors, max(lo_w, mid), hi_w,
        )
        right_stamp = version

    yield from kv.put(node_key(blob_id, version, lo, hi), ("node", left_stamp, right_stamp))
    return writes + 1


class CountingKV(LocalKV):
    """LocalKV that records every call the tree code makes."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def get(self, key):
        self.calls.append(("get", 1))
        return (yield from super().get(key))

    def put(self, key, value):
        self.calls.append(("put", 1))
        return (yield from super().put(key, value))

    def put_many(self, items):
        self.calls.append(("put_many", len(items)))
        return (yield from super().put_many(items))


def test_single_write_and_query():
    kv = LocalKV()
    descs = make_descriptors(1, 0, 4)
    drain(tree_update(kv, 1, 1, {}, descs, capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 0, 4, capacity=CAP))
    assert sorted(result) == [0, 1, 2, 3]
    assert result[2].storage_key == "b1.w1.c2"


def test_query_subrange():
    kv = LocalKV()
    drain(tree_update(kv, 1, 1, {}, make_descriptors(1, 0, 8), capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 2, 5, capacity=CAP))
    assert sorted(result) == [2, 3, 4]


def test_holes_are_absent():
    kv = LocalKV()
    drain(tree_update(kv, 1, 1, {}, make_descriptors(1, 4, 2), capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 0, CAP, capacity=CAP))
    assert sorted(result) == [4, 5]


def test_cow_versioning_preserves_old_version():
    kv = LocalKV()
    writer = Writer(kv)
    writer.write(0, 4)
    writer.write(2, 2)

    # Old version still reads the original chunks.
    old = drain(tree_query(kv, 1, 1, 0, 4, capacity=CAP))
    assert old[2].storage_key == "b1.w1.c2"
    # New version sees the overwrite in [2,4) and inherits [0,2).
    new = drain(tree_query(kv, 1, 2, 0, 4, capacity=CAP))
    assert new[0].storage_key == "b1.w1.c0"
    assert new[2].storage_key == "b1.w2.c2"
    assert new[3].storage_key == "b1.w2.c3"


def test_append_chain_of_versions():
    kv = LocalKV()
    writer = Writer(kv)
    for version in range(1, 5):
        writer.write((version - 1) * 2, 2)
    result = drain(tree_query(kv, 1, 4, 0, 8, capacity=CAP))
    assert sorted(result) == list(range(8))
    for i in range(8):
        assert result[i].storage_key == f"b1.w{i // 2 + 1}.c{i}"


def test_update_write_count_is_bounded():
    kv = LocalKV()
    span = 4
    writes = drain(tree_update(kv, 1, 1, {}, make_descriptors(1, 0, span), capacity=CAP))
    assert writes <= tree_node_count(span, CAP)


def test_shared_subtrees_not_rewritten():
    kv = LocalKV()
    writer = Writer(kv)
    writer.write(0, CAP)
    before = len(kv)
    # Touch a single chunk: only one root-to-leaf path is rewritten.
    writer.write(7, 1)
    path_length = CAP.bit_length()  # log2(CAP) + 1 nodes
    assert len(kv) - before == path_length


def test_update_reads_nothing_and_stores_one_put_batch():
    kv = CountingKV()
    writer = Writer(kv)
    _version, _descs, stored = writer.write(0, CAP)
    assert kv.calls == [("put_many", stored)]
    kv.calls.clear()
    # Overwrite [3, 11): two untouched border children on most levels,
    # every one of them stamped by the ticket instead of fetched.
    ticket = writer.ticket(3, 8)
    assert set(ticket.border_stamps) == set(border_children(3, 11, CAP))
    assert set(ticket.border_stamps.values()) == {1}
    stored = drain(tree_update(kv, 1, ticket.version, ticket.border_stamps,
                               make_descriptors(1, 3, 8, version=2), capacity=CAP))
    assert kv.calls == [("put_many", stored)]


def test_border_children_are_the_untouched_children_of_rewritten_nodes():
    assert list(border_children(3, 11, CAP)) == [(12, 16), (0, 2), (2, 3), (11, 12)]
    assert list(border_children(0, CAP, CAP)) == []
    assert list(border_children(0, 1, 2)) == [(1, 2)]


def test_non_contiguous_descriptors_rejected():
    kv = LocalKV()
    descs = make_descriptors(1, 0, 1)
    descs.update(make_descriptors(1, 3, 1))
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, {}, descs, capacity=CAP))


def test_empty_update_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, {}, {}, capacity=CAP))


def test_out_of_capacity_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, {}, make_descriptors(1, CAP, 1), capacity=CAP))


def test_bad_capacity_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, {}, make_descriptors(1, 0, 1), capacity=13))


def test_query_range_validation():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_query(kv, 1, 1, 4, 2, capacity=CAP))


def test_node_key_uniqueness():
    keys = {
        node_key(b, v, lo, hi)
        for b in (1, 2)
        for v in (1, 2)
        for lo, hi in ((0, 8), (0, 4), (4, 8))
    }
    assert len(keys) == 12


# -- property-based: version isolation under arbitrary write sequences ---------
@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, CAP - 1), st.integers(1, CAP)).map(
            lambda t: (t[0], min(t[1], CAP - t[0]))
        ),
        min_size=1,
        max_size=8,
    )
)
def test_versions_match_reference_model(writes):
    """Each version's full-range query equals a naive dict-of-arrays model."""
    kv = LocalKV()
    writer = Writer(kv)
    reference = {}  # version -> {index: storage_key}
    current = {}
    for first, count in writes:
        version, descs, _stored = writer.write(first, count)
        current = dict(current)
        for index, descriptor in descs.items():
            current[index] = descriptor.storage_key
        reference[version] = current

    for version, expected in reference.items():
        got = drain(tree_query(kv, 1, version, 0, CAP, capacity=CAP))
        assert {i: d.storage_key for i, d in got.items()} == expected


# -- property-based: stamped writes store exactly what the recursion stored ---
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_planned_update_matches_recursive_reference(data):
    """Appends, overwrites, arbitrary ranges (holes included) and
    abandoned tickets over capacities 2..64: with border stamps from the
    version manager, the KV contents and put counts equal those of the
    recursion that fetched every predecessor node."""
    capacity = 1 << data.draw(st.integers(1, 6), label="log2(capacity)")
    planned, reference = LocalKV(), LocalKV()
    writer = Writer(planned, capacity)
    size = 0  # chunks below the highest written index
    prev = None  # latest published version
    for _ in range(data.draw(st.integers(1, 10), label="writes")):
        kind = data.draw(st.sampled_from(["append", "overwrite", "range", "abandon"]))
        if kind == "append" and size < capacity:
            first, limit = size, capacity
        elif kind == "overwrite" and size > 0:
            first = data.draw(st.integers(0, size - 1))
            limit = size
        else:
            first, limit = data.draw(st.integers(0, capacity - 1)), capacity
        count = data.draw(st.integers(1, limit - first))
        if kind == "abandon":
            ticket = writer.ticket(first, count)
            writer.vm.apply_abandon(writer.blob_id, ticket.version)
            continue
        version, descs, puts = writer.write(first, count)
        expected = drain(reference_update(reference, 1, version, prev, descs, capacity))
        assert puts == expected
        assert planned.data == reference.data
        size = max(size, first + count)
        prev = version
