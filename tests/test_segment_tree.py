"""Unit + property tests for the copy-on-write segment-tree metadata."""

from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.blob import ChunkDescriptor
from repro.blobseer.metadata import LocalKV
from repro.blobseer.segment_tree import (
    node_key,
    tree_node_count,
    tree_query,
    tree_update,
)


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

    def get_many(self, keys):
        self.calls.append(("get_many", len(keys)))
        return (yield from super().get_many(keys))

    def put_many(self, items):
        self.calls.append(("put_many", len(items)))
        return (yield from super().put_many(items))


def test_single_write_and_query():
    kv = LocalKV()
    descs = make_descriptors(1, 0, 4)
    drain(tree_update(kv, 1, 1, None, descs, capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 0, 4, capacity=CAP))
    assert sorted(result) == [0, 1, 2, 3]
    assert result[2].storage_key == "b1.w1.c2"


def test_query_subrange():
    kv = LocalKV()
    drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, 8), capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 2, 5, capacity=CAP))
    assert sorted(result) == [2, 3, 4]


def test_holes_are_absent():
    kv = LocalKV()
    drain(tree_update(kv, 1, 1, None, make_descriptors(1, 4, 2), capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 0, CAP, capacity=CAP))
    assert sorted(result) == [4, 5]


def test_cow_versioning_preserves_old_version():
    kv = LocalKV()
    v1 = make_descriptors(1, 0, 4, version=1)
    drain(tree_update(kv, 1, 1, None, v1, capacity=CAP))
    v2 = make_descriptors(1, 2, 2, version=2)
    drain(tree_update(kv, 1, 2, 1, v2, capacity=CAP))

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
    prev = None
    for version in range(1, 5):
        descs = make_descriptors(1, (version - 1) * 2, 2, version=version)
        drain(tree_update(kv, 1, version, prev, descs, capacity=CAP))
        prev = version
    result = drain(tree_query(kv, 1, 4, 0, 8, capacity=CAP))
    assert sorted(result) == list(range(8))
    for i in range(8):
        assert result[i].storage_key == f"b1.w{i // 2 + 1}.c{i}"


def test_update_write_count_is_bounded():
    kv = LocalKV()
    span = 4
    writes = drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, span), capacity=CAP))
    assert writes <= tree_node_count(span, CAP)


def test_shared_subtrees_not_rewritten():
    kv = LocalKV()
    drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, CAP), capacity=CAP))
    before = len(kv)
    # Touch a single chunk: only one root-to-leaf path is rewritten.
    drain(tree_update(kv, 1, 2, 1, make_descriptors(1, 7, 1, version=2), capacity=CAP))
    path_length = CAP.bit_length()  # log2(CAP) + 1 nodes
    assert len(kv) - before == path_length


def test_update_is_one_get_batch_per_level_and_one_put_batch():
    kv = CountingKV()
    drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, CAP), capacity=CAP))
    kv.calls.clear()
    # Overwrite [3, 11): two borders on most levels, all fetched level by level.
    puts = drain(tree_update(kv, 1, 2, 1, make_descriptors(1, 3, 8, version=2),
                             capacity=CAP))
    depth = CAP.bit_length() - 1
    gets = [n for op, n in kv.calls if op == "get_many"]
    assert len(gets) == depth  # one batch per internal level
    assert max(gets) == 2  # at most the two border nodes of a level
    assert kv.calls[-1] == ("put_many", puts)
    assert [op for op, _n in kv.calls].count("put_many") == 1
    assert not any(op in ("get", "put") for op, _n in kv.calls)


def test_non_contiguous_descriptors_rejected():
    kv = LocalKV()
    descs = make_descriptors(1, 0, 1)
    descs.update(make_descriptors(1, 3, 1))
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, None, descs, capacity=CAP))


def test_empty_update_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, None, {}, capacity=CAP))


def test_out_of_capacity_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, None, make_descriptors(1, CAP, 1), capacity=CAP))


def test_bad_capacity_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, 1), capacity=13))


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
    reference = {}  # version -> {index: storage_key}
    current = {}
    prev = None
    for version, (first, count) in enumerate(writes, start=1):
        descs = make_descriptors(1, first, count, version=version)
        drain(tree_update(kv, 1, version, prev, descs, capacity=CAP))
        current = dict(current)
        for index, descriptor in descs.items():
            current[index] = descriptor.storage_key
        reference[version] = current
        prev = version

    for version, expected in reference.items():
        got = drain(tree_query(kv, 1, version, 0, CAP, capacity=CAP))
        assert {i: d.storage_key for i, d in got.items()} == expected


# -- property-based: the planner stores exactly what the recursion stored ------
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_planned_update_matches_recursive_reference(data):
    """Appends, overwrites and arbitrary ranges (holes included) over
    capacities 2..64 leave identical KV contents and put counts."""
    capacity = 1 << data.draw(st.integers(1, 6), label="log2(capacity)")
    planned, reference = LocalKV(), LocalKV()
    size = 0  # chunks below the highest written index
    prev = None
    for version in range(1, data.draw(st.integers(1, 10), label="writes") + 1):
        kind = data.draw(st.sampled_from(["append", "overwrite", "range"]))
        if kind == "append" and size < capacity:
            first, limit = size, capacity
        elif kind == "overwrite" and size > 0:
            first = data.draw(st.integers(0, size - 1))
            limit = size
        else:
            first, limit = data.draw(st.integers(0, capacity - 1)), capacity
        count = data.draw(st.integers(1, limit - first))
        descs = make_descriptors(1, first, count, version=version)
        puts = drain(tree_update(planned, 1, version, prev, descs, capacity=capacity))
        expected = drain(reference_update(reference, 1, version, prev, descs, capacity))
        assert puts == expected
        assert planned.data == reference.data
        size = max(size, first + count)
        prev = version
