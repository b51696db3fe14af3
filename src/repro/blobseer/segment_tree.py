"""Copy-on-write segment-tree metadata, as in BlobSeer.

Each BLOB version is described by a binary tree over chunk indices
``[0, capacity)``.  Writing version *v* over chunk range ``[a, b)``
creates new tree nodes only along the paths covering that range; subtrees
untouched by the write are *shared* with the previous version by storing
the version stamp at which each child was last written.  This yields
O(span + log capacity) metadata writes per update and lets any number of
readers traverse old versions concurrently with writers — the property
BlobSeer's heavy-concurrency results rest on.

Node encoding in the KV store (see :mod:`repro.blobseer.metadata`):

- internal node at ``(blob, v, lo, hi)`` → ``("node", left_stamp, right_stamp)``
  where a stamp is the version at which that child subtree was last
  written, or ``None`` if never written;
- leaf at ``(blob, v, i, i+1)`` → ``("leaf", ChunkDescriptor)``.

An update reads nothing: the version manager, which publishes every
version and so knows the whole tree shape, hands the writer's ticket the
stamps of the untouched children of the write's border nodes (at most
two per level, see :func:`border_children`).  The writer builds every
new node in memory from those stamps and stores them all with one
``put_many`` — one request per metadata provider.  A query walks the
tree depth first, one ``get`` per node.

:func:`tree_update` and :func:`tree_query` are generators so that every
KV access can be a real (simulated) network operation; run them with
``yield from`` inside a process, or drain them synchronously against
:class:`LocalKV` in tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .blob import ChunkDescriptor

__all__ = [
    "node_key",
    "DEFAULT_CAPACITY",
    "written_nodes",
    "border_children",
    "tree_update",
    "tree_query",
    "tree_node_count",
]

#: Default maximum chunks per blob (2**20 chunks; at 64 MB each = 64 TB).
DEFAULT_CAPACITY = 1 << 20


def node_key(blob_id: int, version: int, lo: int, hi: int) -> str:
    """KV key of the tree node covering chunk interval [lo, hi)."""
    return f"m:{blob_id}:{version}:{lo}:{hi}"


def _check_capacity(capacity: int) -> None:
    if capacity < 1 or (capacity & (capacity - 1)) != 0:
        raise ValueError(f"capacity must be a power of two, got {capacity}")


def written_nodes(first: int, last: int, capacity: int) -> Iterator[Tuple[int, int]]:
    """Intervals ``(lo, hi)`` of every node a write over chunks
    ``[first, last)`` rewrites, level by level from the root down to the
    leaves: each node whose interval intersects the write."""
    size = capacity
    while size >= 1:
        for lo in range(first - first % size, last, size):
            yield lo, lo + size
        size //= 2


def border_children(first: int, last: int, capacity: int) -> Iterator[Tuple[int, int]]:
    """Intervals of the children a write over ``[first, last)`` leaves
    untouched under the nodes it rewrites.

    Only the outermost rewritten node of a level can have such a child:
    a left child ending at or before *first*, or a right child starting
    at or after *last* — at most two per level.  Their stamps are what a
    writer inherits from the previous version.
    """
    size = capacity
    while size > 1:
        half = size // 2
        left = first - first % size
        if left + half <= first:
            yield left, left + half
        right = (last - 1) - (last - 1) % size
        if right + half >= last:
            yield right + half, right + size
        size = half


def tree_update(
    kv,
    blob_id: int,
    version: int,
    border_stamps: Dict[Tuple[int, int], int],
    descriptors: Dict[int, ChunkDescriptor],
    capacity: int = DEFAULT_CAPACITY,
):
    """Generator: write the tree nodes for *version*.

    *descriptors* maps absolute chunk index → descriptor for every chunk
    written by this version.  *border_stamps* maps each untouched border
    child's interval (:func:`border_children`) to the version that last
    wrote under it; a child absent from it was never written.

    Returns the number of tree nodes stored.
    """
    _check_capacity(capacity)
    if not descriptors:
        raise ValueError("update with no chunks")
    lo_w = min(descriptors)
    hi_w = max(descriptors) + 1
    if lo_w < 0 or hi_w > capacity:
        raise ValueError(f"chunk range [{lo_w},{hi_w}) outside capacity {capacity}")
    if len(descriptors) != hi_w - lo_w:
        raise ValueError("descriptors must cover a contiguous chunk range")
    nodes: List[Tuple[int, int, tuple]] = []
    for lo, hi in written_nodes(lo_w, hi_w, capacity):
        if hi - lo == 1:
            nodes.append((lo, hi, ("leaf", descriptors[lo])))
            continue
        mid = (lo + hi) // 2
        left = version if lo_w < mid else border_stamps.get((lo, mid))
        right = version if hi_w > mid else border_stamps.get((mid, hi))
        nodes.append((lo, hi, ("node", left, right)))
    # Post-order (children before parents: sort by right end, then size),
    # the order in which a depth-first writer would store the nodes.
    nodes.sort(key=lambda node: (node[1], node[1] - node[0]))
    yield from kv.put_many({
        node_key(blob_id, version, lo, hi): value for lo, hi, value in nodes
    })
    return len(nodes)


def tree_query(
    kv,
    blob_id: int,
    version: int,
    first: int,
    last: int,
    capacity: int = DEFAULT_CAPACITY,
):
    """Generator: fetch descriptors for chunk indices [first, last).

    Returns ``{index: ChunkDescriptor}``; indices never written are
    absent (holes read as unwritten data, like sparse files).
    """
    _check_capacity(capacity)
    if not 0 <= first < last <= capacity:
        raise ValueError(f"query range [{first},{last}) outside [0,{capacity})")
    result: Dict[int, ChunkDescriptor] = {}
    yield from _query_node(kv, blob_id, version, 0, capacity, first, last, result)
    return result


def _query_node(
    kv,
    blob_id: int,
    stamp: int,
    lo: int,
    hi: int,
    first: int,
    last: int,
    result: Dict[int, ChunkDescriptor],
):
    node = yield from kv.get(node_key(blob_id, stamp, lo, hi))
    if node is None:
        return  # unwritten subtree: hole
    if node[0] == "leaf":
        result[lo] = node[1]
        return
    _tag, left_stamp, right_stamp = node
    mid = (lo + hi) // 2
    if first < mid and left_stamp is not None:
        yield from _query_node(
            kv, blob_id, left_stamp, lo, mid, first, min(last, mid), result
        )
    if last > mid and right_stamp is not None:
        yield from _query_node(
            kv, blob_id, right_stamp, mid, hi, max(first, mid), last, result
        )


def tree_node_count(span: int, capacity: int = DEFAULT_CAPACITY) -> int:
    """Upper bound on the nodes :func:`tree_update` stores for an update
    covering *span* chunks: at most ``2*span`` leaf-side nodes plus the
    two boundary paths to the root.
    """
    _check_capacity(capacity)
    depth = capacity.bit_length() - 1
    return 2 * span + 2 * depth
