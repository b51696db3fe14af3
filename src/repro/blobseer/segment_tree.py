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

An update is planned before anything is stored, as the BlobSeer client
does: it walks the write's border paths level by level, fetching the
previous version's partially covered nodes (at most two per level) with
one ``get_many`` per level, builds every new node in memory, then stores
them all with one ``put_many`` — one request per metadata provider.  A
query walks the tree depth first, one ``get`` per node.

All functions are generators so that every KV access can be a real
(simulated) network operation; run them with ``yield from`` inside a
process, or drain them synchronously against :class:`LocalKV` in tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .blob import ChunkDescriptor

__all__ = [
    "node_key",
    "DEFAULT_CAPACITY",
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


def tree_update(
    kv,
    blob_id: int,
    version: int,
    prev_version: Optional[int],
    descriptors: Dict[int, ChunkDescriptor],
    capacity: int = DEFAULT_CAPACITY,
):
    """Generator: write the tree nodes for *version*.

    *descriptors* maps absolute chunk index → descriptor for every chunk
    written by this version.  *prev_version* is the version whose tree
    this one inherits from (``None`` for the first write).

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
    nodes = yield from _plan_update(
        kv, blob_id, version, prev_version, descriptors, lo_w, hi_w, capacity
    )
    # Post-order (children before parents: sort by right end, then size),
    # the order in which a depth-first writer would store the nodes.
    nodes.sort(key=lambda node: (node[1], node[1] - node[0]))
    yield from kv.put_many({
        node_key(blob_id, version, lo, hi): value for lo, hi, value in nodes
    })
    return len(nodes)


def _plan_update(
    kv,
    blob_id: int,
    version: int,
    prev_version: Optional[int],
    descriptors: Dict[int, ChunkDescriptor],
    lo_w: int,
    hi_w: int,
    capacity: int,
):
    """Generator: build every node of the update in memory, top down.

    Each level's nodes intersecting ``[lo_w, hi_w)`` are rewritten.  Of
    those, only the partially covered ones (at most two per level, on the
    write's borders) inherit a child from the previous version, so only
    their previous nodes are fetched — one ``get_many`` per level.
    Returns ``[(lo, hi, value)]``.
    """
    nodes: List[Tuple[int, int, tuple]] = []
    # Border nodes of the current level: lo -> stamp of their previous
    # version (None: never written, nothing to fetch).
    borders: Dict[int, Optional[int]] = {}
    if not (lo_w == 0 and hi_w == capacity):
        borders[0] = prev_version
    size = capacity
    while size > 1:
        fetch = [(lo, stamp) for lo, stamp in borders.items() if stamp is not None]
        previous = yield from kv.get_many(
            [node_key(blob_id, stamp, lo, lo + size) for lo, stamp in fetch]
        )
        inherited = {
            lo: node for (lo, _stamp), node in zip(fetch, previous) if node is not None
        }
        half = size // 2
        borders = {}
        for lo in range(lo_w - lo_w % size, hi_w, size):
            mid, hi = lo + half, lo + size
            _tag, left, right = inherited.get(lo, ("node", None, None))
            if lo_w < mid:  # write range intersects the left child
                if lo_w > lo or hi_w < mid:
                    borders[lo] = left
                left = version
            if hi_w > mid:  # intersects the right child
                if lo_w > mid or hi_w < hi:
                    borders[mid] = right
                right = version
            nodes.append((lo, hi, ("node", left, right)))
        size = half
    nodes.extend((i, i + 1, ("leaf", descriptors[i])) for i in range(lo_w, hi_w))
    return nodes


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
