"""Output checks run after each measured phase (outside the timed part).

The segment-tree check reads the metadata providers' stores directly,
without the client's read path, so a bug in that path cannot hide
itself.  Every check returns a list of human-readable violations; an
empty list means the run's outputs are correct.
"""

from __future__ import annotations

from typing import Dict, List

from repro.blobseer.segment_tree import node_key

__all__ = ["segment_tree_violations", "writer_blob_violations"]

#: Stop listing after this many violations of one kind (the run fails
#: either way; the list is for the person debugging it).
_MAX_REPORTED = 20


def _merged_store(deployment) -> Dict[str, object]:
    """Every metadata key of every provider; a key on two providers is
    itself a violation (keys are hash-partitioned, never replicated)."""
    merged: Dict[str, object] = {}
    duplicates = 0
    for provider in deployment.metadata_providers:
        for key, value in provider.store.items():
            if key in merged:
                duplicates += 1
            merged[key] = value
    if duplicates:
        raise ValueError(f"{duplicates} metadata keys held by two providers")
    return merged


def _leaves(store, blob_id: int, version: int, capacity: int,
            first: int, last: int) -> Dict[int, object]:
    """Chunk index -> descriptor for [first, last) of *version*'s tree."""
    found: Dict[int, object] = {}
    pending = [(version, 0, capacity)]
    while pending:
        stamp, lo, hi = pending.pop()
        node = store.get(node_key(blob_id, stamp, lo, hi))
        if node is None:
            continue
        if node[0] == "leaf":
            found[lo] = node[1]
            continue
        _tag, left, right = node
        mid = (lo + hi) // 2
        if first < mid and left is not None:
            pending.append((left, lo, mid))
        if last > mid and right is not None:
            pending.append((right, mid, hi))
    return found


def segment_tree_violations(deployment, clients) -> List[str]:
    """Walk every blob's tree against the metadata stores.

    - At each blob's latest published version, every chunk index below
      the blob size resolves to a descriptor for that index and blob,
      stamped at most that version, and every listed replica holds the
      chunk.
    - For each write acknowledged to one of *clients*, the tree of the
      acknowledged version resolves the chunks that write covered to
      descriptors stamped exactly that version (the read-back check).
    """
    problems: List[str] = []
    try:
        store = _merged_store(deployment)
    except ValueError as exc:
        return [str(exc)]
    providers = deployment.providers

    def check_descriptor(blob_id, index, descriptor, version, exact):
        if descriptor.blob_id != blob_id or descriptor.chunk_index != index:
            return f"blob {blob_id} v{version} chunk {index}: wrong descriptor"
        stamp = descriptor.version
        if stamp is None or stamp > version or (exact and stamp != version):
            return (f"blob {blob_id} v{version} chunk {index}: stamped "
                    f"v{stamp}")
        for pid in descriptor.replicas:
            holder = providers.get(pid)
            if holder is None or descriptor.storage_key not in holder.chunks:
                return (f"blob {blob_id} chunk {index}: replica {pid} lacks "
                        f"{descriptor.storage_key}")
        if not descriptor.replicas:
            return f"blob {blob_id} chunk {index}: no replicas"
        return None

    infos = {}
    for vm in deployment.authority_vms():
        capacity = vm.tree_capacity
        for blob_id, info in vm.blobs.items():
            infos[blob_id] = (info, capacity)
            if info.latest == 0:
                continue
            count = int(round(info.size_mb / info.chunk_size_mb))
            leaves = _leaves(store, blob_id, info.latest, capacity, 0, count)
            if sorted(leaves) != list(range(count)):
                problems.append(f"blob {blob_id} v{info.latest}: "
                                f"{count - len(leaves)} of {count} chunks "
                                f"unresolved")
                continue
            for index, descriptor in leaves.items():
                problem = check_descriptor(blob_id, index, descriptor,
                                           info.latest, exact=False)
                if problem:
                    problems.append(problem)
                    break
            if len(problems) >= _MAX_REPORTED:
                return problems

    for client in clients:
        for op in client.history:
            if not op.ok or op.op not in ("append", "write"):
                continue
            info, capacity = infos[op.blob_id]
            record = info.versions.get(op.version)
            if record is None or not record.published:
                problems.append(f"{client.client_id}: acknowledged blob "
                                f"{op.blob_id} v{op.version} not published")
                continue
            offset, size = record.written_range
            first = int(round(offset / info.chunk_size_mb))
            last = int(round((offset + size) / info.chunk_size_mb))
            leaves = _leaves(store, op.blob_id, op.version, capacity,
                             first, last)
            for index in range(first, last):
                descriptor = leaves.get(index)
                problem = (f"blob {op.blob_id} v{op.version} chunk {index}: "
                           f"unresolved" if descriptor is None else
                           check_descriptor(op.blob_id, index, descriptor,
                                            op.version, exact=True))
                if problem:
                    problems.append(f"{client.client_id} read-back: {problem}")
                    break
            if len(problems) >= _MAX_REPORTED:
                return problems
    return problems


def writer_blob_violations(deployment, writers) -> List[str]:
    """Each writer's blob holds exactly the bytes acknowledged to it."""
    problems = []
    for writer in writers:
        if writer.blob_id is None:
            continue
        acked = sum(op.size_mb for op in writer.client.history
                    if op.ok and op.op in ("append", "write")
                    and op.blob_id == writer.blob_id)
        info = deployment.authority_vm(writer.blob_id).blob_info(writer.blob_id)
        if abs(info.size_mb - acked) > 1e-6:
            problems.append(f"{writer.client.client_id}: blob size "
                            f"{info.size_mb} MB != acknowledged {acked} MB")
    return problems
