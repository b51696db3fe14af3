"""Distributed metadata providers.

BlobSeer stores version metadata (the copy-on-write segment trees of
``repro.blobseer.segment_tree``) on a set of *metadata providers* — small
key-value stores spread over the cluster, with keys hash-partitioned
across them.  Remote accesses are modelled as small network transfers.

Two implementations of the ``KVStore`` generator interface exist:

- :class:`LocalKV` — in-process dict, zero cost; used in unit tests and
  as the version manager's private store;
- :class:`MetadataStore` — client-side view that routes each key to its
  :class:`MetadataProvider` over the network.

Besides per-key ``get``/``put``, both offer ``put_many``: a batch costs
one request and one reply per distinct provider, and the providers are
contacted concurrently, so a batch takes one round trip whatever its
key count.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Protocol

from ..cluster.node import NodeDownError, PhysicalNode
from ..simulation.network import FlowNetwork
from .instrument import EventSink, MonitoringEvent, NullSink
from .rpc import CONTROL_MSG_MB

__all__ = ["KVStore", "LocalKV", "MetadataProvider", "MetadataStore"]

#: Cached stand-in for a ``None`` KV result (an unwritten subtree).
#: Tree keys are version-stamped and immutable, so even "this node does
#: not exist" is a fact that can never change and is safe to cache.
_NEGATIVE = ("negative",)


class KVStore(Protocol):
    """Generator-based key-value interface used by the segment tree."""

    def get(self, key: str):  # pragma: no cover - protocol
        """Generator returning the value or None."""
        ...

    def put(self, key: str, value: Any):  # pragma: no cover - protocol
        """Generator storing the value."""
        ...

    def put_many(self, items: Dict[str, Any]):  # pragma: no cover - protocol
        """Generator storing every key -> value of *items*."""
        ...


class LocalKV:
    """In-process KV store satisfying the generator interface at no cost."""

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}

    def get(self, key: str):
        return self.data.get(key)
        yield  # pragma: no cover - makes this a generator

    def put(self, key: str, value: Any):
        self.data[key] = value
        return None
        yield  # pragma: no cover - makes this a generator

    def put_many(self, items: Dict[str, Any]):
        self.data.update(items)
        return None
        yield  # pragma: no cover - makes this a generator

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, key: str) -> bool:
        return key in self.data


class MetadataProvider:
    """One metadata server holding a shard of the key space."""

    def __init__(
        self,
        node: PhysicalNode,
        provider_id: str,
        sink: Optional[EventSink] = None,
    ) -> None:
        self.node = node
        self.provider_id = provider_id
        self.sink = sink or NullSink()
        self.store: Dict[str, Any] = {}
        #: Counters surfaced to the introspection layer.
        self.gets = 0
        self.puts = 0

    @property
    def env(self):
        return self.node.env

    def local_get(self, key: str) -> Any:
        self.gets += 1
        return self.store.get(key)

    def local_put(self, key: str, value: Any) -> None:
        self.puts += 1
        self.store[key] = value

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetadataProvider {self.provider_id} keys={len(self.store)}>"


def _shard_of(key: str, count: int) -> int:
    digest = hashlib.md5(key.encode()).digest()
    return int.from_bytes(digest[:4], "little") % count


class MetadataStore:
    """Client-side router: hashes keys across the metadata providers.

    One instance per client (it needs the client's node to source the
    network messages from).

    With an attached *cache* (a :class:`repro.cache.Cache`), tree nodes
    fetched or written by this client are kept locally: versioned node
    keys are immutable, so a cache hit returns without any network
    round trip — zero cost in simulation time.  ``None`` results
    (unwritten subtrees) are cached too, as negative entries.

    ``put_many`` groups its keys by provider and exchanges one request
    and one reply with each provider, all providers at once; caching
    works per key exactly as in ``put``.
    """

    def __init__(
        self,
        net: FlowNetwork,
        client_node: PhysicalNode,
        providers: List[MetadataProvider],
        message_mb: float = CONTROL_MSG_MB,
        cache=None,
    ) -> None:
        if not providers:
            raise ValueError("need at least one metadata provider")
        self.net = net
        self.client_node = client_node
        self.providers = providers
        self.message_mb = message_mb
        self.cache = cache

    def _provider_for(self, key: str) -> MetadataProvider:
        return self.providers[_shard_of(key, len(self.providers))]

    def get(self, key: str):
        if self.cache is not None:
            hit, cached = self.cache.lookup(key)
            if hit:
                return None if cached is _NEGATIVE else cached
        provider = self._provider_for(key)
        if not provider.node.alive:
            raise NodeDownError(provider.node, f"metadata get {key}")
        yield self.net.transfer(self.client_node.name, provider.node.name, self.message_mb)
        value = provider.local_get(key)
        yield self.net.transfer(provider.node.name, self.client_node.name, self.message_mb)
        if self.cache is not None:
            self.cache.put(key, _NEGATIVE if value is None else value, self.message_mb)
        return value

    def put(self, key: str, value: Any):
        return (yield from self.put_many({key: value}))

    def put_many(self, items: Dict[str, Any]):
        """Generator: one request and one reply per provider holding a
        key of *items*, all providers concurrently.  Every target must be
        alive before any message is sent."""
        batches: Dict[MetadataProvider, List[str]] = {}
        for key in items:
            batches.setdefault(self._provider_for(key), []).append(key)
        if not batches:
            return None
        for provider in batches:
            if not provider.node.alive:
                raise NodeDownError(provider.node, "metadata put batch")
        client = self.client_node.name
        yield self._join([
            self.net.transfer(client, provider.node.name, self.message_mb)
            for provider in batches
        ])
        for provider, keys in batches.items():
            for key in keys:
                provider.local_put(key, items[key])
        yield self._join([
            self.net.transfer(provider.node.name, client, self.message_mb)
            for provider in batches
        ])
        if self.cache is not None:
            # Write-through: the writer will traverse these nodes on its
            # own subsequent reads; keys are immutable, so this is safe.
            for key, value in items.items():
                self.cache.put(key, value, self.message_mb)
        return None

    def _join(self, events: list):
        """One event for all of *events*: a lone transfer is waited on
        directly rather than through an ``AllOf``."""
        return events[0] if len(events) == 1 else self.net.env.all_of(events)
