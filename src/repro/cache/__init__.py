"""Version-aware multi-tier caching for the storage substrate.

BlobSeer's copy-on-write versioning (Nicolae et al.) makes every datum
immutable once published — chunk payloads, metadata-tree nodes and
per-version object mappings never change in place.  That turns cache
coherence, the hard problem of distributed caching, into a non-problem:
this package only has to manage *capacity* (eviction policies, byte
budgets, admission) and *reachability* (invalidating keys republished
at a new version).

Tiers built on :class:`Cache`:

- client-side chunk cache (``repro.blobseer.client``) — hot reads skip
  the network entirely;
- client-side metadata-tree node cache (``repro.blobseer.metadata``) —
  tree traversals skip the metadata-provider round trips;
- provider memory-over-disk tier (``repro.blobseer.provider``) — hot
  chunks skip the FIFO disk queue;
- gateway object cache (``repro.cloud.cumulus``) — repeated S3 GETs
  skip the BlobSeer back end.

All tiers default **off**; cache-less runs are byte-identical per seed.
Capacities are re-balanced at runtime by the cache tuner,
:func:`~repro.decision.engines.build_cache_tuner` (self-optimization).
"""

from .core import Cache, CacheStats, SizeAdmission
from .policy import (
    ArcPolicy,
    CachePolicy,
    LruPolicy,
    SeededRandomPolicy,
    make_policy,
)

__all__ = [
    "Cache",
    "CacheStats",
    "SizeAdmission",
    "CachePolicy",
    "LruPolicy",
    "ArcPolicy",
    "SeededRandomPolicy",
    "make_policy",
]
