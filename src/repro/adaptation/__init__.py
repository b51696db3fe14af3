"""The MAPE-K control loop every self-* engine runs on, and the
data-removal engine (self-optimization).

The cache-tuner, elasticity and replication engines live in
:mod:`repro.decision.engines`.
"""

from .controller import AdaptationDecision, ControlLoop
from .removal import (
    ColdDataRemoval,
    LRURemoval,
    OrphanRemoval,
    RemovalManager,
    RemovalStrategy,
    TTLRemoval,
)

__all__ = [
    "ControlLoop",
    "AdaptationDecision",
    "RemovalManager",
    "RemovalStrategy",
    "TTLRemoval",
    "ColdDataRemoval",
    "LRURemoval",
    "OrphanRemoval",
]
