"""Typed actuators: costed, applicable adaptation steps.

An :class:`Action` is the unit of execution every planner emits: what to
do (an ``apply`` hook), what it costs against shared resources (a
``cost`` map the :class:`~repro.decision.arbiter.Arbiter` settles against
its ledgers), and how to roll it back (an optional ``undo`` hook).  The
:class:`~repro.adaptation.controller.ControlLoop` turns each applied
action into the engine's standard
:class:`~repro.adaptation.controller.AdaptationDecision`, so every
engine surfaces in decision rings, trace instants, metric counters and
the provenance journal the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

__all__ = ["Action"]


@dataclass
class Action:
    """One planned adaptation step.

    ``cost`` maps resource names to deltas: positive consumes from the
    arbiter's ledger of that name, negative releases back to it.
    Resources without a registered ledger are unmanaged (always
    granted).  ``apply`` performs the step; ``undo`` (optional) reverts
    it — the arbiter uses it when a multi-resource grant fails halfway.
    """

    name: str
    engine: str
    #: What the action acts on (a cache name, a provider id, a client).
    subject: str = ""
    cost: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)
    apply: Optional[Callable[[], None]] = None
    undo: Optional[Callable[[], None]] = None

    def execute(self) -> None:
        if self.apply is not None:
            self.apply()

    def revert(self) -> None:
        if self.undo is not None:
            self.undo()

    def decision(self, now: float):
        """The :class:`AdaptationDecision` this action records as."""
        from ..adaptation.controller import AdaptationDecision

        return AdaptationDecision(now, self.engine, self.name,
                                  dict(self.detail))

    def __str__(self) -> str:
        cost = " ".join(f"{k}{v:+g}" for k, v in sorted(self.cost.items()))
        subject = f" {self.subject}" if self.subject else ""
        return f"{self.engine}.{self.name}{subject}" + (f" [{cost}]" if cost else "")
