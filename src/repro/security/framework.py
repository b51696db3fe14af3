"""Policy Management module: the assembled security framework.

Wires the three components of §III-C (policy definition, violation
detection, enforcement) plus the trust manager of §V onto a monitored
BlobSeer deployment, and runs the whole thing as simulated processes so
detection delays are end-to-end measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..blobseer.access import AccessTable
from ..blobseer.deployment import BlobSeerDeployment
from ..monitoring.pipeline import MonitoringStack
from .detection import DetectionEngine, Violation
from .enforcement import BlobSeerEnforcementTarget, PolicyEnforcement
from .history import IntrospectionActivitySource, UserActivityHistory
from .policy import Policy
from .trust import TrustManager

__all__ = ["SecurityConfig", "PolicyManagement"]


@dataclass
class SecurityConfig:
    """Timing + behaviour knobs of the policy-management loop."""

    scan_interval_s: float = 5.0
    history_pull_interval_s: float = 2.0
    history_retention_s: float = 600.0
    refire_holdoff_s: float = 30.0
    throttle_cap_mbps: float = 5.0
    use_trust: bool = True
    confirmations: int = 1


class PolicyManagement:
    """The complete self-protection stack for a BlobSeer deployment.

    Usage::

        access = AccessTable()
        deployment = BlobSeerDeployment(config, access=access)
        monitoring = MonitoringStack(deployment.testbed, mon_config)
        monitoring.attach(deployment)
        security = PolicyManagement(deployment, monitoring,
                                    policies=[dos_flood_policy()],
                                    access_table=access)
        security.start()
    """

    def __init__(
        self,
        deployment: BlobSeerDeployment,
        monitoring: MonitoringStack,
        policies: Sequence[Policy],
        access_table: AccessTable,
        config: Optional[SecurityConfig] = None,
    ) -> None:
        self.deployment = deployment
        self.env = deployment.env
        self.config = config or SecurityConfig()

        self.history = UserActivityHistory(
            retention_s=self.config.history_retention_s
        )
        self.source = IntrospectionActivitySource(
            monitoring.repository,
            self.history,
            pull_interval_s=self.config.history_pull_interval_s,
        )
        self.trust = TrustManager() if self.config.use_trust else None
        self.engine = DetectionEngine(
            self.history,
            policies,
            scan_interval_s=self.config.scan_interval_s,
            trust=self.trust,
            refire_holdoff_s=self.config.refire_holdoff_s,
            confirmations=self.config.confirmations,
        )
        target = BlobSeerEnforcementTarget(access_table, deployment.net)
        self.enforcement = PolicyEnforcement(
            target,
            trust=self.trust,
            throttle_cap_mbps=self.config.throttle_cap_mbps,
            load_probe=self._system_load,
            clock=lambda: self.env.now,
        )
        self.engine.on_violation(self.enforcement.apply)
        self._started = False

    def _system_load(self) -> float:
        """Aggregate provider NIC pressure, 0..1 (the "system state")."""
        providers = self.deployment.pmanager.active_providers()
        if not providers:
            return 0.0
        total = 0.0
        for provider in providers:
            out_rate, in_rate = provider.node.network_load()
            capacity = (provider.node.netnode.capacity_in
                        + provider.node.netnode.capacity_out)
            total += (out_rate + in_rate) / capacity
        return total / len(providers)

    def attach_journal(self, journal) -> "PolicyManagement":
        """Record every enforced violation into a provenance journal.

        The self-protection loop's "decisions" are policy violations
        firing: each is journaled with the detection evidence (policy,
        occurrence, trust score) so it lands on the same timeline as the
        other engines' adaptations.  Registered as an extra violation
        listener — enforcement is unaffected.
        """
        from ..adaptation.controller import AdaptationDecision

        def _record(violation) -> None:
            evidence = {
                "policy": violation.policy.name,
                "occurrence": violation.occurrence,
            }
            if self.trust is not None:
                evidence["trust"] = round(
                    self.trust.trust_of(violation.client_id, violation.time), 6)
            journal.record_decision(AdaptationDecision(
                violation.time, "security", "sanction",
                {"client": violation.client_id,
                 "policy": violation.policy.name},
            ), evidence=evidence)

        self.engine.on_violation(_record)
        if hasattr(journal, "set_planner"):
            journal.set_planner("security", "policy-scan", {
                "scan_interval_s": self.config.scan_interval_s,
                "confirmations": self.config.confirmations,
                "refire_holdoff_s": self.config.refire_holdoff_s,
            })
        return self

    def start(self) -> None:
        """Launch the history-pull and detection loops."""
        if self._started:
            return
        self._started = True
        self.env.process(self.source.run(self.env), name="security-history-pull")
        self.env.process(self.engine.run(self.env), name="security-scan")

    # -- reporting ----------------------------------------------------------------
    @property
    def violations(self) -> List[Violation]:
        return self.engine.violations

    def detection_delay(self, client_id: str, attack_start: float) -> Optional[float]:
        """Seconds from attack start to first detection (EXP-C3 metric)."""
        detected_at = self.engine.first_detection(client_id)
        if detected_at is None:
            return None
        return detected_at - attack_start

    def summary(self) -> dict:
        return {
            "history_events": len(self.history),
            "scans": self.engine.scans,
            "violations": len(self.engine.violations),
            "blocked": self.enforcement.blocked_clients(),
            "sanctions": len(self.enforcement.sanctions),
        }
