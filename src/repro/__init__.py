"""repro — reproduction of "Towards a Self-Adaptive Data Management
System for Cloud Environments" (Carpen-Amarie, IPDPS PhD Forum 2011).

Subpackages
-----------
- ``repro.simulation``    discrete-event kernel + flow-level network
- ``repro.cluster``       simulated physical testbed (Grid'5000 substitute)
- ``repro.blobseer``      the BlobSeer storage substrate (five actors)
- ``repro.monitoring``    MonALISA-substitute monitoring layer
- ``repro.introspection`` aggregation + visualization of system state
- ``repro.security``      policy definition / detection / enforcement / trust
- ``repro.adaptation``    the MAPE-K control loop + data-removal engine
- ``repro.decision``      self-configuration & self-optimization engines
                          on pluggable planners and a resource arbiter
- ``repro.cloud``         S3-compatible (Cumulus-style) gateway
- ``repro.workloads``     correct / malicious client behaviours, scenarios
- ``repro.telemetry``     sim-time tracing spans, metrics, kernel profiling
- ``repro.robustness``    retry policies + heartbeat failure detection
"""

__version__ = "1.0.0"

from . import (
    adaptation,
    blobseer,
    cloud,
    cluster,
    introspection,
    monitoring,
    robustness,
    security,
    simulation,
    telemetry,
    workloads,
)

__all__ = [
    "simulation",
    "cluster",
    "blobseer",
    "monitoring",
    "introspection",
    "security",
    "adaptation",
    "cloud",
    "robustness",
    "telemetry",
    "workloads",
    "__version__",
]
