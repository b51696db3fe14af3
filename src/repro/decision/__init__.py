"""`repro.decision` — the pluggable MAPE-K decision framework.

The paper's self-configuration and self-optimization engines (§V) run
on one shared MAPE-K substrate, which makes alternative decision
techniques drop-in comparable (RDMSim, arXiv:2105.01978, is the
exemplar; the SEAMS survey, arXiv:2103.11481, supplies the quality
metrics the adaptation scorecard computes):

- **sensors** — :class:`SignalRef`: a typed reference to one windowed
  statistic, resolved through the introspection
  :class:`~repro.introspection.query.QueryEngine`;
- **actuators** — :class:`Action`: a typed, costed, applicable (and
  optionally undoable) adaptation step;
- **planners** — the :class:`Planner` interface plus four interchangeable
  implementations (threshold, marginal utility, hill climbing,
  epsilon-greedy bandit), all scored uniformly by the
  :class:`~repro.introspection.quality.AdaptationScorecard`;
- **arbitration** — the :class:`Arbiter`: priority bands over conserved
  :class:`ResourceLedger`\\ s, so loops competing for one budget (cache
  bytes vs. provider pool memory) can never jointly overspend it;
- **loop** — :class:`~repro.adaptation.controller.ControlLoop`, whose
  default step wires the four together and journals through the
  standard provenance path;
- **engines** — the paper's self-configuration and self-optimization
  engines (:func:`build_cache_tuner`, :class:`ElasticityEngine`,
  :class:`ReplicationEngine`).
"""

from .actions import Action
from .arbiter import Arbiter, ResourceLedger
from .engines import (
    CacheTuningDomain,
    ElasticityEngine,
    ReplicationEngine,
    build_cache_tuner,
    migrate_chunks,
)
from .planners import (
    EpsilonGreedyPlanner,
    HillClimbPlanner,
    MarginalUtilityPlanner,
    Planner,
    ThresholdPlanner,
    make_planner,
)
from .signals import SignalRef

__all__ = [
    "SignalRef",
    "Action",
    "Arbiter",
    "ResourceLedger",
    "Planner",
    "ThresholdPlanner",
    "MarginalUtilityPlanner",
    "HillClimbPlanner",
    "EpsilonGreedyPlanner",
    "make_planner",
    "CacheTuningDomain",
    "build_cache_tuner",
    "ElasticityEngine",
    "ReplicationEngine",
    "migrate_chunks",
]
