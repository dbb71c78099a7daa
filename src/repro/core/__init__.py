"""Mutiny — the paper's contribution.

* :mod:`repro.core.injector` — the fault/error injector (where / what / when).
* :mod:`repro.core.campaign` — golden-run field recording and campaign
  generation / execution (§IV-C).
* :mod:`repro.core.experiment` — a single injection experiment end to end.
* :mod:`repro.core.parallel` — process-parallel campaign execution with
  chunked progress reporting and store-backed resume.
* :mod:`repro.core.resultstore` — the streaming sharded (gzip JSONL)
  result store backing paper-scale campaigns.
* :mod:`repro.core.classification` — orchestrator-level and client-level
  failure classification (§V-B).
* :mod:`repro.core.ffda` — the field-failure-data-analysis taxonomy and the
  coded real-world incident dataset (§III, Tables I and VII).
* :mod:`repro.core.analysis` — critical-field, user-error and propagation
  analyses (F2, F4, Table VI, Figures 6 and 7).
* :mod:`repro.core.report` — renderers for every table and figure.
"""

from repro.core.campaign import Campaign, CampaignConfig, CampaignResult
from repro.core.classification import ClientFailure, GoldenBaseline, OrchestratorFailure
from repro.core.experiment import ExperimentResult, ExperimentRunner
from repro.core.injector import FaultSpec, FaultType, InjectionChannel, MutinyInjector
from repro.core.parallel import CampaignExecutor, ExperimentTask
from repro.core.resultstore import ResultStoreMismatchError, ShardedResultStore, StoredResults

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignExecutor",
    "CampaignResult",
    "ClientFailure",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentTask",
    "FaultSpec",
    "FaultType",
    "GoldenBaseline",
    "InjectionChannel",
    "MutinyInjector",
    "OrchestratorFailure",
    "ResultStoreMismatchError",
    "ShardedResultStore",
    "StoredResults",
]
