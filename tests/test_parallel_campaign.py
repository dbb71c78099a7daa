"""Tests for the process-parallel campaign execution subsystem.

The contract under test is the one the executor is built around: an
experiment is fully determined by its ``(workload, fault, seed, config)``
tuple, so a campaign sharded across worker processes must produce exactly
the results of the serial run — same classifications, same order.  Resume
over the sharded result store is covered in ``test_resultstore.py``.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.classification import GoldenBaseline
from repro.core.experiment import ExperimentResult
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.parallel import (
    CampaignExecutor,
    ExperimentTask,
    campaign_fingerprint,
    resolve_workers,
    tasks_fingerprint,
)
from repro.workloads.workload import WorkloadKind


def _tiny_config(**overrides) -> CampaignConfig:
    defaults = dict(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=1,
        max_experiments_per_workload=4,
        seed=3,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


# ----------------------------------------------------------- pure plumbing


def test_resolve_workers():
    assert resolve_workers(3) == 3
    assert resolve_workers(1) == 1
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) == resolve_workers(None)


def test_fault_task_and_baseline_pickle_roundtrip():
    fault = FaultSpec(
        channel=InjectionChannel.APISERVER_TO_ETCD,
        kind="Deployment",
        field_path="spec.replicas",
        name="webapp-1",
        namespace="default",
        fault_type=FaultType.BIT_FLIP,
        bit_index=4,
        occurrence=2,
    )
    task = ExperimentTask(index=5, workload=WorkloadKind.SCALE_UP, fault=fault, seed=1006)
    baseline = GoldenBaseline.from_golden_runs(
        workload="deploy",
        series=[[0.1, 0.2], [0.1, 0.3]],
        expected_replicas=6,
        expected_endpoints=6,
        pods_created=[10, 11],
        settle_times=[30.0, 32.0],
        client_errors=[1, 2],
    )
    result = ExperimentResult(workload=WorkloadKind.DEPLOY, fault=fault, seed=1006)
    for original in (fault, task, baseline, result):
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original


def test_executor_chunking_covers_all_tasks_exactly_once():
    fault = FaultSpec(channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod")
    tasks = [
        ExperimentTask(index=i, workload=WorkloadKind.DEPLOY, fault=fault, seed=1000 + i)
        for i in range(11)
    ]
    executor = CampaignExecutor(workers=2)
    chunks = executor._chunks(tasks, workers=2)
    flattened = [task for chunk in chunks for task in chunk]
    assert flattened == tasks
    assert all(chunks)
    sized = CampaignExecutor(workers=2, chunk_size=3)._chunks(tasks, workers=2)
    assert [len(chunk) for chunk in sized] == [3, 3, 3, 2]


def test_fingerprint_is_stable_and_sensitive():
    fault = FaultSpec(channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod")
    tasks = [ExperimentTask(index=0, workload=WorkloadKind.DEPLOY, fault=fault, seed=1001)]
    assert tasks_fingerprint(tasks) == tasks_fingerprint(list(tasks))
    reseeded = [ExperimentTask(index=0, workload=WorkloadKind.DEPLOY, fault=fault, seed=1002)]
    assert tasks_fingerprint(tasks) != tasks_fingerprint(reseeded)
    refaulted = [
        ExperimentTask(
            index=0,
            workload=WorkloadKind.DEPLOY,
            fault=FaultSpec(
                channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod", bit_index=7
            ),
            seed=1001,
        )
    ]
    assert tasks_fingerprint(tasks) != tasks_fingerprint(refaulted)


def test_campaign_fingerprint_covers_config_and_baselines():
    # A resumed result store must not mix results classified against
    # different baselines or produced by a different experiment configuration.
    from repro.core.experiment import ExperimentConfig

    fault = FaultSpec(channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod")
    tasks = [ExperimentTask(index=0, workload=WorkloadKind.DEPLOY, fault=fault, seed=1001)]
    config = ExperimentConfig()
    baseline = GoldenBaseline.from_golden_runs(
        workload="deploy",
        series=[[0.1]],
        expected_replicas=6,
        expected_endpoints=6,
        pods_created=[10],
        settle_times=[30.0],
    )
    base = campaign_fingerprint(tasks, config, {"deploy": baseline})
    assert base == campaign_fingerprint(tasks, config, {"deploy": baseline})
    other_baseline = GoldenBaseline.from_golden_runs(
        workload="deploy",
        series=[[0.1], [0.2]],
        expected_replicas=6,
        expected_endpoints=6,
        pods_created=[10, 12],
        settle_times=[30.0, 31.0],
    )
    assert base != campaign_fingerprint(tasks, config, {"deploy": other_baseline})
    assert base != campaign_fingerprint(tasks, ExperimentConfig(run_seconds=90.0), {"deploy": baseline})


def test_per_run_prep_matches_build_baseline():
    # Preparation fans out one job per golden run; the baseline assembled
    # from per-run stats must equal the one ExperimentRunner builds serially.
    from repro.core.experiment import ExperimentConfig, ExperimentRunner
    from repro.core.parallel import WorkloadPrep

    config = ExperimentConfig()
    executor = CampaignExecutor(config, workers=1)
    ((baseline, recorded),) = executor.prepare_workloads(
        [WorkloadPrep(workload=WorkloadKind.DEPLOY, golden_runs=2, record_seed=50)]
    )
    assert baseline == ExperimentRunner(config).build_baseline(WorkloadKind.DEPLOY, runs=2)
    assert recorded, "the record run must have captured etcd-written fields"

    # golden_runs=0 (the propagation prep) records fields but skips the baseline.
    ((no_baseline, recorded_only),) = executor.prepare_workloads(
        [WorkloadPrep(workload=WorkloadKind.DEPLOY, golden_runs=0, record_seed=60)]
    )
    assert no_baseline is None
    assert recorded_only


# ------------------------------------------------- end-to-end determinism


def test_serial_and_parallel_campaign_results_identical():
    # The acceptance bar of the parallel engine: the same CampaignConfig run
    # with workers=1 and workers=4 yields identical classification counts and
    # identical result ordering.
    serial = Campaign(_tiny_config(workers=1)).run()
    parallel = Campaign(_tiny_config(workers=4)).run()
    assert serial.classification_counts() == parallel.classification_counts()
    assert [result.seed for result in serial.results] == [
        result.seed for result in parallel.results
    ]
    assert [result.fault.describe() for result in serial.results] == [
        result.fault.describe() for result in parallel.results
    ]
    assert serial.results == parallel.results
    assert serial.baselines == parallel.baselines


# --------------------------------------------------------------------- CLI


def test_cli_campaign_smoke(tmp_path, capsys):
    from repro.cli import main

    json_path = str(tmp_path / "summary.json")
    exit_code = main(
        [
            "campaign",
            "--workloads",
            "deploy",
            "--golden-runs",
            "1",
            "--max-experiments",
            "2",
            "--seed",
            "3",
            "--workers",
            "1",
            "--quiet",
            "--json",
            json_path,
        ]
    )
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "Campaign summary" in captured.out
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["experiments"] == 2
    assert sum(payload["classification_counts"].values()) == 2


def test_cli_rejects_unknown_workload_and_component(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["campaign", "--workloads", "bogus"])
    assert "unknown workload" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["propagation", "--components", "kube-proxy"])
    assert "unknown component" in capsys.readouterr().err
