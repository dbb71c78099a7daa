"""Tests for the distributed (multi-host) campaign backend.

The contract under test: a campaign executed by one coordinator plus any
number of worker processes over a shared directory produces a result store
whose digest is byte-identical to the serial run of the same configuration,
with zero lost and zero replayed experiments — including when a worker is
SIGKILLed mid-slice and its lease is reclaimed.  The lease lifecycle itself
(O_EXCL claim, TTL expiry, heartbeat refresh, reclamation, coordinator
re-publish) is exercised edge by edge.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.distributed import (
    DistributedPlan,
    DistributedPlanError,
    DistributedSettings,
    DistributedTimeoutError,
    DistributedWorker,
    SliceLeases,
    default_slice_size,
    load_plan,
    publish_plan,
    wait_for_plan,
)
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import ExperimentTask
from repro.core.resultstore import ResultStoreMismatchError, ShardedResultStore
from repro.core.transport import atomic_write_bytes
from repro.workloads.workload import WorkloadKind

#: src/ directory, for PYTHONPATH of spawned worker processes.
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _tiny_config(**overrides) -> CampaignConfig:
    defaults = dict(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=1,
        max_experiments_per_workload=6,
        seed=3,
        workers=1,
        chunk_size=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """One serial store-backed run every distributed test compares against."""
    root = str(tmp_path_factory.mktemp("serial-store"))
    result = Campaign(_tiny_config()).run(results_dir=root)
    return root, result


def _toy_plan(total: int = 6, slice_size: int = 3) -> DistributedPlan:
    """A plan whose tasks never execute (lease/publish plumbing tests)."""
    from repro.core.injector import FaultSpec, InjectionChannel

    fault = FaultSpec(channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod")
    tasks = [
        ExperimentTask(index=i, workload=WorkloadKind.DEPLOY, fault=fault, seed=1000 + i)
        for i in range(total)
    ]
    return DistributedPlan(
        fingerprint="toy-fingerprint",
        experiment_config=ExperimentConfig(),
        tasks=tasks,
        baselines={},
        slice_size=slice_size,
    )


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (_SRC_DIR, env.get("PYTHONPATH")) if part
    )
    return env


# ------------------------------------------------------------------ plumbing


def test_default_slice_size_splits_into_about_eight():
    assert default_slice_size(1) == 1
    assert default_slice_size(8) == 1
    assert default_slice_size(80) == 10
    assert default_slice_size(81) == 11


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "file.bin")
    atomic_write_bytes(path, b"payload")
    with open(path, "rb") as handle:
        assert handle.read() == b"payload"
    assert os.listdir(tmp_path) == ["file.bin"]


def test_plan_publish_roundtrip_is_idempotent_and_refuses_foreign(tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(root)
    plan = _toy_plan()
    assert load_plan(root) is None
    assert publish_plan(root, plan) is True
    loaded = load_plan(root)
    assert loaded.fingerprint == plan.fingerprint
    assert loaded.tasks == plan.tasks
    assert [(s.start, s.stop) for s in loaded.slices()] == [(0, 3), (3, 6)]

    # Coordinator resume: re-publishing the identical plan is a no-op.
    assert publish_plan(root, plan) is False

    # A different campaign must not silently replace the published plan.
    foreign = _toy_plan()
    foreign.fingerprint = "other-fingerprint"
    with pytest.raises(DistributedPlanError):
        publish_plan(root, foreign)


def test_wait_for_plan_times_out_without_coordinator(tmp_path):
    with pytest.raises(DistributedTimeoutError):
        wait_for_plan(str(tmp_path), timeout=0.2, poll_interval=0.05)


def test_wait_for_plan_rejects_plan_manifest_fingerprint_mismatch(tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(root)
    ShardedResultStore(root).open("manifest-fingerprint", total=6)
    publish_plan(root, _toy_plan())  # fingerprint "toy-fingerprint"
    with pytest.raises(DistributedPlanError):
        wait_for_plan(root, timeout=1.0)


# --------------------------------------------------------- lease lifecycle


def test_double_claim_has_exactly_one_winner(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=30.0)
    assert leases.try_claim(0, "worker-a") is True
    assert leases.try_claim(0, "worker-b") is False
    info = leases.lease_info(0)
    assert info.worker == "worker-a"
    assert not info.expired
    # Other slices stay claimable.
    assert leases.try_claim(1, "worker-b") is True


def test_concurrent_claims_have_exactly_one_winner(tmp_path):
    # The O_EXCL create is the arbiter: many threads racing for one slice
    # must produce exactly one owner.
    leases = SliceLeases(str(tmp_path), ttl=30.0)
    outcomes: list[tuple[str, bool]] = []
    barrier = threading.Barrier(8)

    def contend(name: str) -> None:
        barrier.wait()
        outcomes.append((name, SliceLeases(str(tmp_path), ttl=30.0).try_claim(7, name)))

    threads = [threading.Thread(target=contend, args=(f"w{i}",)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    winners = [name for name, won in outcomes if won]
    assert len(winners) == 1
    assert leases.lease_info(7).worker == winners[0]


def _backdate(leases: SliceLeases, slice_id: int, seconds: float) -> None:
    path = leases.transport.locate(leases._lease_key(slice_id))
    stat = os.stat(path)
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


def test_expired_lease_is_reclaimed_fresh_lease_is_not(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "crashed-worker")
    # Fresh: a second worker cannot steal it.
    assert leases.try_claim(0, "worker-b") is False
    # Expired (mtime older than the owner's TTL): reclamation succeeds.
    _backdate(leases, 0, seconds=6.0)
    assert leases.lease_info(0).expired
    assert leases.try_claim(0, "worker-b") is True
    assert leases.lease_info(0).worker == "worker-b"


def test_expiry_honors_the_owners_recorded_ttl(tmp_path):
    # The claimer promised a 60s TTL; a reclaimer configured with a short
    # TTL must still respect the owner's contract.
    owner = SliceLeases(str(tmp_path), ttl=60.0)
    assert owner.try_claim(0, "long-ttl-worker")
    impatient = SliceLeases(str(tmp_path), ttl=0.1)
    _backdate(owner, 0, seconds=5.0)  # old, but well within the owner's 60s
    assert impatient.lease_info(0).expired is False
    assert impatient.try_claim(0, "impatient") is False


def test_unreadable_lease_still_counts_and_expires_by_age(tmp_path):
    # A claimer that died between the O_EXCL create and the payload write
    # leaves an empty lease file; it must block the slice only until it
    # ages out (treating it as absent would deadlock the slice: O_EXCL can
    # never succeed against an existing file).
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    leases.transport.put(leases._lease_key(0), b"")
    info = leases.lease_info(0)
    assert info is not None and info.worker == "?"
    assert leases.try_claim(0, "worker-b") is False  # young: still a lease
    _backdate(leases, 0, seconds=6.0)
    assert leases.try_claim(0, "worker-b") is True
    assert leases.lease_info(0).worker == "worker-b"


def test_heartbeat_refresh_prevents_reclamation(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    _backdate(leases, 0, seconds=6.0)
    # The owner heartbeats just in time: the lease is fresh again.
    assert leases.heartbeat(0, "worker-a") is True
    assert not leases.lease_info(0).expired
    assert leases.try_claim(0, "worker-b") is False


def test_heartbeat_detects_lost_lease(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    _backdate(leases, 0, seconds=6.0)
    assert leases.try_claim(0, "worker-b")  # reclaimed
    # The original owner's next heartbeat must report the loss, not refresh
    # worker-b's lease.
    lease_path = leases.transport.locate(leases._lease_key(0))
    before = os.stat(lease_path).st_mtime
    assert leases.heartbeat(0, "worker-a") is False
    assert os.stat(lease_path).st_mtime == before
    # An absent lease is also a loss.
    leases.release(0)
    assert leases.heartbeat(0, "worker-a") is False


def test_release_by_evicted_owner_leaves_new_owners_lease_alone(tmp_path):
    # A worker that lost its lease releases on the way out; the new owner's
    # fresh lease must survive, or a third worker could double-claim the
    # slice while the second still runs it.
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    _backdate(leases, 0, seconds=6.0)
    assert leases.try_claim(0, "worker-b")
    leases.release(0, "worker-a")
    assert leases.lease_info(0).worker == "worker-b"
    # The rightful owner (and the administrative form) still release.
    leases.release(0, "worker-b")
    assert leases.lease_info(0) is None


def test_done_marker_blocks_claims_and_records_provenance(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    leases.mark_done(0, "worker-a", start=0, stop=3, executed=3)
    assert leases.is_done(0)
    assert leases.lease_info(0) is None  # lease released with the marker
    assert leases.try_claim(0, "worker-b") is False
    (record,) = leases.done_records()
    assert record["worker"] == "worker-a"
    assert (record["start"], record["stop"], record["executed"]) == (0, 3, 3)


# ------------------------------------------------- end-to-end distributed


def test_distributed_run_matches_serial_digest(serial_reference, tmp_path):
    serial_root, serial_result = serial_reference
    root = str(tmp_path / "dist")
    config = _tiny_config()

    outcome: dict = {}

    def coordinate() -> None:
        try:
            outcome["result"] = Campaign(config).run(
                results_dir=root,
                backend="distributed",
                distributed=DistributedSettings(
                    slice_size=2, poll_interval=0.05, timeout=600
                ),
            )
        except BaseException as error:  # noqa: BLE001 - surfaced in the assert below
            outcome["error"] = error

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()
    deadline = time.monotonic() + 300
    while not os.path.exists(os.path.join(root, "PLAN.pkl")):
        assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"
        assert time.monotonic() < deadline, "coordinator never published the plan"
        time.sleep(0.05)

    workers = [
        DistributedWorker(
            root, worker_id=f"w{i}", poll_interval=0.05, lease_ttl=30.0, wait_timeout=60
        )
        for i in (1, 2)
    ]
    reports = [None, None]

    def run_worker(position: int) -> None:
        reports[position] = workers[position].run()

    threads = [threading.Thread(target=run_worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    coordinator.join()
    assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"

    result = outcome["result"]
    store = ShardedResultStore(root)
    total = serial_result.total_experiments()
    # Byte-identical merged digest, zero lost, zero replayed.
    assert store.results_digest() == ShardedResultStore(serial_root).results_digest()
    assert store.record_count() == total
    assert store.stored_record_count() == total
    assert result.total_experiments() == total
    assert result.classification_counts() == serial_result.classification_counts()
    # Every experiment ran exactly once, somewhere.
    assert sum(report.experiments_run for report in reports) == total
    # Every slice carries provenance.
    leases = SliceLeases(root)
    done = leases.done_records()
    assert sorted(record["start"] for record in done) == list(range(0, total, 2))
    assert leases.outstanding() == []


def test_sigkilled_worker_is_reclaimed_without_loss_or_replay(
    serial_reference, tmp_path
):
    """The acceptance bar: SIGKILL a worker mid-slice; the campaign still
    finishes with a digest byte-identical to the serial run, zero lost and
    zero duplicated experiments."""
    serial_root, serial_result = serial_reference
    root = str(tmp_path / "dist")
    config = _tiny_config()
    total = serial_result.total_experiments()

    outcome: dict = {}

    def coordinate() -> None:
        try:
            outcome["result"] = Campaign(config).run(
                results_dir=root,
                backend="distributed",
                distributed=DistributedSettings(
                    slice_size=3, poll_interval=0.05, timeout=600
                ),
            )
        except BaseException as error:  # noqa: BLE001 - surfaced in the assert below
            outcome["error"] = error

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()
    deadline = time.monotonic() + 300
    while not os.path.exists(os.path.join(root, "PLAN.pkl")):
        assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"
        assert time.monotonic() < deadline, "coordinator never published the plan"
        time.sleep(0.05)

    # The victim claims a slice, writes exactly one single-experiment shard,
    # then stops heartbeating while holding its lease (a hung worker); the
    # SIGKILL makes the hang permanent.
    victim = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--results-dir",
            root,
            "--worker-id",
            "victim",
            "--chunk-size",
            "1",
            "--lease-ttl",
            "2",
            "--stall-after-batches",
            "1",
            "--wait-timeout",
            "120",
            "--quiet",
        ],
        env=_worker_env(),
    )
    try:
        store = ShardedResultStore(root)
        while not store.shard_paths():
            assert victim.poll() is None, "victim worker exited prematurely"
            assert time.monotonic() < deadline, "victim never wrote its first shard"
            time.sleep(0.05)
    finally:
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

    survivors = len(ShardedResultStore(root).completed_indexes())
    assert 0 < survivors < total

    rescue = DistributedWorker(
        root, worker_id="rescue", poll_interval=0.1, lease_ttl=30.0, wait_timeout=60
    ).run()
    coordinator.join()
    assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"

    store = ShardedResultStore(root)
    # Zero lost: every experiment is stored and the digest matches serially.
    assert store.record_count() == total
    assert store.results_digest() == ShardedResultStore(serial_root).results_digest()
    # Zero replayed: the victim's completed shard survived reclamation, so
    # raw records == distinct records, and the rescue worker executed only
    # what the victim hadn't stored.
    assert store.stored_record_count() == total
    assert rescue.experiments_run == total - survivors
    assert outcome["result"].classification_counts() == serial_result.classification_counts()
    # Provenance: the rescue worker completed every slice; the victim
    # appears nowhere as an owner (its lease was reclaimed).
    done = SliceLeases(root).done_records()
    assert {record["worker"] for record in done} == {"rescue"}
    assert SliceLeases(root).outstanding() == []


def test_objectstore_sigkilled_worker_recovery_matches_serial(
    serial_reference, tmp_path
):
    """The transport acceptance bar: the full SIGKILL-reclamation scenario —
    coordinator, a victim worker killed mid-slice, a rescue worker — run over
    the object-store transport, with zero lost and zero replayed experiments
    and a digest byte-identical to the serial (POSIX) run."""
    from repro.core.objstore import LocalObjectStore
    from repro.core.transport import transport_for

    serial_root, serial_result = serial_reference
    config = _tiny_config()
    total = serial_result.total_experiments()
    server = LocalObjectStore(("127.0.0.1", 0)).start()
    root = f"{server.url}/dist"
    victim = None

    outcome: dict = {}

    def coordinate() -> None:
        try:
            outcome["result"] = Campaign(config).run(
                results_dir=root,
                backend="distributed",
                distributed=DistributedSettings(
                    slice_size=3, poll_interval=0.05, timeout=600
                ),
            )
        except BaseException as error:  # noqa: BLE001 - surfaced in the assert below
            outcome["error"] = error

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()
    try:
        transport = transport_for(root)
        deadline = time.monotonic() + 300
        while transport.stat("PLAN.pkl") is None:
            assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"
            assert time.monotonic() < deadline, "coordinator never published the plan"
            time.sleep(0.05)

        # The victim is a real subprocess reaching the store over HTTP; it
        # writes one single-experiment shard, stalls holding its lease, and
        # is SIGKILLed — exactly the POSIX scenario, minus any shared mount.
        victim = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "worker",
                "--results-dir",
                root,
                "--worker-id",
                "victim",
                "--chunk-size",
                "1",
                "--lease-ttl",
                "2",
                "--stall-after-batches",
                "1",
                "--wait-timeout",
                "120",
                "--quiet",
            ],
            env=_worker_env(),
        )
        try:
            store = ShardedResultStore(root)
            while not store.shard_keys():
                assert victim.poll() is None, "victim worker exited prematurely"
                assert time.monotonic() < deadline, "victim never wrote its first shard"
                time.sleep(0.05)
        finally:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)

        survivors = len(ShardedResultStore(root).completed_indexes())
        assert 0 < survivors < total

        rescue = DistributedWorker(
            root, worker_id="rescue", poll_interval=0.1, lease_ttl=30.0, wait_timeout=60
        ).run()
        coordinator.join()
        assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"

        store = ShardedResultStore(root)
        # Zero lost, zero replayed, byte-identical to the POSIX serial run.
        assert store.record_count() == total
        assert store.stored_record_count() == total
        assert store.results_digest() == ShardedResultStore(serial_root).results_digest()
        assert rescue.experiments_run == total - survivors
        assert (
            outcome["result"].classification_counts()
            == serial_result.classification_counts()
        )
        done = SliceLeases(root).done_records()
        assert {record["worker"] for record in done} == {"rescue"}
        assert SliceLeases(root).outstanding() == []
    finally:
        if victim is not None and victim.poll() is None:
            victim.kill()
        coordinator.join(timeout=60)
        server.stop()


def test_distributed_rerun_of_completed_store_is_a_noop_resume(
    serial_reference, tmp_path, monkeypatch
):
    # Coordinator crash-after-completion: a rerun must re-publish (no-op),
    # re-run zero experiments, and return the identical result.
    import repro.core.parallel as parallel_module

    serial_root, serial_result = serial_reference
    root = str(tmp_path / "dist")
    config = _tiny_config()

    worker_done = threading.Event()

    def run_worker() -> None:
        try:
            DistributedWorker(
                root, worker_id="only", poll_interval=0.05, wait_timeout=120
            ).run()
        finally:
            worker_done.set()

    thread = threading.Thread(target=run_worker)
    thread.start()
    first = Campaign(config).run(
        results_dir=root,
        backend="distributed",
        distributed=DistributedSettings(poll_interval=0.05, timeout=600),
    )
    thread.join()
    assert worker_done.is_set()

    def forbidden(*args, **kwargs):
        raise AssertionError("a completed distributed campaign re-ran an experiment")

    monkeypatch.setattr(parallel_module, "_run_batch_local", forbidden)
    monkeypatch.setattr(parallel_module, "_run_golden_job", forbidden)
    resumed = Campaign(config).run(
        results_dir=root,
        backend="distributed",
        distributed=DistributedSettings(poll_interval=0.05, timeout=60),
    )
    assert resumed.classification_counts() == first.classification_counts()
    assert ShardedResultStore(root).results_digest() == (
        ShardedResultStore(serial_root).results_digest()
    )

    # And a different configuration is rejected, not silently mixed in
    # (the prep fingerprint check fires even before the plan comparison).
    with pytest.raises(ResultStoreMismatchError):
        Campaign(_tiny_config(golden_runs=2)).run(
            results_dir=root,
            backend="distributed",
            distributed=DistributedSettings(poll_interval=0.05, timeout=60),
        )


# --------------------------------------------------------------------- CLI


def test_cli_backend_distributed_requires_results_dir(capsys):
    from repro.cli import main

    assert main(["campaign", "--backend", "distributed"]) == 2
    assert "--results-dir" in capsys.readouterr().err


def test_cli_worker_times_out_without_plan(tmp_path, capsys):
    from repro.cli import main

    exit_code = main(
        ["worker", "--results-dir", str(tmp_path), "--wait-timeout", "0.2", "--quiet"]
    )
    assert exit_code == 2
    assert "no campaign plan" in capsys.readouterr().err


def test_cli_run_rejects_unknown_backend():
    with pytest.raises(ValueError):
        Campaign(_tiny_config()).run(backend="bogus")
    with pytest.raises(ValueError):
        Campaign(_tiny_config()).run(backend="distributed")  # no results_dir


def test_cli_inspect_reports_provenance_and_outstanding_leases(
    serial_reference, tmp_path, capsys
):
    from repro.cli import main

    serial_root, _ = serial_reference
    # Serial stores stay clean: no distributed section at all.
    assert main(["inspect", serial_root]) == 0
    assert "Distributed campaign" not in capsys.readouterr().out

    # A store with a published plan, one done slice, and one held lease.
    root = str(tmp_path / "store")
    os.makedirs(root)
    ShardedResultStore(root).open("toy-fingerprint", total=6)
    publish_plan(root, _toy_plan())
    leases = SliceLeases(root, ttl=30.0)
    assert leases.try_claim(0, "worker-a")
    leases.mark_done(0, "worker-a", start=0, stop=3, executed=3)
    assert leases.try_claim(1, "worker-b")

    json_path = str(tmp_path / "inspect.json")
    assert main(["inspect", root, "--json", json_path]) == 0
    out = capsys.readouterr().out
    assert "Distributed campaign" in out
    assert "done by worker-a (3 executed)" in out
    assert "held by worker-b" in out
    assert "fresh" in out
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["stored_records"] == 0  # no shards in this toy store


# ------------------------------------- paginated + batched object-store runs


def test_paginated_batched_objectstore_campaign_matches_serial(
    serial_reference, tmp_path
):
    """The scale acceptance bar: a distributed campaign over an object store
    that forces limit=2 listing pages, executed by --shard-batch 4 workers,
    still produces a store digest byte-identical to the serial POSIX run,
    with zero lost and zero replayed experiments — while storing fewer
    shard objects than batches."""
    from repro.core.objstore import LocalObjectStore

    serial_root, serial_result = serial_reference
    total = serial_result.total_experiments()
    config = _tiny_config(shard_batch=4)
    server = LocalObjectStore(("127.0.0.1", 0), max_page=2).start()
    try:
        root = f"{server.url}/dist"
        outcome: dict = {}

        def coordinate() -> None:
            try:
                outcome["result"] = Campaign(config).run(
                    results_dir=root,
                    backend="distributed",
                    distributed=DistributedSettings(
                        slice_size=2, poll_interval=0.05, timeout=600
                    ),
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                outcome["error"] = error

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        deadline = time.monotonic() + 300
        while load_plan(root) is None:
            assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"
            assert time.monotonic() < deadline, "coordinator never published the plan"
            time.sleep(0.05)

        worker = DistributedWorker(
            root,
            worker_id="w1",
            shard_batch=4,
            poll_interval=0.05,
            lease_ttl=30.0,
            wait_timeout=60,
        )
        worker_thread = threading.Thread(target=worker.run)
        worker_thread.start()
        worker_thread.join()
        coordinator.join()
        assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"

        store = ShardedResultStore(root)
        assert store.results_digest() == ShardedResultStore(serial_root).results_digest()
        assert store.record_count() == total
        assert store.stored_record_count() == total  # appends duplicated nothing
        # chunk_size=1 makes every experiment its own batch (6 of them), and
        # the single worker's shard group spans its slices, so exactly
        # ceil(6/4) shard objects exist — the full configured coalescing.
        assert len(store.shard_keys()) == -(-total // 4)
        assert outcome["result"].classification_counts() == (
            serial_result.classification_counts()
        )
    finally:
        server.stop()


# ------------------------------------------------- CLI flag validation


@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "--slice-size", "0"],
        ["campaign", "--poll-interval", "0"],
        ["campaign", "--coordinator-timeout", "-5"],
        ["campaign", "--shard-batch", "0"],
        ["worker", "--results-dir", "x", "--shard-batch", "-1"],
        ["worker", "--results-dir", "x", "--poll-interval", "0"],
        ["worker", "--results-dir", "x", "--lease-ttl", "0"],
        ["autofederate", "dest", "src", "--poll-interval", "0"],
        ["autofederate", "dest", "src", "--timeout", "0"],
    ],
)
def test_cli_rejects_non_positive_tuning_flags_naming_them(argv, capsys):
    """A non-positive slice size, poll interval, timeout, or shard batch
    used to range from a silent busy-loop to a ZeroDivisionError deep in the
    worker; the CLI must reject each one up front, naming the flag."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err  # the offending flag is named
    assert "invalid value" in err


def test_published_plan_carries_shard_batch_to_inheriting_workers(tmp_path):
    # campaign --shard-batch N publishes the coalescing factor with the
    # plan; a worker that sets no --shard-batch of its own inherits it
    # (silently ignoring the coordinator's flag was the old behavior).
    root = str(tmp_path)
    plan = _toy_plan()
    plan.shard_batch = 5
    publish_plan(root, plan)
    assert load_plan(root).shard_batch == 5
    worker = DistributedWorker(root, worker_id="w", wait_timeout=5)
    assert worker.shard_batch is None  # None = inherit from the plan
