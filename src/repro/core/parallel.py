"""Process-parallel campaign execution.

Every injection experiment is an independent, deterministically-seeded
simulation, which makes a campaign embarrassingly parallel: the paper's full
campaign is ~8,800 experiments (§IV-C) and nothing about one experiment
depends on another.  The :class:`CampaignExecutor` shards a planned task
list across a :class:`concurrent.futures.ProcessPoolExecutor`; every worker
process rebuilds its own :class:`ExperimentRunner` from the picklable
experiment configuration and runs batches of tasks, and the parent merges
the results back in plan order.  Because each experiment is fully determined
by its ``(workload, fault, seed, config)`` tuple, a parallel run produces a
result list identical to the serial run of the same plan.

The executor also provides chunked progress reporting and, with a
``results_dir``, streams every completed batch into the sharded result
store, so a later run of the same plan resumes from it, only executing the
experiments that are still missing.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.classification import GoldenBaseline
from repro.core.experiment import ExperimentConfig, ExperimentResult, ExperimentRunner
from repro.core.injector import FaultSpec
from repro.core.resultstore import (
    BatchedShardWriter,
    ShardedResultStore,
    StoredResults,
)
from repro.workloads.workload import WorkloadKind

#: Historical first seed of the baseline golden runs (run ``i`` uses
#: ``base_seed + i``), matching :meth:`ExperimentRunner.build_baseline`.
DEFAULT_BASE_SEED = 100

#: ``progress(done, total)`` callback invoked as batches complete.
ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class ExperimentTask:
    """One fully-specified experiment: the picklable unit of parallel work."""

    #: Position in the campaign plan; results are merged back in this order.
    index: int
    workload: WorkloadKind
    fault: FaultSpec
    #: The experiment's simulation seed, fixed at planning time so the
    #: outcome does not depend on which worker executes the task.
    seed: int


@dataclass(frozen=True)
class WorkloadPrep:
    """A golden-baseline + field-recording job for one workload."""

    workload: WorkloadKind
    #: Golden runs used to build the classification baseline (0 = skip the
    #: baseline and only record fields, as the propagation experiments do).
    golden_runs: int
    #: Seed of the extra golden run that records the fields written to etcd.
    record_seed: int
    #: Seed of the first baseline golden run (run ``i`` uses ``base_seed+i``,
    #: matching :meth:`ExperimentRunner.build_baseline`).
    base_seed: int = DEFAULT_BASE_SEED


@dataclass(frozen=True)
class GoldenRunJob:
    """One golden run: the picklable unit of parallel workload preparation.

    Workload preparation used to fan out one job per *workload*, which made
    the golden baselines the serial fraction of a campaign; preparation now
    fans out one job per golden *run*, so ``golden_runs`` baseline runs and
    the field-recording run of every workload all execute concurrently.
    """

    workload: WorkloadKind
    seed: int
    #: Record the fields written to etcd during this run (the extra run the
    #: campaign uses for fault generation).
    record_fields: bool = False


@dataclass(frozen=True)
class GoldenRunStats:
    """The per-run observables a golden baseline is assembled from."""

    latency_series: tuple
    pods_created: int
    settle_time: Optional[float]
    client_errors: int


def resolve_workers(workers: Optional[int]) -> int:
    """Map a configured worker count onto an effective one (None = all CPUs)."""
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return workers


# --------------------------------------------------------------------------
# Worker-process functions (module-level so they pickle by reference under
# both fork and spawn start methods).
# --------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _init_worker(experiment_config: ExperimentConfig) -> None:
    """Build the per-process runner once instead of once per task."""
    _WORKER_STATE["runner"] = ExperimentRunner(experiment_config)


def _worker_runner(experiment_config: ExperimentConfig) -> ExperimentRunner:
    """The pool-initialized runner, or a fresh one on the serial path."""
    runner = _WORKER_STATE.get("runner")
    if runner is None:
        runner = ExperimentRunner(experiment_config)
    return runner


def _run_batch_local(
    runner: ExperimentRunner,
    tasks: list[ExperimentTask],
    baselines: dict[str, GoldenBaseline],
    store_root: Optional[str] = None,
    shard_writer: Optional[BatchedShardWriter] = None,
):
    """Run one batch of tasks against an explicit runner.

    Without a store the batch results travel back to the caller in memory
    (the original behaviour).  With ``store_root`` the batch is serialized
    to one compressed shard and only the completed plan indexes travel back,
    so the parent's memory stays bounded by its own bookkeeping no matter
    how large the campaign is.  With a ``shard_writer`` the batch still
    becomes durable immediately but is appended into the writer's open
    shard group instead of creating a new object (``--shard-batch``).

    This is the slice-execution core both backends share: process-pool
    workers reach it through :func:`_run_batch` (pool-initialized runner),
    while the serial path and the distributed ``repro.cli worker`` loop call
    it with their own runner — no process-global state, so several worker
    loops may run inside one process (e.g. threads in tests).
    """
    results = [
        (
            task.index,
            runner.run_experiment(
                task.workload,
                task.fault,
                baseline=baselines.get(task.workload.value),
                seed=task.seed,
            ),
        )
        for task in tasks
    ]
    if shard_writer is not None:
        shard_writer.write(results)
    elif store_root is None:
        return results
    else:
        ShardedResultStore(store_root).write_shard(results)
    return [index for index, _ in results]


def _cached_shard_writer(
    cache: dict, store_root: Optional[str], shard_batch: int
) -> Optional[BatchedShardWriter]:
    """Get-or-create the persistent batched writer for one store root.

    One memoization for both execution paths: pool workers cache in the
    process-global ``_WORKER_STATE``, the serial path caches on its
    executor — either way the writer (and with it the open shard group)
    carries across batches and slices.  No flush is ever needed: appends
    are durable as they happen, and a group cut short by shutdown is simply
    a shard with fewer members.
    """
    if store_root is None or shard_batch <= 1:
        return None
    key = ("shard_writer", store_root, shard_batch)
    writer = cache.get(key)
    if writer is None:
        writer = ShardedResultStore(store_root).batched_writer(shard_batch)
        cache[key] = writer
    return writer


def _run_batch(
    tasks: list[ExperimentTask],
    baselines: dict[str, GoldenBaseline],
    store_root: Optional[str] = None,
    shard_batch: int = 1,
):
    """Run one batch of tasks in a pool worker process."""
    shard_writer = _cached_shard_writer(_WORKER_STATE, store_root, shard_batch)
    return _run_batch_local(
        _WORKER_STATE["runner"], tasks, baselines, store_root, shard_writer
    )


def _run_golden_job(
    experiment_config: ExperimentConfig, job: GoldenRunJob
) -> tuple[GoldenRunStats, Optional[list]]:
    """Run one golden run and return its baseline stats (and recordings)."""
    # Imported lazily: campaign.py imports this module for the executor.
    from repro.core.campaign import FieldRecorder

    runner = _worker_runner(experiment_config)
    recorder = FieldRecorder() if job.record_fields else None
    result = runner.run_golden(job.workload, seed=job.seed, etcd_observer=recorder)
    stats = GoldenRunStats(
        latency_series=tuple(result.latency_series),
        pods_created=result.pods_created,
        settle_time=result.orchestrator_observations.settle_time,
        client_errors=result.client_observations.error_count,
    )
    return stats, (recorder.recorded() if recorder is not None else None)


def _assemble_baseline(
    experiment_config: ExperimentConfig,
    prep: WorkloadPrep,
    stats: list[GoldenRunStats],
) -> GoldenBaseline:
    """Fold per-run golden stats into the workload's classification baseline.

    Mirrors :meth:`ExperimentRunner.build_baseline` exactly, so fanning the
    golden runs out across workers changes nothing about the baseline.
    """
    expected = ExperimentRunner._expected_replicas(prep.workload)
    settle_times = [s.settle_time for s in stats if s.settle_time is not None]
    return GoldenBaseline.from_golden_runs(
        workload=prep.workload.value,
        series=[list(s.latency_series) for s in stats],
        expected_replicas=expected,
        expected_endpoints=expected,
        pods_created=[s.pods_created for s in stats],
        settle_times=settle_times if settle_times else [experiment_config.run_seconds],
        client_errors=[s.client_errors for s in stats],
    )


# --------------------------------------------------------------------------
# Fingerprints (they key every result store's MANIFEST.json and prep.pkl)
# --------------------------------------------------------------------------


def tasks_fingerprint(tasks: list[ExperimentTask]) -> str:
    """A stable digest of a plan, used to match result stores to campaigns."""
    digest = hashlib.sha256()
    for task in tasks:
        digest.update(
            f"{task.index}|{task.workload.value}|{task.seed}|{task.fault!r}\n".encode("utf-8")
        )
    return digest.hexdigest()


def campaign_fingerprint(
    tasks: list[ExperimentTask],
    experiment_config: ExperimentConfig,
    baselines: Optional[dict[str, GoldenBaseline]] = None,
) -> str:
    """Digest of everything that determines a campaign's results.

    Covers the plan *and* the experiment configuration and golden baselines:
    two campaigns with the same fault plan but different baselines (e.g. a
    different ``golden_runs``) classify results differently, so their
    result stores must not be mixed.
    """
    digest = hashlib.sha256(tasks_fingerprint(tasks).encode("utf-8"))
    digest.update(repr(experiment_config).encode("utf-8"))
    for key in sorted(baselines or {}):
        digest.update(f"{key}|{baselines[key]!r}\n".encode("utf-8"))
    return digest.hexdigest()


def prep_fingerprint(
    experiment_config: ExperimentConfig, preps: list[WorkloadPrep]
) -> str:
    """Digest of everything that determines workload preparation results."""
    digest = hashlib.sha256(repr(experiment_config).encode("utf-8"))
    for prep in preps:
        # base_seed joins the digest only when it differs from the historical
        # default, so stores written before the field existed (same
        # semantics, seeds 100+i) still resume.
        suffix = f"|{prep.base_seed}" if prep.base_seed != DEFAULT_BASE_SEED else ""
        digest.update(
            f"{prep.workload.value}|{prep.golden_runs}|{prep.record_seed}"
            f"{suffix}\n".encode("utf-8")
        )
    return digest.hexdigest()


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------


class CampaignExecutor:
    """Runs planned experiments, in-process or across a process pool.

    With ``workers <= 1`` (or a single pending task) everything runs in the
    calling process through exactly the same task functions, so the serial
    path is the degenerate case of the parallel one rather than a separate
    code path with separate behaviour.

    The process pool is created lazily on first use and shared between
    workload preparation and experiment execution (one pool bootstrap per
    campaign, not one per phase).  Use the executor as a context manager, or
    call :meth:`close`, to shut the pool down.
    """

    def __init__(
        self,
        experiment_config: Optional[ExperimentConfig] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        results_dir: Optional[str] = None,
        shard_batch: int = 1,
    ):
        if shard_batch < 1:
            raise ValueError(f"shard_batch must be >= 1, got {shard_batch}")
        self.experiment_config = (
            experiment_config if experiment_config is not None else ExperimentConfig()
        )
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.progress = progress
        self.results_dir = results_dir
        #: Finished batches coalesced per shard object (1 = one shard per
        #: batch, the historical layout).  Purely a storage-layout knob:
        #: results, digests, and resume semantics are unchanged.
        self.shard_batch = shard_batch
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Serial-path batched-writer cache (same shape as the pool's
        #: ``_WORKER_STATE``), persisted across execute_slice calls — a
        #: distributed worker (workers=1) coalesces batches across its
        #: slices exactly like the pool path's per-process writers, instead
        #: of silently capping a shard group at one slice's batches.
        self._serial_writers: dict = {}

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.experiment_config,),
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (no-op if none was ever started)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- planning

    def _chunks(self, tasks: list[ExperimentTask], workers: int) -> list[list[ExperimentTask]]:
        """Shard pending tasks into batches.

        Batches amortize worker dispatch and shard writes; four batches
        per worker keeps the tail short when experiment durations vary.
        """
        if self.chunk_size is not None and self.chunk_size > 0:
            size = self.chunk_size
        else:
            size = max(1, -(-len(tasks) // (workers * 4)))
        return [tasks[start : start + size] for start in range(0, len(tasks), size)]

    # ------------------------------------------------------------ execution

    def run_experiments(
        self,
        tasks: list[ExperimentTask],
        baselines: Optional[dict[str, GoldenBaseline]] = None,
        prep: Optional[tuple[str, list]] = None,
    ):
        """Run every task and return the results in plan order.

        Without a ``results_dir`` this returns the familiar in-memory list.
        With one — a directory path or an ``objstore://`` URL; the store
        picks its transport from the root's shape — the workers stream every
        finished batch into the sharded result store and a lazy
        :class:`StoredResults` view is returned instead: peak parent memory
        is bounded by one batch regardless of campaign size, and a rerun
        resumes by scanning the completed shards.

        ``prep`` is freshly computed workload preparation as
        ``(prep_fingerprint, prepared)``.  It is saved to the store only
        after the store's manifest check has accepted this campaign, so a
        mis-pointed ``results_dir`` stays untouched; a resumed campaign then
        reloads it instead of re-running the golden baselines.
        """
        total = len(tasks)
        store: Optional[ShardedResultStore] = None
        completed: dict[int, ExperimentResult] = {}
        done: set[int] = set()
        if self.results_dir:
            store = ShardedResultStore(self.results_dir)
            store.open(campaign_fingerprint(tasks, self.experiment_config, baselines), total)
            if prep is not None:
                store.save_prep(*prep)
            done.update(store.completed_indexes())
        pending = [task for task in tasks if task.index not in done]
        if self.progress is not None and done:
            self.progress(len(done), total)

        def finish(batch: list) -> None:
            # In memory a batch is its (index, result) pairs; over the store
            # the workers wrote the shard and only the indexes come back.
            if store is None:
                completed.update(batch)
                batch = [index for index, _ in batch]
            done.update(batch)
            if self.progress is not None:
                self.progress(len(done), total)

        if pending:
            self.execute_slice(pending, baselines, finish, store_root=self.results_dir)
        if store is None:
            return [completed[task.index] for task in tasks]
        if pending:
            store.refresh()  # the workers added shards behind our scan
        return StoredResults(store, [task.index for task in tasks])

    def execute_slice(self, pending, baselines, finish, store_root=None) -> None:
        """Dispatch a slice of pending tasks in batches, folding each with
        ``finish``.

        The one dispatch loop every execution path shares — plan slice →
        batches → results/shards: batches run serially in-process or across
        the pool, and ``finish`` is called with each batch's
        :func:`_run_batch` return value as it completes, so progress (and
        distributed lease heartbeats) advance even while
        other batches are still running.  The local process-pool backend
        hands the whole pending plan to one call; the distributed worker
        loop calls it once per leased slice.  An exception raised by
        ``finish`` aborts the remaining batches of the slice (the
        distributed worker uses this to abandon a lost lease — already
        written shards always survive).

        The serial path builds its own runner rather than touching the
        pool's process-global state, so several executors may run slices
        concurrently inside one process (e.g. worker loops in threads).
        """
        workers = min(self.workers, max(len(pending), 1))
        chunks = self._chunks(pending, workers)
        if workers <= 1:
            runner = ExperimentRunner(self.experiment_config)
            # The writer persists on the executor (one executor serves one
            # worker loop), so the open shard group spans slices; the runner
            # stays per-call because it is the piece other executors in the
            # same process must not share.
            writer = _cached_shard_writer(self._serial_writers, store_root, self.shard_batch)
            for chunk in chunks:
                finish(_run_batch_local(runner, chunk, baselines or {}, store_root, writer))
            return
        pool = self._get_pool()
        futures = {
            pool.submit(_run_batch, chunk, baselines or {}, store_root, self.shard_batch)
            for chunk in chunks
        }
        while futures:
            completed, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in completed:
                finish(future.result())

    # ---------------------------------------------------------- preparation

    def prepare_workloads(
        self, preps: list[WorkloadPrep]
    ) -> list[tuple[Optional[GoldenBaseline], list]]:
        """Run the golden baselines + field recording for each workload.

        Preparation fans out one job per golden *run* (not per workload):
        every baseline run and every field-recording run is independent, so
        a campaign with three workloads and three golden runs keeps twelve
        workers busy instead of three.  The per-run stats are folded back
        into baselines in the parent; results keep the order of ``preps``.
        """
        jobs: list[tuple[int, GoldenRunJob]] = []
        for slot, prep in enumerate(preps):
            for run in range(prep.golden_runs):
                jobs.append(
                    (slot, GoldenRunJob(workload=prep.workload, seed=prep.base_seed + run))
                )
            jobs.append(
                (
                    slot,
                    GoldenRunJob(
                        workload=prep.workload, seed=prep.record_seed, record_fields=True
                    ),
                )
            )

        if self.workers <= 1 or len(jobs) <= 1:
            outcomes = [
                _run_golden_job(self.experiment_config, job) for _, job in jobs
            ]
        else:
            pool = self._get_pool()
            futures = [
                pool.submit(_run_golden_job, self.experiment_config, job)
                for _, job in jobs
            ]
            outcomes = [future.result() for future in futures]

        prepared: list[tuple[Optional[GoldenBaseline], list]] = []
        for slot, prep in enumerate(preps):
            stats = [
                outcome[0]
                for (job_slot, job), outcome in zip(jobs, outcomes)
                if job_slot == slot and not job.record_fields
            ]
            recorded = next(
                outcome[1]
                for (job_slot, job), outcome in zip(jobs, outcomes)
                if job_slot == slot and job.record_fields
            )
            baseline = (
                _assemble_baseline(self.experiment_config, prep, stats)
                if prep.golden_runs > 0
                else None
            )
            prepared.append((baseline, recorded))
        return prepared
