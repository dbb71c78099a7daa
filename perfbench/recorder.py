"""In-process instrumentation for benchmark child processes.

Two layers, both installed from outside the program by replacing functions
where callers look them up (class attributes, and the module globals that
``from … import name`` bound):

* :class:`Probes` — cheap exact counts that every run collects: simulated
  events, transport operations (per service endpoint, too), hot-path counter
  deltas, host seconds per injection experiment and, before each
  experiment, the host seconds of a fixed reference loop.  These feed the
  benchmark's exact-count ledger and the per-experiment timing metrics.
* :class:`Recorder` — the traced run.  Every wrapped call becomes a span
  (name, parent, start, end, bytes, failed) kept in per-thread arrays; at
  exit the spans are reduced to per-name calls, total time, self time
  (duration minus direct children) and family-exclusive time (duration minus
  the nearest descendants of the same family, used for the ``phase.*`` and
  ``campaign.*`` ledgers), and written out as JSON.

Nothing here changes what the program computes: wrappers call the original
function with the original arguments and return its result unchanged.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gc
import heapq
import threading
from time import perf_counter
from typing import Any, Callable, Optional

#: Span families whose ``*_s`` metric is family-exclusive time.
EXCLUSIVE_FAMILIES = ("phase", "campaign")

#: Transport method → ledger op name (the seven-op contract plus append).
TRANSPORT_OPS = {
    "put": "put",
    "put_if_absent": "put_if_absent",
    "get": "get",
    "get_with_stat": "get",
    "list_iter": "list",
    "stat": "stat",
    "delete": "delete",
    "delete_if_unchanged": "delete",
    "refresh": "refresh",
    "append": "append",
}

#: CampaignService method → endpoint name used in metrics.
SERVICE_ENDPOINTS = {
    "document_bytes": "document",
    "tables": "tables",
    "status": "status",
    "list_campaigns": "list",
}


#: Rounds of the fixed reference work timed before every experiment (about
#: 10 ms inside a campaign process on a quiet 2-CPU x86 host).
REFERENCE_ROUNDS = 2500
#: Objects the reference visits: about 7 MB, more than a core's private
#: caches, like the program's object graph.
REFERENCE_OBJECTS = 6000


class _ReferenceObject:
    def __init__(self, index: int):
        self.name = f"pod-{index}"
        self.spec = {"containers": [{"image": "nginx", "ports": [80, index]}],
                     "labels": {"app": f"app-{index % 13}"}}
        self.status = {"phase": "Pending", "ready": 0}
        self.version = 0

    def update(self, ready: int) -> int:
        self.status = dict(self.status, ready=ready)
        self.version += 1
        return self.version


def _copy_tree(value):
    if isinstance(value, dict):
        return {key: _copy_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_tree(item) for item in value]
    return value


_REFERENCE_OBJECTS: list[_ReferenceObject] = []


def reference_objects() -> list[_ReferenceObject]:
    """The objects :func:`reference_work` visits, built on first use."""
    if not _REFERENCE_OBJECTS:
        _REFERENCE_OBJECTS.extend(_ReferenceObject(index) for index in range(REFERENCE_OBJECTS))
    return _REFERENCE_OBJECTS


def reference_work(objects: list[_ReferenceObject]) -> int:
    """Fixed interpreter work that the program under test cannot change,
    of the kinds the simulation does: string-keyed dict updates, tuples and
    a sort, then an event heap driving method calls, attribute and
    small-dict updates and tree copies over ``objects`` (more than the
    CPU's private caches).  Its host seconds measure how fast the CPU the
    process runs on is at that moment."""
    table: dict = {}
    items = []
    for step in range(4 * REFERENCE_ROUNDS):
        key = f"pod-{step % 97}"
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {"name": key, "labels": {"app": key[:5]}, "count": 0}
        entry["count"] += 1
        items.append((entry["count"], key))
    items.sort()
    queue = [(index * 7 % 64, index) for index in range(64)]
    heapq.heapify(queue)
    total = len(items)
    for step in range(REFERENCE_ROUNDS):
        due, index = heapq.heappop(queue)
        total += objects[step * 7919 % len(objects)].update(step & 3)
        if step % 8 == 0:
            total += len(_copy_tree(objects[step * 104729 % len(objects)].spec)["containers"])
        heapq.heappush(queue, (due + 1 + (index & 3), index))
    return total


def _transport_classes():
    from repro.core.transport import ObjectStoreTransport, PosixTransport

    return (PosixTransport, ObjectStoreTransport)


def _materialized(fn: Callable) -> Callable:
    """Run a generator method to completion inside the call, so a wrapper
    around it times the whole scan (callers still receive an iterator)."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return run


# --------------------------------------------------------------------------
# Probes: exact counts collected on every run
# --------------------------------------------------------------------------


class Probes:
    """Exact counts for the ledger plus per-experiment host seconds, each
    experiment preceded by one timed run of :func:`reference_work`."""

    def __init__(self):
        from repro.hotpath import COUNTERS

        self._counters = COUNTERS
        self._counters_at_start = COUNTERS.snapshot()
        self.counts: dict[str, int] = {}
        self.experiment_s: list[float] = []
        self.reference_s: list[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _add(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> None:
        from repro.core.experiment import ExperimentRunner
        from repro.service.server import CampaignService
        from repro.sim.engine import Simulation

        probes = self
        run_until = Simulation.run_until

        @functools.wraps(run_until)
        def counted_run_until(sim, *args, **kwargs):
            before = sim.events_executed
            try:
                return run_until(sim, *args, **kwargs)
            finally:
                probes._add("sim.events", sim.events_executed - before)

        Simulation.run_until = counted_run_until

        run_experiment = ExperimentRunner.run_experiment

        @functools.wraps(run_experiment)
        def timed_run_experiment(*args, **kwargs):
            objects = reference_objects()
            # A collection started by the reference's allocations would
            # scan the program's heap and be charged to the reference.
            gc.disable()
            try:
                started = perf_counter()
                reference_work(objects)
                probes.reference_s.append(perf_counter() - started)
            finally:
                gc.enable()
            started = perf_counter()
            result = run_experiment(*args, **kwargs)
            probes.experiment_s.append(perf_counter() - started)
            return result

        ExperimentRunner.run_experiment = timed_run_experiment

        for cls in _transport_classes():
            for method, op in TRANSPORT_OPS.items():
                setattr(cls, method, self._count_transport(getattr(cls, method), op))

        for method, endpoint in SERVICE_ENDPOINTS.items():
            setattr(
                CampaignService, method, self._scope_endpoint(getattr(CampaignService, method), endpoint)
            )

    def _count_transport(self, fn: Callable, op: str) -> Callable:
        probes = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if getattr(probes._local, "op", None) is None:
                probes._local.op = op
                endpoint = getattr(probes._local, "endpoint", None)
                try:
                    probes._add(f"transport.{op}")
                    if endpoint is not None:
                        probes._add(f"service.{endpoint}.transport.{op}")
                    return fn(*args, **kwargs)
                finally:
                    probes._local.op = None
            return fn(*args, **kwargs)

        return counted

    def _scope_endpoint(self, fn: Callable, endpoint: str) -> Callable:
        probes = self

        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            probes._add(f"service.{endpoint}.requests")
            probes._local.endpoint = endpoint
            try:
                return fn(*args, **kwargs)
            finally:
                probes._local.endpoint = None

        return scoped

    def report(self) -> dict:
        now = self._counters.snapshot()
        deltas = {name: now[name] - self._counters_at_start[name] for name in now}
        return {
            "counters": deltas,
            "counts": dict(sorted(self.counts.items())),
            "experiment_s": list(self.experiment_s),
            "reference_s": list(self.reference_s),
        }


# --------------------------------------------------------------------------
# Recorder: the traced run
# --------------------------------------------------------------------------


class _Buffer:
    """One thread's spans, stored column-wise (parent = index in this buffer)."""

    __slots__ = ("name", "parent", "start", "end", "nbytes", "failed", "stack")

    def __init__(self):
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.nbytes = array.array("q")
        self.failed = array.array("b")
        self.stack: list[int] = []


class Recorder:
    """Span recorder with parent links, reduced to per-name totals at exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    # ----------------------------------------------------------- recording

    def _id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, buf: _Buffer, nid: int) -> int:
        stack = buf.stack
        index = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(stack[-1] if stack else -1)
        buf.nbytes.append(0)
        buf.failed.append(0)
        buf.end.append(0.0)
        stack.append(index)
        buf.start.append(perf_counter())
        return index

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        buf = self._buffer()
        return self.names[buf.name[buf.stack[-1]]] if buf.stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        buf = self._buffer()
        index = self._open(buf, self._id(name))
        try:
            yield
        except BaseException:
            buf.failed[index] = 1
            raise
        finally:
            buf.end[index] = perf_counter()
            buf.stack.pop()

    def wrap(self, name: str, fn: Callable, size: Optional[Callable[[tuple, Any], int]] = None):
        """``fn`` recording one span per call; a call made while a span of
        the same name is innermost (``get`` → ``get_with_stat``) is not
        counted twice."""
        nid = self._id(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = recorder._buffer()
            stack = buf.stack
            if stack and buf.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            index = recorder._open(buf, nid)
            try:
                result = fn(*args, **kwargs)
            except KeyError:
                raise  # an absent key (TransportKeyError) is an answer, not a failure
            except BaseException:
                buf.failed[index] = 1
                raise
            finally:
                buf.end[index] = perf_counter()
                stack.pop()
            if size is not None:
                buf.nbytes[index] = size(args, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, size=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), size))

    def patch_static(self, owner: type, attr: str, name: str) -> None:
        setattr(owner, attr, staticmethod(self.wrap(name, owner.__dict__[attr].__func__)))

    # ------------------------------------------------------------ reduction

    def summary(self) -> dict:
        """Per-name calls, total/self/exclusive seconds, bytes and failures."""
        now = perf_counter()
        family = [name.split(".", 1)[0] for name in self.names]
        exclusive = [fam in EXCLUSIVE_FAMILIES for fam in family]
        stats = {name: [0, 0.0, 0.0, 0.0, 0, 0] for name in self.names}
        claim_id = self._ids.get("distributed.claim")
        delete_id = self._ids.get("transport.delete")
        reclaims = 0
        for buf in list(self._buffers):
            count = len(buf.end)
            names, parents = buf.name, buf.parent
            duration = array.array(
                "d", ((buf.end[i] or now) - buf.start[i] for i in range(count))
            )
            children = array.array("d", bytes(8 * count))
            same_family = array.array("d", bytes(8 * count))
            for i in range(count):
                parent = parents[i]
                if parent < 0:
                    continue
                children[parent] += duration[i]
                nid = names[i]
                if nid == delete_id and names[parent] == claim_id:
                    reclaims += 1
                if exclusive[nid]:
                    ancestor = parent
                    while ancestor >= 0 and family[names[ancestor]] != family[nid]:
                        ancestor = parents[ancestor]
                    if ancestor >= 0:
                        same_family[ancestor] += duration[i]
            for i in range(count):
                row = stats[self.names[names[i]]]
                row[0] += 1
                row[1] += duration[i]
                row[2] += duration[i] - children[i]
                row[3] += duration[i] - same_family[i]
                row[4] += buf.nbytes[i]
                row[5] += buf.failed[i]
        fields = ("calls", "total_s", "self_s", "exclusive_s", "bytes", "failed")
        spans = {name: dict(zip(fields, row)) for name, row in stats.items() if row[0]}
        return {"spans": spans, "reclaims": reclaims}

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every layer boundary the per-layer ledger names."""
        import repro.apiserver.apiserver as apiserver_mod
        import repro.apiserver.client as client_mod
        import repro.core.injector as injector_mod
        import repro.core.report as report_mod
        import repro.serialization as serialization_pkg
        import repro.serialization.codec as codec_mod
        import repro.service.server as server_mod
        from repro.cluster.cluster import Cluster
        from repro.controllers.daemonset import DaemonSetController
        from repro.controllers.deployment import DeploymentController
        from repro.controllers.endpoints import EndpointsController
        from repro.controllers.garbage_collector import GarbageCollector
        from repro.controllers.manager import ControllerManager
        from repro.controllers.namespace import NamespaceController
        from repro.controllers.node_lifecycle import NodeLifecycleController
        from repro.controllers.replicaset import ReplicaSetController
        from repro.core.campaign import Campaign, CampaignResult
        from repro.core.distributed import DistributedCoordinator, DistributedWorker, SliceLeases
        from repro.core.experiment import ExperimentRunner
        from repro.core.injector import MutinyInjector
        from repro.core.objstore import _Handler as ObjstoreHandler
        from repro.core.parallel import CampaignExecutor
        from repro.core.resultstore import BatchedShardWriter, ShardedResultStore
        from repro.etcd.store import EtcdStore
        from repro.kubelet.kubelet import Kubelet
        from repro.monitoring.metrics import MetricsCollector
        from repro.network.network import ClusterNetwork
        from repro.scheduler.scheduler import Scheduler
        from repro.service.server import CampaignService
        from repro.sim.engine import Simulation
        from repro.workloads.workload import KbenchDriver

        # Codec: the defining module, the package, and every module that
        # bound the functions by name at import time.
        sizes = {
            "encode": lambda args, result: len(result),
            "decode": lambda args, result: len(args[0]),
            "decode_shared": lambda args, result: len(args[0]),
        }
        for fname, size in sizes.items():
            traced = self.wrap(f"serialization.{fname}", getattr(codec_mod, fname), size)
            for module in (codec_mod, serialization_pkg, apiserver_mod, client_mod, injector_mod):
                if fname in vars(module):
                    setattr(module, fname, traced)

        # Experiment phases.
        self._install_phases(Cluster, ExperimentRunner, KbenchDriver)

        # Campaign stages.
        self.patch(CampaignExecutor, "prepare_workloads", "campaign.prep")
        self.patch(Campaign, "plan_campaign", "campaign.plan")
        self.patch(DistributedCoordinator, "publish", "campaign.plan")
        self.patch(CampaignExecutor, "run_experiments", "campaign.execute")
        self.patch(DistributedCoordinator, "watch", "campaign.execute")

        # Simulated control plane.
        for method in ("create", "update", "update_status", "delete"):
            self.patch(apiserver_mod.APIServer, method, "apiserver.write")
        for method in ("get", "list"):
            self.patch(apiserver_mod.APIServer, method, "apiserver.read")
        self.patch(EtcdStore, "put", "etcd.put", lambda args, result: len(args[2]))
        self.patch(
            EtcdStore, "get", "etcd.read",
            lambda args, result: len(result.value) if result is not None else 0,
        )
        self.patch(
            EtcdStore, "range", "etcd.read",
            lambda args, result: sum(len(kv.value) for kv in result),
        )
        self.patch(Simulation, "run_until", "sim.run_until")
        controllers = {
            "deployment": DeploymentController,
            "replicaset": ReplicaSetController,
            "daemonset": DaemonSetController,
            "endpoints": EndpointsController,
            "node_lifecycle": NodeLifecycleController,
            "namespace": NamespaceController,
            "garbage_collector": GarbageCollector,
        }
        for cname, cls in controllers.items():
            self.patch(cls, "reconcile_all", f"controllers.{cname}.reconcile_all")
        self.patch(ControllerManager, "tick", "controllers.manager.tick")
        self.patch(Scheduler, "tick", "scheduler.tick")
        self.patch(Kubelet, "sync_pods", "kubelet.sync_pods")
        self.patch(Kubelet, "heartbeat", "kubelet.heartbeat")
        for method in ("sync", "request", "service_backends"):
            self.patch(ClusterNetwork, method, f"network.{method}")
        self.patch(MetricsCollector, "scrape", "monitoring.scrape")
        self.patch(MutinyInjector, "etcd_write_hook", "injector.hook")
        self.patch(MutinyInjector, "component_request_hook", "injector.hook")

        # Storage and coordination.
        for method in ("write_shard", "write_shard_dicts"):
            self.patch(ShardedResultStore, method, "resultstore.write")
        for method in ("write", "write_dicts"):
            self.patch(BatchedShardWriter, method, "resultstore.write")
        for method in (
            "refresh", "completed_indexes", "load_record", "record_count",
            "stored_record_count", "results_digest",
        ):
            self.patch(ShardedResultStore, method, "resultstore.scan")
        payload_size = {
            "put": lambda args, result: len(args[2]),
            "put_if_absent": lambda args, result: len(args[2]),
            "append": lambda args, result: len(args[2]),
            "get": lambda args, result: len(result),
            "get_with_stat": lambda args, result: len(result[0]),
        }
        for cls in _transport_classes():
            for method, op in TRANSPORT_OPS.items():
                fn = getattr(cls, method)
                if method == "list_iter":
                    fn = _materialized(fn)
                setattr(cls, method, self.wrap(f"transport.{op}", fn, payload_size.get(method)))
        # For these two spans the ``bytes`` column counts outcomes instead:
        # claims won, and claim scans that found nothing (a poll round).
        self.patch(SliceLeases, "try_claim", "distributed.claim", lambda args, won: int(won))
        self.patch(DistributedWorker, "run", "distributed.worker_run")
        self.patch(DistributedWorker, "_execute_slice", "distributed.slice")
        self.patch(
            DistributedWorker, "_claim_next", "distributed.claim_scan",
            lambda args, claimed: int(claimed is None),
        )
        for verb in ("do_GET", "do_HEAD", "do_PUT", "do_POST", "do_DELETE"):
            self.patch(ObjstoreHandler, verb, "objstore.request")

        # Read side.
        for module in (report_mod, server_mod):
            for fname, metric in (("store_document", "document"), ("tables_document", "tables")):
                if fname in vars(module):
                    setattr(module, fname, self.wrap(f"report.{metric}", getattr(report_mod, fname)))
        self.patch(CampaignResult, "tally", "classification.tally")
        for method, endpoint in SERVICE_ENDPOINTS.items():
            self.patch(CampaignService, method, f"service.{endpoint}")

    def _install_phases(self, cluster_cls, runner_cls, driver_cls) -> None:
        """``phase.*`` spans: build, boot, scenario (setup plus the first
        ``Cluster.run_for`` of an experiment), run (the second), collect (the
        rest of ``ExperimentRunner._run``) and classify."""
        self.patch(cluster_cls, "__init__", "phase.build")
        self.patch(cluster_cls, "boot", "phase.boot")
        self.patch(driver_cls, "setup_scenario", "phase.scenario")
        self.patch(runner_cls, "_run", "phase.collect")
        self.patch_static(runner_cls, "classify", "phase.classify")
        run_for = cluster_cls.run_for
        scenario = self.wrap("phase.scenario", run_for)
        workload = self.wrap("phase.run", run_for)
        recorder = self

        @functools.wraps(run_for)
        def phased_run_for(cluster, *args, **kwargs):
            # Inside _run the first call finishes scenario setup, the second
            # runs the workload; the span stack tells which one this is.
            if recorder.current() != "phase.collect":
                return run_for(cluster, *args, **kwargs)
            seen = getattr(cluster, "_perfbench_run_for_calls", 0)
            cluster._perfbench_run_for_calls = seen + 1
            return (scenario if seen == 0 else workload)(cluster, *args, **kwargs)

        cluster_cls.run_for = phased_run_for


def null_span(name: str):
    """Stand-in for :meth:`Recorder.span` on untraced runs."""
    return contextlib.nullcontext()
