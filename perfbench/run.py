"""Benchmark of the Mutiny reproduction: campaign throughput, distributed
coordination and ``/v1`` read latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-serial --seed 7 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``campaign-serial`` — the fixed bench plan, ``workers=1``, local store.
* ``campaign-distributed`` — the same plan, coordinator plus two
  ``repro.cli worker`` processes over an ``objstore://`` server.
* ``service-read`` — a ``/v1`` service serving the completed plan to a
  closed loop of two connections, each repeating the program's own client
  session (list, status polls, document, tables).

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced pass plus the tracing overhead against an untraced pass of the same
run.  Campaign timings are reported at a nominal host speed (see
:func:`at_nominal_speed`).  Every process the benchmark measures is a fresh
interpreter started through ``perfbench/launch.py``.  A campaign run measures exactly one
campaign.  Every run checks the results (store digest and record count,
response bodies) and an exact-count ledger kept per (program fingerprint,
workload, seed) under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import urllib.parse
from pathlib import Path
from time import perf_counter
from typing import Optional

from launch import GOLDEN_RUNS, MAX_EXPERIMENTS, PLAN_WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
WORKLOADS = ("campaign-serial", "campaign-distributed", "service-read")

#: Hard ceiling on one benchmark run (a run must end within 180 s).
RUN_BUDGET_S = 165.0
#: Cold starts per run whose median is ``setup_s``.
SETUP_REPEATS = 9
#: Distributed worker processes and service-read client connections.
DISTRIBUTED_WORKERS = 2
READ_CONNECTIONS = 2
#: Pool size of the ``submit --wait`` that fills the service-read store.
FILL_WORKERS = 2
#: ``/status`` polls in one service-read session: ``ServiceClient.wait``
#: polls every 0.5 s (the ``submit --poll-interval`` default) while a
#: campaign runs, and the fill above ran about 12 s on a quiet 2-CPU host.
STATUS_POLLS = 24
#: The bench plan as ``repro.cli submit`` flags (the service-read fill).
PLAN_FLAGS = ["--workloads", ",".join(PLAN_WORKLOADS), "--golden-runs", str(GOLDEN_RUNS),
              "--max-experiments", str(MAX_EXPERIMENTS)]
#: Host seconds of ``recorder.reference_work`` at nominal host speed (its
#: time on a quiet 2-CPU x86 host): campaign timings are reported at this
#: speed, see :func:`at_nominal_speed`.
REFERENCE_NOMINAL_S = 0.010
#: Reference samples on each side of an experiment that give its slowdown.
SLOWDOWN_WINDOW = 2
#: Hot-path counters that are a pure function of the plan in every process
#: layout (the decode/hit split depends on which process ran what).
PLAN_COUNTERS = ("encodes", "validations", "watch_dispatches", "watch_events_skipped", "experiments")


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics' exclusive method, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class BenchFailure(RuntimeError):
    """A process of the run misbehaved; the run reports incorrect."""


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


class Child:
    """One process started through ``launch.py`` (or a plain command)."""

    def __init__(self, run: "Run", name: str, argv: list[str], trace: bool = False,
                 launcher: bool = True, capture: bool = False):
        self.name = name
        self.dump_path = run.dir / f"{name}.json"
        self.log_path = run.dir / f"{name}.log"
        if launcher:
            argv = [sys.executable, str(BENCH / "launch.py"), "--dump", str(self.dump_path),
                    *(["--trace"] if trace else []), *argv]
        else:
            argv = [sys.executable, *argv]
        self._log = open(self.log_path, "wb")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=run.dir, env=run.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture else self._log, stderr=self._log,
        )
        run.children.append(self)

    def first_line(self, timeout: float) -> str:
        """The first stdout line (servers print their URL there)."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line:
            raise BenchFailure(f"{self.name} printed no address: {self.tail()}")
        return line.strip()

    def wait(self, timeout: float) -> int:
        try:
            code = self.proc.wait(timeout=max(timeout, 0.1))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchFailure(f"{self.name} did not finish within {timeout:.0f}s") from None
        if code != 0:
            raise BenchFailure(f"{self.name} exited with {code}: {self.tail()}")
        return code

    def stop(self, timeout: float = 15.0) -> None:
        """SIGINT (servers exit cleanly and write their dump), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        self.kill()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def dump(self) -> dict:
        try:
            return json.loads(self.dump_path.read_text())
        except (OSError, ValueError) as error:
            raise BenchFailure(f"{self.name} wrote no report ({error}): {self.tail()}") from None

    def tail(self) -> str:
        self._log.flush()
        try:
            return self.log_path.read_text(errors="replace")[-800:]
        except OSError:
            return ""


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------


class Run:
    """State of one benchmark invocation: its directory, processes, checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = perf_counter()
        self.dir = STATE_DIR / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(BENCH), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        self.env["PYTHONUNBUFFERED"] = "1"
        self.children: list[Child] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.started)

    def check(self, ok: bool, message: str) -> bool:
        """Count one correctness check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)
            log(f"CHECK FAILED: {message}")
        return ok

    def close(self) -> None:
        for child in self.children:
            child.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def cold_start(self) -> float:
        """Seconds for a fresh interpreter to import the program and exit,
        at nominal host speed."""
        child = Child(self, f"ready-{len(self.children)}", ["ready"])
        # A blocking wait returns at the exit itself; ``wait(timeout)``
        # polls and would round the time up to as much as 50 ms.
        guard = threading.Timer(60, child.proc.kill)
        guard.start()
        code = child.proc.wait()
        elapsed = perf_counter() - child.started
        guard.cancel()
        if code != 0:
            raise BenchFailure(f"{child.name} exited with {code}: {child.tail()}")
        return nominal_start_s(child, elapsed)

    def start_objstore(self, name: str, trace: bool = False) -> tuple[Child, str]:
        child = Child(self, name, ["cli", "objstore", "--port", "0"], trace=trace, capture=True)
        line = child.first_line(30)
        return child, "objstore://" + line.rsplit("objstore://", 1)[1]


# --------------------------------------------------------------------------
# Correctness: store verification, digests across workloads, count ledger
# --------------------------------------------------------------------------


def program_fingerprint() -> str:
    """sha256 over the measured program and the benchmark's own code."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", BENCH):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class State:
    """Digests and exact-count ledgers remembered across runs of one program.

    References are kept per program fingerprint, so a change to the code
    starts fresh references instead of failing against the parent's counts,
    and they are saved only from a run whose checks all passed.
    """

    def __init__(self):
        self.path = STATE_DIR / "state.json"
        try:
            stored = json.loads(self.path.read_text())
        except (OSError, ValueError):
            stored = {}
        self.all = stored if isinstance(stored, dict) else {}
        self.data = self.all.setdefault(program_fingerprint(), {})

    def save(self, run: Run) -> None:
        if run.failed or run.problems:
            return
        STATE_DIR.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        os.replace(tmp, self.path)

    def check_digest(self, run: Run, digest: str) -> None:
        """Every workload of one seed must store the same results digest."""
        known = self.data.setdefault("digests", {}).setdefault(str(run.seed), {})
        others = {workload: value for workload, value in known.items() if value != digest}
        run.check(not others, f"digest {digest[:12]} differs from {others} for seed {run.seed}")
        known.setdefault(run.workload, digest)

    def check_ledger(self, run: Run, counts: dict) -> None:
        """Exact counts must repeat for a fixed (workload, seed)."""
        ledgers = self.data.setdefault("ledger", {}).setdefault(run.workload, {})
        first = ledgers.setdefault(str(run.seed), counts)
        drift = {
            key: (first.get(key), counts.get(key))
            for key in sorted(set(first) | set(counts))
            if first.get(key) != counts.get(key)
        }
        run.check(not drift, f"nondeterminism: counts differ from the first run: {drift}")


def verify_store(run: Run, root: str, digest: str, experiments: int) -> None:
    """Stored records equal the planned count, no duplicates, same digest."""
    from repro.core.resultstore import ShardedResultStore

    store = ShardedResultStore(root)
    planned = store.manifest().get("total")
    stored = store.record_count()
    run.attempted += experiments
    run.failed += max(experiments - stored, 0)
    run.check(planned == experiments == stored,
              f"store {root}: planned {planned}, reported {experiments}, stored {stored}")
    run.check(store.stored_record_count() == stored,
              f"store {root}: {store.stored_record_count()} records for {stored} indexes")
    run.check(store.results_digest() == digest, f"store {root}: digest differs from the run's")


def merge_counts(dumps: list[dict]) -> dict:
    """Sum probe counts and counter deltas over processes."""
    counters: dict[str, int] = {}
    counts: dict[str, int] = {}
    for dump in dumps:
        for key, value in dump.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in dump.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
    return {"counters": counters, "counts": counts}


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def at_nominal_speed(dumps: list[dict]) -> tuple[list[float], list[float], float]:
    """Experiment host seconds as measured and at nominal host speed.

    The host shares its CPUs with other tenants, and a CPU's speed swings
    by up to 1.8x over seconds to minutes, on each CPU separately.  So every
    process times ``reference_work`` before each experiment, and each
    experiment's seconds are divided by its slowdown: the mean of the
    reference samples around it, in its own process, over
    ``REFERENCE_NOMINAL_S``.  Returns (measured, nominal, reference seconds
    on the campaign's critical path: the coordinator's plus the busiest
    worker's).
    """
    measured: list[float] = []
    nominal: list[float] = []
    for dump in dumps:
        refs = dump.get("reference_s", [])
        for index, seconds in enumerate(dump.get("experiment_s", [])):
            around = refs[max(0, index - SLOWDOWN_WINDOW): index + SLOWDOWN_WINDOW + 1]
            measured.append(seconds)
            nominal.append(seconds * REFERENCE_NOMINAL_S / statistics.mean(around))
    critical = sum(dumps[0].get("reference_s", [])) + max(
        [sum(dump.get("reference_s", [])) for dump in dumps[1:]] or [0.0]
    )
    return measured, nominal, critical


def nominal_start_s(child: Child, elapsed: float) -> float:
    """A start-up time at nominal host speed: ``elapsed`` less the child's
    reference call before its cold import, divided by the slowdown that
    call measured (see :func:`at_nominal_speed`)."""
    start = child.dump()["start"]
    return (elapsed - start["overhead_s"]) * REFERENCE_NOMINAL_S / start["reference_s"]


def campaign_pass(run: Run, state: State, index: int, distributed: bool, trace: bool,
                  objstore_url: Optional[str]) -> dict:
    """One full campaign in fresh processes, verified; returns its figures."""
    if distributed:
        root = f"{objstore_url}/bench-{index}"
        workers = [
            Child(run, f"worker-{index}-{k}",
                  ["cli", "worker", "--results-dir", root, "--worker-id", f"w{k}", "--quiet"],
                  trace=trace)
            for k in range(DISTRIBUTED_WORKERS)
        ]
    else:
        root = str(run.dir / f"store-{index}")
        workers = []
    coordinator = Child(
        run, f"campaign-{index}",
        ["campaign", "--seed", str(run.seed), "--store", root,
         "--backend", "distributed" if distributed else "local"],
        trace=trace,
    )
    coordinator.wait(run.remaining())
    for worker in workers:
        worker.wait(min(60.0, run.remaining()))
    dumps = [coordinator.dump()] + [worker.dump() for worker in workers]
    outcome = dumps[0]["campaign"]
    verify_store(run, root, outcome["digest"], outcome["experiments"])
    state.check_digest(run, outcome["digest"])
    merged = merge_counts(dumps)
    counters = merged["counters"]
    ledger = {key: counters[key] for key in PLAN_COUNTERS}
    ledger["decode_requests"] = counters["decodes"] + counters["decode_cache_hits"]
    ledger["sim.events"] = merged["counts"].get("sim.events", 0)
    if not distributed:
        # One process runs everything: the cache split and every store
        # operation repeat exactly too.
        ledger.update({key: counters[key] for key in ("decodes", "decode_cache_hits")})
        ledger.update({k: v for k, v in merged["counts"].items() if k.startswith("transport.")})
    state.check_ledger(run, ledger)
    measured, nominal, reference_s = at_nominal_speed(dumps)
    run.check(len(measured) == outcome["experiments"],
              f"timed {len(measured)} experiments of {outcome['experiments']}")
    slowdown = sum(measured) / sum(nominal) if measured else 1.0
    return {
        "experiments": outcome["experiments"],
        "raw_ops_per_s": outcome["experiments"] / outcome["wall_s"],
        "ops_per_s": outcome["experiments"] * slowdown / (outcome["wall_s"] - reference_s),
        "experiment_s": nominal,
        "slowdown": slowdown,
        "dumps": dumps,
        "ledger": ledger,
    }


def run_campaign_workload(run: Run, state: State, distributed: bool) -> tuple[dict, dict]:
    objstore_url = None
    starts: list[tuple[Child, float]] = []
    if distributed:
        for attempt in range(SETUP_REPEATS):
            started = perf_counter()
            server, objstore_url = run.start_objstore(f"objstore-{attempt}")
            starts.append((server, perf_counter() - started))
            if attempt < SETUP_REPEATS - 1:
                server.stop()
        samples = []
    else:
        samples = [run.cold_start() for _ in range(SETUP_REPEATS)]

    untraced = campaign_pass(run, state, 0, distributed, False, objstore_url)
    if starts:
        starts[-1][0].stop()
        samples = [nominal_start_s(server, elapsed) for server, elapsed in starts]
    setup_s = statistics.median(samples)
    experiment_s = untraced["experiment_s"]
    figures = {
        "setup_s": setup_s,
        "ops_per_s": untraced["ops_per_s"],
        "raw_ops_per_s": untraced["raw_ops_per_s"],
        "slowdown": untraced["slowdown"],
        "op_s.p50": percentile(experiment_s, 50),
        "op_s.p90": percentile(experiment_s, 90),
        "samples": len(experiment_s),
        "ledger": untraced["ledger"],
    }
    if not run.trace:
        return figures, {}
    traced_server, traced_url = (
        run.start_objstore("objstore-traced", trace=True) if distributed else (None, None)
    )
    traced = campaign_pass(run, state, 1, distributed, True, traced_url)
    if traced_server is not None:
        traced_server.stop()
        traced["dumps"].append(traced_server.dump())
    layers = layer_metrics(traced["dumps"])
    layers.update(overhead(figures["ops_per_s"], traced["ops_per_s"]))
    layers["host.slowdown"] = figures["slowdown"]
    layers["host.raw_ops_per_s"] = figures["raw_ops_per_s"]
    return figures, layers


def run_service_workload(run: Run, state: State) -> tuple[dict, dict]:
    fill_started = perf_counter()
    _, objstore_url = run.start_objstore("objstore")
    state_url = f"{objstore_url}/service-state"
    store_url = f"{objstore_url}/campaign"
    filler, service_url = start_service(run, "service-fill", state_url, trace=False)
    submit_json = run.dir / "submit.json"
    submit = Child(
        run, "submit",
        ["-m", "repro.cli", "submit", "--server", service_url, "--results-dir", store_url,
         *PLAN_FLAGS, "--seed", str(run.seed), "--workers", str(FILL_WORKERS),
         "--wait", "--quiet", "--json", str(submit_json)],
        launcher=False,
    )
    submit.wait(run.remaining())
    campaign_id = json.loads(submit_json.read_text())["id"]
    filler.stop()
    fill_s = perf_counter() - fill_started
    # Set-up is a cold service start on the filled store, until /readyz.
    starts = []
    for attempt in range(SETUP_REPEATS):
        started = perf_counter()
        service, service_url = start_service(run, f"service-{attempt}", state_url, trace=False)
        starts.append((service, perf_counter() - started))
        if attempt < SETUP_REPEATS - 1:
            service.stop()
    polls = filler.dump()["counts"].get("service.status.requests", 0)
    log(f"the submit --wait fill polled /status {polls} times (a session holds {STATUS_POLLS})")

    expected = expected_bodies(store_url)
    state.check_digest(run, json.loads(expected["document"])["results_digest"])
    untraced = read_window(run, service_url, campaign_id, expected)
    service.stop()
    dump = service.dump()
    ledger = request_ledger(dump)
    state.check_ledger(run, ledger)
    latencies = [latency for _, latency in untraced["requests"]]
    figures = {
        "setup_s": statistics.median(nominal_start_s(child, elapsed) for child, elapsed in starts),
        "fill_s": fill_s,
        "ops_per_s": untraced["rate"],
        "op_s.p50": percentile(latencies, 50),
        "op_s.p90": percentile(latencies, 90),
        "samples": len(latencies),
        "ledger": ledger,
    }
    if not run.trace:
        return figures, {}
    service, service_url = start_service(run, "service-traced", state_url, trace=True)
    traced = read_window(run, service_url, campaign_id, expected)
    service.stop()
    dump = service.dump()
    state.check_ledger(run, request_ledger(dump))
    layers = layer_metrics([dump])
    handler_total = sum(
        dump["trace"]["spans"].get(f"service.{endpoint}", {}).get("total_s", 0.0)
        for endpoint in ("document", "tables", "status", "list")
    )
    latency_total = sum(latency for _, latency in traced["requests"])
    layers["service.wait_s"] = (latency_total - handler_total) / max(len(traced["requests"]), 1)
    layers.update(overhead(untraced["rate"], traced["rate"]))
    return figures, layers


def start_service(run: Run, name: str, state_url: str, trace: bool) -> tuple[Child, str]:
    child = Child(run, name, ["cli", "serve", "--port", "0", "--state", state_url],
                  trace=trace, capture=True)
    url = "http://" + child.first_line(30).split("http://", 1)[1].split()[0]
    deadline = perf_counter() + 60
    while perf_counter() < deadline:
        try:
            status, _ = http_get(url, "/readyz")
        except OSError:
            status = None
        if status == 200:
            return child, url
        time.sleep(0.01)
    raise BenchFailure(f"{name} never became ready")


def http_get(base_url: str, path: str, connection=None) -> tuple[int, bytes]:
    parsed = urllib.parse.urlsplit(base_url)
    own = connection is None
    if own:
        connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        if own:
            connection.close()


def expected_bodies(store_url: str) -> dict:
    """The document and tables computed directly from the store."""
    from repro.core.campaign import CampaignResult
    from repro.core.report import document_to_bytes, store_document, tables_document
    from repro.core.resultstore import ShardedResultStore

    store = ShardedResultStore(store_url)
    document = document_to_bytes(store_document(store, CampaignResult(results=store.all_results())))
    tables = tables_document(CampaignResult(results=store.all_results()))
    return {"document": document, "tables": json.loads(json.dumps(tables))}


def read_window(run: Run, service_url: str, campaign_id: str, expected: dict) -> dict:
    """Closed loop: each connection sends its next request when the last
    one returned, repeating one reader session, for ``run.seconds``.

    A session is the traffic of the program's own client following one
    campaign: find it in the list (``ServiceClient.campaigns``), poll its
    status until it completes (``ServiceClient.wait``), then read the
    document (``submit --wait --document``) and the tables
    (``ServiceClient.tables``).
    """
    base = f"/v1/campaigns/{campaign_id}"
    mix = [("list", "/v1/campaigns"), *[("status", f"{base}/status")] * STATUS_POLLS,
           ("document", base), ("tables", f"{base}/tables")]
    parsed = urllib.parse.urlsplit(service_url)
    replies: list[list] = [[] for _ in range(READ_CONNECTIONS)]
    started = perf_counter()
    deadline = started + run.seconds

    def client(slot: int) -> None:
        connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
        step = slot * len(mix) // READ_CONNECTIONS
        while perf_counter() < deadline:
            endpoint, path = mix[step % len(mix)]
            step += 1
            sent = perf_counter()
            try:
                status, body = http_get(service_url, path, connection)
            except (OSError, http.client.HTTPException):
                connection.close()
                connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
                status, body = None, b""
            replies[slot].append((endpoint, sent, perf_counter(), status, body))
        connection.close()

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(READ_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    done = [reply for slot in replies for reply in slot]
    window = max(reply[2] for reply in done) - started
    answered = 0
    for endpoint, _, _, status, body in done:
        if run.check(status == 200 and body_ok(endpoint, body, campaign_id, expected),
                     f"{endpoint}: status {status} or a wrong body"):
            answered += 1
    return {
        "requests": [(reply[0], reply[2] - reply[1]) for reply in done],
        "rate": answered / window,
    }


def body_ok(endpoint: str, body: bytes, campaign_id: str, expected: dict) -> bool:
    if endpoint == "document":
        return body == expected["document"]
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    if endpoint == "tables":
        return payload == expected["tables"]
    if endpoint == "status":
        return payload.get("state") == "complete" and payload.get("id") == campaign_id
    return any(entry.get("id") == campaign_id for entry in payload.get("campaigns", []))


def request_ledger(dump: dict) -> dict:
    """Transport operations per request of each endpoint (exact: every
    request of an endpoint scans the same completed store)."""
    counts = dump["counts"]
    ledger = {}
    for endpoint in ("document", "tables", "status", "list"):
        requests = counts.get(f"service.{endpoint}.requests", 0)
        prefix = f"service.{endpoint}.transport."
        for key, value in counts.items():
            if key.startswith(prefix) and requests:
                ledger[f"{endpoint}.{key[len(prefix):]}_per_request"] = round(value / requests, 6)
    return ledger


# --------------------------------------------------------------------------
# Per-layer metrics from span summaries
# --------------------------------------------------------------------------

PHASES = ("build", "boot", "scenario", "run", "collect", "classify")
CONTROLLERS = ("deployment", "replicaset", "daemonset", "endpoints", "node_lifecycle",
               "namespace", "garbage_collector")
OPERATIONS = (
    "serialization.encode", "serialization.decode", "serialization.decode_shared",
    "apiserver.write", "apiserver.read", "etcd.put", "etcd.read",
    *(f"controllers.{name}.reconcile_all" for name in CONTROLLERS), "controllers.manager.tick",
    "scheduler.tick", "kubelet.sync_pods", "kubelet.heartbeat", "network.sync",
    "network.request", "network.service_backends", "monitoring.scrape", "injector.hook",
    "resultstore.write", "resultstore.scan",
    *(f"transport.{op}" for op in ("put", "put_if_absent", "get", "list", "stat", "delete",
                                   "refresh", "append")),
    "objstore.request",
)
WITH_BYTES = ("serialization.encode", "serialization.decode", "serialization.decode_shared",
              "etcd.put", "etcd.read", "transport.put", "transport.put_if_absent",
              "transport.get", "transport.append")


def layer_metrics(dumps: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    reclaims = 0
    for dump in dumps:
        trace = dump.get("trace") or {}
        reclaims += trace.get("reclaims", 0)
        for name, row in trace.get("spans", {}).items():
            into = spans.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    merged = merge_counts(dumps)
    counters, counts = merged["counters"], merged["counts"]

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for phase in PHASES:
        out[f"phase.{phase}_s"] = get(f"phase.{phase}", "exclusive_s")
    # Wall time of the calls that run experiments: golden-run prep plus the
    # local execute stage, or, distributed, the workers' slices.
    experiment_wall = get("campaign.prep", "total_s") + (
        get("distributed.slice", "total_s") or get("campaign.execute", "total_s")
    ) - sum(sum(dump.get("reference_s", [])) for dump in dumps)
    phase_sum = sum(out[f"phase.{phase}_s"] for phase in PHASES)
    out["phase.share_of_experiment_wall"] = phase_sum / experiment_wall if experiment_wall else 0.0
    for stage in ("prep", "plan", "execute", "aggregate"):
        out[f"campaign.{stage}_s"] = get(f"campaign.{stage}", "exclusive_s")
    for name in OPERATIONS:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
        if name in WITH_BYTES:
            out[f"{name}.bytes"] = get(name, "bytes")
    requests = counters.get("decodes", 0) + counters.get("decode_cache_hits", 0)
    out["serialization.decode_hit_ratio"] = (
        counters.get("decode_cache_hits", 0) / requests if requests else 0.0
    )
    out["apiserver.errors"] = get("apiserver.write", "failed") + get("apiserver.read", "failed")
    out["etcd.watch_dispatches"] = counters.get("watch_dispatches", 0)
    out["etcd.watch_skipped"] = counters.get("watch_events_skipped", 0)
    events = counts.get("sim.events", 0)
    out["sim.events"] = events
    out["sim.self_s"] = get("sim.run_until", "self_s")
    out["sim.host_us_per_event"] = 1e6 * get("sim.run_until", "total_s") / events if events else 0.0
    out["transport.errors"] = sum(get(name, "failed") for name in spans if name.startswith("transport."))
    claims = get("distributed.claim", "calls")
    out["distributed.claims"] = claims
    out["distributed.claim_conflict_ratio"] = (
        (claims - get("distributed.claim", "bytes")) / claims if claims else 0.0
    )
    out["distributed.poll_rounds"] = get("distributed.claim_scan", "bytes")
    out["distributed.reclaims"] = reclaims
    out["distributed.worker_idle_s"] = (
        get("distributed.worker_run", "total_s") - get("distributed.slice", "total_s")
    )
    out["report.document.self_s"] = get("report.document", "self_s")
    out["report.tables.self_s"] = get("report.tables", "self_s")
    out["classification.tally.self_s"] = get("classification.tally", "self_s")
    for endpoint in ("document", "tables", "status", "list"):
        calls = get(f"service.{endpoint}", "calls")
        out[f"service.{endpoint}.handler_s"] = (
            get(f"service.{endpoint}", "total_s") / calls if calls else 0.0
        )
    out["service.wait_s"] = 0.0
    return out


def overhead(untraced_rate: float, traced_rate: float) -> dict:
    return {
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
    }


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated benchmark still stops every process it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    state = State()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    figures: dict = {}
    layers: dict = {}
    try:
        if args.workload == "service-read":
            figures, layers = run_service_workload(run, state)
        else:
            figures, layers = run_campaign_workload(
                run, state, distributed=args.workload == "campaign-distributed"
            )
    except BenchFailure as error:
        run.check(False, str(error))
    except Exception:  # the run must still report, as incorrect
        traceback.print_exc()
        run.check(False, "benchmark raised: see the traceback on stderr")
    finally:
        run.close()
        state.save(run)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    figures["peak_rss_mb"] = peak_kb / 1024.0

    source = layers if args.trace else figures
    metrics = {
        metric["name"]: {"value": float(source.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in bench["per_layer" if args.trace else "end_to_end"]
    }
    correct = run.failed == 0 and not run.problems and bool(source)
    report_human(args, figures, metrics, run)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if correct else max(run.failed, 1),
                      "metrics": metrics}))
    return 0


def report_human(args, figures: dict, metrics: dict, run: Run) -> None:
    what = "request" if args.workload == "service-read" else "experiment"
    print(f"workload {args.workload} seed {args.seed} ({'traced' if args.trace else 'untraced'})")
    if figures:
        print(f"  {what}s_per_s = {figures.get('ops_per_s', 0):.4f} 1/s   (ops_per_s)")
        print(f"  {what}_s.p50 = {figures.get('op_s.p50', 0):.4f} s, "
              f"{what}_s.p90 = {figures.get('op_s.p90', 0):.4f} s "
              f"over {figures.get('samples', 0)} samples")
        if "fill_s" in figures:
            print(f"  the submit --wait fill of the store took {figures['fill_s']:.2f} s")
        if "slowdown" in figures:
            print(f"  at nominal host speed; as measured {figures['raw_ops_per_s']:.4f} "
                  f"experiments/s, host slowdown {figures['slowdown']:.4f}")
        print(f"  setup_s = {figures.get('setup_s', 0):.3f} s, "
              f"peak_rss_mb = {figures.get('peak_rss_mb', 0):.1f} MB")
        print(f"  ledger = {json.dumps(figures.get('ledger', {}), sort_keys=True)}")
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"  failed_share = {share:.6f} ({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
