"""Streaming, sharded result store for paper-scale campaigns.

The paper's full campaign is ~8,800 experiments (§IV-C); materializing every
:class:`~repro.core.experiment.ExperimentResult` in the parent process caps
campaign scale well below that.  This module stores results the way the executor produces them:
each worker serializes its finished batch straight to one compressed JSONL
shard (written atomically, gzip with a fixed mtime so shard bytes are
reproducible), and the parent only ever tracks *indexes*.  Peak resident
memory is therefore bounded by one batch regardless of campaign size, and
resuming an interrupted campaign is a scan of the completed shards rather
than a deserialization of everything done so far.

The store talks to its bytes through a pluggable
:class:`~repro.core.transport.ShardTransport`, selected by the shape of the
root string: a filesystem path (the original shared-directory layout, byte
for byte) or an ``objstore://host:port/bucket`` URL for workers with no
common filesystem.  Layout of a store, in transport keys::

    <root>/MANIFEST.json             # {"version", "fingerprint", "total"}
    <root>/prep.pkl                  # golden baselines + field recordings
    <root>/shards/shard-<first>-<last>.jsonl.gz

Every shard line is ``{"index": <plan index>, "result": <result dict>}``.
A shard that was truncated mid-write (e.g. the machine died) is readable up
to its last complete record; the missing experiments are simply re-run into
a fresh shard on resume.

With batched upload (:class:`BatchedShardWriter`, ``--shard-batch N``) one
shard object holds up to N batches, each a self-contained gzip member
appended under a generation precondition; the shard's name keeps the index
span of its *first* batch (names are ordering hints — the records inside,
each carrying its own plan index, are the ground truth).  Readers are
unchanged: a gzip stream of concatenated members decompresses as one
stream, and a torn trailing member reads as an ordinary truncated shard.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import pickle
import threading
from dataclasses import fields as dataclass_fields
from typing import Any, Iterable, Iterator, Optional

from repro.core.classification import (
    ClientFailure,
    ClientObservations,
    OrchestratorFailure,
    OrchestratorObservations,
)
from repro.core.experiment import ExperimentResult
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.transport import TransportKeyError, transport_for
from repro.workloads.workload import WorkloadKind

#: Format version of the store layout (bumped on layout changes).
STORE_VERSION = 1

_MANIFEST_NAME = "MANIFEST.json"
_PREP_NAME = "prep.pkl"
_SHARD_DIR = "shards"


class ResultStoreMismatchError(RuntimeError):
    """A result store does not belong to this campaign."""


# --------------------------------------------------------------------------
# JSON codec for ExperimentResult (and the dataclasses it embeds)
# --------------------------------------------------------------------------


def fault_to_dict(fault: Optional[FaultSpec]) -> Optional[dict]:
    """JSON-serializable form of a fault spec (None stays None)."""
    if fault is None:
        return None
    return {
        "channel": fault.channel.value,
        "kind": fault.kind,
        "field_path": fault.field_path,
        "name": fault.name,
        "namespace": fault.namespace,
        "component": fault.component,
        "fault_type": fault.fault_type.value,
        "bit_index": fault.bit_index,
        "set_value": fault.set_value,
        "occurrence": fault.occurrence,
    }


def fault_from_dict(data: Optional[dict]) -> Optional[FaultSpec]:
    """Inverse of :func:`fault_to_dict`."""
    if data is None:
        return None
    return FaultSpec(
        channel=InjectionChannel(data["channel"]),
        kind=data["kind"],
        field_path=data["field_path"],
        name=data["name"],
        namespace=data["namespace"],
        component=data["component"],
        fault_type=FaultType(data["fault_type"]),
        bit_index=data["bit_index"],
        set_value=data["set_value"],
        occurrence=data["occurrence"],
    )


def _dataclass_to_dict(value: Any) -> dict:
    return {f.name: getattr(value, f.name) for f in dataclass_fields(value)}


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-serializable form of one experiment result (all fields)."""
    return {
        "workload": result.workload.value,
        "fault": fault_to_dict(result.fault),
        "seed": result.seed,
        "injected": result.injected,
        "activated": result.activated,
        "dropped": result.dropped,
        "orchestrator_failure": (
            result.orchestrator_failure.value if result.orchestrator_failure else None
        ),
        "client_failure": result.client_failure.value if result.client_failure else None,
        "client_zscore": result.client_zscore,
        "orchestrator_observations": _dataclass_to_dict(result.orchestrator_observations),
        "client_observations": _dataclass_to_dict(result.client_observations),
        "latency_series": result.latency_series,
        "user_error_count": result.user_error_count,
        "user_request_count": result.user_request_count,
        "component_error_count": result.component_error_count,
        "injection_time": result.injection_time,
        "pods_created": result.pods_created,
        "workload_started_at": result.workload_started_at,
        "finished_at": result.finished_at,
    }


def result_from_dict(data: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    return ExperimentResult(
        workload=WorkloadKind(data["workload"]),
        fault=fault_from_dict(data["fault"]),
        seed=data["seed"],
        injected=data["injected"],
        activated=data["activated"],
        dropped=data["dropped"],
        orchestrator_failure=(
            OrchestratorFailure(data["orchestrator_failure"])
            if data["orchestrator_failure"]
            else None
        ),
        client_failure=(
            ClientFailure(data["client_failure"]) if data["client_failure"] else None
        ),
        client_zscore=data["client_zscore"],
        orchestrator_observations=OrchestratorObservations(
            **data["orchestrator_observations"]
        ),
        client_observations=ClientObservations(**data["client_observations"]),
        latency_series=data["latency_series"],
        user_error_count=data["user_error_count"],
        user_request_count=data["user_request_count"],
        component_error_count=data["component_error_count"],
        injection_time=data["injection_time"],
        pods_created=data["pods_created"],
        workload_started_at=data["workload_started_at"],
        finished_at=data["finished_at"],
    )


def _canonical_line(index: int, result_data: dict) -> str:
    """One canonical JSONL record (stable key order, compact separators)."""
    return json.dumps(
        {"index": index, "result": result_data}, sort_keys=True, separators=(",", ":")
    )


def _encode_member(records: list[tuple[int, dict]]) -> bytes:
    """One batch of records as a self-contained gzip member (fixed mtime, so
    identical records always produce identical bytes).  Gzip members
    concatenate into one valid stream, which is what lets the batched shard
    writer extend an existing shard object with a plain byte append."""
    buffer = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buffer, mtime=0) as stream:
        for index, data in records:
            stream.write(_canonical_line(index, data).encode("utf-8") + b"\n")
    return buffer.getvalue()


def _shard_key_for(records: list[tuple[int, dict]]) -> str:
    """The shard key a batch lands under (named by the batch's index span;
    a batched shard keeps the name of its *first* batch as later batches
    are appended — the name is an ordering hint, never ground truth)."""
    indexes = [index for index, _ in records]
    return f"{_SHARD_DIR}/shard-{min(indexes):08d}-{max(indexes):08d}.jsonl.gz"


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------


class ShardedResultStore:
    """A directory of gzip JSONL shards holding completed experiment results.

    The store is safe for the executor's access pattern: many writers each
    append *distinct* shards (one per completed batch, atomic rename), one
    reader scans/merges.  Readers never hold more than one decompressed
    shard in memory.
    """

    def __init__(self, root: str):
        self.root = root
        self.transport = transport_for(root)
        #: Lazily built map of completed plan index -> shard key.
        self._index_map: Optional[dict[int, str]] = None
        #: One-shard read cache: (key, {index: result dict}).
        self._cached_key: Optional[str] = None
        self._cached_shard: dict[int, dict] = {}
        #: Per-shard parse cache: key -> (generation token, record indexes).
        #: A shard's content is stable for a given generation, so a repeat
        #: scan (the distributed coordinator/workers poll the store every
        #: few hundred milliseconds) only decompresses keys whose generation
        #: it has never seen — not the whole store again.  The generation
        #: token (size + mtime + identity, not size alone) catches every way
        #: a same-named shard can change content: a truncated shard whose
        #: readable prefix parsed being atomically replaced by an equal-size
        #: rewrite, and — since batched upload — a live shard a worker is
        #: still extending with appended batches.
        self._shard_record_cache: dict[str, tuple[str, list[int]]] = {}

    # ------------------------------------------------------------- manifest

    def has_manifest(self) -> bool:
        """Whether this root holds a result store at all (for the CLI)."""
        return self.transport.stat(_MANIFEST_NAME) is not None

    def open(self, fingerprint: str, total: int) -> None:
        """Create the store (or verify it belongs to this campaign).

        A store written by a different plan/configuration is rejected instead
        of being silently mixed in.
        """
        try:
            raw = self.transport.get(_MANIFEST_NAME)
        except TransportKeyError:
            raw = None
        if raw is not None:
            try:
                manifest = json.loads(raw)
            except ValueError as error:
                raise ResultStoreMismatchError(
                    f"result store {self.root!r} has an unreadable manifest ({error}); "
                    "delete the store (or point --results-dir elsewhere) to start fresh"
                ) from error
            if (
                manifest.get("version") != STORE_VERSION
                or manifest.get("fingerprint") != fingerprint
            ):
                raise ResultStoreMismatchError(
                    f"result store {self.root!r} was written by a different campaign "
                    "plan; delete the store (or point --results-dir elsewhere) "
                    "to start fresh"
                )
            return
        payload = {"version": STORE_VERSION, "fingerprint": fingerprint, "total": total}
        self.transport.put(
            _MANIFEST_NAME, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        )

    def manifest(self) -> dict:
        """The manifest of an existing store (for `campaign inspect`).

        Raises :class:`~repro.core.transport.TransportKeyError` when the root
        holds no store at all.
        """
        return json.loads(self.transport.get(_MANIFEST_NAME))

    # ----------------------------------------------------------------- prep

    def save_prep(self, fingerprint: str, prepared: list) -> None:
        """Persist the golden baselines + field recordings (pickle, atomic)."""
        payload = {
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
            "prepared": prepared,
        }
        buffer = io.BytesIO()
        pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.transport.put(_PREP_NAME, buffer.getvalue())

    def load_prep(self, fingerprint: str) -> Optional[list]:
        """Load the prepared baselines/recordings (None = recompute).

        Prep written under a *different* configuration raises right away:
        its results could never be merged either, and failing before the
        expensive golden-baseline recomputation beats failing after it.
        """
        try:
            payload = pickle.loads(self.transport.get(_PREP_NAME))
            if payload.get("version") != STORE_VERSION:
                return None
            stored = payload.get("fingerprint")
        except TransportKeyError:
            return None
        # mutiny-lint: disable=MUT005 -- deliberate: unreadable prep degrades to recomputation; the fingerprint mismatch case still raises below
        except Exception:  # noqa: BLE001 - unreadable prep just means "recompute"
            return None
        if stored != fingerprint:
            raise ResultStoreMismatchError(
                f"result store {self.root!r} holds workload preparation from a "
                "different campaign configuration; delete the directory (or point "
                "--results-dir elsewhere) to start fresh"
            )
        return payload.get("prepared")

    # -------------------------------------------------------------- writing

    def write_shard(self, records: list[tuple[int, ExperimentResult]]) -> str:
        """Serialize one completed batch to a new shard, atomically.

        Called from worker processes; each batch covers a distinct set of
        plan indexes, so shard names never collide across workers.  The gzip
        stream is written with ``mtime=0`` so identical results produce
        byte-identical shards.
        """
        return self.write_shard_dicts(
            [(index, result_to_dict(result)) for index, result in records]
        )

    def write_shard_dicts(self, records: list[tuple[int, dict]]) -> str:
        """:meth:`write_shard` for records already in their canonical dict
        form — the federation merge streams raw records between stores
        without round-tripping them through result objects."""
        if not records:
            raise ValueError("refusing to write an empty shard")
        key = _shard_key_for(records)
        self.transport.put(key, _encode_member(records))
        self._index_map = None  # the completed set changed
        return self.transport.locate(key)

    def batched_writer(self, batches_per_shard: int) -> "BatchedShardWriter":
        """A writer coalescing N finished batches into one shard object."""
        return BatchedShardWriter(self, batches_per_shard)

    # ------------------------------------------------------------- scanning

    def iter_shard_keys(self) -> Iterator[str]:
        """Stream the shard keys in name (== first-index) order.

        Built on the transport's paginated/streamed listing, so scanning a
        store with hundreds of thousands of shards never materializes the
        full key set in this layer (the object store serves bounded pages,
        POSIX walks a directory scan).
        """
        for key in self.transport.list_iter(f"{_SHARD_DIR}/"):
            if key.rpartition("/")[2].startswith("shard-") and key.endswith(".jsonl.gz"):
                yield key

    def shard_keys(self) -> list[str]:
        """All shard keys, in name (== first-index) order."""
        return list(self.iter_shard_keys())

    def shard_paths(self) -> list[str]:
        """All shard addresses (paths/URLs), in name (== first-index) order."""
        return [self.transport.locate(key) for key in self.shard_keys()]

    def _iter_shard_records(self, key: str) -> Iterator[tuple[int, dict]]:
        """Yield the complete ``(index, result dict)`` records of one shard.

        A shard truncated mid-write yields its readable prefix: the gzip
        stream may end abruptly (EOFError), the last line may be cut short
        (json error), or a record may have been cut between its ``"index"``
        and its ``"result"``; each simply ends the shard.
        """
        try:
            payload = self.transport.get(key)
        except (TransportKeyError, OSError):
            # Absent (raced a reclaim) or transiently unreadable (networked
            # shared filesystem hiccup): skipped now, rescanned next poll —
            # the historical tolerance of the gzip.open path.
            return
        try:
            with gzip.GzipFile(fileobj=io.BytesIO(payload), mode="rb") as stream:
                for raw in stream:
                    if not raw.endswith(b"\n"):
                        return  # incomplete trailing record
                    try:
                        record = json.loads(raw)
                    except ValueError:
                        return
                    if not isinstance(record, dict) or "index" not in record:
                        return
                    result = record.get("result")
                    if not isinstance(result, dict) or not result:
                        # A record that kept its index but lost its result is
                        # as truncated as a cut line; yielding a placeholder
                        # here used to explode much later, as a KeyError deep
                        # inside result_from_dict during aggregation.
                        return
                    yield int(record["index"]), result
        except (EOFError, OSError, gzip.BadGzipFile):
            return

    def refresh(self) -> None:
        """Drop the cached index map (new shards may have appeared).

        Workers write shards through their own store instances, so a parent
        that scanned before execution must refresh before reading.  The
        per-shard parse cache survives: already-seen shards are immutable,
        so a refresh only costs parsing whatever is genuinely new.
        """
        self._index_map = None
        self._cached_key = None
        self._cached_shard = {}

    def _shard_indexes(self, key: str) -> list[int]:
        """The record indexes of one shard (cached; shards are immutable)."""
        stat = self.transport.stat(key)
        if stat is None:
            return []
        cached = self._shard_record_cache.get(key)
        if cached is not None and cached[0] == stat.generation:
            return cached[1]
        indexes: list[int] = []
        records: dict[int, dict] = {}
        for index, data in self._iter_shard_records(key):
            indexes.append(index)
            records[index] = data
        self._shard_record_cache[key] = (stat.generation, indexes)
        # Hand the decompressed records to the one-shard read cache: the
        # common next step (the coordinator folding the indexes this scan
        # just discovered) then reads them without gunzipping the shard a
        # second time.  Memory stays bounded by one shard as before.
        self._cached_key = key
        self._cached_shard = records
        return indexes

    def completed_indexes(self) -> dict[int, str]:
        """Map every completed plan index onto the shard key that holds it.

        This is the whole resume scan: O(completed shards) on first use and
        O(*new* shards) after a :meth:`refresh`, no result object is
        materialized.  Later shards win when a re-run rewrote an index.
        """
        if self._index_map is None:
            index_map: dict[int, str] = {}
            for key in self.iter_shard_keys():
                for index in self._shard_indexes(key):
                    index_map[index] = key
            self._index_map = index_map
        return self._index_map

    # -------------------------------------------------------------- reading

    def _load_shard(self, key: str) -> dict[int, dict]:
        """Decompress one shard into an index->dict map (the unit of caching)."""
        return {index: data for index, data in self._iter_shard_records(key)}

    def _shard_for(self, index: int) -> dict[int, dict]:
        key = self.completed_indexes().get(index)
        if key is None:
            raise KeyError(f"result index {index} is not in the store {self.root!r}")
        if key != self._cached_key:
            self._cached_shard = self._load_shard(key)
            self._cached_key = key
        return self._cached_shard

    def load_record(self, index: int) -> dict:
        """One result's canonical dict form (no object reconstruction) —
        what :meth:`results_digest` hashes and federation copies."""
        return self._shard_for(index)[index]

    def load_result(self, index: int) -> ExperimentResult:
        """Load one result by plan index (caches the containing shard)."""
        return result_from_dict(self._shard_for(index)[index])

    def iter_results(self, indexes: Iterable[int]) -> Iterator[ExperimentResult]:
        """Yield results for ``indexes`` in the given order.

        Because the executor writes plan-contiguous batches, iterating in
        plan order decompresses every shard exactly once and keeps at most
        one shard in memory.
        """
        for index in indexes:
            yield self.load_result(index)

    def iter_all(self) -> Iterator[ExperimentResult]:
        """Yield every stored result in plan-index order."""
        return self.iter_results(sorted(self.completed_indexes()))

    def all_results(self) -> "StoredResults":
        """A lazy, re-iterable view over every stored result (plan order)."""
        return StoredResults(self, sorted(self.completed_indexes()))

    # ------------------------------------------------------------ summaries

    def record_count(self) -> int:
        """Number of distinct completed experiments in the store."""
        return len(self.completed_indexes())

    def stored_record_count(self) -> int:
        """Raw record count across every shard, *counting duplicates*.

        Results are deterministic, so a replayed experiment rewrites an
        identical record and can never corrupt the merged digest — but it is
        wasted work.  A healthy campaign (local resume or distributed
        workers) therefore keeps this equal to :meth:`record_count`; CI
        asserts exactly that to prove a reclaimed worker slice replayed
        nothing that was already stored.  Served from the per-shard parse
        cache, so after a completed-index scan this costs one stat per
        shard, not a second decompression pass.
        """
        return sum(len(self._shard_indexes(key)) for key in self.iter_shard_keys())

    def compressed_bytes(self) -> int:
        """Total stored size of the shards."""
        total = 0
        for key in self.iter_shard_keys():
            stat = self.transport.stat(key)
            if stat is not None:
                total += stat.size
        return total

    def results_digest(self) -> str:
        """SHA-256 over the canonical records in plan-index order.

        Serial and parallel runs of the same campaign chunk the plan
        differently (different shard files) but must store identical result
        records, so their digests must match; CI diffs exactly this.
        """
        digest = hashlib.sha256()
        index_map = self.completed_indexes()
        for index in sorted(index_map):
            data = self._shard_for(index)[index]
            digest.update(_canonical_line(index, data).encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


class BatchedShardWriter:
    """Coalesces N finished batches into one shard object via transport appends.

    A per-batch PUT makes very large campaigns pay one object (and one
    listing entry, and one store request) per batch; at paper scale that is
    the same single-choke-point failure mode the Mutiny paper documents for
    control planes.  The batched writer keeps the durability of per-batch
    uploads — every batch still hits the store the moment it completes — but
    *appends* batches 2..N of a group to the shard object batch 1 created
    (each batch is a self-contained gzip member; members concatenate into
    one valid shard stream), so a campaign with ``--shard-batch 8`` stores
    an eighth of the objects.

    Appends are generation-conditional: the writer extends only the exact
    object state it last produced.  If the precondition ever fails (the
    shard was replaced behind our back — e.g. a reclaimed slice re-ran the
    same indexes), the writer falls back to starting a fresh group with the
    current batch rather than guessing, and nothing is lost: records are
    keyed by plan index, and duplicate records are byte-identical by
    determinism.

    One writer serves one worker's batch loop; the open-group bookkeeping
    (``_key``/``_generation``/``_batches_in_group``) is nevertheless guarded
    by ``self._lock`` — a threaded executor that hands one writer to several
    submitters must not tear the group state, and the lock's cost is noise
    next to the store round-trip it wraps.

    Trade-off to know: every append gives the open shard a new generation,
    so a poller that scans between appends re-downloads and re-parses the
    *growing* object (the parse cache keys on generation).  That cost is
    bounded by N × one shard — keep ``batches_per_shard`` moderate (the
    4-16 range) and the object-count/listing win dwarfs it; a ranged-read
    tail parse is the upgrade path if a profile ever says otherwise.
    """

    # Guarded by self._lock (enforced by mutiny-lint MUT004).
    _lock_guarded = ("_key", "_generation", "_batches_in_group")

    def __init__(self, store: ShardedResultStore, batches_per_shard: int):
        if batches_per_shard < 1:
            raise ValueError(f"batches_per_shard must be >= 1, got {batches_per_shard}")
        self.store = store
        self.batches_per_shard = batches_per_shard
        self._lock = threading.Lock()
        self._key: Optional[str] = None
        self._generation: Optional[str] = None
        self._batches_in_group = 0

    def write(self, records: list[tuple[int, ExperimentResult]]) -> str:
        """Persist one finished batch (durable on return); returns the
        address of the shard object holding it."""
        return self.write_dicts(
            [(index, result_to_dict(result)) for index, result in records]
        )

    def write_dicts(self, records: list[tuple[int, dict]]) -> str:
        if not records:
            raise ValueError("refusing to write an empty batch")
        member = _encode_member(records)
        with self._lock:
            return self._write_member_locked(records, member)

    def _write_member_locked(self, records: list[tuple[int, dict]], member: bytes) -> str:
        transport = self.store.transport
        if (
            self._key is not None
            and self._generation is not None
            and self._batches_in_group < self.batches_per_shard
        ):
            # mutiny-lint: disable=MUT007 -- generation chaining *requires* serializing append round-trips under the group lock: a concurrent append would fork the open shard's generation (see class docstring)
            generation = transport.append(self._key, member, self._generation)
            if generation is not None:
                self._generation = generation
                self._batches_in_group += 1
                self.store._index_map = None  # the completed set changed
                return transport.locate(self._key)
            # The open shard changed hands (replaced or removed) — abandon
            # the group and land this batch in a fresh shard of its own.
        key = _shard_key_for(records)
        # mutiny-lint: disable=MUT007 -- opening a fresh shard group must publish the first member before any concurrent submitter can chain onto it; serialized by design
        generation = transport.append(key, member, None)
        if generation is None:
            # The key already exists: a predecessor (or a racing replay of
            # the same slice) stored bytes under this name.  Never blindly
            # overwrite — the object may hold *more* than this batch, e.g.
            # later members a lease-losing predecessor appended before it
            # noticed ("already written shards always survive").  Whatever
            # is readable there stays readable: if it already covers this
            # batch, skip the write outright (deterministic results make
            # the bytes interchangeable); otherwise rewrite the readable
            # records and this batch together, each index exactly once.
            existing = dict(self.store._iter_shard_records(key))
            ours = dict(records)
            self._key = None
            self._generation = None
            self._batches_in_group = 0
            if not set(ours) <= set(existing):
                merged = sorted({**existing, **ours}.items())
                # mutiny-lint: disable=MUT007 -- the read-merge-rewrite of a collided shard key must not interleave with another append to the same writer; serialized by design
                transport.put(key, _encode_member(merged))
            self.store._index_map = None  # the completed set changed
            return transport.locate(key)
        self._key = key
        self._generation = generation
        self._batches_in_group = 1
        self.store._index_map = None  # the completed set changed
        return transport.locate(key)


class StoredResults:
    """A lazy, re-iterable plan-order view over a :class:`ShardedResultStore`.

    Behaves like the result list the executor used to return — ``len``,
    indexing, repeated iteration — but materializes one shard at a time, so
    holding the view costs O(1) memory regardless of campaign size.
    """

    def __init__(self, store: ShardedResultStore, indexes: list[int]):
        self.store = store
        self.indexes = list(indexes)

    def __len__(self) -> int:
        return len(self.indexes)

    def __iter__(self) -> Iterator[ExperimentResult]:
        return self.store.iter_results(self.indexes)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self.store.load_result(i) for i in self.indexes[position]]
        return self.store.load_result(self.indexes[position])

    def __eq__(self, other):
        """Element-wise equality against any result sequence (incl. lists).

        Lets ``CampaignResult`` comparisons work unchanged whether a campaign
        was streamed or held in memory; costs a full streaming pass.
        """
        if other is self:
            return True
        if not isinstance(other, (list, tuple, StoredResults)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))
