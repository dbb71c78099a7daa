"""Tests for the streaming sharded result store.

The store's contract: every field of an :class:`ExperimentResult` survives
the gzip-JSONL round trip exactly; a truncated (partially written) shard
yields its readable prefix and resume re-runs only what was lost; a store
written by a different campaign configuration is rejected; and a store-backed
campaign produces results identical to the in-memory run at any worker
count while reading at most one shard at a time.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.classification import (
    ClientFailure,
    ClientObservations,
    OrchestratorFailure,
    OrchestratorObservations,
)
from repro.core.experiment import ExperimentResult
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.resultstore import (
    ResultStoreMismatchError,
    ShardedResultStore,
    StoredResults,
    result_from_dict,
    result_to_dict,
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


def _full_result(index: int = 0) -> ExperimentResult:
    """An ExperimentResult with every field set to a non-default value."""
    fault = FaultSpec(
        channel=InjectionChannel.COMPONENT_TO_APISERVER,
        kind="Deployment",
        field_path="spec.replicas",
        name="webapp-1",
        namespace="default",
        component="kube-controller-manager",
        fault_type=FaultType.DATA_TYPE_SET,
        bit_index=4,
        set_value=0,
        occurrence=2,
    )
    return ExperimentResult(
        workload=WorkloadKind.FAILOVER,
        fault=fault,
        seed=1000 + index,
        injected=True,
        activated=True,
        dropped=True,
        orchestrator_failure=OrchestratorFailure.STA,
        client_failure=ClientFailure.SU,
        client_zscore=3.75,
        orchestrator_observations=OrchestratorObservations(
            final_ready_replicas=5,
            final_desired_replicas=6,
            final_endpoints=4,
            peak_total_pods=20,
            final_total_pods=18,
            pods_created=25,
            pod_count_growing=True,
            network_manager_ready=2,
            dns_ready=1,
            expected_network_manager=3,
            kcm_is_leader=False,
            scheduler_is_leader=False,
            etcd_alarm=True,
            scrape_failures=3,
            app_pod_restarts=2,
            settle_time=41.5,
            final_reachability=0.4,
            unreachable_running_pods=2,
        ),
        client_observations=ClientObservations(
            latency_series=[0.01, 0.0, 0.25],
            error_count=7,
            error_bursts=2,
            total_requests=30,
            unreachable_from_some_point=True,
        ),
        latency_series=[0.01, 0.0, 0.25],
        user_error_count=3,
        user_request_count=9,
        component_error_count=1,
        injection_time=105.25,
        pods_created=25,
        workload_started_at=45.0,
        finished_at=105.0,
    )


# ------------------------------------------------------------------- codec


def test_result_round_trips_every_field_through_json():
    original = _full_result()
    clone = result_from_dict(json.loads(json.dumps(result_to_dict(original))))
    assert clone == original
    assert clone.fault == original.fault
    assert clone.orchestrator_observations == original.orchestrator_observations
    assert clone.client_observations == original.client_observations


def test_golden_result_with_defaults_round_trips():
    # Golden runs have fault=None and unclassified failures.
    original = ExperimentResult(workload=WorkloadKind.DEPLOY, fault=None, seed=7)
    clone = result_from_dict(json.loads(json.dumps(result_to_dict(original))))
    assert clone == original


# ------------------------------------------------------------------- store


def test_store_round_trip_through_gzip_shards(tmp_path):
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=4)
    records = [(index, _full_result(index)) for index in range(4)]
    store.write_shard(records[:2])
    store.write_shard(records[2:])
    assert store.record_count() == 4
    assert list(store.iter_all()) == [result for _, result in records]
    assert store.load_result(3) == records[3][1]
    assert store.compressed_bytes() > 0


def test_store_shard_bytes_are_deterministic(tmp_path):
    # Same results -> byte-identical shard (gzip mtime pinned to 0).
    a = ShardedResultStore(str(tmp_path / "a"))
    b = ShardedResultStore(str(tmp_path / "b"))
    a.open("fp", 2)
    b.open("fp", 2)
    records = [(index, _full_result(index)) for index in range(2)]
    path_a = a.write_shard(records)
    path_b = b.write_shard(records)
    with open(path_a, "rb") as ha, open(path_b, "rb") as hb:
        assert ha.read() == hb.read()
    assert a.results_digest() == b.results_digest()


def test_store_rejects_foreign_fingerprint(tmp_path):
    root = str(tmp_path / "store")
    store = ShardedResultStore(root)
    store.open("fingerprint-a", total=4)
    ShardedResultStore(root).open("fingerprint-a", total=4)  # same plan: fine
    with pytest.raises(ResultStoreMismatchError):
        ShardedResultStore(root).open("fingerprint-b", total=4)


def test_store_prep_round_trip_and_mismatch(tmp_path):
    store = ShardedResultStore(str(tmp_path / "store"))
    prepared = [("baseline-sentinel", ["field-sentinel"])]
    store.save_prep("prep-fp", prepared)
    assert store.load_prep("prep-fp") == prepared
    with pytest.raises(ResultStoreMismatchError):
        store.load_prep("other-fp")
    absent = ShardedResultStore(str(tmp_path / "absent"))
    assert absent.load_prep("prep-fp") is None


def test_truncated_shard_yields_readable_prefix(tmp_path):
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=8)
    path = store.write_shard([(index, _full_result(index)) for index in range(8)])

    # Chop the gzip stream in half: the tail record(s) are lost, the prefix
    # must still parse, and nothing may raise.
    with open(path, "rb") as handle:
        payload = handle.read()
    with open(path, "wb") as handle:
        handle.write(payload[: len(payload) // 2])

    store.refresh()
    completed = set(store.completed_indexes())
    assert completed < set(range(8))  # strictly fewer than written
    for index in sorted(completed):
        assert store.load_result(index) == _full_result(index)


def test_plan_order_iteration_loads_each_shard_once(tmp_path, monkeypatch):
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=6)
    for start in range(0, 6, 2):
        store.write_shard([(index, _full_result(index)) for index in range(start, start + 2)])

    loads: list[str] = []
    original = ShardedResultStore._load_shard

    def counting_load(self, path):
        loads.append(path)
        return original(self, path)

    monkeypatch.setattr(ShardedResultStore, "_load_shard", counting_load)
    view = StoredResults(store, list(range(6)))
    assert len(view) == 6
    assert [result.seed for result in view] == [1000 + index for index in range(6)]
    # Plan-order streaming decompresses each of the 3 shards exactly once:
    # peak memory is one shard, not the campaign.
    assert len(loads) == 3
    assert len(set(loads)) == 3


def test_refresh_only_parses_new_shards(tmp_path, monkeypatch):
    # Shards are immutable once renamed into place, so a refresh (the
    # distributed coordinator and workers poll the store continuously) must
    # decompress only shards it has never seen — not the whole store again.
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=4)
    store.write_shard([(index, _full_result(index)) for index in range(0, 2)])

    parses: list[str] = []
    original = ShardedResultStore._iter_shard_records

    def counting(self, key):
        parses.append(key)
        return original(self, key)

    monkeypatch.setattr(ShardedResultStore, "_iter_shard_records", counting)
    assert set(store.completed_indexes()) == {0, 1}
    assert len(parses) == 1
    store.write_shard([(index, _full_result(index)) for index in range(2, 4)])
    store.refresh()
    assert set(store.completed_indexes()) == {0, 1, 2, 3}
    assert len(parses) == 2  # only the new shard was decompressed
    # The raw-record count rides the same cache: no further decompression.
    assert store.stored_record_count() == 4
    assert len(parses) == 2

    # A shard truncated in place (same path, smaller size) is re-parsed.
    victim = store.shard_paths()[0]
    with open(victim, "rb") as handle:
        payload = handle.read()
    with open(victim, "wb") as handle:
        handle.write(payload[: len(payload) // 2])
    store.refresh()
    assert set(store.completed_indexes()) < {0, 1, 2, 3}
    assert len(parses) == 3


def test_same_size_rewrite_invalidates_the_parse_cache(tmp_path):
    # Regression: the parse cache used to be keyed on file *size* alone, so
    # a same-named shard atomically replaced by equal-size different content
    # (e.g. a truncated shard whose readable prefix parsed, then rewritten)
    # was served stale.  The cache now keys on the full generation token
    # (size + mtime + identity).
    import os

    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=4)
    path = store.write_shard([(index, _full_result(index)) for index in range(4)])
    assert set(store.completed_indexes()) == {0, 1, 2, 3}

    # Equal-size, different content: corrupt one byte mid-stream, shortening
    # the readable prefix without changing the file size.
    with open(path, "rb") as handle:
        payload = bytearray(handle.read())
    payload[len(payload) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(payload)
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))

    store.refresh()
    assert set(store.completed_indexes()) < {0, 1, 2, 3}  # not served stale


def test_record_with_index_but_no_result_ends_the_readable_prefix(tmp_path):
    # Regression: a shard line holding an "index" but no "result" used to
    # yield an empty dict that exploded much later as a KeyError deep inside
    # result_from_dict during aggregation; it is a truncation like any
    # other — the shard ends at the last complete record before it.
    import gzip
    import io

    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=3)
    good = json.dumps({"index": 0, "result": result_to_dict(_full_result(0))})
    lost = json.dumps({"index": 1})  # the write died between the two fields
    after = json.dumps({"index": 2, "result": result_to_dict(_full_result(2))})
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as stream:
        for line in (good, lost, after):
            stream.write(line.encode("utf-8") + b"\n")
    store.transport.put("shards/shard-00000000-00000002.jsonl.gz", buffer.getvalue())

    assert set(store.completed_indexes()) == {0}
    assert store.load_result(0) == _full_result(0)
    assert len(store.results_digest()) == 64  # aggregation no longer explodes
    assert list(store.iter_all()) == [_full_result(0)]


def test_scan_leaves_fresh_shard_in_read_cache(tmp_path, monkeypatch):
    # The distributed coordinator's hot path: each poll scans the store and
    # immediately folds the indexes it just discovered.  The scan must hand
    # its decompressed records to the read cache so the fold doesn't gunzip
    # the same (typically single new) shard a second time.
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=2)
    store.write_shard([(index, _full_result(index)) for index in range(2)])
    store.refresh()
    assert set(store.completed_indexes()) == {0, 1}

    def explode(self, path):
        raise AssertionError("freshly scanned shard was decompressed twice")

    monkeypatch.setattr(ShardedResultStore, "_load_shard", explode)
    assert store.load_result(1) == _full_result(1)


def test_streaming_pass_memory_is_bounded_by_one_shard(tmp_path):
    # 2,000 results across 100 shards: a full streaming pass (the tally all
    # aggregations fold from) must peak far below the materialized campaign,
    # i.e. peak memory tracks the shard size, not the experiment count.
    import tracemalloc

    from repro.core.campaign import CampaignResult

    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=2000)
    for start in range(0, 2000, 20):
        store.write_shard([(index, _full_result(index)) for index in range(start, start + 20)])

    tracemalloc.start()
    materialized = list(store.iter_all())
    _, materialized_peak = tracemalloc.get_traced_memory()
    assert len(materialized) == 2000
    del materialized
    tracemalloc.stop()

    store.refresh()
    tracemalloc.start()
    campaign = CampaignResult(results=store.all_results())
    assert campaign.total_experiments() == 2000
    assert campaign.activation_rate() == 1.0
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # The streaming pass keeps the index map (a few dozen bytes per index)
    # and one decompressed shard; the result payloads — the part that grows
    # with experiment size — never accumulate.  5x headroom keeps the
    # assertion robust across allocator details.
    assert streaming_peak < materialized_peak / 5


# ------------------------------------------------- store-backed campaigns


def test_streaming_campaign_matches_in_memory_and_resumes(tmp_path):
    config = _tiny_config(workers=1, chunk_size=2)
    in_memory = Campaign(config).run()
    root = str(tmp_path / "results")
    streamed = Campaign(config).run(results_dir=root)
    assert list(streamed.results) == in_memory.results
    # StoredResults compares element-wise against plain lists too, so whole
    # CampaignResult comparisons work whether a campaign streamed or not.
    assert streamed.results == in_memory.results
    assert streamed.baselines == in_memory.baselines
    assert streamed.classification_counts() == in_memory.classification_counts()

    # Rerunning the same configuration replays zero completed experiments:
    # progress reports everything done immediately and no batch runs.
    import repro.core.parallel as parallel_module

    calls: list[tuple[int, int]] = []
    original_run_batch = parallel_module._run_batch

    def forbidden(*args, **kwargs):
        raise AssertionError("a completed experiment was re-executed on resume")

    parallel_module._run_batch = forbidden
    try:
        resumed = Campaign(config).run(
            results_dir=root, progress=lambda done, total: calls.append((done, total))
        )
    finally:
        parallel_module._run_batch = original_run_batch
    total = len(in_memory.results)
    assert calls == [(total, total)]
    assert list(resumed.results) == in_memory.results


def test_streaming_campaign_resumes_after_truncated_shard(tmp_path):
    config = _tiny_config(workers=1, chunk_size=2)
    root = str(tmp_path / "results")
    first = Campaign(config).run(results_dir=root)
    expected = list(first.results)

    # Truncate the last shard mid-record, as an interrupted run would.
    store = ShardedResultStore(root)
    victim = store.shard_paths()[-1]
    with open(victim, "rb") as handle:
        payload = handle.read()
    with open(victim, "wb") as handle:
        handle.write(payload[: len(payload) // 2])
    store.refresh()
    survivors = set(store.completed_indexes())
    lost = len(expected) - len(survivors)
    assert lost > 0

    calls: list[tuple[int, int]] = []
    resumed = Campaign(config).run(
        results_dir=root, progress=lambda done, total: calls.append((done, total))
    )
    assert list(resumed.results) == expected
    # The first progress call reports the surviving results; only the lost
    # ones are re-executed.
    assert calls[0] == (len(survivors), len(expected))
    assert calls[-1] == (len(expected), len(expected))


def test_streaming_campaign_rejects_changed_configuration(tmp_path, monkeypatch):
    import repro.core.parallel as parallel_module

    root = str(tmp_path / "results")
    Campaign(_tiny_config(workers=1)).run(results_dir=root)

    def explode(*args, **kwargs):
        raise AssertionError("a changed configuration must be rejected before prep")

    # Fail-fast: the stored prep's fingerprint rejects the changed
    # configuration before any golden run is recomputed.
    monkeypatch.setattr(parallel_module, "_run_golden_job", explode)
    with pytest.raises(ResultStoreMismatchError):
        Campaign(_tiny_config(workers=1, golden_runs=2)).run(results_dir=root)


def test_mispointed_results_dir_is_left_untouched(tmp_path):
    # A foreign store whose prep.pkl is missing cannot be recognized as
    # foreign until the campaign fingerprint is computed; the run must still
    # be rejected *before* anything is written into the foreign store.
    import os

    root = str(tmp_path / "results")
    Campaign(_tiny_config(workers=1)).run(results_dir=root)
    os.remove(os.path.join(root, "prep.pkl"))
    shards_before = set(ShardedResultStore(root).shard_paths())
    with pytest.raises(ResultStoreMismatchError):
        Campaign(_tiny_config(workers=1, golden_runs=2)).run(results_dir=root)
    assert not os.path.exists(os.path.join(root, "prep.pkl"))
    assert set(ShardedResultStore(root).shard_paths()) == shards_before


def test_streaming_campaign_skips_prep_on_resume(tmp_path, monkeypatch):
    import repro.core.parallel as parallel_module

    config = _tiny_config(workers=1, max_experiments_per_workload=2)
    root = str(tmp_path / "results")
    first = Campaign(config).run(results_dir=root)

    def explode(*args, **kwargs):
        raise AssertionError("prep must come from the result store on resume")

    monkeypatch.setattr(parallel_module, "_run_golden_job", explode)
    resumed = Campaign(config).run(results_dir=root)
    assert list(resumed.results) == list(first.results)
    assert resumed.baselines == first.baselines
    assert resumed.recorded_fields == first.recorded_fields


# --------------------------------------------------------------------- CLI


def test_cli_campaign_results_dir_and_inspect(tmp_path, capsys):
    from repro.cli import main

    root = str(tmp_path / "results")
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
            "--results-dir",
            root,
        ]
    )
    assert exit_code == 0
    assert "Campaign summary" in capsys.readouterr().out

    json_path = str(tmp_path / "inspect.json")
    assert main(["inspect", root, "--json", json_path]) == 0
    out = capsys.readouterr().out
    assert "Result store summary" in out
    assert "shards" in out
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["experiments"] == 2
    assert sum(payload["classification_counts"].values()) == 2
    assert payload["results_digest"] == ShardedResultStore(root).results_digest()


def test_cli_inspect_rejects_non_store_directory(tmp_path, capsys):
    from repro.cli import main

    assert main(["inspect", str(tmp_path)]) == 2
    assert "not a result store" in capsys.readouterr().err


def test_cli_rejects_removed_checkpoint_flag(tmp_path, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--checkpoint", str(tmp_path / "x.ckpt")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err


def test_cli_names_bad_count_values(capsys):
    from repro.cli import main

    for flags in (["--workers", "0"], ["--chunk-size", "-2"], ["--workers", "lots"]):
        with pytest.raises(SystemExit):
            main(["campaign", *flags])
        err = capsys.readouterr().err
        assert "invalid value" in err
        assert flags[1] in err


# ------------------------------------------------------ batched shard upload


def test_batched_writer_coalesces_batches_into_one_shard(tmp_path):
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=8)
    writer = store.batched_writer(3)
    for start in (0, 2, 4):
        writer.write([(start, _full_result(start)), (start + 1, _full_result(start + 1))])
    assert len(store.shard_keys()) == 1  # three batches, one object
    # The fourth batch starts a fresh group.
    writer.write([(6, _full_result(6)), (7, _full_result(7))])
    assert len(store.shard_keys()) == 2

    # A fresh store instance (another process) reads every record exactly
    # once; concatenated gzip members decompress as one stream.
    again = ShardedResultStore(str(tmp_path))
    assert again.record_count() == 8
    assert again.stored_record_count() == 8
    for index in range(8):
        assert again.load_result(index) == _full_result(index)


def test_batched_and_per_batch_layouts_share_the_digest(tmp_path):
    records = [(index, _full_result(index)) for index in range(6)]
    per_batch = ShardedResultStore(str(tmp_path / "per-batch"))
    per_batch.open("fp", total=6)
    for index, result in records:
        per_batch.write_shard([(index, result)])
    batched = ShardedResultStore(str(tmp_path / "batched"))
    batched.open("fp", total=6)
    writer = batched.batched_writer(4)
    for index, result in records:
        writer.write([(index, result)])
    assert len(batched.shard_keys()) < len(per_batch.shard_keys())
    assert batched.results_digest() == per_batch.results_digest()


def test_batched_writer_truncated_tail_keeps_earlier_members(tmp_path):
    # A shard whose last appended member is torn (the worker died mid-append)
    # must still yield every earlier batch: members are self-contained.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=6)
    writer = store.batched_writer(3)
    for start in (0, 2, 4):
        writer.write([(start, _full_result(start)), (start + 1, _full_result(start + 1))])
    (key,) = store.shard_keys()
    payload = store.transport.get(key)
    store.transport.put(key, payload[:-20])  # tear into the last member
    fresh = ShardedResultStore(str(tmp_path))
    completed = set(fresh.completed_indexes())
    assert {0, 1, 2, 3} <= completed
    assert completed < set(range(6))
    for index in sorted(completed):
        assert fresh.load_result(index) == _full_result(index)


def test_batched_writer_never_destroys_a_predecessors_later_members(tmp_path):
    # A lease-losing worker may have appended *more* batches to the shard
    # this batch's name points at ("already written shards always survive").
    # A replaying successor that finds the key taken must keep every record
    # readable there — skipping its own write when the batch is already
    # covered — never overwrite the object down to its own batch.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=4)
    predecessor = store.batched_writer(4)
    predecessor.write([(0, _full_result(0)), (1, _full_result(1))])
    predecessor.write([(2, _full_result(2)), (3, _full_result(3))])  # appended

    replayer = ShardedResultStore(str(tmp_path)).batched_writer(4)
    replayer.write([(0, _full_result(0)), (1, _full_result(1))])  # stale pending

    fresh = ShardedResultStore(str(tmp_path))
    assert fresh.record_count() == 4  # records 2-3 survived the replay
    assert fresh.stored_record_count() == 4  # and nothing was duplicated
    for index in range(4):
        assert fresh.load_result(index) == _full_result(index)


def test_batched_writer_replaces_a_fully_torn_namesake(tmp_path):
    # The legitimate overwrite case: the existing object's readable prefix
    # does not cover this batch (a predecessor died mid-create), so the
    # readable records and the batch are rewritten together, each index once.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=2)
    writer = store.batched_writer(4)
    writer.write([(0, _full_result(0)), (1, _full_result(1))])
    (key,) = store.shard_keys()
    payload = store.transport.get(key)
    store.transport.put(key, payload[: len(payload) // 2])  # torn mid-create

    replayer = ShardedResultStore(str(tmp_path)).batched_writer(4)
    replayer.write([(0, _full_result(0)), (1, _full_result(1))])
    fresh = ShardedResultStore(str(tmp_path))
    assert fresh.record_count() == 2
    assert fresh.stored_record_count() == 2
    for index in range(2):
        assert fresh.load_result(index) == _full_result(index)


def test_batched_writer_abandons_a_replaced_shard_group(tmp_path):
    # If the open shard changes hands (a reclaimed slice re-ran the same
    # indexes), the writer must not append to the impostor — it starts a
    # fresh shard and no record is lost or duplicated.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=4)
    writer = store.batched_writer(10)
    writer.write([(0, _full_result(0)), (1, _full_result(1))])
    (key,) = store.shard_keys()
    store.transport.put(key, store.transport.get(key))  # replaced: new generation
    writer.write([(2, _full_result(2)), (3, _full_result(3))])
    fresh = ShardedResultStore(str(tmp_path))
    assert fresh.record_count() == 4
    assert fresh.stored_record_count() == 4
    assert len(fresh.shard_keys()) == 2
