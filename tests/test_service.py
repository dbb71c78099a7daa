"""Tests for the campaign service API redesign.

Three contracts under test:

* :class:`CampaignSpec` is the single submission surface — it round-trips
  through JSON without changing identity, rejects unknown/invalid fields
  naming them, represents every ``repro.cli campaign`` flag, and both the
  CLI and the HTTP service build the same spec from the same description.
* The ``/v1`` HTTP API: submission is idempotent on content identity,
  progress/tables/status are computed live from the shard store, quota
  overflow answers 429 + ``Retry-After``, and ``GET /v1/campaigns/{id}``
  serves the byte-identical document ``inspect --json`` writes.
* Statelessness: a service SIGKILLed mid-campaign and restarted against the
  same ``--state`` store rehydrates from the index, resumes the campaign
  with zero replays, and the final digest is byte-identical to serial.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.objstore import LocalObjectStore
from repro.core.report import STORE_DOCUMENT_SCHEMA
from repro.core.resultstore import ShardedResultStore
from repro.core.transport import StoreURLError, resolve_store_url
from repro.service import (
    CampaignHandle,
    CampaignService,
    CampaignServiceServer,
    CampaignSpec,
    ServiceClient,
    ServiceError,
    SpecError,
)

#: src/ directory, for PYTHONPATH of spawned service processes.
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _tiny_spec(store_url: str, **overrides) -> CampaignSpec:
    """The 6-experiment campaign the distributed tests also use."""
    kwargs = dict(
        workloads=("deploy",),
        golden_runs=1,
        max_experiments=6,
        seed=3,
        workers=1,
        chunk_size=1,
        store_url=store_url,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """One serial run of the tiny campaign: (store root, digest)."""
    root = str(tmp_path_factory.mktemp("serial-ref") / "store")
    CampaignHandle(_tiny_spec(root)).run()
    return root, ShardedResultStore(root).results_digest()


@pytest.fixture()
def service_server(tmp_path):
    service = CampaignService(str(tmp_path / "state"), max_campaigns=4)
    server = CampaignServiceServer(("127.0.0.1", 0), service).start()
    client = ServiceClient(server.url)
    client.wait_ready(timeout=30)
    yield server, client
    server.stop()


# --------------------------------------------------------------------------
# CampaignSpec: round-trip, validation, CLI coverage
# --------------------------------------------------------------------------


class TestCampaignSpec:
    def test_json_roundtrip_preserves_fingerprint(self, tmp_path):
        spec = _tiny_spec(str(tmp_path / "store"), shard_batch=3, seed=11)
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()
        assert restored.campaign_id() == spec.campaign_id()

    def test_fingerprint_depends_on_content_and_store(self, tmp_path):
        one = _tiny_spec(str(tmp_path / "a"))
        assert one.fingerprint() != _tiny_spec(str(tmp_path / "a"), seed=4).fingerprint()
        assert one.fingerprint() != _tiny_spec(str(tmp_path / "b")).fingerprint()

    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(SpecError, match="max_expermnts"):
            CampaignSpec.from_dict({"max_expermnts": 60})

    def test_not_an_object_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            CampaignSpec.from_dict(["deploy"])
        with pytest.raises(SpecError, match="not valid JSON"):
            CampaignSpec.from_json("{nope")

    @pytest.mark.parametrize(
        ("kwargs", "named"),
        [
            (dict(workloads=("warp",)), "warp"),
            (dict(workloads=()), "workloads"),
            (dict(golden_runs=0), "golden_runs"),
            (dict(seed="7"), "seed"),
            (dict(workers=0), "workers"),
            (dict(shard_batch=0), "shard_batch"),
            (dict(backend="cloud"), "backend"),
            (dict(poll_interval=0), "poll_interval"),
            (dict(timeout=-1), "timeout"),
            (dict(store_url="s3://bucket/x"), "s3://bucket/x"),
            (dict(backend="distributed"), "store_url"),
        ],
    )
    def test_invalid_fields_rejected_by_name(self, kwargs, named):
        with pytest.raises(SpecError, match=re.escape(named)):
            CampaignSpec(**kwargs)

    def test_max_experiments_zero_normalizes_to_none(self):
        assert CampaignSpec(max_experiments=0).max_experiments is None
        assert CampaignSpec(max_experiments=0) == CampaignSpec(max_experiments=None)

    def test_every_campaign_flag_is_representable(self, tmp_path):
        """Each CLI `campaign` flag that shapes execution lands in the spec."""
        store = str(tmp_path / "store")
        args = build_parser().parse_args(
            [
                "campaign",
                "--workloads", "deploy,scale",
                "--seed", "11",
                "--golden-runs", "3",
                "--max-experiments", "12",
                "--workers", "2",
                "--chunk-size", "4",
                "--shard-batch", "2",
                "--backend", "distributed",
                "--results-dir", store,
                "--slice-size", "5",
                "--poll-interval", "0.25",
                "--coordinator-timeout", "60",
            ]
        )
        spec = CampaignSpec.from_cli_args(args)
        assert spec == CampaignSpec(
            workloads=("deploy", "scale"),
            seed=11,
            golden_runs=3,
            max_experiments=12,
            workers=2,
            chunk_size=4,
            shard_batch=2,
            backend="distributed",
            store_url=store,
            slice_size=5,
            poll_interval=0.25,
            timeout=60.0,
        )
        config = spec.to_config()
        assert [kind.value for kind in config.workloads] == ["deploy", "scale"]
        assert (config.golden_runs, config.seed) == (3, 11)
        assert config.max_experiments_per_workload == 12
        assert (config.workers, config.chunk_size, config.shard_batch) == (2, 4, 2)
        settings = spec.distributed_settings()
        assert (settings.slice_size, settings.poll_interval, settings.timeout) == (
            5, 0.25, 60.0,
        )

    def test_campaign_and_submit_build_identical_specs(self, tmp_path):
        """The no-duplicated-parsing criterion: both subcommands produce the
        same spec from the same flag vocabulary."""
        store = str(tmp_path / "store")
        flags = ["--workloads", "deploy", "--seed", "5", "--results-dir", store]
        parser = build_parser()
        campaign_args = parser.parse_args(["campaign", *flags])
        submit_args = parser.parse_args(
            ["submit", "--server", "http://127.0.0.1:1", *flags]
        )
        assert CampaignSpec.from_cli_args(campaign_args) == CampaignSpec.from_cli_args(
            submit_args
        )

    def test_campaign_id_survives_the_checkpoint_field_removal(self):
        # Pinned from the spec that still had a ``checkpoint`` field: ids
        # key the service index, so dropping the field must not move them.
        spec = CampaignSpec(store_url="objstore://127.0.0.1:9000/bench")
        assert spec.campaign_id() == "ad4972f96a8a8d6e"
        assert "checkpoint" not in spec.to_dict()

    def test_legacy_null_checkpoint_is_accepted_and_dropped(self):
        data = CampaignSpec(store_url="/tmp/x").to_dict()
        legacy = CampaignSpec.from_dict({**data, "checkpoint": None})
        assert legacy == CampaignSpec.from_dict(data)

    def test_checkpoint_value_is_rejected_by_name(self):
        with pytest.raises(SpecError, match="checkpoint.*removed.*store_url"):
            CampaignSpec.from_dict({"checkpoint": "/tmp/c.pkl", "store_url": "/tmp/x"})


# --------------------------------------------------------------------------
# resolve_store_url: the one store-root parser
# --------------------------------------------------------------------------


class TestResolveStoreURL:
    def test_posix_and_objstore_roots_pass_through(self, tmp_path):
        assert resolve_store_url(str(tmp_path)) == str(tmp_path)
        assert (
            resolve_store_url("objstore://127.0.0.1:1/bucket")
            == "objstore://127.0.0.1:1/bucket"
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "s3://bucket/key", "https://example.com/store", "objstore://host:1"],
    )
    def test_malformed_roots_rejected_naming_option(self, bad):
        with pytest.raises(StoreURLError, match=re.escape("--results-dir")):
            resolve_store_url(bad, option="--results-dir")

    def test_cli_paths_reject_bad_urls_naming_them(self, tmp_path, capsys):
        cases = [
            ["inspect", "s3://bucket/store"],
            ["worker", "--results-dir", "s3://bucket/store"],
            ["federate", "objstore://host:1", str(tmp_path / "src")],
            ["autofederate", str(tmp_path / "dest"), "s3://bucket/store",
             "--timeout", "1"],
            ["campaign", "--results-dir", "s3://bucket/store"],
        ]
        for argv in cases:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "error:" in err
            assert "s3://bucket/store" in err or "objstore://host:1" in err

    def test_distributed_without_store_names_results_dir(self, capsys):
        assert main(["campaign", "--backend", "distributed"]) == 2
        assert "--results-dir" in capsys.readouterr().err


# --------------------------------------------------------------------------
# objstore --max-page validation (PR 5 idiom)
# --------------------------------------------------------------------------


class TestMaxPageValidation:
    @pytest.mark.parametrize("bad", ["0", "-3", "nope"])
    def test_cli_rejects_bad_max_page_naming_flag(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["objstore", "--max-page", bad])
        assert excinfo.value.code == 2
        assert "--max-page" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_server_rejects_bad_max_page(self, bad):
        with pytest.raises(ValueError, match=re.escape("--max-page")):
            LocalObjectStore(("127.0.0.1", 0), max_page=bad)

    def test_server_accepts_valid_cap(self):
        server = LocalObjectStore(("127.0.0.1", 0), max_page=2)
        try:
            assert server.max_page == 2
        finally:
            server.server_close()


# --------------------------------------------------------------------------
# The /v1 HTTP API
# --------------------------------------------------------------------------


class TestServiceAPI:
    def test_health_and_readiness(self, service_server):
        _, client = service_server
        assert client.healthy()
        assert client.ready()

    def test_submit_runs_and_serves_inspect_document(
        self, service_server, tmp_path, capsys
    ):
        server, client = service_server
        store = str(tmp_path / "store")
        spec = _tiny_spec(store)
        response = client.submit(spec)
        assert response["id"] == spec.campaign_id()
        assert response["fingerprint"] == spec.fingerprint()
        assert response["spec"] == spec.to_dict()
        status = client.wait(response["id"], timeout=300)
        assert status["state"] == "complete"
        assert status["completed"] == status["total"] == 6
        assert status["stored_records"] == 6

        # Byte-identity: GET /v1/campaigns/{id} == inspect --json (satellite 2).
        json_path = str(tmp_path / "inspect.json")
        assert main(["inspect", store, "--json", json_path]) == 0
        capsys.readouterr()
        with open(json_path, "rb") as handle:
            cli_bytes = handle.read()
        http_bytes = client.document(response["id"])
        assert http_bytes == cli_bytes
        document = json.loads(http_bytes)
        assert document["schema"] == STORE_DOCUMENT_SCHEMA
        assert document["experiments"] == 6

        # Resubmission of the same document is idempotent.
        again = client.submit(spec)
        assert again["id"] == response["id"]
        assert [c["id"] for c in client.campaigns()] == [response["id"]]

        # Paper tables as JSON.
        tables = client.tables(response["id"])
        assert tables["schema"] == STORE_DOCUMENT_SCHEMA
        assert "deploy" in tables["table4_orchestrator_failures"]
        assert set(tables) >= {"table3_of_cf_matrix", "table5_client_failures"}

        # A second service over the same state rehydrates the completed
        # campaign as a terminal record without starting a runner.
        rehydrated = CampaignService(server.service.state_root)
        assert rehydrated.rehydrate() == 1
        assert rehydrated.list_campaigns()["campaigns"][0]["state"] == "complete"
        assert rehydrated.document_bytes(response["id"]) == cli_bytes

    def test_rehydrates_index_record_with_legacy_checkpoint_key(self, tmp_path):
        # An index record as services wrote it while specs still carried
        # ``"checkpoint": null``; it must come back under the same id.
        spec = {
            "backend": "local", "checkpoint": None, "chunk_size": None,
            "golden_runs": 2, "max_experiments": 60, "poll_interval": 0.5,
            "seed": 7, "shard_batch": 1, "slice_size": None,
            "store_url": "objstore://127.0.0.1:9000/bench", "timeout": None,
            "workers": None, "workloads": ["deploy", "scale", "failover"],
        }
        fingerprint = "ad4972f96a8a8d6e5bca4e97d0415c8351087315da57e36b93383a17c16c0441"
        record = {
            "id": fingerprint[:16], "fingerprint": fingerprint, "spec": spec,
            "submitted_at": 1.0, "cancelled": True,
        }
        service = CampaignService(str(tmp_path / "state"))
        service.transport.put(
            f"campaigns/{record['id']}.json",
            json.dumps(record, sort_keys=True).encode("utf-8"),
        )
        assert service.rehydrate() == 1
        # describe() reads only the registry, never the (absent) store.
        recovered = service.describe(fingerprint[:16])
        assert recovered["fingerprint"] == fingerprint
        assert recovered["state"] == "cancelled"
        assert CampaignSpec.from_dict(spec).fingerprint() == fingerprint

    def test_unknown_campaign_is_404(self, service_server):
        _, client = service_server
        with pytest.raises(ServiceError) as excinfo:
            client.describe("deadbeef00000000")
        assert excinfo.value.status == 404

    def test_invalid_spec_is_400_naming_field(self, service_server):
        _, client = service_server
        status, raw, _ = client._request(
            "POST", "/v1/campaigns", {"workloads": ["deploy"], "max_expermnts": 9}
        )
        assert status == 400
        assert "max_expermnts" in json.loads(raw)["error"]

    def test_store_url_required_for_service_campaigns(self, service_server):
        _, client = service_server
        with pytest.raises(ServiceError) as excinfo:
            client.submit(CampaignSpec(workloads=("deploy",)))
        assert excinfo.value.status == 400
        assert "store_url" in str(excinfo.value)

    def test_document_before_results_is_503(self, service_server, tmp_path):
        _, client = service_server
        # A distributed campaign with no workers: admitted, but its store
        # stays empty, so the document endpoint must defer, not 500.
        spec = _tiny_spec(str(tmp_path / "store"), backend="distributed")
        response = client.submit(spec)
        with pytest.raises(ServiceError) as excinfo:
            client.document(response["id"])
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is not None
        client.cancel(response["id"])

    def test_quota_answers_429_with_retry_after(self, tmp_path):
        service = CampaignService(str(tmp_path / "state"), max_campaigns=1)
        server = CampaignServiceServer(("127.0.0.1", 0), service).start()
        client = ServiceClient(server.url)
        try:
            client.wait_ready(timeout=30)
            # Occupies the only slot forever: distributed, no workers.
            first = client.submit(
                _tiny_spec(str(tmp_path / "store-a"), backend="distributed")
            )
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    _tiny_spec(str(tmp_path / "store-b"), backend="distributed")
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == service.retry_after
            # DELETE cancels cooperatively and frees the slot.
            client.cancel(first["id"])
            status = client.wait(first["id"], timeout=60)
            assert status["state"] == "cancelled"
            second = client.submit(
                _tiny_spec(str(tmp_path / "store-b"), backend="distributed")
            )
            client.cancel(second["id"])
        finally:
            server.stop()

    def test_status_reports_distributed_provenance_shape(
        self, service_server, tmp_path
    ):
        _, client = service_server
        spec = _tiny_spec(str(tmp_path / "store"), backend="distributed")
        response = client.submit(spec)
        status = client.describe(response["id"])
        assert status["backend"] == "distributed"
        assert "slices_done" in status and "outstanding_leases" in status
        client.cancel(response["id"])


# --------------------------------------------------------------------------
# Statelessness: SIGKILL the service mid-campaign, restart, digest == serial
# --------------------------------------------------------------------------


def _spawn_service(state_root: str) -> tuple[subprocess.Popen, ServiceClient]:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--state", state_root,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    banner = process.stdout.readline()
    match = re.search(r"http://[\d.]+:\d+", banner)
    assert match, f"no service URL in banner: {banner!r}"
    client = ServiceClient(match.group(0))
    client.wait_ready(timeout=60)
    return process, client


def test_service_restart_mid_campaign_digest_identical_to_serial(
    tmp_path, serial_reference
):
    """The tentpole proof: kill the service mid-campaign, restart it against
    the same state store, and the rehydrated service resumes the campaign to
    an ``inspect --json`` digest byte-identical to the serial run."""
    serial_store, serial_digest = serial_reference
    state = str(tmp_path / "state")
    store = str(tmp_path / "store")

    process, client = _spawn_service(state)
    try:
        response = client.submit(_tiny_spec(store))
        campaign_id = response["id"]
        # Let it run until at least one shard is durable, then SIGKILL the
        # service mid-campaign (experiments are still outstanding).
        deadline = time.monotonic() + 300
        reader = ShardedResultStore(store)
        while True:
            reader.refresh()
            if reader.has_manifest() and 0 < reader.record_count():
                break
            assert time.monotonic() < deadline, "no shard appeared before deadline"
            time.sleep(0.1)
    finally:
        process.kill()
        process.wait()

    process, client = _spawn_service(state)
    try:
        # /readyz recovery implies the index was listed and the campaign
        # rehydrated; the resumed run must finish with zero replays.
        status = client.wait(campaign_id, timeout=300)
        assert status["state"] == "complete"
        assert status["completed"] == status["total"] == 6
        assert status["stored_records"] == 6
        document = json.loads(client.document(campaign_id))
        assert document["results_digest"] == serial_digest
        assert document["stored_records"] == document["experiments"] == 6
    finally:
        process.kill()
        process.wait()
