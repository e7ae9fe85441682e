"""End-to-end tests over the HTTP transport (real sockets, one stack)."""

import json

import pytest

from repro.serve.client import ServeAPIError, ServeClient
from repro.serve.config import ServeConfig
from repro.serve.http import run_in_thread


@pytest.fixture()
def stack(tmp_path):
    config = ServeConfig(
        data_dir=tmp_path / "serve", port=0, max_concurrency=2
    )
    handle = run_in_thread(config)
    yield handle, ServeClient(handle.url)
    handle.stop()


class TestLifecycle:
    def test_health(self, stack):
        _, client = stack
        assert client.health() == {"status": "ok"}

    def test_submit_wait_result(self, stack):
        _, client = stack
        record = client.submit(["test.echo"], seed=7)
        assert record["state"] in ("queued", "running")
        final = client.wait(record["id"], timeout=60)
        assert final["state"] == "done"
        assert final["counts"] == {
            "jobs": 1, "ok": 1, "cached": 0, "failed": 0, "skipped": 0,
        }
        result = client.result(record["id"])
        assert result["values"]["test.echo"]["seed"] is not None
        assert result["statuses"] == {"test.echo": "ok"}

    def test_identical_submissions_share_spec_key_and_cache(self, stack):
        _, client = stack
        first = client.submit(["test.echo"], seed=3)
        client.wait(first["id"], timeout=60)
        second = client.submit(["test.echo"], seed=3)
        final = client.wait(second["id"], timeout=60)
        assert second["spec_key"] == first["spec_key"]
        assert second["deduplicated"] is True
        assert final["counts"]["cached"] == 1
        assert (
            client.result(first["id"])["values"]
            == client.result(second["id"])["values"]
        )

    def test_repeated_artifact_payload_matches_cli_export(self, stack, tmp_path):
        # One payload rule for both transports: a repeated artifact is
        # keyed name#index in serve's result exactly as in `sweep --json`.
        from repro.cli import main as cli_main

        _, client = stack
        target = tmp_path / "cli.json"
        assert cli_main(
            ["sweep", "fig2", "fig2", "--scale", "0.2", "--seed", "3",
             "--quiet", "--json", str(target)]
        ) == 0
        record = client.submit(["fig2", "fig2"], seed=3, scale=0.2)
        assert client.wait(record["id"], timeout=120)["state"] == "done"
        values = client.result(record["id"])["values"]
        assert set(values) == {"fig2#0", "fig2#1"}
        assert values["fig2#0"] != values["fig2#1"]
        assert json.dumps(values, sort_keys=True) == json.dumps(
            json.loads(target.read_text()), sort_keys=True
        )

    def test_failed_job_settles_failed(self, stack):
        _, client = stack
        record = client.submit(["test.fail"], retries=0)
        final = client.wait(record["id"], timeout=60)
        assert final["state"] == "failed"
        assert "injected permanent failure" in final["error"]

    def test_job_listing_and_tenant_filter(self, stack):
        _, client = stack
        a = client.submit(["test.echo"], seed=1, tenant="alice")
        b = client.submit(["test.echo"], seed=2, tenant="bob")
        client.wait(a["id"], timeout=60)
        client.wait(b["id"], timeout=60)
        ids = {job["id"] for job in client.jobs(tenant="alice")}
        assert ids == {a["id"]}

    def test_manifest_endpoint(self, stack):
        _, client = stack
        record = client.submit(["test.echo"], seed=4)
        client.wait(record["id"], timeout=60)
        manifest = client.manifest(record["id"])
        assert [j["runner"] for j in manifest["jobs"]] == ["test.echo"]


class TestEvents:
    def test_settled_ledger_fetch(self, stack):
        _, client = stack
        record = client.submit(["test.echo"], seed=5)
        client.wait(record["id"], timeout=60)
        events = client.events(record["id"])
        types = [e["event"] for e in events]
        assert types[0] == "sweep_start"
        assert "job_start" in types
        assert "sweep_end" in types

    def test_follow_streams_until_settled(self, stack):
        _, client = stack
        record = client.submit(["test.sleep"], seed=6)
        streamed = [e["event"] for e in client.stream_events(record["id"])]
        assert streamed[0] == "sweep_start"
        assert "sweep_end" in streamed
        # The stream ended => the job had settled by then.
        assert client.job(record["id"])["state"] == "done"


class TestIntrospection:
    def test_stats_shape(self, stack):
        _, client = stack
        stats = client.stats()
        assert {"uptime_s", "scheduler", "cache", "jobs",
                "artifacts"} <= set(stats)

    def test_metrics_exposition(self, stack):
        _, client = stack
        record = client.submit(["test.echo"], seed=8)
        client.wait(record["id"], timeout=60)
        text = client.metrics()
        assert 'repro_serve_jobs{state="done"}' in text
        assert "repro_serve_cache_bytes" in text


class TestErrorMapping:
    def test_bad_request_is_400(self, stack):
        _, client = stack
        with pytest.raises(ServeAPIError) as info:
            client.submit(["no.such.artifact"])
        assert info.value.status == 400
        assert "no.such.artifact" in info.value.message

    def test_malformed_json_is_400(self, stack):
        handle, client = stack
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", handle.port)
        try:
            conn.request("POST", "/v1/jobs", body=b"{nope")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_job_is_404(self, stack):
        _, client = stack
        with pytest.raises(ServeAPIError) as info:
            client.job("j999999-deadbeef")
        assert info.value.status == 404

    def test_unknown_route_is_404(self, stack):
        _, client = stack
        with pytest.raises(ServeAPIError) as info:
            client._request("GET", "/v1/nope")
        assert info.value.status == 404

    def test_artifact_lookup_takes_only_a_full_digest(self, stack):
        handle, client = stack
        import http.client

        record = client.submit(["test.echo"], seed=5)
        digest = client.wait(record["id"], timeout=60)["result_digest"]

        def status(name):
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            try:
                conn.request("GET", f"/v1/artifacts/{name}")
                return conn.getresponse().status
            finally:
                conn.close()

        assert status(digest) == 200
        for name in (
            digest[:2] + "[0-9a-f]", digest[:2] + "*", digest[:-1],
            digest.upper(),
        ):
            assert status(name) == 404, name

    def test_result_before_settled_is_409(self, tmp_path):
        config = ServeConfig(
            data_dir=tmp_path / "serve409", port=0, max_concurrency=1
        )
        handle = run_in_thread(config)
        try:
            client = ServeClient(handle.url)
            slow = client.submit(["test.sleep"], seed=1)
            with pytest.raises(ServeAPIError) as info:
                client.result(slow["id"])
            assert info.value.status == 409
            client.wait(slow["id"], timeout=60)
        finally:
            handle.stop()

    def test_queue_full_is_429(self, tmp_path):
        config = ServeConfig(
            data_dir=tmp_path / "serve429",
            port=0,
            max_concurrency=1,
            queue_limit=1,
        )
        handle = run_in_thread(config)
        try:
            client = ServeClient(handle.url)
            ids = []
            saw_429 = False
            for seed in range(12):
                try:
                    ids.append(client.submit(["test.sleep"], seed=seed)["id"])
                except ServeAPIError as exc:
                    assert exc.status == 429
                    saw_429 = True
            assert saw_429
            for job_id in ids:
                client.wait(job_id, timeout=120)
        finally:
            handle.stop()

    def test_draining_is_503(self, stack):
        handle, client = stack
        client.drain()
        with pytest.raises(ServeAPIError) as info:
            client.submit(["test.echo"], seed=1)
        assert info.value.status == 503
        assert client.health() == {"status": "draining"}
