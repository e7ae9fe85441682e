"""Tests for repro.serve.jobs: validation, spec keys, the journal."""

import json

import pytest

from repro.engine.spec import artifact_jobs
from repro.serve.jobs import (
    BadRequest,
    JobRecord,
    JobRequest,
    JobStore,
    TERMINAL_STATES,
)


class TestJobRequestValidation:
    def test_minimal_payload(self):
        request = JobRequest.from_payload({"artifacts": ["test.echo"]})
        assert request.artifacts == ("test.echo",)
        assert request.tenant == "anonymous"
        assert request.scale == 1.0

    def test_full_payload(self):
        request = JobRequest.from_payload(
            {
                "artifacts": ["test.echo", "test.sleep"],
                "seed": 7,
                "scale": 0.5,
                "workers": 2,
                "timeout_s": 3.5,
                "retries": 0,
                "tenant": "alice",
            }
        )
        assert request.seed == 7
        assert request.timeout_s == 3.5
        assert request.retries == 0
        assert request.tenant == "alice"

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            "text",
            {},
            {"artifacts": []},
            {"artifacts": "test.echo"},
            {"artifacts": [1, 2]},
            {"artifacts": ["no.such.artifact"]},
            {"artifacts": ["test.echo"], "seed": "seven"},
            {"artifacts": ["test.echo"], "scale": 0},
            {"artifacts": ["test.echo"], "scale": -1.0},
            {"artifacts": ["test.echo"], "workers": 0},
            {"artifacts": ["test.echo"], "timeout_s": -1},
            {"artifacts": ["test.echo"], "retries": -1},
            {"artifacts": ["test.echo"], "tenant": ""},
            {"artifacts": ["test.echo"], "bogus": True},
            {"artifacts": ["test.echo"], "backend": "numpy64"},
        ],
    )
    def test_rejects_bad_payloads(self, payload):
        with pytest.raises(BadRequest):
            JobRequest.from_payload(payload)

    def test_to_specs_matches_sweep_cli(self):
        """The contract behind cross-transport determinism."""
        request = JobRequest.from_payload(
            {"artifacts": ["test.echo", "test.sleep"], "seed": 9,
             "scale": 0.5}
        )
        via_server = request.to_specs()
        via_cli = artifact_jobs(
            ["test.echo", "test.sleep"], base_seed=9, scale=0.5
        )
        assert via_server == via_cli


class TestSpecKey:
    def test_stable_and_content_based(self):
        a = JobRequest.from_payload({"artifacts": ["test.echo"], "seed": 1})
        b = JobRequest.from_payload({"artifacts": ["test.echo"], "seed": 1})
        assert a.spec_key() == b.spec_key()

    def test_key_is_pinned(self):
        # Journals written by earlier versions must replay to the same keys.
        request = JobRequest.from_payload({"artifacts": ["test.echo"], "seed": 1})
        assert request.spec_key() == "14494951edeb8ad0"

    def test_execution_knobs_do_not_fork_the_key(self):
        base = JobRequest.from_payload({"artifacts": ["test.echo"], "seed": 1})
        tuned = JobRequest.from_payload(
            {
                "artifacts": ["test.echo"],
                "seed": 1,
                "workers": 4,
                "timeout_s": 9.0,
                "retries": 3,
                "tenant": "bob",
            }
        )
        assert base.spec_key() == tuned.spec_key()

    def test_work_changes_fork_the_key(self):
        base = JobRequest.from_payload({"artifacts": ["test.echo"], "seed": 1})
        keys = {
            base.spec_key(),
            JobRequest.from_payload(
                {"artifacts": ["test.sleep"], "seed": 1}
            ).spec_key(),
            JobRequest.from_payload(
                {"artifacts": ["test.echo"], "seed": 2}
            ).spec_key(),
            JobRequest.from_payload(
                {"artifacts": ["test.echo"], "seed": 1, "scale": 0.5}
            ).spec_key(),
        }
        assert len(keys) == 4


class TestJobRecord:
    def test_public_dict_shape(self):
        request = JobRequest.from_payload({"artifacts": ["test.echo"]})
        record = JobRecord(job_id="j1", request=request, submitted_t=1.0)
        public = record.as_public_dict()
        assert public["id"] == "j1"
        assert public["state"] == "queued"
        assert "latency_s" not in public
        record.state = "done"
        record.finished_t = 3.5
        assert record.terminal
        assert record.as_public_dict()["latency_s"] == pytest.approx(2.5)

    def test_terminal_states(self):
        assert TERMINAL_STATES == {"done", "failed", "cancelled"}


class TestJobStore:
    def _request(self, seed=1):
        return JobRequest.from_payload(
            {"artifacts": ["test.echo"], "seed": seed}
        )

    def test_ids_are_unique_and_keyed(self, tmp_path):
        store = JobStore(tmp_path / "jobs.jsonl")
        request = self._request()
        first = store.new_job_id(request)
        second = store.new_job_id(request)
        assert first != second
        assert first.endswith(request.spec_key()[:8])

    def test_journal_roundtrip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        for seed in (1, 2, 3):
            request = self._request(seed)
            store.add(JobRecord(store.new_job_id(request), request))
        store.close()
        entries = JobStore.read_journal(path)
        assert len(entries) == 3
        replayed = JobRequest.from_payload(entries[0]["request"])
        assert replayed.spec_key() == entries[0]["spec_key"]

    def test_journal_skips_replayed_adds(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        request = self._request()
        store.add(JobRecord("j1", request), journal=False)
        store.close()
        assert not path.exists()

    def test_journal_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        request = self._request()
        store.add(JobRecord("j1", request))
        store.close()
        with path.open("a") as handle:
            handle.write('{"job_id": "j2", "spec')  # killed mid-append
        entries = JobStore.read_journal(path)
        assert [e["job_id"] for e in entries] == ["j1"]

    def test_journal_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('not json\n{"job_id": "j2"}\n')
        with pytest.raises(ValueError):
            JobStore.read_journal(path)

    def test_list_filters(self, tmp_path):
        store = JobStore(tmp_path / "jobs.jsonl")
        alice = JobRequest.from_payload(
            {"artifacts": ["test.echo"], "tenant": "alice"}
        )
        bob = JobRequest.from_payload(
            {"artifacts": ["test.echo"], "tenant": "bob"}
        )
        store.add(JobRecord("j1", alice))
        record = JobRecord("j2", bob)
        record.state = "done"
        store.add(record)
        assert [r.job_id for r in store.list(tenant="alice")] == ["j1"]
        assert [r.job_id for r in store.list(state="done")] == ["j2"]
        assert store.counts_by_state()["queued"] == 1
        assert [r.job_id for r in store.unsettled()] == ["j1"]
