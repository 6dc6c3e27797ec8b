"""Unit tests for ``repro.service``: journal replay, queue atomicity, and
dispatcher request handling."""

import json

import pytest

import repro.obs as obs
from repro.runner import CampaignCell, CampaignSpec
from repro.service import (
    SERVICE_METRICS,
    CampaignJournal,
    Dispatcher,
    JournalState,
    SubmissionQueue,
    as_journal,
)


def _spec(n=3, name="svc"):
    cells = [
        CampaignCell(f"k{i}", "repro.runner.tasks:checksum_cell", {"seed": i})
        for i in range(n)
    ]
    return CampaignSpec(name, cells)


class TestJournal:
    def test_replay_roundtrip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.begin("camp", "deadbeef", total=3, salt="s")
        journal.completed("h1", "k1")
        journal.close()
        state = journal.replay()
        assert state.campaign == "camp"
        assert state.spec_hash == "deadbeef"
        assert state.total == 3
        assert state.generations == 1
        assert state.completed == {"h1": "k1"}
        assert state.failed == {}
        assert state.torn_records == 0
        assert state.interrupted

    def test_journal_with_submitted_records_replays_the_same(self, tmp_path):
        # Journals used to carry one ``submitted`` record per scheduled cell
        # after every ``begin``; replay ignores them, so such a journal folds
        # to the same state as the same journal without them.
        begin = {"kind": "begin", "schema": 1, "campaign": "camp",
                 "spec_hash": "h", "total": 3, "salt": ""}
        records = [
            begin,
            {"kind": "submitted", "hash": "h1", "key": "k1"},
            {"kind": "submitted", "hash": "h2", "key": "k2"},
            {"kind": "submitted", "hash": "h3", "key": "k3"},
            {"kind": "completed", "hash": "h1", "key": "k1"},
            {"kind": "failed", "hash": "h2", "key": "k2", "error": "boom"},
            begin,
            {"kind": "submitted", "hash": "h2", "key": "k2"},
            {"kind": "submitted", "hash": "h3", "key": "k3"},
            {"kind": "completed", "hash": "h2", "key": "k2"},
        ]  # ...and the second generation was killed before finishing h3

        def replay(name, kept):
            path = tmp_path / name
            path.write_text("".join(
                json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in kept
            ))
            return CampaignJournal(path).replay()

        old = replay("old.jsonl", records)
        assert old.completed == {"h1": "k1", "h2": "k2"}
        assert old.failed == {}
        assert old.generations == 2
        assert old.interrupted
        assert old.torn_records == 0
        assert replay("new.jsonl", [r for r in records if r["kind"] != "submitted"]) == old

    def test_empty_or_missing_journal_replays_empty(self, tmp_path):
        state = CampaignJournal(tmp_path / "absent.jsonl").replay()
        assert state == JournalState()
        assert not state.interrupted

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.begin("camp", "h", total=2)
        journal.completed("h1", "k1")
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "completed", "hash": "h2"')  # SIGKILL mid-write
        state = journal.replay()
        assert state.completed == {"h1": "k1"}
        assert state.torn_records == 1

    def test_completion_supersedes_failure(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.begin("camp", "h", total=1)
        journal.failed("h1", "k1", "boom")
        journal.completed("h1", "k1")  # a later retry/generation succeeded
        journal.close()
        state = journal.replay()
        assert state.completed == {"h1": "k1"}
        assert state.failed == {}

    def test_generations_count_resumes(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.begin("camp", "h", total=2)
        journal.completed("h1", "k1")
        journal.begin("camp", "h", total=2)  # the resume
        journal.completed("h2", "k2")
        journal.close()
        state = journal.replay()
        assert state.generations == 2
        assert not state.interrupted  # 2 completed of 2

    def test_appends_interleave_at_record_granularity(self, tmp_path):
        # Two handles on one path (two drainer processes, in miniature).
        a = CampaignJournal(tmp_path / "j.jsonl")
        b = CampaignJournal(tmp_path / "j.jsonl")
        for i in range(50):
            (a if i % 2 else b).completed(f"h{i}", f"k{i}")
        a.close()
        b.close()
        state = a.replay()
        assert len(state.completed) == 50
        assert state.torn_records == 0

    def test_for_spec_names_by_spec_hash(self, tmp_path):
        spec = _spec()
        journal = CampaignJournal.for_spec(tmp_path, spec, salt="s")
        assert journal.path == tmp_path / f"{spec.spec_hash('s')}.jsonl"
        # Any grid change lands in a different file.
        other = CampaignJournal.for_spec(tmp_path, _spec(n=4), salt="s")
        assert other.path != journal.path

    def test_as_journal_coercions(self, tmp_path):
        spec = _spec()
        assert as_journal(None, spec) is None
        handle = CampaignJournal(tmp_path / "j.jsonl")
        assert as_journal(handle, spec) is handle
        derived = as_journal(str(tmp_path), spec, salt="s")
        assert derived.path == tmp_path / f"{spec.spec_hash('s')}.jsonl"


class TestQueue:
    def test_fifo_numbering_and_claim_order(self, tmp_path):
        queue = SubmissionQueue(tmp_path / "svc")
        t0 = queue.submit({"target": "a"})
        t1 = queue.submit({"target": "b"})
        assert (t0.number, t1.number) == (0, 1)
        assert [t.number for t in queue.pending()] == [0, 1]
        claimed = queue.claim_next()
        assert claimed.number == 0
        assert claimed.request["target"] == "a"
        assert [t.number for t in queue.pending()] == [1]
        assert [t.number for t in queue.active()] == [0]

    def test_claim_empty_returns_none(self, tmp_path):
        assert SubmissionQueue(tmp_path / "svc").claim_next() is None

    def test_submit_stamps_submission_time(self, tmp_path):
        ticket = SubmissionQueue(tmp_path / "svc").submit({"target": "a"})
        assert ticket.request["submitted_at"] > 0

    def test_ticket_numbers_never_reused(self, tmp_path):
        queue = SubmissionQueue(tmp_path / "svc")
        first = queue.submit({"target": "a"})
        queue.complete(queue.claim_next(), {"ok": True})
        second = queue.submit({"target": "b"})
        assert second.number == first.number + 1  # done/ keeps the number taken

    def test_submit_retries_past_taken_numbers(self, tmp_path):
        queue = SubmissionQueue(tmp_path / "svc")
        queue.submit({"target": "a"})
        # A racing submitter already linked 00000001 — ours must take 2.
        (queue.pending_dir / "00000001.json").write_text("{}", encoding="utf-8")
        ticket = queue.submit({"target": "b"})
        assert ticket.number == 2

    def test_status_roundtrip_and_cleanup_on_complete(self, tmp_path):
        queue = SubmissionQueue(tmp_path / "svc")
        queue.submit({"target": "a"})
        ticket = queue.claim_next()
        queue.write_status(ticket, {"state": "running", "done": 1})
        assert queue.read_status(ticket.number) == {"state": "running", "done": 1}
        queue.complete(ticket, {"ok": True})
        assert queue.read_status(ticket.number) is None
        assert queue.active() == []
        done = queue.done()
        assert len(done) == 1
        assert done[0].request["outcome"] == {"ok": True}
        assert done[0].request["completed_at"] > 0

    def test_concurrent_drainers_claim_disjoint_tickets(self, tmp_path):
        queue_a = SubmissionQueue(tmp_path / "svc")
        queue_b = SubmissionQueue(tmp_path / "svc")
        queue_a.submit({"target": "a"})
        queue_a.submit({"target": "b"})
        first = queue_a.claim_next()
        second = queue_b.claim_next()
        assert {first.number, second.number} == {0, 1}
        assert queue_a.claim_next() is None

    def test_queue_wait_histogram_is_gated(self, tmp_path):
        queue = SubmissionQueue(tmp_path / "svc")
        queue.submit({"target": "a"})
        queue.claim_next()
        assert SERVICE_METRICS.histogram("service.queue_wait_s").count == 0
        obs.enable()
        queue.submit({"target": "b"})
        queue.claim_next()
        assert SERVICE_METRICS.histogram("service.queue_wait_s").count == 1


class TestDispatcher:
    def test_submit_rejects_unknown_target(self, tmp_path):
        with pytest.raises(ValueError, match="unknown campaign target"):
            Dispatcher(tmp_path / "svc").submit("no-such-campaign")

    def test_submit_rejects_bad_scale(self, tmp_path):
        with pytest.raises(ValueError, match="scale"):
            Dispatcher(tmp_path / "svc").submit("load-sweep", scale="huge")

    def test_submit_enqueues_validated_request(self, tmp_path):
        dispatcher = Dispatcher(tmp_path / "svc")
        ticket = dispatcher.submit(
            "load-sweep", scale="quick", seed=7, store="sqlite:r.db", client="me"
        )
        assert ticket.request["target"] == "load-sweep"
        assert ticket.request["scale"] == "quick"
        assert ticket.request["seed"] == 7
        assert ticket.request["store"] == "sqlite:r.db"
        assert ticket.request["client"] == "me"
        report = dispatcher.status()
        assert report["pending"][0]["target"] == "load-sweep"
        assert report["active"] == []
        assert report["done"] == []

    def test_execute_fails_unknown_request_fields_without_running(self, tmp_path):
        dispatcher = Dispatcher(tmp_path / "svc")
        dispatcher.queue.submit({"target": "load-sweep", "bogus": 1})
        outcome = dispatcher.execute(dispatcher.queue.claim_next())
        assert outcome["ok"] is False
        assert "bogus" in outcome["error"]
        assert dispatcher.status()["done"][0]["ok"] is False

    def test_execute_fails_unknown_target_without_raising(self, tmp_path):
        dispatcher = Dispatcher(tmp_path / "svc")
        dispatcher.queue.submit({"target": "no-such-campaign"})
        outcome = dispatcher.execute(dispatcher.queue.claim_next())
        assert outcome["ok"] is False
        assert "no-such-campaign" in outcome["error"]

    def test_recover_requeues_stranded_active_tickets(self, tmp_path):
        dispatcher = Dispatcher(tmp_path / "svc")
        dispatcher.submit("load-sweep", scale="quick")
        ticket = dispatcher.queue.claim_next()  # drainer claims, then "crashes"
        dispatcher.queue.write_status(ticket, {"state": "running"})
        assert dispatcher.recover() == 1
        assert [t.number for t in dispatcher.queue.pending()] == [ticket.number]
        assert dispatcher.queue.active() == []
        assert dispatcher.queue.read_status(ticket.number) is None

    def test_drain_empty_queue_is_ok(self, tmp_path):
        report = Dispatcher(tmp_path / "svc").drain()
        assert report.executed == []
        assert report.ok


class TestDrainEndToEnd:
    def test_drain_runs_quick_campaign(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # CLI-relative paths stay in tmp
        store = f"sqlite:{tmp_path / 'results.db'}"
        dispatcher = Dispatcher(tmp_path / "svc", jobs=2, store=store)
        dispatcher.submit("load-sweep", scale="quick", seed=5, client="test")
        report = dispatcher.drain()
        assert report.ok
        assert len(report.executed) == 1
        done = dispatcher.queue.done()[0].request
        outcome = done["outcome"]
        assert outcome["ok"] is True
        assert outcome["jobs"] == 2
        snapshots = outcome["telemetry"]
        assert sum(t["computed"] for t in snapshots) == 6
        # The shared store holds the cells; the journal dir records them.
        from repro.store import open_store

        handle = open_store(store)
        try:
            assert len(handle) == 6
        finally:
            handle.close()
        journals = list((tmp_path / "svc" / "journals").glob("*.jsonl"))
        assert len(journals) == 1
        records = [json.loads(line) for line in journals[0].read_text().splitlines()]
        assert sum(1 for r in records if r["kind"] == "completed") == 6

    def test_drained_campaign_resumes_from_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        store = f"sqlite:{tmp_path / 'results.db'}"
        dispatcher = Dispatcher(tmp_path / "svc", jobs=1, store=store)
        dispatcher.submit("load-sweep", scale="quick", seed=5)
        dispatcher.drain()
        dispatcher.submit("load-sweep", scale="quick", seed=5)  # identical resubmit
        report = dispatcher.drain()
        assert report.ok
        outcome = dispatcher.queue.done()[-1].request["outcome"]
        snapshots = outcome["telemetry"]
        assert sum(t["cached"] for t in snapshots) == 6
        assert sum(t["computed"] for t in snapshots) == 0
