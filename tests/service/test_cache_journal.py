"""Durability tests: the result cache verifies, the journal replays."""

import json

import pytest

from repro.service import journal as journal_module
from repro.service.cache import ResultCache, entry_digest
from repro.service.journal import (
    RunJournal,
    done_record,
    sweep_done_record,
    sweep_record,
)

HASH = "ab" + "0" * 62
OTHER = "cd" + "1" * 62

FINGERPRINT = {"final_loss": "0x1.8p-1", "final_params_sha256": "f" * 64}
RESULT = {"stats": {"messages_sent": 60}}
SPEC = {"workers": 4, "max_iter": 5}
#: A sweep's cell list of one.
HASH_CELL = [{"hash": HASH, "payload": SPEC}]
OTHER_CELL = [{"hash": OTHER, "payload": {}}]


class TestResultCache:
    def make(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def test_round_trip(self, tmp_path):
        cache = self.make(tmp_path)
        assert cache.get(HASH) is None  # cold miss
        put = cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        got = cache.get(HASH)
        assert got == put
        assert got["fingerprint"] == FINGERPRINT
        assert cache.stats() == {"hits": 1, "misses": 1, "corruptions": 0}

    def test_entries_fan_out_by_prefix(self, tmp_path):
        cache = self.make(tmp_path)
        assert cache.path_for(HASH).parent.name == "ab"

    @pytest.mark.parametrize(
        "name", ["../victim", "ab/../../x", HASH.upper(), HASH[:-1],
                 HASH + "0", "", None],
    )
    def test_only_spec_hashes_have_a_path(self, tmp_path, name):
        cache = self.make(tmp_path)
        for call in (cache.path_for, cache.get):
            with pytest.raises(ValueError, match="not a spec hash"):
                call(name)
        assert cache.stats() == {"hits": 0, "misses": 0, "corruptions": 0}

    def test_truncated_entry_is_quarantined_and_recomputable(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        path = cache.path_for(HASH)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(HASH) is None  # detected, never served
        assert not path.exists()  # quarantined -> recompute repopulates
        assert cache.stats()["corruptions"] == 1
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        assert cache.get(HASH) is not None

    def test_bit_flip_in_result_fails_integrity(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        path = cache.path_for(HASH)
        entry = json.loads(path.read_text())
        entry["result"]["stats"]["messages_sent"] += 1  # silent flip
        path.write_text(json.dumps(entry))
        assert cache.get(HASH) is None
        assert cache.stats()["corruptions"] == 1

    def test_tampered_fingerprint_fails_integrity(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        path = cache.path_for(HASH)
        entry = json.loads(path.read_text())
        entry["fingerprint"]["final_loss"] = "0x1.0p+0"
        path.write_text(json.dumps(entry))
        assert cache.get(HASH) is None

    def test_entry_under_wrong_address_is_rejected(self, tmp_path):
        cache = self.make(tmp_path)
        entry = cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        # Copy a (self-consistent!) entry to a different address: the
        # spec-hash binding must catch it even though the integrity
        # digest checks out.
        wrong = cache.path_for(OTHER)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(json.dumps(entry))
        assert cache.get(OTHER) is None

    def test_missing_keys_read_as_corruption(self, tmp_path):
        cache = self.make(tmp_path)
        path = cache.path_for(HASH)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spec_hash": HASH}))
        assert cache.get(HASH) is None
        assert cache.stats()["corruptions"] == 1

    def test_entry_digest_is_order_insensitive(self):
        a = entry_digest(HASH, {"a": 1, "b": 2}, FINGERPRINT, RESULT)
        b = entry_digest(HASH, {"b": 2, "a": 1}, FINGERPRINT, RESULT)
        assert a == b


class TestRunJournal:
    def make(self, tmp_path):
        return RunJournal(tmp_path / "journal.jsonl")

    def test_empty_journal_replays_empty(self, tmp_path):
        assert self.make(tmp_path).replay() == {}

    def test_replay_reconstructs_sweeps(self, tmp_path):
        journal = self.make(tmp_path)
        cells = [{"hash": HASH, "payload": SPEC},
                 {"hash": OTHER, "payload": {"workers": 8}}]
        journal.append(sweep_record("s000001", cells))
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        state = journal.replay()
        sweep = state["s000001"]
        assert not sweep.complete
        assert [c["hash"] for c in sweep.pending] == [OTHER]
        journal.cell_done("s000001", OTHER, cache_hit=True, attempts=0)
        journal.sweep_done("s000001")
        assert journal.replay()["s000001"].complete

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = self.make(tmp_path)
        journal.append(sweep_record("s000001", HASH_CELL))
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        with open(journal.path, "a") as handle:
            handle.write('{"kind": "done", "sweep_id": "s0000')  # kill -9
        state = journal.replay()
        assert HASH in state["s000001"].done

    def test_append_after_torn_tail_truncates_the_fragment(self, tmp_path):
        # A kill -9 mid-append leaves a torn tail with no newline; the
        # next process's first append must not glue its record onto
        # the fragment (that would corrupt a mid-file line and poison
        # every later replay).
        journal = self.make(tmp_path)
        journal.append(sweep_record("s000001", HASH_CELL))
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        with open(journal.path, "a") as handle:
            handle.write('{"kind": "done", "sweep_id": "s0000')  # kill -9
        restarted = RunJournal(journal.path)  # fresh process
        restarted.sweep_done("s000001")
        state = restarted.replay()  # must not raise
        assert state["s000001"].complete
        assert HASH in state["s000001"].done
        for line in journal.path.read_text().splitlines():
            json.loads(line)  # every surviving line is intact

    def test_multi_record_append_is_one_write_and_one_fsync(
        self, tmp_path, monkeypatch
    ):
        journal = self.make(tmp_path)
        fsyncs = []
        real_fsync = journal_module.os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", counting_fsync)
        journal.append(
            sweep_record("s000001", HASH_CELL),
            done_record("s000001", HASH, cache_hit=True, attempts=0),
            sweep_done_record("s000001"),
        )
        assert len(fsyncs) == 1
        assert len(journal.path.read_text().splitlines()) == 3
        sweep = journal.replay()["s000001"]
        assert sweep.complete and sweep.done[HASH]["cache_hit"] is True

    def test_torn_batch_replays_its_complete_prefix(self, tmp_path):
        # kill -9 mid-way through a multi-record append: the complete
        # lines replay, the torn final line is dropped, and the next
        # append truncates the fragment instead of gluing onto it.
        journal = self.make(tmp_path)
        cells = [{"hash": HASH, "payload": SPEC},
                 {"hash": OTHER, "payload": {"workers": 8}}]
        journal.append(
            sweep_record("s000001", cells),
            done_record("s000001", HASH, cache_hit=True, attempts=0),
            done_record("s000001", OTHER, cache_hit=True, attempts=0),
            sweep_done_record("s000001"),
        )
        data = journal.path.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1  # start of sweep-done
        third = data.rstrip(b"\n")[:last - 1].rfind(b"\n") + 1
        journal.path.write_bytes(data[:third + 20])  # tear the 3rd line
        restarted = RunJournal(journal.path)  # fresh process
        sweep = restarted.replay()["s000001"]
        assert list(sweep.done) == [HASH]
        assert not sweep.complete
        restarted.cell_done("s000001", OTHER, cache_hit=True, attempts=0)
        restarted.sweep_done("s000001")
        lines = journal.path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "sweep", "done", "done", "sweep-done"
        ]
        sweep = restarted.replay()["s000001"]
        assert sweep.complete and set(sweep.done) == {HASH, OTHER}

    def test_corruption_elsewhere_raises(self, tmp_path):
        journal = self.make(tmp_path)
        journal.append(sweep_record("s000001", HASH_CELL))
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        lines = journal.path.read_text().splitlines()
        lines[0] = lines[0][:20]  # not the tail: external damage
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal line 1"):
            journal.replay()

    def test_next_sweep_seq_advances_past_journaled_ids(self, tmp_path):
        journal = self.make(tmp_path)
        assert journal.next_sweep_seq() == 1
        journal.append(sweep_record("s000007", HASH_CELL))
        journal.append(sweep_record("custom-id", OTHER_CELL))
        assert journal.next_sweep_seq() == 8

    def test_checkpoint_drops_completed_sweeps(self, tmp_path):
        journal = self.make(tmp_path)
        journal.append(sweep_record("s000001", HASH_CELL))
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        journal.sweep_done("s000001")
        journal.append(sweep_record("s000002", OTHER_CELL))
        kept = journal.checkpoint()
        assert kept == 1
        state = journal.replay()
        assert set(state) == {"s000002"}
        # The compacted journal is still a valid journal.
        journal.cell_done("s000002", OTHER, cache_hit=False, attempts=1)
        journal.sweep_done("s000002")
        assert journal.replay()["s000002"].complete

    def test_checkpoint_preserves_the_sweep_sequence(self, tmp_path):
        # Compaction drops completed sweeps but must not let a
        # restarted server reuse their ids.
        journal = self.make(tmp_path)
        journal.append(sweep_record("s000005", HASH_CELL))
        journal.cell_done("s000005", HASH, cache_hit=False, attempts=1)
        journal.sweep_done("s000005")
        journal.checkpoint()
        assert journal.replay() == {}  # the sweep itself is gone
        assert journal.next_sweep_seq() == 6  # but its id stays burned
        journal.checkpoint()  # the high-water-mark survives recompaction
        assert journal.next_sweep_seq() == 6
