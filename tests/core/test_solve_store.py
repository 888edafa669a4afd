"""The persistent solve store: JSONL round-trips, dedup, torn tails."""

import json

import pytest

from repro.core.solve_store import (
    SolveStore,
    StoreVersionError,
    memo_entry_from_json,
    memo_entry_to_json,
)

SCHED_A = {
    "serialized": False,
    "streams": [
        {"dnn": "resnet18", "assignment": ["gpu", "dla", "gpu"]},
        {"dnn": "googlenet", "assignment": ["dla", "dla", "gpu"]},
    ],
}
SCHED_B = {
    "serialized": True,
    "streams": [
        {"dnn": "resnet18", "assignment": ["gpu", "gpu", "gpu"]},
        {"dnn": "googlenet", "assignment": ["gpu", "gpu", "gpu"]},
    ],
}
MEMO_KEY = ((("gpu", "dla"), ("dla",)), False, True)
MEMO_OK = (
    "ok",
    (0.004999999999999893, 0.0121),
    0.0121,
    0.0121,
    None,
    7,
)
MEMO_BAD = ("bad", "exclusive-accelerator clash")


class TestMemoEntryJson:
    def test_ok_entry_round_trips_exactly(self):
        key, value = memo_entry_from_json(
            memo_entry_to_json(MEMO_KEY, MEMO_OK)
        )
        assert key == MEMO_KEY
        assert value == MEMO_OK
        # bit-exact floats, not approximate ones
        assert value[1][0].hex() == MEMO_OK[1][0].hex()

    def test_bad_entry_round_trips(self):
        key, value = memo_entry_from_json(
            memo_entry_to_json(MEMO_KEY, MEMO_BAD)
        )
        assert key == MEMO_KEY
        assert value == MEMO_BAD

    def test_round_trip_through_actual_json(self):
        wire = json.loads(
            json.dumps(memo_entry_to_json(MEMO_KEY, MEMO_OK))
        )
        assert memo_entry_from_json(wire) == (MEMO_KEY, MEMO_OK)

    def test_energy_field_round_trips(self):
        value = ("ok", (0.1,), 0.1, 0.1, 12.5, 3)
        _, back = memo_entry_from_json(
            memo_entry_to_json(MEMO_KEY, value)
        )
        assert back == value


class TestScheduleRecords:
    def test_round_trip_through_reload(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        assert store.append_schedule("sig-a", SCHED_A)
        reloaded = SolveStore(store.path)
        assert reloaded.schedules() == {"sig-a": SCHED_A}
        assert reloaded.skipped_lines == 0
        assert len(reloaded) == 1

    def test_content_addressed_dedup(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        assert store.append_schedule("sig-a", SCHED_A)
        assert not store.append_schedule("sig-a", SCHED_A)
        assert len(store.path.read_text().splitlines()) == 1

    def test_last_schedule_wins(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-a", SCHED_A)
        store.append_schedule("sig-a", SCHED_B)
        assert store.schedules()["sig-a"] == SCHED_B
        # replaying the file preserves last-wins
        assert SolveStore(store.path).schedules()["sig-a"] == SCHED_B

    def test_signatures_sorted_across_kinds(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-b", SCHED_A)
        store.append_memo("sig-a", [(MEMO_KEY, MEMO_OK)])
        assert store.signatures() == ("sig-a", "sig-b")


class TestMemoRecords:
    def test_round_trip_through_reload(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        assert store.append_memo(
            "sig-a", [(MEMO_KEY, MEMO_OK), (MEMO_KEY, MEMO_BAD)]
        )
        reloaded = SolveStore(store.path)
        assert reloaded.memo_for("sig-a") == (
            (MEMO_KEY, MEMO_OK),
            (MEMO_KEY, MEMO_BAD),
        )
        assert reloaded.memo_for("sig-unknown") == ()

    def test_empty_batch_is_not_recorded(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        assert not store.append_memo("sig-a", [])
        assert not store.path.exists()

    def test_batches_accumulate_in_order(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_memo("sig-a", [(MEMO_KEY, MEMO_OK)])
        store.append_memo("sig-a", [(MEMO_KEY, MEMO_BAD)])
        assert store.memo_for("sig-a") == (
            (MEMO_KEY, MEMO_OK),
            (MEMO_KEY, MEMO_BAD),
        )


class TestDurability:
    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-a", SCHED_A)
        store.append_memo("sig-a", [(MEMO_KEY, MEMO_OK)])
        with store.path.open("a") as handle:
            handle.write('{"v": 1, "kind": "schedule", "si')  # crash
        reloaded = SolveStore(store.path)
        assert reloaded.skipped_lines == 1
        assert reloaded.schedules() == {"sig-a": SCHED_A}
        assert reloaded.memo_for("sig-a") == ((MEMO_KEY, MEMO_OK),)

    def test_id_mismatch_is_skipped_and_compacted_away(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-a", SCHED_A)
        store.append_schedule("sig-b", SCHED_B)
        first, second = store.path.read_text().splitlines()
        record = json.loads(second)
        record["sig"] = "sig-c"  # content no longer matches the id
        store.path.write_text(first + "\n" + json.dumps(record) + "\n")
        reloaded = SolveStore(store.path)
        assert reloaded.skipped_lines == 1
        assert reloaded.schedules() == {"sig-a": SCHED_A}
        assert reloaded.compact() == {
            "kept": 1,
            "dropped": 1,
            "bytes": len(first) + 1,
        }
        assert SolveStore(store.path).skipped_lines == 0

    def test_unknown_version_raises_naming_file_and_line(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-a", SCHED_A)
        record = json.loads(store.path.read_text())
        record["v"] = 2
        with store.path.open("a") as handle:
            handle.write('{"v": 1, "kind": "schedule", "si\n')  # torn
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(StoreVersionError) as exc:
            SolveStore(store.path)
        assert (exc.value.path, exc.value.line) == (store.path, 3)
        assert exc.value.version == 2
        assert f"{store.path} line 3" in str(exc.value)
        # without the v2 record, the torn line is one skipped line
        torn = "".join(store.path.read_text().splitlines(True)[:2])
        store.path.write_text(torn)
        reloaded = SolveStore(store.path)
        assert reloaded.skipped_lines == 1
        assert reloaded.schedules() == {"sig-a": SCHED_A}

    def test_compaction_keeps_a_store_with_unknown_version(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-a", SCHED_A)
        record = json.loads(store.path.read_text())
        record["v"] = 2
        with store.path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        before = store.path.read_text()
        with pytest.raises(StoreVersionError, match="line 2"):
            store.compact()
        assert store.path.read_text() == before

    def test_unknown_kind_is_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps(
                {
                    "v": 1,
                    "kind": "wisdom",
                    "sig": "sig-a",
                    "id": "sha256:0",
                    "body": 42,
                }
            )
            + "\n"
        )
        store = SolveStore(path)
        assert store.skipped_lines == 1
        assert len(store) == 0

    def test_blank_lines_ignored(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-a", SCHED_A)
        with store.path.open("a") as handle:
            handle.write("\n\n")
        reloaded = SolveStore(store.path)
        assert reloaded.skipped_lines == 0
        assert len(reloaded) == 1

    def test_missing_file_is_empty_store(self, tmp_path):
        store = SolveStore(tmp_path / "absent.jsonl")
        assert len(store) == 0
        assert store.signatures() == ()

    def test_repr_summarizes(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-a", SCHED_A)
        assert "1 records" in repr(store)


class TestReadonly:
    def test_refuses_appends(self, tmp_path):
        SolveStore(tmp_path / "s.jsonl").append_schedule(
            "sig-a", SCHED_A
        )
        store = SolveStore(tmp_path / "s.jsonl", readonly=True)
        assert store.schedules()  # still reads
        with pytest.raises(ValueError, match="read-only"):
            store.append_schedule("sig-b", SCHED_B)
        with pytest.raises(ValueError, match="read-only"):
            store.append_memo("sig-b", [(MEMO_KEY, MEMO_OK)])


#: a ``model`` record exactly as stores written before the retirement
#: of learned search guidance hold it
RETIRED_MODEL_LINE = (
    '{"v": 1, "kind": "model", "sig": "learn:v1:3f2a9c1e", "id": '
    '"sha256:99641dd8db0585a802678dccee82dc472983faa0b2ad2c9915278a7e7e'
    '010c4a", "model": {"v": 1, "schema": "3f2a9c1e", "branch": '
    '{"kind": "logistic", "weights": [0.25, -1.5], "bias": 0.125}}}'
)


class TestRetiredModelRecords:
    def test_old_store_loads_and_compacts_without_models(self, tmp_path):
        plain = SolveStore(tmp_path / "plain.jsonl")
        plain.append_schedule("sig-a", SCHED_A)
        plain.append_memo("sig-a", [(MEMO_KEY, MEMO_OK)])
        lines = plain.path.read_text().splitlines()
        old = tmp_path / "old.jsonl"
        old.write_text(
            "\n".join([lines[0], RETIRED_MODEL_LINE, lines[1]]) + "\n"
        )
        store = SolveStore(old)
        # ignored, not malformed, and not a record
        assert store.skipped_lines == 0
        assert len(store) == len(plain) == 2
        assert store.schedules() == plain.schedules()
        assert store.memo_for("sig-a") == plain.memo_for("sig-a")
        result = store.compact()
        assert result["dropped"] == 1
        assert old.read_text().splitlines() == lines
        reloaded = SolveStore(old)
        assert reloaded.skipped_lines == 0
        assert reloaded.schedules() == plain.schedules()
        assert reloaded.memo_for("sig-a") == plain.memo_for("sig-a")


class TestCompaction:
    def _populated(self, tmp_path):
        store = SolveStore(tmp_path / "s.jsonl")
        store.append_schedule("sig-a", SCHED_A)
        store.append_schedule("sig-a", SCHED_B)  # supersedes
        store.append_schedule("sig-b", SCHED_A)
        store.append_memo("sig-a", [(MEMO_KEY, MEMO_OK)])
        store.append_memo("sig-a", [(MEMO_KEY, MEMO_BAD)])
        return store

    def test_drops_superseded_keeps_live(self, tmp_path):
        store = self._populated(tmp_path)
        before = {
            "schedules": store.schedules(),
            "memo": store.memo_for("sig-a"),
        }
        result = store.compact()
        assert result["dropped"] == 1  # the old sig-a schedule
        assert result["kept"] == 4
        # live state is unchanged, in memory and after reload
        for view in (store, SolveStore(store.path)):
            assert view.schedules() == before["schedules"]
            assert view.memo_for("sig-a") == before["memo"]

    def test_surviving_lines_byte_identical(self, tmp_path):
        # compaction must never re-serialize: surviving lines are the
        # exact bytes that were appended, so record ids stay stable
        store = self._populated(tmp_path)
        original = store.path.read_text().splitlines(keepends=True)
        store.compact()
        compacted = store.path.read_text().splitlines(keepends=True)
        assert all(line in original for line in compacted)

    def test_idempotent(self, tmp_path):
        store = self._populated(tmp_path)
        store.compact()
        text = store.path.read_text()
        second = store.compact()
        assert second["dropped"] == 0
        assert store.path.read_text() == text

    def test_drops_torn_tail(self, tmp_path):
        store = self._populated(tmp_path)
        with store.path.open("a") as handle:
            handle.write('{"v": 1, "kind": "schedule", "si')
        store = SolveStore(store.path)
        assert store.skipped_lines == 1
        store.compact()
        assert store.skipped_lines == 0
        assert SolveStore(store.path).skipped_lines == 0

    def test_appends_still_dedup_after_compaction(self, tmp_path):
        store = self._populated(tmp_path)
        store.compact()
        # the surviving records' content ids were reloaded, so
        # re-appending identical content is still a no-op
        assert not store.append_schedule("sig-b", SCHED_A)

    def test_readonly_refuses(self, tmp_path):
        self._populated(tmp_path)
        store = SolveStore(tmp_path / "s.jsonl", readonly=True)
        with pytest.raises(ValueError, match="read-only"):
            store.compact()

    def test_missing_file_is_noop(self, tmp_path):
        store = SolveStore(tmp_path / "absent.jsonl")
        result = store.compact()
        assert result == {"kept": 0, "dropped": 0, "bytes": 0}
        assert not store.path.exists()

    def test_stats(self, tmp_path):
        store = self._populated(tmp_path)
        stats = store.stats()
        assert stats["schedules"] == 2
        assert stats["memo_entries"] == 2
        assert stats["records"] == 5
        assert stats["bytes"] == store.path.stat().st_size
