"""Persistent, content-addressed solve store (append-only JSONL).

The serving fleet shares solve work across shard processes *and*
across runs: every converged schedule lands in one on-disk store keyed
by :func:`repro.core.schedule_cache.workload_signature`, so a cold
shard (or a repeated benchmark run) starts with the schedules earlier
runs already paid for.  A stored schedule re-materializes
bit-identically against a fresh formulation, so the store is purely a
speed channel: results never depend on whether it was warm.

File format (one JSON object per line, documented in
``docs/architecture.md`` section 6b):

``{"v": 1, "kind": "schedule", "sig": <workload signature>,
"id": "sha256:<hex>", "schedule": {"serialized": bool, "streams":
[{"dnn": str, "assignment": [accel, ...]}, ...]}}``

``memo`` is a legacy record kind: nothing in the package writes or
reads it any more, but stores that hold such lines keep loading
(:meth:`SolveStore.append_memo` / :meth:`SolveStore.memo_for` still
round-trip it).  Its shape is ``{"v": 1, "kind": "memo", "sig":
<workload signature>, "id": "sha256:<hex>", "entries": [[key, value],
...]}`` where ``key`` is ``[[ [accel, ...], ... ], serialized,
check_exclusive]`` and ``value`` is ``["ok", [per_dnn...], objective,
makespan, energy|null, iterations]`` or ``["bad", message]``.

Older stores may also hold ``{"v": 1, "kind": "model", ...}`` lines:
trained search-guidance bundles from a retired subsystem.  The loader
ignores them (they are neither adopted nor counted as malformed) and
:meth:`SolveStore.compact` drops them.

Append-only files only grow; :meth:`SolveStore.compact` rewrites the
file with just the live records (all memo batches, the last schedule
per signature), using a temp-file + atomic-rename so a crash
mid-compaction leaves the original intact.

Records are content-addressed: ``id`` is the SHA-256 of the canonical
(sorted-keys, compact) JSON of ``[kind, sig, body]``, and appends
deduplicate on it, so replaying gossip deltas or re-running a
benchmark never grows the file with duplicate records.  The loader
re-derives every ``id`` and skips (and counts) a record whose content
no longer matches it, so an edited or bit-flipped record is never
adopted.  Appends are single-line and the loader tolerates malformed
lines (a crash mid-append loses only the trailing record, never the
store).  A well-formed record whose ``v`` is not
:data:`SCHEMA_VERSION` is not skipped: the loader (and
:meth:`SolveStore.compact`) raises :class:`StoreVersionError` naming
the file and line, since this code cannot tell what such a record
means and must not drop it.  The serving fleet appends from the one
process that scans its shards; shards never touch the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

#: on-disk schema version stamped into every record
SCHEMA_VERSION = 1


class StoreVersionError(ValueError):
    """A store record carries a schema version this code cannot read."""

    def __init__(self, path: Path, line: int, version: Any) -> None:
        super().__init__(
            f"solve store {path} line {line}: record version {version!r} "
            f"is not {SCHEMA_VERSION}"
        )
        self.path = path
        self.line = line
        self.version = version


#: record kind -> the field holding its content-addressed body
_BODY_FIELD = {"schedule": "schedule", "memo": "entries"}


def _record_id(kind: str, sig: str, body: Any) -> str:
    """Content address of one record (order-independent for dicts)."""
    blob = json.dumps(
        [kind, sig, body], sort_keys=True, separators=(",", ":")
    )
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def memo_entry_to_json(key: Any, value: Any) -> list[Any]:
    """One memo-table entry as a JSON-serializable pair.

    Floats survive exactly: ``json`` emits ``repr``-round-trippable
    literals, so a loaded entry is bit-identical to the stored one.
    """
    assign_key, serialized, check_exclusive = key
    jkey = [
        [list(group) for group in assign_key],
        bool(serialized),
        bool(check_exclusive),
    ]
    if value[0] == "ok":
        _tag, per_dnn, objective, makespan, energy, iterations = value
        jval: list[Any] = [
            "ok",
            [float(x) for x in per_dnn],
            float(objective),
            float(makespan),
            None if energy is None else float(energy),
            int(iterations),
        ]
    else:
        jval = ["bad", str(value[1])]
    return [jkey, jval]


def memo_entry_from_json(item: Sequence[Any]) -> tuple[Any, Any]:
    """Inverse of :func:`memo_entry_to_json` (exact round-trip)."""
    jkey, jval = item
    key = (
        tuple(tuple(group) for group in jkey[0]),
        bool(jkey[1]),
        bool(jkey[2]),
    )
    if jval[0] == "ok":
        value: tuple[Any, ...] = (
            "ok",
            tuple(float(x) for x in jval[1]),
            float(jval[2]),
            float(jval[3]),
            None if jval[4] is None else float(jval[4]),
            int(jval[5]),
        )
    else:
        value = ("bad", str(jval[1]))
    return key, value


def _check_id(record: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` unless a loaded record's ``id`` is the
    content address of its kind, signature and body (retired ``model``
    records carry no checked body)."""
    kind = str(record["kind"])
    field = _BODY_FIELD.get(kind)
    if field is None:
        return
    if record["id"] != _record_id(kind, str(record["sig"]), record[field]):
        raise ValueError(f"{kind} record id does not match its content")


class SolveStore:
    """Append-only, content-addressed store of solve artifacts.

    ``readonly=True`` refuses appends (fleet shards receive the
    store's *contents* through the gossip protocol, never the file;
    the fleet itself appends only to a writable store).  The latest
    schedule record per signature wins; memo records accumulate in
    file order.
    """

    def __init__(self, path: str | Path, *, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        #: content ids of every record seen (the dedup index)
        self._ids: set[str] = set()
        self._schedules: dict[str, dict[str, Any]] = {}
        self._memo: dict[str, list[tuple[Any, Any]]] = {}
        #: malformed or id-mismatched lines skipped while loading
        self.skipped_lines = 0
        if self.path.exists():
            self._load()

    # -- loading -------------------------------------------------------
    def _parse(self, number: int, line: str) -> dict[str, Any] | None:
        """Line ``number``'s record, or None when it is malformed or its
        id does not match its content.  Raises
        :class:`StoreVersionError` for an unknown schema version."""
        try:
            record: dict[str, Any] = json.loads(line)
            version = record["v"]
        except (ValueError, KeyError, TypeError, IndexError):
            return None
        if version != SCHEMA_VERSION:
            raise StoreVersionError(self.path, number, version)
        try:
            _check_id(record)
        except (ValueError, KeyError, TypeError, IndexError):
            return None
        return record

    def _load(self) -> None:
        for number, line in enumerate(self.path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            record = self._parse(number, line)
            if record is not None:
                try:
                    self._adopt(record)
                    continue
                except (ValueError, KeyError, TypeError, IndexError):
                    pass
            # a torn append (crash mid-write) or an edited record
            # loses one record, never the store; count it so callers
            # can report
            self.skipped_lines += 1

    def _adopt(self, record: Mapping[str, Any]) -> None:
        kind = str(record["kind"])
        if kind == "model":
            return  # retired search-guidance bundle: ignored, not malformed
        sig, rid = str(record["sig"]), str(record["id"])
        if rid in self._ids:
            return
        if kind == "schedule":
            payload = record["schedule"]
            # validate shape before adopting
            entries = [
                {
                    "dnn": str(s["dnn"]),
                    "assignment": [str(a) for a in s["assignment"]],
                }
                for s in payload["streams"]
            ]
            self._schedules[sig] = {
                "serialized": bool(payload["serialized"]),
                "streams": entries,
            }
        elif kind == "memo":
            converted = [
                memo_entry_from_json(item) for item in record["entries"]
            ]
            self._memo.setdefault(sig, []).extend(converted)
        else:
            raise KeyError(f"unknown record kind {kind!r}")
        self._ids.add(rid)

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct records adopted."""
        return len(self._ids)

    def signatures(self) -> tuple[str, ...]:
        """Every workload signature with a solve artifact, sorted."""
        return tuple(sorted(set(self._schedules) | set(self._memo)))

    def schedules(self) -> dict[str, dict[str, Any]]:
        """Latest schedule payload per signature."""
        return dict(self._schedules)

    def memo_for(self, sig: str) -> tuple[tuple[Any, Any], ...]:
        """Accumulated memo entries for one signature, in file order."""
        return tuple(self._memo.get(sig, ()))

    def stats(self) -> dict[str, Any]:
        """Live-record counts plus on-disk size, for ``store stats``."""
        return {
            "path": str(self.path),
            "records": len(self._ids),
            "schedules": len(self._schedules),
            "memo_signatures": len(self._memo),
            "memo_entries": sum(len(v) for v in self._memo.values()),
            "bytes": (
                self.path.stat().st_size if self.path.exists() else 0
            ),
            "skipped_lines": self.skipped_lines,
        }

    # -- appends -------------------------------------------------------
    def _append(self, kind: str, sig: str, body: Any) -> bool:
        if self.readonly:
            raise ValueError(f"solve store {self.path} is read-only")
        rid = _record_id(kind, sig, body)
        if rid in self._ids:
            return False
        record = {
            "v": SCHEMA_VERSION,
            "kind": kind,
            "sig": sig,
            "id": rid,
            _BODY_FIELD[kind]: body,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self._adopt(record)
        return True

    def append_schedule(self, sig: str, payload: Mapping[str, Any]) -> bool:
        """Record a schedule payload (see
        :func:`repro.core.schedule_cache.schedule_to_payload`).
        Returns False when the identical record is already stored."""
        body = {
            "serialized": bool(payload["serialized"]),
            "streams": [
                {
                    "dnn": str(s["dnn"]),
                    "assignment": [str(a) for a in s["assignment"]],
                }
                for s in payload["streams"]
            ],
        }
        return self._append("schedule", sig, body)

    def append_memo(
        self, sig: str, entries: Sequence[tuple[Any, Any]]
    ) -> bool:
        """Record a batch of memo-table entries for one signature."""
        if not entries:
            return False
        body = [memo_entry_to_json(key, value) for key, value in entries]
        return self._append("memo", sig, body)

    # -- maintenance ---------------------------------------------------
    def compact(self) -> dict[str, int]:
        """Rewrite the file with only the live records.

        Keeps, in original file order: every memo batch, and the *last*
        schedule record per signature (earlier ones are the superseded
        history).  Duplicate record ids, malformed lines, records whose
        id does not match their content and retired ``model`` records
        are dropped.  Kept lines are copied
        byte-for-byte -- no re-serialization -- and the rewrite lands
        via a temp file and :func:`os.replace`, so a crash
        mid-compaction leaves the original file intact.  In-memory
        state is reloaded from the compacted file.  Raises
        :class:`ValueError` on a read-only store.
        """
        if self.readonly:
            raise ValueError(f"solve store {self.path} is read-only")
        if not self.path.exists():
            return {"kept": 0, "dropped": 0, "bytes": 0}
        lines = self.path.read_text().splitlines()
        # last line index per signature for the last-wins schedules
        last: dict[str, int] = {}
        parsed: list[tuple[str, str, str] | None] = []
        for i, line in enumerate(lines):
            record = self._parse(i + 1, line)
            if record is None or str(record["kind"]) not in _BODY_FIELD:
                parsed.append(None)
                continue
            kind, sig = str(record["kind"]), str(record["sig"])
            rid = str(record["id"])
            parsed.append((kind, sig, rid))
            if kind == "schedule":
                last[sig] = i
        seen_ids: set[str] = set()
        kept: list[str] = []
        for i, line in enumerate(lines):
            meta = parsed[i]
            if meta is None:
                continue
            kind, sig, rid = meta
            if rid in seen_ids:
                continue
            if kind == "schedule" and last[sig] != i:
                continue
            seen_ids.add(rid)
            kept.append(line)
        tmp = self.path.with_name(self.path.name + ".compact.tmp")
        text = "".join(line + "\n" for line in kept)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.path)
        self._ids.clear()
        self._schedules.clear()
        self._memo.clear()
        self.skipped_lines = 0
        self._load()
        return {
            "kept": len(kept),
            "dropped": len(lines) - len(kept),
            "bytes": len(text.encode("utf-8")),
        }

    def __repr__(self) -> str:
        return (
            f"<SolveStore {self.path} {len(self._ids)} records, "
            f"{len(self._schedules)} schedules, "
            f"{sum(len(v) for v in self._memo.values())} memo entries>"
        )
