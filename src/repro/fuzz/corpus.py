"""Persistence and replay of minimal fuzz reproducers.

Every scenario that survives shrinking lands here as one JSON
artifact: the (reduced) :class:`ScenarioSpec`, the oracle checks it
tripped, and the reduction trail.  The artifacts are plain JSON with
sorted keys so diffs stay reviewable, and the checked-in regression
corpus under ``tests/fuzz/corpus/`` replays them on every tier-1 run
-- a fixed bug stays fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.fuzz.oracle import OracleOutcome, run_oracles
from repro.fuzz.universe import ScenarioSpec

if TYPE_CHECKING:
    from repro.fuzz.shrink import ShrinkResult

FORMAT_VERSION = 1


@dataclass(frozen=True)
class CorpusEntry:
    """One persisted reproducer."""

    spec: ScenarioSpec
    #: (check, detail) pairs recorded when the artifact was written
    discrepancies: tuple[tuple[str, str], ...]
    #: shrink steps that produced this spec (empty for unshrunk saves)
    steps: tuple[str, ...]
    path: Path | None = None

    @property
    def checks(self) -> frozenset[str]:
        return frozenset(check for check, _ in self.discrepancies)

    def to_dict(self) -> dict[str, object]:
        return {
            "version": FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "discrepancies": [list(d) for d in self.discrepancies],
            "steps": list(self.steps),
        }

    @classmethod
    def from_dict(
        cls, payload: dict[str, object], *, path: Path | None = None
    ) -> "CorpusEntry":
        spec_payload = payload["spec"]
        assert isinstance(spec_payload, dict)
        discrepancies = payload.get("discrepancies", [])
        assert isinstance(discrepancies, list)
        steps = payload.get("steps", [])
        assert isinstance(steps, list)
        return cls(
            spec=ScenarioSpec.from_dict(spec_payload),
            discrepancies=tuple(
                (str(d[0]), str(d[1])) for d in discrepancies
            ),
            steps=tuple(str(s) for s in steps),
            path=path,
        )

    def replay(self) -> OracleOutcome:
        """Re-run the full oracle stack on the stored scenario (the
        same checks a campaign runs, see
        :func:`repro.fuzz.oracle.run_oracles`)."""
        return run_oracles(self.spec)


def artifact_name(spec: ScenarioSpec) -> str:
    models = "-".join(spec.models)
    return f"seed{spec.seed:06d}-{spec.platform}-{models}.json"


def entry_from_outcome(outcome: OracleOutcome) -> CorpusEntry:
    """A corpus entry for an unshrunk failing outcome."""
    return CorpusEntry(
        spec=outcome.spec,
        discrepancies=tuple(
            (d.check, d.detail) for d in outcome.discrepancies
        ),
        steps=(),
    )


def entry_from_shrink(result: "ShrinkResult") -> CorpusEntry:
    """A corpus entry for a shrunk reproducer."""
    return CorpusEntry(
        spec=result.reduced,
        discrepancies=tuple(
            (d.check, d.detail) for d in result.outcome.discrepancies
        ),
        steps=result.steps,
    )


def save_entry(entry: CorpusEntry, corpus_dir: str | Path) -> Path:
    """Write ``entry`` into ``corpus_dir``; returns the artifact path."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / artifact_name(entry.spec)
    path.write_text(
        json.dumps(entry.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    return path


def load_corpus(corpus_dir: str | Path) -> tuple[CorpusEntry, ...]:
    """All artifacts under ``corpus_dir``, sorted by file name."""
    directory = Path(corpus_dir)
    if not directory.is_dir():
        return ()
    entries = []
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text())
        entries.append(CorpusEntry.from_dict(payload, path=path))
    return tuple(entries)


def replay_corpus(
    corpus_dir: str | Path,
) -> tuple[tuple[CorpusEntry, OracleOutcome], ...]:
    """Replay every artifact; pairs each entry with its fresh outcome."""
    return tuple(
        (entry, entry.replay()) for entry in load_corpus(corpus_dir)
    )
