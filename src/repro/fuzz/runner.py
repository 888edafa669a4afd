"""Campaign driver: sweep a seed range through the oracle stack.

A campaign is the unit the CLI and CI run: generate the scenario for
every seed, run the full differential oracle stack, shrink whatever
fails, and fold everything into a :class:`CampaignReport` whose
``digest`` is a SHA-256 over the canonical JSON of every per-seed
result.  Two runs of the same seed range must produce the same digest
-- that is the acceptance check for end-to-end determinism, and why
nothing in this module (or anything it calls) may read a wall clock.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.fuzz.corpus import (
    CorpusEntry,
    entry_from_outcome,
    entry_from_shrink,
    save_entry,
)
from repro.fuzz.oracle import OracleOutcome, run_oracles
from repro.fuzz.shrink import DEFAULT_SHRINK_BUDGET, shrink
from repro.fuzz.universe import ScenarioSpec, generate_scenario, platform_width


@dataclass(frozen=True)
class SeedReport:
    """The campaign's record of one seed."""

    seed: int
    name: str
    ok: bool
    serialized: bool
    search_space: int
    #: repr() of the adopted objective -- exact round-trippable float
    objective: str | None
    checks: tuple[str, ...]
    discrepancies: tuple[tuple[str, str], ...]

    @classmethod
    def from_outcome(cls, outcome: OracleOutcome) -> "SeedReport":
        return cls(
            seed=outcome.spec.seed,
            name=outcome.spec.name,
            ok=outcome.ok,
            serialized=outcome.serialized,
            search_space=outcome.search_space,
            objective=(
                None
                if outcome.objective is None
                else repr(outcome.objective)
            ),
            checks=outcome.checks,
            discrepancies=tuple(
                (d.check, d.detail) for d in outcome.discrepancies
            ),
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "name": self.name,
            "ok": self.ok,
            "serialized": self.serialized,
            "search_space": self.search_space,
            "objective": self.objective,
            "checks": list(self.checks),
            "discrepancies": [list(d) for d in self.discrepancies],
        }


@dataclass(frozen=True)
class CampaignReport:
    """Everything one campaign produced, digestible and printable."""

    results: tuple[SeedReport, ...]
    failures: tuple[CorpusEntry, ...]
    oracle_calls: int
    #: first seed that was *not* processed because the budget ran out
    truncated_at: int | None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def stats(self) -> dict[str, int]:
        """Coverage counters over the processed scenarios."""
        platforms: set[str] = set()
        transformer = 0
        wide = 0
        concurrent = 0
        for report in self.results:
            spec = generate_scenario(report.seed)
            platforms.add(spec.platform)
            if "vit_tiny" in spec.models:
                transformer += 1
            if platform_width(spec.platform) > 2:
                wide += 1
            if not report.serialized:
                concurrent += 1
        return {
            "scenarios": len(self.results),
            "failures": len(self.failures),
            "platforms": len(platforms),
            "transformer_scenarios": transformer,
            "multi_dsa_scenarios": wide,
            "concurrent_schedules": concurrent,
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "results": [r.to_dict() for r in self.results],
            "failures": [f.to_dict() for f in self.failures],
            "oracle_calls": self.oracle_calls,
            "truncated_at": self.truncated_at,
        }

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical JSON of the whole campaign."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


def run_campaign(
    seeds: Iterable[int],
    *,
    budget: int | None = None,
    shrink_failures: bool = True,
    corpus_dir: str | Path | None = None,
) -> CampaignReport:
    """Run the oracle stack over ``seeds``.

    ``budget`` caps total oracle invocations (scenario runs plus
    shrink probes); seeds past the cap are reported via
    ``truncated_at``.  When ``corpus_dir`` is given, every failure's
    minimal reproducer is persisted there as a JSON artifact.
    """
    calls = 0
    results: list[SeedReport] = []
    failures: list[CorpusEntry] = []
    truncated_at: int | None = None

    for seed in seeds:
        if budget is not None and calls >= budget:
            truncated_at = seed
            break
        spec: ScenarioSpec = generate_scenario(seed)
        outcome = run_oracles(spec)
        calls += 1
        results.append(SeedReport.from_outcome(outcome))
        if outcome.ok:
            continue

        if shrink_failures:
            remaining = (
                DEFAULT_SHRINK_BUDGET
                if budget is None
                else max(1, min(DEFAULT_SHRINK_BUDGET, budget - calls))
            )
            reduced = shrink(spec, outcome, budget=remaining)
            calls += reduced.oracle_calls
            entry = entry_from_shrink(reduced)
        else:
            entry = entry_from_outcome(outcome)
        failures.append(entry)
        if corpus_dir is not None:
            save_entry(entry, corpus_dir)

    return CampaignReport(
        results=tuple(results),
        failures=tuple(failures),
        oracle_calls=calls,
        truncated_at=truncated_at,
    )
