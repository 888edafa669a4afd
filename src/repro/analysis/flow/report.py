"""Flow findings, stable report rendering, and the baseline gate.

The baseline (``tools/flow_baseline.json``) is the analysis's one
exception list, for per-line and interprocedural findings alike.  It
holds *keys*, not lines: a finding's identity is ``(rule, [sub,]
sink-or-scope, source-or-detail[, effect])``, so refactors that move
code without changing the flow neither add nor remove baseline
entries.  CI gates on two properties: no finding outside the
baseline (exit 1), and the checked-in file matching ``--write-baseline`` output byte-for-byte
(a shrink must be committed, so the count only goes down).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.flow.effects import EffectSite
from repro.analysis.flow.protocol import ProtocolFinding
from repro.analysis.flow.taint import TaintFinding

#: schema tag so a future key change invalidates old baselines loudly
BASELINE_VERSION = 1


@dataclass(frozen=True)
class FlowFinding:
    """Uniform view over taint, protocol and per-line findings."""

    rule: str
    key: tuple[str, ...]
    path: str
    line: int
    message: str

    @classmethod
    def of(cls, f: TaintFinding | ProtocolFinding | EffectSite) -> "FlowFinding":
        return cls(
            rule=f.rule or "",
            key=f.key,
            path=f.path,
            line=f.line,
            message=f.render(),
        )

    @property
    def key_str(self) -> str:
        return "|".join(self.key)


@dataclass
class FlowReport:
    """All findings from one run, plus the baseline verdict."""

    findings: tuple[FlowFinding, ...]
    baselined: tuple[FlowFinding, ...] = ()
    #: baseline keys no current finding matches (fixed -> must shrink)
    stale_keys: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines: list[str] = []
        for f in self.findings:
            lines.append(f.message)
        lines.append(
            f"flow: {len(self.findings)} new, "
            f"{len(self.baselined)} baselined, "
            f"{len(self.stale_keys)} stale baseline entries"
        )
        if self.stale_keys:
            for key in self.stale_keys:
                lines.append(f"  stale: {key}")
            lines.append(
                "  (fixed findings: refresh with --write-baseline so"
                " the count shrinks)"
            )
        return "\n".join(lines)


def combine(
    taint: Sequence[TaintFinding],
    protocol: Sequence[ProtocolFinding],
    lines: Sequence[EffectSite] = (),
) -> tuple[FlowFinding, ...]:
    """Merge every pass into one deterministically ordered tuple."""
    merged = [FlowFinding.of(f) for f in (*taint, *protocol, *lines)]
    merged.sort(key=lambda f: (f.rule, f.key, f.path, f.line))
    return tuple(merged)


def apply_baseline(
    findings: Iterable[FlowFinding],
    baseline_keys: Iterable[str],
) -> FlowReport:
    keys = set(baseline_keys)
    new: list[FlowFinding] = []
    old: list[FlowFinding] = []
    seen: set[str] = set()
    for f in findings:
        seen.add(f.key_str)
        (old if f.key_str in keys else new).append(f)
    stale = tuple(sorted(keys - seen))
    return FlowReport(
        findings=tuple(new), baselined=tuple(old), stale_keys=stale
    )


def baseline_payload(findings: Iterable[FlowFinding]) -> dict[str, object]:
    """Serializable baseline for the given findings (sorted, unique)."""
    keys = sorted({f.key_str for f in findings})
    return {"version": BASELINE_VERSION, "keys": keys}


def write_baseline(path: str | Path, findings: Iterable[FlowFinding]) -> None:
    payload = baseline_payload(findings)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_baseline(path: str | Path) -> list[str]:
    """Baseline keys; a missing file is an empty baseline."""
    p = Path(path)
    if not p.exists():
        return []
    raw = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(raw, Mapping):
        raise ValueError(f"malformed baseline {p}: expected an object")
    version = raw.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"baseline {p} has version {version!r}; this checker"
            f" expects {BASELINE_VERSION} (regenerate with"
            " --write-baseline)"
        )
    keys = raw.get("keys")
    if not isinstance(keys, list) or not all(
        isinstance(k, str) for k in keys
    ):
        raise ValueError(f"malformed baseline {p}: 'keys' must be strings")
    return list(keys)
