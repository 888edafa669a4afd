"""Schedule IR: the layer-group-to-accelerator mapping S (Eq. 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping


@dataclass(frozen=True)
class DNNSchedule:
    """Accelerator assignment of every layer group of one stream."""

    dnn_name: str
    #: accelerator name per layer group, in group order
    assignment: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.assignment:
            raise ValueError(f"{self.dnn_name}: empty assignment")

    def __len__(self) -> int:
        return len(self.assignment)

    def __iter__(self) -> Iterator[str]:
        return iter(self.assignment)

    def __getitem__(self, group_index: int) -> str:
        return self.assignment[group_index]

    @property
    def transitions(self) -> tuple[tuple[int, str, str], ...]:
        """(boundary index, src, dst) per inter-DSA transition (Eq. 3)."""
        out = []
        for i in range(len(self.assignment) - 1):
            if self.assignment[i] != self.assignment[i + 1]:
                out.append((i, self.assignment[i], self.assignment[i + 1]))
        return tuple(out)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def describe(self) -> str:
        """Human-readable form matching the paper's Table 6 TR column,
        e.g. ``"dla[0-3] ->gpu[4-11]"``."""
        parts = []
        start = 0
        for i, _src, _dst in self.transitions:
            parts.append(f"{self.assignment[start]}[{start}-{i}]")
            start = i + 1
        parts.append(f"{self.assignment[start]}[{start}-{len(self) - 1}]")
        return " ->".join(parts)


@dataclass(frozen=True)
class Schedule:
    """A complete co-schedule for a workload.

    ``serialized`` marks the fallback mode where streams run
    back-to-back instead of concurrently (the paper's "GPU-only"
    case that HaX-CoNN selects when concurrency cannot win).
    """

    per_dnn: tuple[DNNSchedule, ...]
    serialized: bool = False
    #: free-form annotations (producing scheduler, predicted metrics)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.per_dnn:
            raise ValueError("schedule covers no DNNs")

    def __len__(self) -> int:
        return len(self.per_dnn)

    def __iter__(self) -> Iterator[DNNSchedule]:
        return iter(self.per_dnn)

    def __getitem__(self, index: int) -> DNNSchedule:
        return self.per_dnn[index]

    @property
    def total_transitions(self) -> int:
        return sum(s.num_transitions for s in self.per_dnn)

    def describe(self) -> str:
        mode = "serial" if self.serialized else "concurrent"
        lines = [f"[{mode}]"]
        for s in self.per_dnn:
            lines.append(f"  {s.dnn_name}: {s.describe()}")
        return "\n".join(lines)
