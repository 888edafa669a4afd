"""Shared infrastructure for the experiment suite."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.core.baselines import gpu_only, h2h, herald, mensa, naive_concurrent
from repro.core.haxconn import HaXCoNN, ScheduleResult
from repro.core.workload import Workload
from repro.profiling.database import ProfileDB
from repro.soc.platform import Platform, get_platform

#: display names matching the paper's column headers
SCHEDULER_LABELS = {
    "gpu_only": "GPU only",
    "naive": "GPU & DSA",
    "mensa": "Mensa",
    "herald": "Herald",
    "h2h": "H2H",
    "haxconn": "HaX-CoNN",
}


#: per-platform databases handed out by :func:`get_db` this process
_DBS: dict[str, ProfileDB] = {}


def get_db(platform_name: str) -> ProfileDB:
    """One shared profile database per platform and process (profiling
    is offline and happens once, as in the paper).  Profiles derive
    from the platform model only, so every caller -- experiments,
    benchmarks and the fuzzer -- sees the same tables."""
    db = _DBS.get(platform_name)
    if db is None:
        db = _DBS[platform_name] = ProfileDB(get_platform(platform_name))
    return db


def make_scheduler(
    name: str,
    platform: Platform,
    *,
    db: ProfileDB | None = None,
    max_groups: int | None = 12,
    max_transitions: int = 2,
) -> Callable[[Workload], ScheduleResult]:
    """Scheduler callable by paper name."""
    db = db if db is not None else get_db(platform.name)
    if name == "haxconn":
        scheduler = HaXCoNN(
            platform,
            db=db,
            max_groups=max_groups,
            max_transitions=max_transitions,
        )
        return scheduler.schedule
    if name == "gpu_only":
        return lambda w: gpu_only(w, platform, db=db, max_groups=max_groups)
    if name == "naive":
        return lambda w: naive_concurrent(
            w, platform, db=db, max_groups=max_groups
        )
    if name == "mensa":
        return lambda w: mensa(w, platform, db=db, max_groups=max_groups)
    if name == "herald":
        return lambda w: herald(w, platform, db=db, max_groups=max_groups)
    if name == "h2h":
        return lambda w: h2h(w, platform, db=db, max_groups=max_groups)
    raise KeyError(f"unknown scheduler {name!r}")


def format_table(
    rows: Iterable[Mapping[str, object]],
    columns: Sequence[str],
    *,
    title: str | None = None,
) -> str:
    """Fixed-width text table (the benches print these)."""
    rows = list(rows)
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c)
        for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append(
            "  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
