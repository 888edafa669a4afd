"""Shared pieces of the benchmark: paths, platforms, hermetic set-up."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

PLATFORMS = ("matcha", "orin", "sd865", "trident", "xavier")
OBJECTIVES = ("latency", "throughput", "energy")
#: platform every serving workload runs on
SERVE_PLATFORM = "xavier"


class BenchError(RuntimeError):
    """A failed correctness check or a missing program."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from an
    installed copy, and keep persisted profile stores out of set-up."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_PROFILE_STORE", None)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}")


def fresh_dbs(names=PLATFORMS) -> dict:
    """One freshly profiled ``ProfileDB`` per platform (profiles are
    built lazily; the PCCS fit happens here)."""
    from repro.profiling.database import ProfileDB
    from repro.soc.platform import get_platform

    dbs = {}
    for name in names:
        db = ProfileDB(get_platform(name))
        db.pccs  # noqa: B018 -- fit the contention model now
        dbs[name] = db
    return dbs


def cold_scheduler(platform: str, db, *, max_groups: int, max_transitions: int):
    """The offline scheduler as the CLI builds it: B&B plus verify."""
    from repro.core.haxconn import HaXCoNN

    return HaXCoNN(
        platform,
        db=db,
        solver="bnb",
        verify=True,
        max_groups=max_groups,
        max_transitions=max_transitions,
    )
