"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures and
writes the formatted rows to ``benchmarks/results/<artifact>.txt`` (and
the terminal, visible with ``-s``).  The heavyweight sweeps run reduced
default configurations; set ``REPRO_FULL=1`` to run the complete paper
protocol (all Table 8 pairs, all Fig. 5/6 models, 10 s Fig. 7 phases).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def full_run() -> bool:
    """Whether to run the complete (slow) paper protocol."""
    return os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def save_report():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def save_json():
    """Machine-readable twin of ``save_report``: dump a payload to
    ``benchmarks/results/<name>.json`` (stable key order; numpy
    scalars coerced through float)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, payload: object) -> Path:
        path = RESULTS_DIR / f"{name}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=float)
            + "\n"
        )
        return path

    return _save
