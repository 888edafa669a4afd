"""Shared fixtures for the static-analysis tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import flow

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "tools" / "flow_baseline.json"


@pytest.fixture(scope="session")
def repro_flow_report() -> flow.FlowReport:
    """One full pass over ``src/repro`` against the checked-in
    baseline, shared by the tests that only read its verdict."""
    return flow.analyze(
        REPO_ROOT / "src" / "repro",
        package="repro",
        baseline_keys=flow.load_baseline(BASELINE),
    )
