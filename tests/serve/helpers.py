"""Shared helpers for the serving tests."""

from repro.serve.server import ServingSession
from repro.serve.slo import FleetReport


def drain(platform, tenants, policy, **settings) -> FleetReport:
    """Serve every request arriving within ``settings["horizon_s"]``
    on one :class:`ServingSession`, run to completion."""
    session = ServingSession(platform, tenants, policy, **settings)
    session.run_rounds()
    return session.report()
