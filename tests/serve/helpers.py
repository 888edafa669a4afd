"""Shared helpers for the serving tests."""

from repro.serve.server import Server
from repro.serve.slo import FleetReport


def drain(
    server: Server, *, horizon_s: float, max_requests: int = 10_000
) -> FleetReport:
    """Serve every request arriving within ``horizon_s`` on one
    server: one session, run to completion."""
    session = server.session(horizon_s=horizon_s, max_requests=max_requests)
    session.run_rounds()
    return session.report()
