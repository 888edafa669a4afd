"""Contention-model interface."""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np


class ContentionModel(abc.ABC):
    """Predicts the slowdown a workload sees under external traffic.

    All bandwidth quantities are bytes/s.  ``own_bw`` is the requested
    memory throughput the workload exhibits standalone; ``external_bw``
    lists the standalone requested throughputs of the workloads
    co-running on *other* accelerators.
    """

    @abc.abstractmethod
    def slowdown(self, own_bw: float, external_bw: Sequence[float]) -> float:
        """Multiplicative execution-time factor (>= 1)."""

    def slowdown_bulk(
        self,
        own_bw: np.ndarray,
        ext_bw: np.ndarray,
        n_clients: np.ndarray,
    ) -> np.ndarray:
        """Vectorized slowdown query.

        ``ext_bw`` is the cumulative external traffic; ``n_clients`` is
        the total number of concurrent clients (self included).  The
        default implementation loops over :meth:`slowdown`, splitting
        the external traffic evenly over the other clients; models
        with a faster path (PCCS table lookups) override this.

        Contract: the result must be *elementwise* -- cell i depends
        only on ``(own_bw[i], ext_bw[i], n_clients[i])``, never on the
        other cells in the call.  The evaluation engine's per-cell
        slowdown memo (``repro.core.evalcache``) relies on this to
        split and regroup queries without changing results.
        """
        own = np.atleast_1d(np.asarray(own_bw, dtype=float))
        ext = np.atleast_1d(np.asarray(ext_bw, dtype=float))
        n = np.atleast_1d(np.asarray(n_clients, dtype=int))
        out = np.empty(np.broadcast(own, ext, n).shape, dtype=float)
        it = np.nditer(
            [own, ext, n, out],
            flags=["refs_ok"],
            op_flags=[["readonly"]] * 3 + [["writeonly"]],
        )
        for o, e, k, res in it:
            others = max(int(k) - 1, 1)
            res[...] = self.slowdown(float(o), [float(e) / others] * others)
        return out


class NoContentionModel(ContentionModel):
    """Ignores contention entirely -- what Herald/H2H/Mensa assume."""

    def slowdown(self, own_bw: float, external_bw: Sequence[float]) -> float:
        return 1.0

    def slowdown_bulk(
        self,
        own_bw: np.ndarray,
        ext_bw: np.ndarray,
        n_clients: np.ndarray,
    ) -> np.ndarray:
        shape = np.broadcast(
            np.atleast_1d(own_bw), np.atleast_1d(ext_bw), np.atleast_1d(n_clients)
        ).shape
        return np.ones(shape, dtype=float)
