"""The bounded-lag epoch gate of the serving fleet.

:class:`~repro.serve.fleet.Fleet` scans its shards in one process
through numbered *epochs*: a shard serves ``sync_rounds`` rounds,
posts its epoch delta (schedule gossip) and may run its next epoch
only once the gate grants it.  :class:`EpochGate` is that gate, pure
bookkeeping with no I/O.  It records each ``(epoch, index)``
contribution, builds every epoch's union in worker-index order, and
grants a worker that completed epoch ``f`` once every alive peer has
completed ``f - max_lag``.  The grant carries the unions up to
``f - max_lag`` the worker has not merged yet; that horizon is pinned
to the worker's *own* epoch, never to how far its peers ran, so every
merge sequence is a pure function of the workload and ``max_lag``.
Workers that finish stop gating.  ``max_lag = 0`` is the classic
lockstep barrier.
"""

from __future__ import annotations

from typing import Any, Iterable


class EpochGate:
    """Bounded-lag bookkeeping for one epoch race (no I/O).

    ``completed[i]`` is the last epoch worker ``i`` posted,
    ``merged_to[i]`` the last epoch union it was granted, and
    ``waiting`` maps each worker blocked on a grant to its posted
    epoch.  ``alive`` lists, in index order, the workers that still
    gate their peers.
    """

    def __init__(self, indices: Iterable[int], max_lag: int) -> None:
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        self.max_lag = max_lag
        self.alive: list[int] = sorted(indices)
        self.completed = {i: -1 for i in self.alive}
        self.merged_to = {i: -1 for i in self.alive}
        self.waiting: dict[int, int] = {}
        self.flushed_to = -1
        #: epoch -> index -> that worker's delta for the epoch
        self._contributions: dict[int, dict[int, tuple[Any, ...]]] = {}

    def post(
        self,
        index: int,
        epoch: int,
        delta: Iterable[Any],
        *,
        last: bool = False,
    ) -> None:
        """Record ``index`` completing ``epoch``; ``last`` ends its run,
        otherwise it waits for a grant."""
        items = tuple(delta)
        if items:
            self._contributions.setdefault(epoch, {})[index] = items
        self.completed[index] = epoch
        if last:
            self.alive.remove(index)  # a finished worker stops gating
        else:
            self.waiting[index] = epoch

    def horizon(self) -> int:
        """Last epoch every alive worker completed (every worker's
        last epoch once none is alive)."""
        if self.alive:
            return min(self.completed[i] for i in self.alive)
        return max(self.completed.values(), default=-1)

    def union(self, epoch: int) -> tuple[Any, ...]:
        """Every contribution to ``epoch``, concatenated in index order."""
        contribs = self._contributions.get(epoch, {})
        return tuple(item for i in sorted(contribs) for item in contribs[i])

    def grant(self, index: int) -> tuple[int, tuple[Any, ...]] | None:
        """``(horizon, payload)`` once ``index`` may start its next
        epoch, else None.  The payload holds the unions of every epoch
        up to ``posted - max_lag`` it has not merged yet."""
        posted = self.waiting.get(index)
        if posted is None or self.horizon() < posted - self.max_lag:
            return None
        to = posted - self.max_lag
        payload = tuple(
            item
            for e in range(self.merged_to[index] + 1, to + 1)
            for item in self.union(e)
        )
        self.merged_to[index] = max(self.merged_to[index], to)
        del self.waiting[index]
        return to, payload

    def flush(self) -> list[tuple[int, tuple[Any, ...]]]:
        """``(epoch, union)`` for each newly completed epoch, in epoch
        order and exactly once; then drop contributions no worker can
        still be granted."""
        out: list[tuple[int, tuple[Any, ...]]] = []
        limit = self.horizon()
        while self.flushed_to < limit:
            self.flushed_to += 1
            out.append((self.flushed_to, self.union(self.flushed_to)))
            self._contributions.pop(self.flushed_to - self.max_lag - 1, None)
        return out
