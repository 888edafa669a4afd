"""The epoch runtime of the serving fleet's fork backend.

:class:`~repro.serve.fleet.Fleet` shards run as fork workers through
numbered *epochs*: a shard syncs every ``sync_rounds`` served rounds,
posts its epoch delta (schedule gossip) to the parent and
blocks for a *grant* carrying the epoch unions it must merge before it
may go on.  This module holds that protocol:

* :class:`EpochGate` -- pure bookkeeping, no I/O.  It records each
  ``(epoch, index)`` contribution, builds every epoch's union in
  worker-index order, and grants a worker that completed epoch ``f``
  once every alive peer has completed ``f - max_lag``.  The grant
  carries the unions up to ``f - max_lag`` the worker has not merged
  yet; that horizon is pinned to the worker's *own* epoch, never to
  how far its peers ran, so every merge sequence is a pure function
  of the workload and ``max_lag``.  Workers that finish stop gating.
  ``max_lag = 0`` is the classic lockstep barrier.
* :class:`WorkerPool` -- the launcher: fork processes with their
  queues, a liveness-checked receive, and teardown that joins and
  terminates leftovers.
* :class:`Link` -- a worker's end of the same protocol.

Messages on the shared outbox are ``(kind, index, epoch, body,
*extra)``: ``body`` is the epoch delta for ``sync``/``done`` and the
exception text for ``error``.  Arrival order on the outbox is timing
dependent; nothing derived from it is, because deltas are keyed by
their ``(epoch, index)`` tag.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing.connection import wait
from types import TracebackType
from typing import Any, Callable, Iterable, Mapping

#: message kinds on the worker -> parent outbox
SYNC, DONE, ERROR = "sync", "done", "error"
#: reply kinds on a worker's inbox
GRANT, STOP = "grant", "stop"

#: seconds a clean shutdown waits for each worker before terminating it
JOIN_TIMEOUT_S = 10.0


def resolve_backend(backend: str, workers: int) -> str:
    """The backend a run actually uses.

    ``auto`` runs a single worker in-process (``serial``), several on
    ``fork`` when it is available, else ``serial``.  Fork is
    unavailable without the start method, and inside a daemonic
    process (a fork worker itself), which may not have children.
    """
    daemonic = multiprocessing.current_process().daemon
    fork_ok = (
        "fork" in multiprocessing.get_all_start_methods() and not daemonic
    )
    if backend == "auto":
        return "fork" if workers > 1 and fork_ok else "serial"
    if backend == "fork" and not fork_ok:
        if daemonic:
            raise ValueError(
                "fork backend unavailable: the caller is a daemonic "
                "process (a fork worker), which may not have children"
            )
        raise ValueError("fork start method unavailable")
    return backend


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
            self.retire(index)
        else:
            self.waiting[index] = epoch

    def retire(self, index: int) -> None:
        """Stop gating on ``index`` (it finished or failed)."""
        if index in self.alive:
            self.alive.remove(index)
        self.waiting.pop(index, None)

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

    def grants(self) -> list[tuple[int, int, tuple[Any, ...]]]:
        """``(index, horizon, payload)`` for every waiting worker the
        gate now releases, in index order."""
        out: list[tuple[int, int, tuple[Any, ...]]] = []
        for index in sorted(self.waiting):
            granted = self.grant(index)
            if granted is not None:
                out.append((index, granted[0], granted[1]))
        return out

    def stop(self) -> list[int]:
        """Release every waiting worker without a grant (index order)."""
        stopped = sorted(self.waiting)
        self.waiting.clear()
        return stopped

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


@dataclass
class Link:
    """A worker's end of the epoch protocol; deltas and grants ride
    inside the control messages on the queues."""

    index: int
    inbox: Any
    outbox: Any

    def post(
        self, kind: str, epoch: int, delta: tuple[Any, ...], *extra: Any
    ) -> None:
        self.outbox.put((kind, self.index, epoch, delta, *extra))

    def fail(self, epoch: int, exc: BaseException) -> None:
        self.outbox.put((ERROR, self.index, epoch, repr(exc)))

    def wait(self) -> tuple[tuple[Any, ...], tuple[Any, ...]] | None:
        """Block for the parent: ``(payload, extra)`` of a grant, or
        None when told to stop."""
        reply = self.inbox.get()
        if reply[0] == STOP:
            return None
        _, payload, *extra = reply
        return payload, tuple(extra)


class WorkerPool:
    """Launch one fork worker per index and carry the parent's side.

    ``target(link, *args[index])`` runs in a fork child.  Use as a
    context manager: leaving it joins every worker and terminates
    children still running (at once when an exception is leaving).
    """

    def __init__(
        self,
        target: Callable[..., None],
        args: Mapping[int, tuple[Any, ...]],
        *,
        label: str,
    ) -> None:
        self.label = label
        self.indices = sorted(args)
        #: non-empty deltas and grants that crossed the queues
        self.stats = {"inline": 0}
        self._reported: set[int] = set()
        ctx = multiprocessing.get_context("fork")
        self.inboxes: dict[int, Any] = {
            i: ctx.SimpleQueue() for i in self.indices
        }
        self.outbox: Any = ctx.SimpleQueue()
        self._reader: Any = self.outbox._reader
        self.runners = {
            i: ctx.Process(
                target=target,
                args=(Link(i, self.inboxes[i], self.outbox), *args[i]),
                daemon=True,
            )
            for i in self.indices
        }

    def __enter__(self) -> WorkerPool:
        try:
            for i in self.indices:
                self.runners[i].start()
        except BaseException:
            self._close(abort=True)
            raise
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._close(abort=exc_type is not None)

    # -- parent side ----------------------------------------------------
    def receive(self) -> tuple[Any, ...]:
        """Next outbox message.

        The wait also watches every unreported worker's process
        sentinel: a worker that exits without posting ``done`` or
        ``error`` raises :class:`RuntimeError` naming it and its exit
        code instead of blocking the parent forever.
        """
        while not self._reader.poll():
            silent = [i for i in self.indices if i not in self._reported]
            ready = wait(
                [self._reader, *(self.runners[i].sentinel for i in silent)]
            )
            # a ready sentinel means that worker exited before the
            # wait returned, so its last message, if any, is readable
            if self._reader.poll():
                break
            for i in silent:
                runner = self.runners[i]
                if runner.sentinel in ready:
                    runner.join()
                    raise RuntimeError(
                        f"{self.label} {i} exited with code "
                        f"{runner.exitcode} before reporting"
                    )
        msg: tuple[Any, ...] = self.outbox.get()
        kind, index, body = msg[0], msg[1], msg[3]
        if kind != SYNC:
            self._reported.add(index)
        if kind != ERROR and body:
            self.stats["inline"] += 1
        return msg

    def grant(self, index: int, payload: tuple[Any, ...], *extra: Any) -> None:
        if payload:
            self.stats["inline"] += 1
        self.inboxes[index].put((GRANT, payload, *extra))

    def stop(self, index: int) -> None:
        self.inboxes[index].put((STOP,))

    def _close(self, *, abort: bool) -> None:
        if abort:
            for i in self.indices:
                if self.runners[i].is_alive():
                    self.runners[i].terminate()
        for i in self.indices:
            runner = self.runners[i]
            if runner.ident is not None:  # started
                runner.join(timeout=JOIN_TIMEOUT_S)
            if runner.is_alive():
                runner.terminate()
                runner.join()
