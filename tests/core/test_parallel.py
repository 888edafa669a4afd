"""The epoch runtime of the fork fleet.

:class:`EpochGate` is pure bookkeeping, so its contract is checked
against a reference built straight from ``(epoch, index)`` order:
whatever order workers post in, every worker's merge sequence and the
flush sequence must match it.  The launcher half is checked on its
failure path: a fork worker killed mid-run must end in a typed error
within a bounded wall time, leaving no child process behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import parallel
from repro.core.parallel import EpochGate

#: wall seconds a killed worker may take to surface as an error
DEADLINE_S = 15


def _delta(index, epoch):
    return ((epoch, index, "a"), (epoch, index, "b"))


def _reference(finish, max_lag):
    """Expected grants per worker and flushes, from (epoch, index)."""

    def union(epoch):
        return tuple(
            item
            for index, last in enumerate(finish)
            if epoch <= last
            for item in _delta(index, epoch)
        )

    grants = {
        index: [union(f - max_lag) if f >= max_lag else () for f in range(last)]
        for index, last in enumerate(finish)
    }
    flushes = [(e, union(e)) for e in range(max(finish) + 1)]
    return grants, flushes


@given(
    finish=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    max_lag=st.sampled_from([0, 1, 2]),
    data=st.data(),
)
def test_merge_and_flush_sequences_match_epoch_index_order(
    finish, max_lag, data
):
    """Random post orders never change what any worker merges."""
    gate = EpochGate(range(len(finish)), max_lag)
    next_epoch = {i: 0 for i in range(len(finish))}
    granted = {i: [] for i in range(len(finish))}
    flushed = []
    while gate.alive:
        runnable = [
            i for i in gate.alive if i not in gate.waiting
        ]
        assert runnable, "the slowest worker must never be gated"
        index = data.draw(st.sampled_from(runnable), label="post")
        epoch = next_epoch[index]
        gate.post(
            index, epoch, _delta(index, epoch), last=epoch == finish[index]
        )
        for i, horizon, payload in gate.grants():
            assert horizon == next_epoch[i] - max_lag
            granted[i].append(payload)
            next_epoch[i] += 1
        flushed.extend(gate.flush())
    grants, flushes = _reference(finish, max_lag)
    assert granted == grants
    assert flushed == flushes


def test_grant_is_pinned_to_the_workers_own_epoch():
    gate = EpochGate([0, 1], max_lag=2)
    released = []
    for epoch in range(3):  # worker 1 runs ahead to the lag window
        gate.post(1, epoch, _delta(1, epoch))
        released.extend(gate.grants())
    assert released == [(1, -2, ()), (1, -1, ())]
    assert gate.waiting == {1: 2}
    gate.post(0, 0, _delta(0, 0))
    # worker 0 is granted up to its own epoch minus the lag -- nothing
    # -- although its peer's epochs 0..2 are all in
    assert gate.grants() == [
        (0, -2, ()),
        (1, 0, _delta(0, 0) + _delta(1, 0)),
    ]


def test_finished_worker_stops_gating():
    gate = EpochGate([0, 1], max_lag=0)
    gate.post(0, 0, ())
    assert gate.grants() == []  # lockstep: waits for worker 1
    gate.post(1, 0, _delta(1, 0), last=True)
    assert gate.alive == [0]
    assert gate.grants() == [(0, 0, _delta(1, 0))]
    gate.post(0, 1, _delta(0, 1))
    # worker 1 posts no epoch 1, and nothing waits on it
    assert gate.grants() == [(0, 1, _delta(0, 1))]
    assert [e for e, _ in gate.flush()] == [0, 1]


def test_stop_releases_every_waiting_worker_once():
    gate = EpochGate([0, 1, 2], max_lag=0)
    gate.post(2, 0, ())
    gate.post(0, 0, ())
    assert gate.stop() == [0, 2]
    assert gate.stop() == [] and gate.grants() == []


class _Daemon:
    daemon = True


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork start method on this platform",
)
def test_daemonic_caller_cannot_fork(monkeypatch):
    """A fork worker may not have children: ``auto`` runs serial
    there, an explicit ``fork`` is a typed error."""
    resolve = parallel.resolve_backend
    assert resolve("auto", 2) == "fork"
    assert resolve("auto", 1) == "serial"
    monkeypatch.setattr(multiprocessing, "current_process", _Daemon)
    assert resolve("auto", 2) == "serial"
    with pytest.raises(ValueError, match="daemonic"):
        resolve("fork", 2)


def test_rejects_negative_lag():
    with pytest.raises(ValueError, match="max_lag"):
        EpochGate([0], max_lag=-1)


# -- killed fork workers: a typed error, never a hang ------------------
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork start method on this platform",
)


@contextmanager
def deadline(seconds):
    """Fail (instead of hanging the suite) once ``seconds`` pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def kill_once(marker):
    """SIGKILL the calling fork child, in the first child that asks."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return
    os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
def test_killed_fleet_shard_raises(tmp_path, xavier):
    from repro.serve import Tenant, gpu_only_policy
    from repro.serve.fleet import Fleet
    from repro.serve.requests import PeriodicArrivals

    tenants = [
        Tenant.of(
            f"cam{k}",
            ("googlenet", "resnet18")[k % 2],
            arrivals=PeriodicArrivals(40.0),
            slo_s=0.1,
        )
        for k in range(4)
    ]

    def factory(shard_id):
        policy = gpu_only_policy(xavier)
        if shard_id == 1:
            # dies mid-run, at its first epoch boundary
            policy.export_delta = lambda limit=256: kill_once(
                tmp_path / "killed"
            )
        return policy

    fleet = Fleet(
        xavier,
        tenants,
        factory,
        shards=2,
        backend="fork",
        router="balanced",
        sync_rounds=2,
    )
    before = set(multiprocessing.active_children())
    with deadline(DEADLINE_S):
        with pytest.raises(
            RuntimeError, match="fleet shard 1 exited with code -9"
        ):
            fleet.run(horizon_s=0.2)
    assert set(multiprocessing.active_children()) <= before
