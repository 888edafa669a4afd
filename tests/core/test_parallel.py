"""The bounded-lag epoch gate of the serving fleet.

:class:`EpochGate` is pure bookkeeping, so its contract is checked
against a reference built straight from ``(epoch, index)`` order:
whatever order workers post in, every worker's merge sequence and the
flush sequence must match it.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.parallel import EpochGate


def _grants(gate):
    """``(index, horizon, payload)`` for every waiting worker the gate
    releases, in index order (the fleet's scan order)."""
    out = []
    for index in sorted(gate.waiting):
        granted = gate.grant(index)
        if granted is not None:
            out.append((index, *granted))
    return out


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
        for i, horizon, payload in _grants(gate):
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
        released.extend(_grants(gate))
    assert released == [(1, -2, ()), (1, -1, ())]
    assert gate.waiting == {1: 2}
    gate.post(0, 0, _delta(0, 0))
    # worker 0 is granted up to its own epoch minus the lag -- nothing
    # -- although its peer's epochs 0..2 are all in
    assert _grants(gate) == [
        (0, -2, ()),
        (1, 0, _delta(0, 0) + _delta(1, 0)),
    ]


def test_finished_worker_stops_gating():
    gate = EpochGate([0, 1], max_lag=0)
    gate.post(0, 0, ())
    assert _grants(gate) == []  # lockstep: waits for worker 1
    gate.post(1, 0, _delta(1, 0), last=True)
    assert gate.alive == [0]
    assert _grants(gate) == [(0, 0, _delta(1, 0))]
    gate.post(0, 1, _delta(0, 1))
    # worker 1 posts no epoch 1, and nothing waits on it
    assert _grants(gate) == [(0, 1, _delta(0, 1))]
    assert [e for e, _ in gate.flush()] == [0, 1]


def test_rejects_negative_lag():
    with pytest.raises(ValueError, match="max_lag"):
        EpochGate([0], max_lag=-1)

