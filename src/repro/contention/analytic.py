"""Closed-form contention model from demand-capped max-min sharing.

The simulator arbitrates the EMC by demand-capped max-min fairness
plus a sub-saturation interference term; a task allocated ``b`` bytes/s
achieves ``b * (1 - coeff * others / capacity)`` and slows down by
``r / achieved`` when that falls below its standalone request ``r``.
This module evaluates the same arithmetic in closed form and serves as
the *oracle* against which the decoupled PCCS fit is validated.
"""

from __future__ import annotations

from typing import Sequence

from repro.contention.base import ContentionModel
from repro.soc.engine import max_min_allocate
from repro.soc.platform import Platform


class AnalyticShareModel(ContentionModel):
    """Oracle slowdown from the simulator's own arbitration policy."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def slowdown(self, own_bw: float, external_bw: Sequence[float]) -> float:
        externals = [x for x in external_bw if x > 0]
        if own_bw <= 0 or not externals:
            return 1.0
        capacity = self.platform.emc_capacity(1 + len(externals))
        alloc = max_min_allocate(
            dict(enumerate([own_bw, *externals])), capacity
        )
        own_alloc = alloc[0]
        if own_alloc <= 0:
            return float("inf")
        # insertion order: the externals sum in list order
        others = sum(list(alloc.values())[1:])
        coeff = self.platform.interference_coeff
        achieved = own_alloc * (1.0 - coeff * others / capacity)
        if achieved <= 0:
            return float("inf")
        return max(1.0, own_bw / achieved)
