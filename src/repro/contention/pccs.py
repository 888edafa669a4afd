"""PCCS: processor-centric contention-aware slowdown model.

Re-implementation of the model HaX-CoNN builds on [Xu et al.,
MICRO'21]: the slowdown of a workload is a piecewise function of
*only* (a) its own standalone requested memory throughput and (b) the
cumulative external memory traffic -- no pairwise co-run profiles.

:func:`calibrate_pccs` fits the model by co-running a small grid of
synthetic bandwidth-controlled microbenchmarks on the simulator (the
"hardware"), which is the decoupled characterization of paper Section
3.3: profiling cost is O(grid), not O(layers^2).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.contention.base import ContentionModel
from repro.soc.engine import Engine, SimTask
from repro.soc.platform import Platform

#: accelerator names used to host the synthetic co-run clients; the
#: final client lands on the CPU complex, which also reads DRAM
_CLIENT_HOSTS = ("gpu", "dla", "npu", "dsp", "cpu")


def _interp(grid: np.ndarray, value: float) -> tuple[int, int, float]:
    """Clamped linear-interpolation coordinates along one grid axis."""
    if value <= grid[0]:
        return 0, 0, 0.0
    if value >= grid[-1]:
        return len(grid) - 1, len(grid) - 1, 0.0
    hi = bisect.bisect_right(grid.tolist(), value)
    lo = hi - 1
    frac = (value - grid[lo]) / (grid[hi] - grid[lo])
    return lo, hi, frac


@dataclass(frozen=True)
class PCCSModel(ContentionModel):
    """Piecewise-bilinear slowdown surface per client count.

    ``own_grid`` / ``ext_grid`` are requested-throughput sample points
    (bytes/s); ``tables[n]`` holds the measured slowdown surface for
    ``n`` total concurrent clients.
    """

    own_grid: np.ndarray
    ext_grid: np.ndarray
    tables: dict[int, np.ndarray]

    def slowdown(self, own_bw: float, external_bw: Sequence[float]) -> float:
        externals = [x for x in external_bw if x > 0]
        if own_bw <= 0 or not externals:
            return 1.0
        n = 1 + len(externals)
        fitted = sorted(self.tables)
        n = min(fitted, key=lambda k: abs(k - n))
        table = self.tables[n]
        total_ext = sum(externals)
        i0, i1, fi = _interp(self.own_grid, own_bw)
        j0, j1, fj = _interp(self.ext_grid, total_ext)
        top = table[i0, j0] * (1 - fj) + table[i0, j1] * fj
        bot = table[i1, j0] * (1 - fj) + table[i1, j1] * fj
        return float(max(1.0, top * (1 - fi) + bot * fi))

    def slowdown_bulk(
        self,
        own_bw: np.ndarray,
        ext_bw: np.ndarray,
        n_clients: np.ndarray,
    ) -> np.ndarray:
        """Vectorized bilinear lookup into the fitted surfaces."""
        own = np.atleast_1d(np.asarray(own_bw, dtype=float))
        ext = np.atleast_1d(np.asarray(ext_bw, dtype=float))
        n = np.atleast_1d(np.asarray(n_clients, dtype=int))
        own, ext, n = np.broadcast_arrays(own, ext, n)
        out = np.ones(own.shape, dtype=float)
        active = (own > 0) & (ext > 0)
        if not active.any():
            return out
        fitted = np.array(sorted(self.tables))
        # snap each query to the nearest fitted client count
        snapped = fitted[
            np.argmin(np.abs(n[..., None] - fitted[None, :]), axis=-1)
        ]
        for count in np.unique(snapped[active]):
            mask = active & (snapped == count)
            out[mask] = self._bilinear(
                self.tables[int(count)], own[mask], ext[mask]
            )
        return np.maximum(out, 1.0)

    def _bilinear(
        self, table: np.ndarray, own: np.ndarray, ext: np.ndarray
    ) -> np.ndarray:
        def coords(grid: np.ndarray, v: np.ndarray):
            v = np.clip(v, grid[0], grid[-1])
            hi = np.clip(np.searchsorted(grid, v, side="right"), 1, len(grid) - 1)
            lo = hi - 1
            span = grid[hi] - grid[lo]
            frac = np.where(span > 0, (v - grid[lo]) / np.maximum(span, 1e-30), 0.0)
            return lo, hi, frac

        i0, i1, fi = coords(self.own_grid, own)
        j0, j1, fj = coords(self.ext_grid, ext)
        top = table[i0, j0] * (1 - fj) + table[i0, j1] * fj
        bot = table[i1, j0] * (1 - fj) + table[i1, j1] * fj
        return top * (1 - fi) + bot * fi


def _synthetic_task(
    task_id: str, host: str, demand_bw: float, duration_s: float
) -> SimTask:
    """A microbenchmark streaming exactly ``demand_bw`` for ``duration_s``."""
    return SimTask(
        task_id=task_id,
        accel=host,
        compute_s=duration_s,
        dram_bytes=demand_bw * duration_s,
        max_bw=demand_bw,
        meta={"role": "pccs-probe"},
    )


def measure_corun_slowdown(
    platform: Platform,
    own_bw: float,
    external_bw: Sequence[float],
    *,
    duration_s: float = 10e-3,
) -> float:
    """Run one probe co-run on the simulator and return the slowdown."""
    hosts = [h for h in _CLIENT_HOSTS if h == "cpu" or _has(platform, h)]
    if 1 + len(external_bw) > len(hosts):
        raise ValueError(
            f"cannot host {1 + len(external_bw)} clients on {platform.name}"
        )
    tasks = [_synthetic_task("own", hosts[0], own_bw, duration_s)]
    for i, bw in enumerate(external_bw):
        # externals run longer so they cover the probe's full execution
        tasks.append(
            _synthetic_task(f"ext{i}", hosts[i + 1], bw, 4 * duration_s)
        )
    timeline = Engine(platform).run(tasks)
    return timeline["own"].slowdown


def _has(platform: Platform, accel: str) -> bool:
    return accel in platform.accelerator_names


def calibrate_pccs(
    platform: Platform,
    *,
    grid_points: int = 14,
    max_clients: int = 3,
    duration_s: float = 10e-3,
) -> PCCSModel:
    """Fit the PCCS surface from synthetic co-runs on ``platform``.

    The grid spans 1%..95% of the DRAM bandwidth on both axes; with
    the default 14 points the whole calibration is a few hundred tiny
    simulator runs -- the "significant reduction of the profiling
    search space" the paper claims over pairwise layer profiling.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    bw = platform.dram_bandwidth
    own_grid = np.linspace(0.01 * bw, 0.95 * bw, grid_points)
    ext_grid = np.linspace(0.01 * bw, 0.95 * bw, grid_points)
    hostable = sum(1 for h in _CLIENT_HOSTS if h == "cpu" or _has(platform, h))
    tables: dict[int, np.ndarray] = {}
    for n in range(2, max_clients + 1):
        if n > hostable:
            break
        table = np.ones((grid_points, grid_points))
        for i, own in enumerate(own_grid):
            for j, ext_total in enumerate(ext_grid):
                externals = [ext_total / (n - 1)] * (n - 1)
                table[i, j] = measure_corun_slowdown(
                    platform, float(own), externals, duration_s=duration_s
                )
        tables[n] = table
    return PCCSModel(own_grid=own_grid, ext_grid=ext_grid, tables=tables)
