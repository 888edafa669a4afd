"""Profile database: the per-platform cache of offline profiling results.

The paper performs profiling once, offline ("since our approach is
layer-centric, we performed profiling only once").  :class:`ProfileDB`
caches :class:`~repro.profiling.profiler.DNNProfile` objects and the
fitted PCCS model per platform.  Profiles are a pure function of the
platform model, so they are computed in-process on first use and
never read from disk.
"""

from __future__ import annotations

from typing import Iterator

from repro.contention.pccs import PCCSModel, calibrate_pccs
from repro.profiling.profiler import DNNProfile, profile_dnn
from repro.soc.platform import Platform, get_platform


class ProfileDB:
    """Cache of DNN profiles and the PCCS model for one platform."""

    def __init__(self, platform: Platform | str) -> None:
        self.platform = (
            get_platform(platform) if isinstance(platform, str) else platform
        )
        self._profiles: dict[tuple[str, int | None], DNNProfile] = {}
        self._pccs: PCCSModel | None = None

    # -- profiles -----------------------------------------------------
    def profile(
        self, model: str, *, max_groups: int | None = None
    ) -> DNNProfile:
        """Profile ``model`` (cached)."""
        from repro.dnn.zoo import canonical_name

        key = (canonical_name(model), max_groups)
        if key not in self._profiles:
            self._profiles[key] = profile_dnn(
                key[0], self.platform, max_groups=max_groups
            )
        return self._profiles[key]

    def __contains__(self, model: str) -> bool:
        from repro.dnn.zoo import canonical_name

        name = canonical_name(model)
        return any(k[0] == name for k in self._profiles)

    def __iter__(self) -> Iterator[DNNProfile]:
        return iter(self._profiles.values())

    def __len__(self) -> int:
        return len(self._profiles)

    # -- contention model ----------------------------------------------
    @property
    def pccs(self) -> PCCSModel:
        """The platform's PCCS model (fitted lazily, cached).

        Platforms with more than three DSAs (the MATCHA-style SoCs)
        get slowdown surfaces up to their full client count, so a
        four-stream schedule never has to snap down to the 3-client
        table.
        """
        if self._pccs is None:
            self._pccs = calibrate_pccs(
                self.platform,
                max_clients=max(3, len(self.platform.accelerators)),
            )
        return self._pccs
