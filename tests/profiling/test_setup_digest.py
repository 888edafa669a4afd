"""Golden digest of the characterization set-up.

Pins every calibrated per-DSA time scale and the standalone profile
tables of the deep zoo models on all five platforms, so a change to
grouping, calibration or the perf model that is meant to be a pure
speed-up cannot move a single float unnoticed.
"""

import hashlib

from repro.dnn import zoo
from repro.profiling.profiler import profile_dnn
from repro.soc.platform import available_platforms, get_platform

#: the deepest graphs of the zoo (most coalescing merges) plus the
#: transformer, whose layer kinds differ from the CNNs'
MODELS = (
    "googlenet",
    "densenet121",
    "inception_v4",
    "resnet152",
    "vgg19",
    "vit_tiny",
)
MAX_GROUPS = (4, 8, None)

#: sha256 of :func:`setup_text`, recorded before coalescing and
#: calibration were restructured to do each piece of work once
GOLDEN_SETUP_SHA256 = (
    "b1755c0334dab2974d8ce59f117513e270681c0473c95242f43509e4c80438f3"
)


def setup_text() -> str:
    """Canonical text of the calibrated scales and profile tables.

    Floats are written with ``repr`` so the text round-trips exactly.
    """
    lines: list[str] = []
    platforms = [get_platform(name) for name in available_platforms()]
    for platform in platforms:
        for accel in platform.accelerators:
            lines.append(
                f"scale {platform.name} {accel.name} {accel.time_scale!r}"
            )
    for model in MODELS:
        graph = zoo.build(model)
        for platform in platforms:
            for max_groups in MAX_GROUPS:
                profile = profile_dnn(graph, platform, max_groups=max_groups)
                lines.append(f"profile {model} {platform.name} {max_groups}")
                for g in profile:
                    times = sorted(g.time_s.items())
                    bws = sorted(g.req_bw.items())
                    trans = sorted(g.transition_s.items())
                    lines.append(f"  {g.label} {times!r} {bws!r} {trans!r}")
    return "\n".join(lines)


def test_setup_digest_is_unchanged():
    digest = hashlib.sha256(setup_text().encode()).hexdigest()
    assert digest == GOLDEN_SETUP_SHA256
