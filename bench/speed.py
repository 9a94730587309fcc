"""Machine-speed calibration for the timed sections.

On a shared host the speed of a CPU drifts by tens of percent within a
minute, so raw times of the same work spread far more from run to run
than any change worth detecting.  A fixed pure-Python kernel, run often
during a timed section or right around it, measures that speed: the ratio
of the section's time to the kernel's stays within a few percent while
both drift together.  Times are therefore reported in *reference* units,
the measured time scaled by REFERENCE_S / (mean kernel time now): what
the section would take on a machine where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import math
import time

# kernel time of the reference machine; roughly its time on a 2-vCPU
# Xeon VM in its faster minutes
REFERENCE_S = 0.00025
_KERNEL_STEPS = 750
OUTLIER = 2.5
# A whole CLI process (imports, numpy grids, file writes) slows down about
# three quarters as much as the kernel when the host is loaded: over 25
# passes of the five shipped commands, scaling by the kernel's factor to
# this power left the least drift (2.6% spread, against 9.4% raw and
# 3.7% at power 1).
PROCESS_ELASTICITY = 0.75


def kernel_s() -> float:
    """Time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    # scalar float math and calls, like the library's solvers
    for i in range(_KERNEL_STEPS):
        x = i * 0.001
        s += math.exp(-x) * math.atan2(x, 1.0 + x) + (x + 1.0) ** 0.5
    return time.perf_counter() - t0


def factor(kernel_times: list[float], elasticity: float = 1.0) -> float:
    """Scale from measured to reference time, given kernel times taken alongside.

    The kernel's time flips between a fast and a slow mode as the host's
    load moves, so the mean over the section measures its mix.  Runs
    longer than OUTLIER times the fastest were preempted, and are dropped.
    elasticity is how strongly the timed work responds to the host's load
    relative to the kernel (see PROCESS_ELASTICITY).
    """
    cut = OUTLIER * min(kernel_times)
    kept = [t for t in kernel_times if t <= cut]
    return (REFERENCE_S * len(kept) / math.fsum(kept)) ** elasticity
