"""Host time the hypervisor stole, so it can be taken out of timings.

On a virtual machine the host may run other guests while this one is
runnable; the guest's kernel counts that time as *steal* (the eighth
value of the ``cpu`` line of ``/proc/stat``).  It is the host's doing,
not the program's, and on a shared host it took up to 17% of the
2-second windows of a fixed CPU loop.  The ledger therefore
reports each timing as its wall time times the share of its cycle that
was not stolen.  Time the program spends blocked (disk, sleeps) is not
steal and stays in.

The counter is summed over all CPUs; the benchmark keeps one process
busy at a time, so it is the steal of that process's CPU.  Without a
hypervisor the counter stays 0, and where the file or the field is
missing it reads 0; either way timings are plain wall time.
"""

from __future__ import annotations

import os

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def stolen_seconds() -> float:
    """Seconds of steal the kernel has counted since boot (0 if unknown)."""
    try:
        with open("/proc/stat", "rb") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != b"cpu":
        return 0.0
    return int(fields[8]) / _TICKS_PER_S


def unstolen_share(wall: float, stolen: float) -> float:
    """The share of ``wall`` seconds not stolen, given ``stolen`` of them were.

    The counter ticks in whole clock ticks (10 ms), so over a short
    interval ``stolen`` may read a little more than ``wall``; the share
    never goes below 0.
    """
    if wall <= 0.0:
        return 1.0
    return max(0.0, 1.0 - stolen / wall)
