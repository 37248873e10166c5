"""Analytic cleaning-cost model (§5.3's discussion, closed form).

§5.3 observes that "the cost of segment cleaning is directly related to
the utilization ... of the segments being cleaned".  The closed form —
later made famous by Rosenblum's SOSP '91 follow-up — assumes a cleaner
that reads whole segments:

* cleaning a segment at utilization *u* reads the whole segment and
  writes back *u* of it as live data;
* that work yields ``1 - u`` of a segment of genuinely new free space;

so the **write cost** (total bytes moved per byte of new data written,
counting the eventual cost of reclaiming its space) is::

    write_cost(u) = 2 / (1 - u)        for 0 < u < 1
    write_cost(0) = 1                  (empty segments are free, §5.3)

and the rate at which clean segments can be generated is::

    rate(u) = (1 - u) * S / (T_read(S) + T_write(u * S))

with *S* the segment size.  The MODEL benchmark compares these against
the measured Figure 5 sweep.

:mod:`repro.lfs.cleaner` reads less than this model: a victim's
summaries and its live blocks, in extents that read through only the
dead blocks cheaper to pass over than to seek around.  Its read traffic
is at most one segment per victim and falls toward *u* of one as the
dead runs it skips grow, so ``2 / (1 - u)`` bounds its write cost from
above, and ``(1 + u) / (1 - u)`` is about where it heads.
"""

from __future__ import annotations

from repro.disk.geometry import DiskGeometry
from repro.errors import InvalidArgumentError
from repro.units import KIB


def analytic_write_cost(utilization: float) -> float:
    """Bytes of log writes per byte of new data, at cleaning utilization u."""
    if not 0.0 <= utilization < 1.0:
        raise InvalidArgumentError(
            f"utilization must be in [0, 1): {utilization}"
        )
    if utilization == 0.0:
        return 1.0
    # Read the segment (1) plus write back the live fraction (u), all to
    # recover (1 - u) of new space, plus writing the new data itself.
    return 2.0 / (1.0 - utilization)


def analytic_cleaning_rate(
    utilization: float,
    geometry: DiskGeometry,
    segment_size: int,
) -> float:
    """Model of Figure 5's y-axis: KB/s of clean segments generated.

    An empty segment (u == 0) costs nothing to clean (the usage array
    already proves it is empty), so the model returns infinity there —
    in practice the measured rate at u=0 is bounded only by CPU
    bookkeeping.
    """
    if not 0.0 <= utilization < 1.0:
        raise InvalidArgumentError(
            f"utilization must be in [0, 1): {utilization}"
        )
    if utilization == 0.0:
        return float("inf")
    seek = geometry.avg_seek + geometry.rotation / 2.0
    read_time = seek + geometry.transfer_time(segment_size)
    write_time = seek * utilization + geometry.transfer_time(
        int(segment_size * utilization)
    )
    net_clean_bytes = (1.0 - utilization) * segment_size
    return (net_clean_bytes / KIB) / (read_time + write_time)
