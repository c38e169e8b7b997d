"""Incremental MinUsageTime accounting for the streaming engine.

The batch path derives cost and ``ON_t`` *post mortem* from the full list
of :class:`~repro.core.bins.BinRecord`.  The
:class:`~repro.core.kernel.PlacementKernel` instead keeps the same
quantities as running counters, updated in O(1) at each event, so cost
and the open-bin count are queryable mid-stream with no stored history;
:class:`RunningAccounting` is the engine's read-only view of them.
``closed_usage`` accumulates per-bin usages in close order — the
summation order of ``PackingResult.cost`` — so final costs are
bit-identical, and open bins are priced in O(1) by the identity
``Σ_open (t - opened_at) = open_count · t - Σ_open opened_at``.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["RunningAccounting"]


def _counter(name: str, doc: str) -> property:
    return property(lambda self: getattr(self._kernel, name), doc=doc)


class RunningAccounting:
    """Read-only view of a :class:`~repro.core.kernel.PlacementKernel`'s
    running counters.  Checkpoints from before the kernel owned them
    pickled an instance holding them: unpickled, its ``legacy_state``
    carries them, and :func:`repro.engine.checkpoint.restore` moves them
    onto the kernel."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel

    time = _counter("time", "The kernel's clock (``-inf`` before any event).")
    closed_usage = _counter("closed_usage", "Closed bins' usage, in close order.")
    open_count = _counter("open_bin_count", "Bins open right now.")
    max_open = _counter("max_open", "Peak simultaneous open bins so far.")
    sum_opened_at = _counter("_sum_opened_at", "Σ opened_at over open bins.")
    load = _counter("load", "Total size of active items.")
    peak_load = _counter("peak_load", "max_t S_t over the stream so far.")
    util_area = _counter("util_area", "∫ load dt — space–time demand served.")
    arrivals = _counter("arrivals", "Items placed so far.")
    departures = _counter("departures", "Items departed so far.")
    bins_opened = _counter("bins_opened", "Bins opened so far.")
    bins_closed = _counter("bins_closed", "Bins closed so far.")
    profile_deltas = _counter("open_count_events", "ON_t deltas, or ``None``.")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def cost_at(self, t: Optional[float] = None) -> float:
        """Usage time of closed bins plus open bins up to ``t`` (O(1))."""
        kernel = self._kernel
        if t is None:
            t = kernel.time
        if not math.isfinite(t):
            t = 0.0
        return kernel.closed_usage + kernel.open_bin_count * t - kernel._sum_opened_at

    @property
    def cost(self) -> float:
        """Final cost once the stream is drained (no open bins left)."""
        return self._kernel.closed_usage

    def open_profile(self):
        """``ON_t`` as a :class:`~repro.core.profile.LoadProfile`.

        Requires an engine built with ``record_profile=True``; raises
        otherwise.
        """
        deltas = self.profile_deltas
        if deltas is None:
            raise ValueError(
                "open_profile() needs an Engine built with record_profile=True"
            )
        import numpy as np

        from ..core.profile import LoadProfile

        if not deltas:
            return LoadProfile(np.asarray([0.0]), np.zeros(0))
        times = np.asarray([t for t, _ in deltas])
        steps = np.asarray([d for _, d in deltas], dtype=float)
        order = np.argsort(times, kind="stable")
        times, steps = times[order], steps[order]
        bps, start_idx = np.unique(times, return_index=True)
        sums = np.add.reduceat(steps, start_idx)
        values = np.round(np.cumsum(sums)[:-1])
        return LoadProfile(bps, values)

    def gauges(self) -> dict:
        """Instantaneous gauge values for the observability layer.

        The subset of :meth:`to_dict` that reads as "right now" rather
        than "so far" — what ``repro-dbp replay --profile`` and metric
        sinks report as gauges.
        """
        return {
            "open_count": self.open_count,
            "load": self.load,
            "cost_so_far": self.cost_at(),
            "max_open": self.max_open,
            "peak_load": self.peak_load,
        }

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot of every running total."""
        time = self.time
        return {
            "time": time if math.isfinite(time) else None,
            "cost_so_far": self.cost_at(),
            "closed_usage": self.closed_usage,
            "open_count": self.open_count,
            "max_open": self.max_open,
            "load": self.load,
            "peak_load": self.peak_load,
            "util_area": self.util_area,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "bins_opened": self.bins_opened,
            "bins_closed": self.bins_closed,
        }

    def __setstate__(self, state: dict) -> None:
        # only pre-view checkpoint blobs pickle this class
        self._kernel = None
        self.legacy_state = state

    def __repr__(self) -> str:
        return (
            f"RunningAccounting(t={self.time:g}, cost={self.cost_at():.6g}, "
            f"open={self.open_count}, max_open={self.max_open})"
        )
