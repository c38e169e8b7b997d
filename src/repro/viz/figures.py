"""Regeneration of the paper's three figures (FIG1–FIG3 in DESIGN.md).

Each function returns the figure as a text block; the benchmarks and the
CLI print them, and the tests assert their structural properties (e.g.
Figure 3's bin occupancy must match Lemma 5.5's bit mapping).
"""

from __future__ import annotations

from typing import Optional

from ..algorithms.cdff import CDFF
from ..core.instance import Instance
from ..core.kernel import PlacementKernel
from ..workloads.aligned import aligned_random, binary_input
from .ascii import render_instance, render_packing, render_rows

__all__ = ["figure1", "figure2", "figure3"]


def figure1(
    *,
    mu: int = 16,
    n_items: int = 60,
    seed: int = 7,
    stop_at: Optional[int] = None,
    instance: Optional[Instance] = None,
) -> str:
    """Figure 1: a snapshot of CDFF's rows of bins at a moment in time.

    Runs CDFF over an aligned input and renders the live row structure
    right after the arrivals at time ``stop_at`` (default: the moment with
    the most open bins is chosen by a dry run).
    """
    inst = instance if instance is not None else aligned_random(
        mu, n_items, seed=seed
    )
    algorithm = CDFF()
    sim = PlacementKernel(algorithm, record=True)
    if stop_at is None:
        # dry run to find the busiest arrival time
        from ..core.simulation import simulate

        probe = simulate(CDFF(), inst)
        prof = probe.open_bins_profile()
        peak_idx = int(prof.values.argmax()) if len(prof.values) else 0
        stop_time = float(prof.breakpoints[peak_idx])
    else:
        stop_time = float(stop_at)
    for item in inst:
        if item.arrival > stop_time:
            break
        sim.release(item)
    header = (
        f"Figure 1 — CDFF row structure at t={stop_time:g} "
        f"(aligned input, μ={inst.mu:g})\n"
    )
    return header + render_rows(algorithm.rows_snapshot())


def figure2(*, mu: int = 8, width: int = 64) -> str:
    """Figure 2: the binary input σ_μ (σ_8 in the paper)."""
    inst = binary_input(mu)
    header = f"Figure 2 — the binary input σ_{mu} (each bar is one item)\n"
    return header + render_instance(inst, width=width)


def figure3(*, mu: int = 8, width: int = 64) -> str:
    """Figure 3: how CDFF packs σ_μ (σ_8 in the paper)."""
    from ..core.simulation import simulate

    inst = binary_input(mu)
    result = simulate(CDFF(), inst)
    header = f"Figure 3 — CDFF's packing of σ_{mu}\n"
    return header + render_packing(result, width=width)
