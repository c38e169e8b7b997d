"""Deep-instrumentation lemma validations: LEM3.5, LEM5.5, LEM5.12.

These three lemmas talk about *internal* state of the algorithms at every
moment — HA's count of CD bins, CDFF's exact item→bin mapping, CDFF's
per-row load.  The experiments here step the incremental simulator one
release at a time and check the lemma's inequality (or identity) at each
step, against the σ′-reduced instance where the lemma requires it.

- **Lemma 3.5**: after the reduction, ``OPT_R^t(σ′) ≥ max(1, k_t/4√log μ)``
  where ``k_t`` is HA's open CD-bin count.
- **Lemma 5.5**: on σ_μ, the item whose length-bit of ``b_t = 1‖binary(t)``
  is 1 sits in bin ``b₀¹``; an item whose bit is 0 with a zero run of
  ``s`` toward the MSB sits in ``b_{s+1}¹`` — checked for every item at
  every time step (this is the exact mapping Figure 3 draws).
- **Lemma 5.12**: for every CDFF row with ``k`` open bins at ``t⁺``, the
  σ′-active load ever packed into that row is ≥ ``(k−1)/2``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..algorithms.base import item_type, type_departure_deadline
from ..algorithms.cdff import CDFF, aligned_class
from ..algorithms.hybrid import HybridAlgorithm
from ..analysis.binary_strings import binary
from ..core.instance import Instance
from ..core.kernel import PlacementKernel
from ..core.objectives import optimal_bins_profile
from ..reductions.alignment import align_departures
from ..workloads.aligned import aligned_random, binary_input
from ..workloads.random_general import uniform_random
from .runner import ExperimentResult, register

__all__ = ["lemma35_experiment", "lemma55_experiment", "lemma512_experiment"]


@register("LEM3.5")
def lemma35_experiment(
    mus: Sequence[int] = (4, 16, 64),
    *,
    seeds: Sequence[int] = (0, 1),
    n_items: int = 150,
) -> ExperimentResult:
    """Lemma 3.5: OPT_R^t(σ′) ≥ max(1, k_t / 4√log μ), sampled at arrivals."""
    headers = ["mu", "seed", "max k_t", "min slack", "violations", "ok"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        for seed in seeds:
            inst = uniform_random(n_items, mu, seed=seed, horizon=2.0 * mu)
            reduced = align_departures(inst)
            opt_profile = optimal_bins_profile(reduced, max_exact=18)
            alg = HybridAlgorithm()
            sim = PlacementKernel(alg, record=True)
            sqrt_log = math.sqrt(max(1.0, math.log2(mu)))
            max_k = 0
            min_slack = math.inf
            violations = 0
            for item in inst:
                sim.release(item)
                k_t = alg.cd_open()
                max_k = max(max_k, k_t)
                required = max(1.0, k_t / (4.0 * sqrt_log))
                available = opt_profile(item.arrival)
                min_slack = min(min_slack, available - required)
                if available < required - 1e-9:
                    violations += 1
            sim.finish()
            ok = violations == 0
            passed = passed and ok
            rows.append([mu, seed, max_k, min_slack, violations, ok])
    notes = [
        "sampled at every arrival (k_t only grows at arrivals); "
        "OPT_R^t(σ′) from the exact per-moment bin-packing oracle",
    ]
    return ExperimentResult(
        "LEM3.5",
        "Lemma 3.5 — the reduced OPT covers HA's CD bins at every moment",
        headers,
        rows,
        notes,
        passed,
    )


def _expected_row(t: int, j: int, n: int) -> int:
    """Lemma 5.5: the row index of the active length-2^j item at time t.

    ``b_t = 1‖binary(t)`` over ``n+1`` bits; bit j == 1 → row 0; otherwise
    row = (zero run from bit j toward the MSB, excluding bit j) + 1.
    """
    b_t = "1" + (binary(t, n) if n > 0 else "")
    # b_t is MSB-first; bit j is at string index (n - j)
    idx = n - j
    if b_t[idx] == "1":
        return 0
    s = 0
    k = idx - 1
    while k >= 0 and b_t[k] == "0":
        s += 1
        k -= 1
    return s + 1


@register("LEM5.5")
def lemma55_experiment(mus: Sequence[int] = (4, 16, 64, 256)) -> ExperimentResult:
    """Lemma 5.5: CDFF's exact item→bin mapping on σ_μ, at every time step."""
    headers = ["mu", "checks", "mismatches", "ok"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        n = int(math.log2(mu))
        inst = binary_input(mu)
        alg = CDFF()
        sim = PlacementKernel(alg, record=True)
        items = list(inst)
        checks = mismatches = 0
        pos = 0
        while pos < len(items):
            t = items[pos].arrival
            while pos < len(items) and items[pos].arrival == t:
                sim.release(items[pos])
                pos += 1
            # after the t⁺ batch: every active item must sit in the first
            # bin of its Lemma 5.5 row
            rows_now = alg.rows_snapshot()
            for uid, item in enumerate(items[:pos]):
                if not (item.arrival <= t < item.departure):  # type: ignore[operator]
                    continue
                j = aligned_class(item.length)
                expected_row = _expected_row(int(t), j, n)
                checks += 1
                bins = rows_now.get(expected_row, [])
                if not bins or uid not in bins[0]:
                    mismatches += 1
        sim.finish()
        ok = mismatches == 0
        passed = passed and ok
        rows.append([mu, checks, mismatches, ok])
    notes = [
        "every active item of σ_μ, at every integer time, is found in the "
        "first bin of exactly the row Lemma 5.5's bit formula names",
    ]
    return ExperimentResult(
        "LEM5.5",
        "Lemma 5.5 — CDFF's packing of σ_μ equals the binary-string mapping",
        headers,
        rows,
        notes,
        passed,
    )


@register("LEM5.12")
def lemma512_experiment(
    mus: Sequence[int] = (16, 64, 256),
    *,
    seeds: Sequence[int] = (0, 1, 2),
    n_items: int = 150,
) -> ExperimentResult:
    """Lemma 5.12: every CDFF row with k bins carries σ′-load ≥ (k−1)/2."""
    headers = ["mu", "seed", "max row bins", "min slack", "violations", "ok"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        for seed in seeds:
            # near-capacity sizes so rows actually open several bins
            inst = aligned_random(mu, n_items, seed=seed, size_low=0.4)
            deadline: dict[int, float] = {}
            for it in inst:
                T = item_type(it, min_class=0)
                deadline[it.uid] = type_departure_deadline(T)
            alg = CDFF()
            sim = PlacementKernel(alg, record=True)
            max_bins = 0
            min_slack = math.inf
            violations = 0
            for item in inst:
                sim.release(item)
                t = item.arrival
                for row, bins in alg.rows_snapshot().items():
                    k = len(bins)
                    if k == 0:
                        continue
                    max_bins = max(max_bins, k)
                    d_row = sum(
                        it.size
                        for it in inst
                        if it.uid in alg._placed_row
                        and alg.row_of_item(it.uid) == row
                        and it.arrival <= t
                        and deadline[it.uid] > t
                    )
                    slack = d_row - (k - 1) / 2.0
                    min_slack = min(min_slack, slack)
                    if slack < -1e-9:
                        violations += 1
            sim.finish()
            ok = violations == 0
            passed = passed and ok
            rows.append([mu, seed, max_bins, min_slack, violations, ok])
    notes = [
        "d_r^{t⁺}(σ′) computed from all items ever routed to the row whose "
        "reduced departure is still ahead — exactly Definition 5.11",
    ]
    return ExperimentResult(
        "LEM5.12",
        "Lemma 5.12 — CDFF rows with k bins carry reduced load ≥ (k−1)/2",
        headers,
        rows,
        notes,
        passed,
    )
