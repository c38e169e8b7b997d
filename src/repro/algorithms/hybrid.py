"""The Hybrid Algorithm (HA) — the paper's O(√log μ) contribution.

Algorithm 1 of the paper.  HA classifies each arriving item ``r`` by its
type ``T = (i, c)`` — duration class ``i`` with ``length ∈ (2^{i-1}, 2^i]``
and arrival window ``c`` with ``arrival ∈ ((c-1)·2^i, c·2^i]`` — and keeps
two kinds of bins:

- **GN** (general) bins shared by all types, packed Any-Fit; and
- **CD** (classify-by-duration) bins, each dedicated to a single type.

Upon arrival of ``r`` of type ``T``:

1. if an open CD bin for ``T`` exists, pack ``r`` Any-Fit among the CD bins
   of type ``T`` (opening a new CD bin if none fits);
2. otherwise, if the total load of *active* type-``T`` items (including
   ``r``) is at most the threshold ``1/(2√i)``, pack ``r`` Any-Fit among the
   GN bins (opening a new GN bin if none fits);
3. otherwise open the first CD bin for type ``T`` and put ``r`` in it.

HA needs no advance knowledge of μ — the classification adapts as longer
items arrive.  Lemma 3.3 guarantees the number of open GN bins never
exceeds ``2 + 4√log μ``; the CD bins are charged to OPT through the
departure-alignment reduction (Lemma 3.5), giving Theorem 3.2's
``O(√log μ)`` competitive ratio.

The ``threshold`` and ``rule`` parameters exist for the ablation
experiments (ABL.THRESH, ABL.ANYFIT): the paper's footnote 1 notes any
Any-Fit rule works, and the threshold shape ``1/(2√i)`` is exactly what
balances the GN load sum ``Σ 1/√i ≈ 2√log μ`` against the CD-bin charging
argument.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from ..core.bins import Bin
from ..core.item import Item
from .anyfit import FIRST_FIT, LAST_FIT, FitRule
from .base import OnlineAlgorithm, item_type

__all__ = ["HybridAlgorithm", "sqrt_threshold", "GN_TAG", "CD_TAG"]

GN_TAG = "GN"
CD_TAG = "CD"

#: threshold(i) -> max total active type load that may still go to GN bins.
ThresholdFn = Callable[[int], float]


def sqrt_threshold(i: int) -> float:
    """The paper's threshold ``1/(2√i)``."""
    return 1.0 / (2.0 * math.sqrt(i))


class HybridAlgorithm(OnlineAlgorithm):
    """Azar & Vainstein's Hybrid Algorithm (Algorithm 1).

    Parameters
    ----------
    threshold:
        Per-class GN admission threshold; defaults to ``1/(2√i)``.
    rule:
        Any-Fit rule used both over GN bins and over a type's CD bins
        (footnote 1 of the paper).
    """

    def __init__(
        self,
        *,
        threshold: ThresholdFn = sqrt_threshold,
        rule: FitRule = FIRST_FIT,
        name: Optional[str] = None,
    ) -> None:
        self.threshold = threshold
        self.rule = rule
        self.name = name or "HybridAlgorithm"
        self._gn_bins: List[Bin] = []
        self._cd_bins: Dict[tuple[int, int], List[Bin]] = {}
        self._type_load: Dict[tuple[int, int], float] = {}
        self._type_of: Dict[int, tuple[int, int]] = {}
        self._max_gn_open = 0

    def reset(self) -> None:
        self._gn_bins = []
        self._cd_bins = {}
        self._type_load = {}
        self._type_of = {}
        self._max_gn_open = 0

    # ------------------------------------------------------------------ #
    @property
    def max_gn_open(self) -> int:
        """Peak simultaneous GN bins — Lemma 3.3 bounds this by 2+4√log μ."""
        return self._max_gn_open

    def gn_open(self) -> int:
        return len(self._gn_bins)

    def cd_open(self) -> int:
        """k_t — total open CD bins right now (Lemma 3.5's quantity)."""
        return sum(len(v) for v in self._cd_bins.values())

    def active_type_load(self, T: tuple[int, int]) -> float:
        return self._type_load.get(T, 0.0)

    # ------------------------------------------------------------------ #
    def place(self, item: Item, sim) -> Bin:
        T = item_type(item)
        self._type_of[item.uid] = T
        self._type_load[T] = self._type_load.get(T, 0.0) + item.size
        d = self._type_load[T]

        cd = self._cd_bins.get(T)
        if cd:  # an open CD bin for this type exists → CD lane, Any-Fit
            return self._place_cd(item, T, sim)

        i, _ = T
        if d <= self.threshold(i) + 1e-12:
            return self._place_gn(item, sim)

        # threshold crossed: open the first CD bin for this type
        b = sim.open_bin(tag=(CD_TAG, T))
        self._cd_bins.setdefault(T, []).append(b)
        return b

    def _any_fit(self, bins: List[Bin], item: Item) -> Optional[Bin]:
        """The rule's pick among ``bins`` that fit ``item`` (or ``None``);
        first/last-fit stop at the first fitting bin from their end."""
        rule = self.rule
        if rule is FIRST_FIT or rule is LAST_FIT:
            for b in bins if rule is FIRST_FIT else reversed(bins):
                if b.fits(item):
                    return b
            return None
        candidates = [b for b in bins if b.fits(item)]
        return rule(candidates, item) if candidates else None

    def _place_gn(self, item: Item, sim) -> Bin:
        found = self._any_fit(self._gn_bins, item)
        if found is not None:
            return found
        b = sim.open_bin(tag=(GN_TAG,))
        self._gn_bins.append(b)
        self._max_gn_open = max(self._max_gn_open, len(self._gn_bins))
        return b

    def _place_cd(self, item: Item, T: tuple[int, int], sim) -> Bin:
        bins = self._cd_bins.setdefault(T, [])
        found = self._any_fit(bins, item)
        if found is not None:
            return found
        b = sim.open_bin(tag=(CD_TAG, T))
        bins.append(b)
        return b

    # ------------------------------------------------------------------ #
    def notify_departure(self, item: Item, bin_: Bin, sim) -> None:
        T = self._type_of.pop(item.uid, None)
        if T is not None:
            self._type_load[T] = self._type_load.get(T, 0.0) - item.size
            if self._type_load[T] <= 1e-12:
                self._type_load.pop(T, None)

    def notify_close(self, bin_: Bin, sim) -> None:
        # Bin has no __eq__, so remove() matches by identity, in place
        tag = bin_.tag
        if tag and tag[0] == GN_TAG:
            self._gn_bins.remove(bin_)
        elif tag and tag[0] == CD_TAG:
            bins = self._cd_bins[tag[1]]
            bins.remove(bin_)
            if not bins:
                del self._cd_bins[tag[1]]
