"""Unit tests for :mod:`repro.core.simulation` — the simulator's contract."""

import math

import pytest

from repro.algorithms.base import OnlineAlgorithm
from repro.core.errors import (
    ClairvoyanceError,
    PackingError,
    SimulationError,
)
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.kernel import PlacementKernel
from repro.core.simulation import simulate
from repro.core.validate import audit
from repro.algorithms.anyfit import FirstFit


class OpenAlways(OnlineAlgorithm):
    """One bin per item — the trivial upper-bound algorithm."""

    name = "OpenAlways"

    def place(self, item, sim):
        return sim.open_bin(tag="solo")


class ReturnForeignBin(OnlineAlgorithm):
    name = "ReturnForeignBin"

    def place(self, item, sim):
        from repro.core.bins import Bin

        return Bin(999, 1.0, 0.0)


class OpenTwo(OnlineAlgorithm):
    name = "OpenTwo"

    def place(self, item, sim):
        sim.open_bin()
        return sim.open_bin()


class OpenButReturnOther(OnlineAlgorithm):
    name = "OpenButReturnOther"

    def place(self, item, sim):
        if sim.open_bins:
            sim.open_bin()
            return sim.open_bins[0]
        return sim.open_bin()


class ReturnNonBin(OnlineAlgorithm):
    name = "ReturnNonBin"

    def place(self, item, sim):
        return 42  # type: ignore[return-value]


class PeeksDepartures(OnlineAlgorithm):
    """Fails the test if it ever sees a departure (non-clairvoyant honesty)."""

    name = "PeeksDepartures"
    clairvoyant = False

    def __init__(self):
        self.saw_departure = False

    def place(self, item, sim):
        if item.departure is not None:
            self.saw_departure = True
        for b in sim.open_bins:
            for it in b.contents:
                if it.departure is not None:
                    self.saw_departure = True
            if b.fits(item):
                return b
        return sim.open_bin()


class TestBasicRuns:
    def test_first_fit_tiny(self, tiny_instance):
        result = simulate(FirstFit(), tiny_instance)
        audit(result)
        assert result.cost == 6.0
        assert result.n_bins == 1

    def test_open_always_cost_is_sum_of_lengths(self, tiny_instance):
        result = simulate(OpenAlways(), tiny_instance)
        audit(result)
        assert math.isclose(
            result.cost, sum(it.length for it in tiny_instance)
        )
        assert result.n_bins == len(tiny_instance)

    def test_disjoint_items_reuse_is_impossible(self, disjoint_instance):
        # bins close on empty, so even FF uses 3 bins but cost equals span
        result = simulate(FirstFit(), disjoint_instance)
        audit(result)
        assert result.n_bins == 3
        assert math.isclose(result.cost, 3.0)

    def test_full_bins(self, full_bin_instance):
        result = simulate(FirstFit(), full_bin_instance)
        audit(result)
        assert result.n_bins == 2
        assert math.isclose(result.cost, 4.0)

    def test_empty_instance(self):
        result = simulate(FirstFit(), Instance([]))
        assert result.cost == 0.0
        assert result.n_bins == 0

    def test_capacity_parameter(self, full_bin_instance):
        result = simulate(FirstFit(), full_bin_instance, capacity=2.0)
        assert result.n_bins == 1


class TestProtocolViolations:
    def test_foreign_bin_rejected(self, tiny_instance):
        with pytest.raises(PackingError):
            simulate(ReturnForeignBin(), tiny_instance)

    def test_two_new_bins_rejected(self, tiny_instance):
        with pytest.raises(PackingError):
            simulate(OpenTwo(), tiny_instance)

    def test_opened_but_unused_rejected(self, tiny_instance):
        with pytest.raises(PackingError):
            simulate(OpenButReturnOther(), tiny_instance)

    def test_non_bin_return_rejected(self, tiny_instance):
        with pytest.raises(PackingError):
            simulate(ReturnNonBin(), tiny_instance)

    def test_out_of_order_release_rejected(self):
        sim = PlacementKernel(FirstFit(), record=True)
        sim.release(Item(5.0, 6.0, 0.5, uid=0))
        with pytest.raises(SimulationError):
            sim.release(Item(1.0, 2.0, 0.5, uid=1))

    def test_negative_capacity_rejected(self):
        with pytest.raises(SimulationError):
            PlacementKernel(FirstFit(), capacity=0.0)


class TestClairvoyance:
    def test_clairvoyant_algorithm_rejects_unknown_departure(self):
        sim = PlacementKernel(FirstFit(), record=True)
        with pytest.raises(ClairvoyanceError):
            sim.release(Item(0.0, None, 0.5, uid=0))

    def test_nonclairvoyant_never_sees_departures(self):
        alg = PeeksDepartures()
        sim = PlacementKernel(alg, record=True)
        for k in range(5):
            sim.release(Item(float(k), float(k) + 2.0, 0.4, uid=k))
        result = sim.finish()
        assert not alg.saw_departure
        audit(result)

    def test_nonclairvoyant_results_use_true_departures(self):
        result = simulate(
            FirstFit(clairvoyant=False),
            Instance.from_tuples([(0, 3, 0.5)]),
        )
        assert result.cost == 3.0


class TestAdaptiveDepartures:
    def test_explicit_departure(self):
        sim = PlacementKernel(FirstFit(clairvoyant=False), record=True)
        sim.release(Item(0.0, None, 0.5, uid=0))
        sim.depart(0, 4.0)
        result = sim.finish()
        assert result.cost == 4.0
        assert result.departed_at[0] == 4.0

    def test_departure_in_past_rejected(self):
        sim = PlacementKernel(FirstFit(clairvoyant=False), record=True)
        sim.release(Item(0.0, None, 0.5, uid=0))
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.depart(0, 1.0)

    def test_departure_of_scheduled_item_rejected(self):
        sim = PlacementKernel(FirstFit(), record=True)
        sim.release(Item(0.0, 3.0, 0.5, uid=0))
        with pytest.raises(SimulationError):
            sim.depart(0, 1.0)

    def test_departure_of_unknown_item_rejected(self):
        sim = PlacementKernel(FirstFit(), record=True)
        with pytest.raises(PackingError):
            sim.depart(7, 1.0)

    def test_finish_with_alive_adaptive_item_rejected(self):
        sim = PlacementKernel(FirstFit(clairvoyant=False), record=True)
        sim.release(Item(0.0, None, 0.5, uid=0))
        with pytest.raises(SimulationError):
            sim.finish()


class TestSemantics:
    def test_departure_processed_before_arrival(self):
        # second item of size 0.9 arrives exactly when the first departs:
        # it must fit in a NEW busy period but FF may not overload
        inst = Instance.from_tuples([(0, 2, 0.9), (2, 4, 0.9)])
        result = simulate(FirstFit(), inst)
        audit(result)
        assert result.n_bins == 2  # first bin closed at t=2

    def test_simultaneous_arrivals_in_release_order(self):
        # order matters: 0.6 then 0.5 → two bins; audit both placements
        inst = Instance.from_tuples([(0, 1, 0.6), (0, 1, 0.5)])
        result = simulate(FirstFit(), inst)
        assert result.assignment[0] != result.assignment[1]

    def test_open_bin_count_live(self):
        sim = PlacementKernel(FirstFit(), record=True)
        assert sim.open_bin_count == 0
        sim.release(Item(0.0, 10.0, 0.9, uid=0))
        assert sim.open_bin_count == 1
        sim.release(Item(1.0, 10.0, 0.9, uid=1))
        assert sim.open_bin_count == 2
        sim.run_until(10.0)
        assert sim.open_bin_count == 0

    def test_cost_so_far_monotone(self):
        sim = PlacementKernel(FirstFit(), record=True)
        sim.release(Item(0.0, 10.0, 0.9, uid=0))
        sim.run_until(3.0)
        c1 = sim.cost_so_far
        sim.run_until(7.0)
        c2 = sim.cost_so_far
        assert 0 < c1 < c2

    def test_run_until_backwards_rejected(self):
        sim = PlacementKernel(FirstFit(), record=True)
        sim.release(Item(5.0, 6.0, 0.5, uid=0))
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_cost_equals_profile_integral(self, tiny_instance):
        result = simulate(FirstFit(), tiny_instance)
        assert math.isclose(
            result.cost, result.open_bins_profile().integral()
        )

    def test_bin_reuse_forbidden_after_close(self):
        class Reuser(OnlineAlgorithm):
            name = "Reuser"

            def __init__(self):
                self.stash = None

            def place(self, item, sim):
                if self.stash is not None:
                    return self.stash  # bin was closed meanwhile
                self.stash = sim.open_bin()
                return self.stash

        inst = Instance.from_tuples([(0, 1, 0.5), (2, 3, 0.5)])
        with pytest.raises(PackingError):
            simulate(Reuser(), inst)
