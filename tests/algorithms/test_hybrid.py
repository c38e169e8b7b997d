"""Unit tests for the Hybrid Algorithm (Algorithm 1)."""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.anyfit import BEST_FIT, FIRST_FIT, LAST_FIT, WORST_FIT
from repro.algorithms.hybrid import (
    CD_TAG,
    GN_TAG,
    HybridAlgorithm,
    sqrt_threshold,
)
from repro.analysis.theory import ha_gn_bound
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.kernel import PlacementKernel
from repro.core.simulation import simulate
from repro.core.validate import audit
from repro.workloads import poisson_random, uniform_random


def tags(result):
    return [rec.tag for rec in result.bins]


class TestThreshold:
    def test_sqrt_threshold_values(self):
        assert sqrt_threshold(1) == 0.5
        assert math.isclose(sqrt_threshold(4), 0.25)

    def test_threshold_decreasing(self):
        vals = [sqrt_threshold(i) for i in range(1, 30)]
        assert vals == sorted(vals, reverse=True)


class TestRouting:
    def test_small_load_goes_gn(self):
        # one tiny class-1 item: load 0.1 ≤ 1/2 → GN
        inst = Instance.from_tuples([(0, 2, 0.1)])
        res = simulate(HybridAlgorithm(), inst)
        assert tags(res) == [(GN_TAG,)]

    def test_threshold_crossing_opens_cd(self):
        # class 1 threshold is 1/2: the third 0.2-item crosses it
        inst = Instance.from_tuples([(0, 2, 0.2)] * 3)
        res = simulate(HybridAlgorithm(), inst)
        t = tags(res)
        assert (GN_TAG,) in t
        assert any(tag[0] == CD_TAG for tag in t)

    def test_big_item_goes_directly_cd(self):
        # a single 0.9-item of class 1 exceeds 1/2 immediately
        inst = Instance.from_tuples([(0, 2, 0.9)])
        res = simulate(HybridAlgorithm(), inst)
        assert tags(res)[0][0] == CD_TAG

    def test_cd_bin_attracts_same_type(self):
        # once a CD bin exists for T, later T items go CD even when small;
        # both items are type (1, 1): class-1 lengths, arrivals in (0, 2]
        inst = Instance.from_tuples([(0.5, 2.4, 0.9), (1.0, 2.4, 0.05)])
        res = simulate(HybridAlgorithm(), inst)
        assert all(tag[0] == CD_TAG for tag in tags(res))
        # and they share the bin (0.95 ≤ 1)
        assert res.assignment[0] == res.assignment[1]

    def test_different_types_use_different_cd_bins(self):
        # class 1 (len 2) and class 3 (len 8), both large
        inst = Instance.from_tuples([(0, 2, 0.9), (0, 8, 0.9)])
        res = simulate(HybridAlgorithm(), inst)
        assert res.assignment[0] != res.assignment[1]
        assert {tag[0] for tag in tags(res)} == {CD_TAG}

    def test_cd_types_recorded_in_tag(self):
        inst = Instance.from_tuples([(0, 8, 0.9)])
        res = simulate(HybridAlgorithm(), inst)
        tag = res.bins[0].tag
        assert tag[0] == CD_TAG and tag[1] == (3, 0)

    def test_gn_shared_across_types(self):
        # two tiny items of different classes share one GN bin (first-fit)
        inst = Instance.from_tuples([(0, 2, 0.1), (0, 8, 0.1)])
        res = simulate(HybridAlgorithm(), inst)
        assert res.n_bins == 1
        assert tags(res) == [(GN_TAG,)]

    def test_departed_load_not_counted(self):
        # two 0.4 class-1 items in sequence (no overlap): the second sees
        # active load 0.4 ≤ 0.5 → still GN (old item departed)
        inst = Instance.from_tuples([(0, 1.5, 0.4), (2, 3.5, 0.4)])
        res = simulate(HybridAlgorithm(), inst)
        assert all(tag == (GN_TAG,) for tag in tags(res))

    def test_type_window_separates_arrivals(self):
        # same class, different windows c → different types: each window's
        # load is counted separately
        inst = Instance.from_tuples([(0, 2, 0.4), (2.5, 4.4, 0.4)])
        alg = HybridAlgorithm()
        res = simulate(alg, inst)
        assert all(tag == (GN_TAG,) for tag in tags(res))


class TestStateAccounting:
    def test_type_load_tracks_arrivals_and_departures(self):
        alg = HybridAlgorithm()
        sim = PlacementKernel(alg, record=True)
        sim.release(Item(0.5, 2.5, 0.3, uid=0))
        T = (1, 1)  # class-1 length, arrival window (0, 2]
        assert math.isclose(alg.active_type_load(T), 0.3)
        sim.release(Item(1.0, 2.5, 0.1, uid=1))
        assert math.isclose(alg.active_type_load(T), 0.4)
        sim.run_until(2.5)
        assert alg.active_type_load(T) == 0.0

    def test_gn_and_cd_counters(self):
        alg = HybridAlgorithm()
        sim = PlacementKernel(alg, record=True)
        sim.release(Item(0.0, 2.0, 0.1, uid=0))
        assert alg.gn_open() == 1 and alg.cd_open() == 0
        sim.release(Item(0.0, 2.0, 0.9, uid=1))
        assert alg.cd_open() == 1
        sim.run_until(2.0)
        assert alg.gn_open() == 0 and alg.cd_open() == 0

    def test_reset_clears_state(self):
        alg = HybridAlgorithm()
        simulate(alg, Instance.from_tuples([(0, 2, 0.9)]))
        assert alg.cd_open() == 0  # closed at departure
        simulate(alg, Instance.from_tuples([(0, 2, 0.1)]))
        assert alg.max_gn_open == 1  # not carried over


class TestLemma33:
    @pytest.mark.parametrize("mu", [4, 64, 1024])
    def test_gn_bound_on_random(self, mu):
        from repro.workloads.random_general import uniform_random

        alg = HybridAlgorithm()
        res = simulate(alg, uniform_random(400, mu, seed=0))
        audit(res)
        assert alg.max_gn_open <= ha_gn_bound(mu)

    def test_gn_bound_on_dense_schedule(self):
        from repro.workloads.adversarial import full_adversary_schedule

        alg = HybridAlgorithm()
        res = simulate(alg, full_adversary_schedule(64))
        audit(res)
        assert alg.max_gn_open <= ha_gn_bound(64)


class TestAblationKnobs:
    def test_all_gn_threshold_behaves_like_first_fit(self):
        from repro.algorithms.anyfit import FirstFit
        from repro.workloads.random_general import uniform_random

        inst = uniform_random(120, 16, seed=4)
        ha = simulate(HybridAlgorithm(threshold=lambda i: math.inf), inst)
        ff = simulate(FirstFit(), inst)
        assert math.isclose(ha.cost, ff.cost)

    def test_all_cd_threshold_never_opens_gn(self):
        from repro.workloads.random_general import uniform_random

        inst = uniform_random(120, 16, seed=4)
        res = simulate(HybridAlgorithm(threshold=lambda i: 0.0), inst)
        assert all(tag[0] == CD_TAG for tag in tags(res))

    def test_custom_rule_accepted(self):
        from repro.algorithms.anyfit import BEST_FIT
        from repro.workloads.random_general import uniform_random

        inst = uniform_random(120, 16, seed=4)
        res = simulate(HybridAlgorithm(rule=BEST_FIT), inst)
        audit(res)

    def test_custom_name(self):
        assert HybridAlgorithm(name="HA-x").name == "HA-x"


class ListThenRuleHA(HybridAlgorithm):
    """Reference HA: list every fitting bin, then apply the rule."""

    def _place_gn(self, item, sim):
        candidates = [b for b in self._gn_bins if b.fits(item)]
        if candidates:
            return self.rule(candidates, item)
        b = sim.open_bin(tag=(GN_TAG,))
        self._gn_bins.append(b)
        self._max_gn_open = max(self._max_gn_open, len(self._gn_bins))
        return b

    def _place_cd(self, item, T, sim):
        bins = self._cd_bins.setdefault(T, [])
        candidates = [b for b in bins if b.fits(item)]
        if candidates:
            return self.rule(candidates, item)
        b = sim.open_bin(tag=(CD_TAG, T))
        bins.append(b)
        return b


RULES = [FIRST_FIT, LAST_FIT, BEST_FIT, WORST_FIT]

# a coarse grid: equal residuals and exact fills make the rules' ties bite
grid_instances = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12).map(lambda k: k * 0.5),
        st.integers(min_value=1, max_value=16).map(lambda k: k * 0.5),
        st.sampled_from([0.05, 0.1, 0.125, 0.25, 0.3, 0.5, 0.75, 1.0]),
    ),
    min_size=1,
    max_size=60,
).map(lambda rows: Instance.from_tuples([(a, a + l, s) for a, l, s in rows]))


def _same_packing(rule, inst):
    fast = simulate(HybridAlgorithm(rule=rule), inst)
    ref = simulate(ListThenRuleHA(rule=rule), inst)
    assert fast.assignment == ref.assignment
    assert fast.bins == ref.bins
    assert fast.cost == ref.cost


class TestEarlyExitScan:
    """First/last-fit scans stop at the first fitting bin; every rule
    must still pick what the list-then-rule form picks."""

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.__name__)
    @given(inst=grid_instances)
    @settings(max_examples=40, deadline=None)
    def test_matches_list_then_rule_on_grids(self, rule, inst):
        _same_packing(rule, inst)

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.__name__)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_list_then_rule_on_random_traces(self, rule, seed):
        _same_packing(rule, uniform_random(300, 32, seed=seed))
        _same_packing(rule, poisson_random(20.0, 16.0, 40.0, seed=seed))
