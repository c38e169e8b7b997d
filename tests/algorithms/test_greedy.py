"""Unit tests for the LeastExpansion clairvoyant greedy."""

import math

import pytest

from repro.algorithms.greedy import LeastExpansion
from repro.core.errors import ClairvoyanceError
from repro.core.instance import Instance
from repro.core.simulation import simulate
from repro.core.validate import audit


class TestPlacement:
    def test_reuses_covering_bin_for_free(self):
        # a long item's bin covers a nested short item: zero expansion
        inst = Instance.from_tuples([(0, 10, 0.5), (2, 5, 0.5)])
        res = simulate(LeastExpansion(), inst)
        assert res.n_bins == 1
        assert math.isclose(res.cost, 10.0)

    def test_prefers_smaller_expansion(self):
        # bins ending at 6 and 9 open; new item ends at 10: joining the
        # 9-bin costs 1, the 6-bin costs 4 → picks the 9-bin
        inst = Instance.from_tuples(
            [(0, 6, 0.6), (0, 9, 0.6), (1, 10, 0.3)]
        )
        res = simulate(LeastExpansion(), inst)
        assert res.assignment[2] == res.assignment[1]

    def test_opens_new_when_expansion_too_large(self):
        # joining would expand by the full length → indifferent; strict
        # improvement required, so it opens fresh only if expansion ≥ length
        inst = Instance.from_tuples([(0, 1, 0.5), (0.5, 10.0, 0.4)])
        res = simulate(LeastExpansion(), inst)
        # expansion = 10 − 1 = 9 < 9.5 = length → joins the open bin
        assert res.n_bins == 1

    def test_slack_zero_never_joins_unless_free(self):
        alg = LeastExpansion(slack=0.0)
        inst = Instance.from_tuples([(0, 4, 0.3), (1, 5, 0.3)])
        res = simulate(alg, inst)
        # joining costs 1 > 0·length → opens a second bin
        assert res.n_bins == 2

    def test_requires_clairvoyance(self):
        from repro.core.item import Item
        from repro.core.kernel import PlacementKernel

        alg = LeastExpansion()
        alg.clairvoyant = False  # force the simulator to mask departures
        sim = PlacementKernel(alg, record=True)
        with pytest.raises(ClairvoyanceError):
            sim.release(Item(0, 5, 0.5, uid=0))

    def test_invalid_slack(self):
        with pytest.raises(ValueError):
            LeastExpansion(slack=-1)


class TestQuality:
    def test_audit_clean_on_random(self):
        from repro.workloads.random_general import uniform_random

        for seed in range(3):
            res = simulate(LeastExpansion(), uniform_random(150, 32, seed=seed))
            audit(res)

    def test_beats_first_fit_on_nested_trace(self):
        """Nested departures reward exact-departure awareness."""
        from repro.algorithms.anyfit import FirstFit
        from repro.workloads.cloud import cloud_gaming

        inst = cloud_gaming(40.0, seed=13).normalized()
        le = simulate(LeastExpansion(), inst)
        ff = simulate(FirstFit(), inst)
        audit(le)
        assert le.cost <= ff.cost * 1.1  # at worst comparable

    def test_still_forced_by_adversary(self):
        from repro.adversary.sqrt_log import SqrtLogAdversary

        mu = 64
        adv = SqrtLogAdversary(mu)
        out = adv.run(LeastExpansion())
        assert out.online_cost >= mu * adv.target_bins - 1e-9
