"""Unit tests for CDFF (Algorithm 2) and its static-row ablation."""

import math

import pytest

from repro.algorithms.cdff import (
    CDFF,
    StaticRowsCDFF,
    aligned_class,
    trailing_zeros,
)
from repro.core.errors import AlignmentError
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.kernel import PlacementKernel
from repro.core.simulation import simulate
from repro.core.validate import audit
from repro.workloads.aligned import aligned_random, binary_input


class TestHelpers:
    def test_aligned_class_boundaries(self):
        assert aligned_class(1.0) == 0
        assert aligned_class(0.75) == 0
        assert aligned_class(2.0) == 1
        assert aligned_class(2.5) == 2
        assert aligned_class(8.0) == 3

    def test_aligned_class_too_short(self):
        with pytest.raises(AlignmentError):
            aligned_class(0.5)

    def test_trailing_zeros(self):
        assert trailing_zeros(1) == 0
        assert trailing_zeros(2) == 1
        assert trailing_zeros(12) == 2
        assert trailing_zeros(64) == 6

    def test_trailing_zeros_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trailing_zeros(0)


class TestAlignmentEnforcement:
    def test_non_integer_arrival_rejected(self):
        inst = Instance.from_tuples([(0.5, 1.5, 0.1)])
        with pytest.raises(AlignmentError):
            simulate(CDFF(), inst)

    def test_misaligned_arrival_rejected(self):
        # class-2 item (length 4) must arrive at multiples of 4
        inst = Instance.from_tuples([(0, 4, 0.1), (2, 6, 0.1)])
        with pytest.raises(AlignmentError):
            simulate(CDFF(), inst)

    def test_aligned_arrival_accepted(self):
        inst = Instance.from_tuples([(0, 4, 0.1), (4, 8, 0.1)])
        audit(simulate(CDFF(), inst))


class TestRowPlacement:
    def test_t0_batch_rows(self):
        """At t=0 of σ_8, length 2^i goes to row log μ − i (Lemma 5.5)."""
        alg = CDFF()
        sim = PlacementKernel(alg, record=True)
        for uid, length in enumerate([1.0, 2.0, 4.0, 8.0]):
            sim.release(Item(0.0, length, 0.2, uid=uid))
        # rows bind relative to the largest class (3)
        assert alg.row_of_item(0) == 3  # length 1 → row 3
        assert alg.row_of_item(3) == 0  # length 8 → row 0

    def test_batch_binding_independent_of_order(self):
        """The longest item may arrive last; rows must come out the same."""
        for order in ([1.0, 2.0, 4.0, 8.0], [8.0, 4.0, 2.0, 1.0], [2.0, 8.0, 1.0, 4.0]):
            alg = CDFF()
            sim = PlacementKernel(alg, record=True)
            uid_of = {}
            for uid, length in enumerate(order):
                sim.release(Item(0.0, length, 0.2, uid=uid))
                uid_of[length] = uid
            assert alg.row_of_item(uid_of[8.0]) == 0
            assert alg.row_of_item(uid_of[1.0]) == 3

    def test_post_batch_row_uses_trailing_zeros(self):
        """σ_8 at t=1: m_t = 0, so the length-1 item goes to row 0 and joins
        the bin holding the length-8 item (the Lemma 5.5 example)."""
        alg = CDFF()
        sim = PlacementKernel(alg, record=True)
        for uid, length in enumerate([1.0, 2.0, 4.0, 8.0]):
            sim.release(Item(0.0, length, 0.2, uid=uid))
        b = sim.release(Item(1.0, 2.0, 0.2, uid=4))
        assert alg.row_of_item(4) == 0
        # shares the row-0 bin with the length-8 item
        assert 3 in b

    def test_row_bin_removed_when_empty(self):
        alg = CDFF()
        sim = PlacementKernel(alg, record=True)
        sim.release(Item(0.0, 1.0, 0.2, uid=0))
        sim.release(Item(1.0, 2.0, 0.2, uid=1))  # t=1: old bin closed
        rows = alg.rows_snapshot()
        total_bins = sum(len(v) for v in rows.values())
        assert total_bins == 1

    def test_first_fit_within_row(self):
        # two big same-class items at t=0 → two bins in the same row
        alg = CDFF()
        sim = PlacementKernel(alg, record=True)
        sim.release(Item(0.0, 1.0, 0.8, uid=0))
        sim.release(Item(0.0, 1.0, 0.8, uid=1))
        sim.release(Item(0.0, 1.0, 0.1, uid=2))  # fits the first bin
        rows = alg.rows_snapshot()
        (row_bins,) = rows.values()
        assert len(row_bins) == 2
        assert 2 in row_bins[0]


class TestSegments:
    def test_new_segment_after_horizon(self):
        # σ_0 covers [0, 4]; arrivals at 4 start a fresh segment
        inst = Instance.from_tuples(
            [(0, 4, 0.3), (0, 1, 0.3), (4, 8, 0.3), (5, 6, 0.3)]
        )
        res = simulate(CDFF(), inst)
        audit(res)

    def test_segment_rows_reset(self):
        alg = CDFF()
        sim = PlacementKernel(alg, record=True)
        sim.release(Item(0.0, 2.0, 0.3, uid=0))
        sim.release(Item(2.0, 4.0, 0.3, uid=1))  # new segment at t=2
        assert alg.row_of_item(1) >= 0

    def test_long_quiet_gap(self):
        inst = Instance.from_tuples([(0, 1, 0.5), (100, 101, 0.5)])
        res = simulate(CDFF(), inst)
        audit(res)
        assert res.n_bins == 2
        assert math.isclose(res.cost, 2.0)


class TestCorollary58Small:
    @pytest.mark.parametrize("mu", [2, 4, 8, 16, 32])
    def test_identity(self, mu):
        from repro.analysis.binary_strings import max_zero_run

        res = simulate(CDFF(), binary_input(mu))
        audit(res)
        prof = res.open_bins_profile()
        n = int(math.log2(mu))
        for t in range(mu):
            expected = max_zero_run(t, n) + 1 if n else 1
            assert int(prof(float(t))) == expected, f"t={t}"


class TestOnAlignedRandom:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_audit_clean(self, seed):
        inst = aligned_random(64, 150, seed=seed)
        res = simulate(CDFF(), inst)
        audit(res)

    def test_cost_at_least_lower_bounds(self):
        inst = aligned_random(64, 150, seed=3)
        res = simulate(CDFF(), inst)
        assert res.cost >= inst.demand - 1e-9
        assert res.cost >= inst.span - 1e-9

    def test_respects_theorem51_bound(self):
        from repro.analysis.theory import cdff_aligned_upper_bound
        from repro.offline.optimal import opt_reference

        inst = aligned_random(256, 200, seed=5)
        res = simulate(CDFF(), inst)
        opt = opt_reference(inst, max_exact=16)
        assert res.cost / opt.lower <= cdff_aligned_upper_bound(256)


class TestStaticRows:
    def test_one_bin_per_class_on_binary(self):
        res = simulate(StaticRowsCDFF(), binary_input(16))
        audit(res)
        # static rows: each class occupies its own bin at all times
        assert res.cost == 16 * (math.log2(16) + 1)

    def test_dynamic_beats_static_on_binary(self):
        mu = 256
        dyn = simulate(CDFF(), binary_input(mu)).cost
        stat = simulate(StaticRowsCDFF(), binary_input(mu)).cost
        assert dyn < stat

    def test_rejects_misaligned_lengths(self):
        inst = Instance.from_tuples([(0.0, 0.4, 0.1)])
        with pytest.raises(AlignmentError):
            simulate(StaticRowsCDFF(), inst)
