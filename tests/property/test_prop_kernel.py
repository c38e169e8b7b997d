"""Property-based tests of the placement-kernel semantics (hypothesis).

Random traces — with deliberately colliding arrival/departure times to
exercise the tie-break rules — are driven through BOTH frontends (batch
``simulate()`` and the streaming ``Engine``), checking the DESIGN.md §5
invariants the kernel owns:

- departures at ``t`` are processed before arrivals at ``t``;
- simultaneous arrivals are placed strictly in release order;
- a bin is closed iff it is empty (never observed empty while open,
  closes exactly at its last member's departure);
- cost equals the sum of per-bin usage windows;
- the indexed open-bin structure is behaviourally identical to the
  linear-scan fallback.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BestFit, FirstFit, WorstFit
from repro.algorithms.base import OnlineAlgorithm
from repro.core.instance import Instance
from repro.core.simulation import simulate
from repro.engine import Engine
from repro.obs import MetricsListener

from ..conftest import aligned_algorithm_factories, all_algorithm_factories

# Coarse grids force plenty of equal-time events and exact-fill loads.
grid_times = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.5)
grid_lengths = st.integers(min_value=1, max_value=8).map(lambda k: k * 0.5)
grid_sizes = st.sampled_from([0.125, 0.25, 1 / 3, 0.5, 0.75, 1.0])


@st.composite
def traces(draw, n_max=30):
    n = draw(st.integers(min_value=1, max_value=n_max))
    triples = []
    for _ in range(n):
        a = draw(grid_times)
        l = draw(grid_lengths)
        s = draw(grid_sizes)
        triples.append((a, a + l, s))
    return Instance.from_tuples(triples)


class Recording(OnlineAlgorithm):
    """First-Fit that records what it observes at every placement."""

    name = "RecordingFF"

    def reset(self):
        self.placements = []  # (time, placed uid, visible items snapshot)
        self.closed_nonempty = 0

    def place(self, item, sim):
        visible = [
            (it.uid, it.departure)
            for b in sim.open_bins
            for it in b.contents
        ]
        self.placements.append((sim.time, item.uid, visible))
        for b in sim.open_bins:
            assert b.n_items > 0, "open bin observed empty"
        found = sim.first_fit(item)
        return found if found is not None else sim.open_bin()

    def notify_close(self, bin_, sim):
        if bin_.n_items != 0:
            self.closed_nonempty += 1


def _run_both(algo_factory, inst):
    batch = simulate(algo_factory(), inst)
    eng = Engine(algo_factory(), record=True)
    for it in inst:
        eng.feed(it)
    eng.finish()
    return batch, eng.kernel.result()


class TestKernelSemantics:
    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_departures_processed_before_arrivals_at_equal_t(self, inst):
        """At arrival time t, no visible item may have departure ≤ t."""
        for frontend in ("batch", "engine"):
            algo = Recording()
            if frontend == "batch":
                simulate(algo, inst)
            else:
                eng = Engine(algo)
                for it in inst:
                    eng.feed(it)
                eng.finish()
            for t, _, visible in algo.placements:
                for uid, dep in visible:
                    assert dep is None or dep > t, (
                        f"item {uid} (departure {dep}) still visible at "
                        f"arrival time {t} via the {frontend} frontend"
                    )

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_simultaneous_arrivals_in_release_order(self, inst):
        algo = Recording()
        simulate(algo, inst)
        placed_uids = [uid for _, uid, _ in algo.placements]
        assert placed_uids == [it.uid for it in inst]

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_bin_closed_iff_empty(self, inst):
        algo = Recording()
        result = simulate(algo, inst)
        # notify_close never saw a non-empty bin, place() never saw an
        # empty open bin (asserted inline); records agree:
        assert algo.closed_nonempty == 0
        for rec in result.bins:
            last_out = max(result.departed_at[uid] for uid in rec.item_uids)
            assert rec.closed_at == last_out

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_cost_is_sum_of_usage_windows(self, inst):
        for factory in (FirstFit, BestFit):
            batch, streamed = _run_both(factory, inst)
            for res in (batch, streamed):
                assert math.isclose(
                    res.cost,
                    sum(rec.usage for rec in res.bins),
                    rel_tol=0,
                    abs_tol=1e-9,
                )

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_frontends_bit_identical(self, inst):
        for factory in (FirstFit, BestFit, WorstFit):
            batch, streamed = _run_both(factory, inst)
            assert streamed.cost == batch.cost
            assert streamed.assignment == batch.assignment
            assert streamed.bins == batch.bins

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_indexed_equals_linear_scan(self, inst):
        for factory in (FirstFit, BestFit, WorstFit):
            fast = simulate(factory(), inst, indexed=True)
            slow = simulate(factory(), inst, indexed=False)
            assert fast.cost == slow.cost
            assert fast.assignment == slow.assignment
            assert fast.bins == slow.bins


class TestObsParity:
    """The deterministic obs metrics are frontend-independent: the same
    trace through batch ``simulate()`` and the streaming ``Engine`` must
    produce byte-identical MetricsListener snapshots."""

    @given(traces())
    @settings(max_examples=25, deadline=None)
    def test_batch_and_engine_snapshots_identical(self, inst):
        # the traces() grid emits lengths in [0.5, 4.0]; re-bound the
        # RenTang factory so its declared [min, μ·min] range covers them
        from repro import RenTang

        factories = [
            (n, f) for n, f in all_algorithm_factories() if n != "RenTang64"
        ] + [("RenTang8", lambda: RenTang(8.0, min_length=0.5))]
        for name, factory in factories:
            ml_batch = MetricsListener()
            simulate(factory(), inst, listener=ml_batch)
            ml_engine = MetricsListener()
            eng = Engine(factory(), listeners=(ml_engine,))
            for it in inst:
                eng.feed(it)
            eng.finish()
            assert ml_engine.snapshot() == ml_batch.snapshot(), name

    def test_aligned_algorithms_on_binary_input(self):
        """CDFF and friends need aligned inputs; check them on σ_k."""
        from repro.workloads import binary_input

        inst = binary_input(64)
        for name, factory in aligned_algorithm_factories():
            ml_batch = MetricsListener()
            simulate(factory(), inst, listener=ml_batch)
            ml_engine = MetricsListener()
            eng = Engine(factory(), listeners=(ml_engine,))
            for it in inst:
                eng.feed(it)
            eng.finish()
            assert ml_engine.snapshot() == ml_batch.snapshot(), name
