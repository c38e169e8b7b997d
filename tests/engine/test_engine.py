"""Unit tests for the streaming engine core (loop + accounting)."""

import pytest

from repro.algorithms import FirstFit, HybridAlgorithm, NextFit
from repro.core.errors import (
    ClairvoyanceError,
    PackingError,
    SimulationError,
)
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.simulation import simulate
from repro.core.kernel import KernelListener
from repro.engine import (
    ArrivalEvent,
    DepartureEvent,
    Engine,
    EngineMetrics,
    RunningAccounting,
    replay,
)
from repro.workloads import poisson_random, uniform_random


def small_instance() -> Instance:
    return Instance.from_tuples(
        [(0.0, 4.0, 0.5), (0.0, 1.0, 0.5), (2.0, 6.0, 0.3), (2.0, 3.0, 0.9)]
    )


class TestEngineBasics:
    def test_run_matches_simulate_cost(self):
        inst = small_instance()
        batch = simulate(FirstFit(), inst)
        summary = Engine(FirstFit()).run(iter(inst))
        assert summary.cost == batch.cost
        assert summary.max_open == batch.max_open
        assert summary.bins_opened == batch.n_bins

    def test_replay_convenience(self):
        inst = uniform_random(50, 8, seed=1)
        assert replay(FirstFit(), iter(inst)).cost == simulate(
            FirstFit(), inst
        ).cost

    def test_out_of_order_rejected(self):
        eng = Engine(FirstFit())
        eng.feed(Item(5.0, 6.0, 0.5, uid=0))
        with pytest.raises(SimulationError):
            eng.feed(Item(1.0, 2.0, 0.5, uid=1))

    def test_clairvoyant_algorithm_rejects_unknown_departure(self):
        eng = Engine(FirstFit())
        with pytest.raises(ClairvoyanceError):
            eng.feed(Item(0.0, None, 0.5, uid=0))

    def test_capacity_validated(self):
        with pytest.raises(SimulationError):
            Engine(FirstFit(), capacity=0.0)

    def test_cost_so_far_mid_stream(self):
        eng = Engine(FirstFit())
        eng.feed(Item(0.0, 4.0, 0.5, uid=0))
        eng.feed(Item(0.0, 2.0, 0.9, uid=1))  # needs a second bin
        eng.kernel.advance_to(3.0)
        # bin0 open [0, 3), bin1 closed [0, 2)
        assert eng.kernel.cost_so_far == pytest.approx(3.0 + 2.0)
        assert eng.kernel.open_bin_count == 1
        eng.finish()
        assert eng.accounting.cost == pytest.approx(4.0 + 2.0)

    def test_constant_memory_keeps_no_history(self):
        inst = uniform_random(200, 16, seed=2)
        eng = Engine(FirstFit())
        eng.run(iter(inst))
        assert eng.kernel._items == []
        assert eng.kernel._records == []
        assert eng.kernel._assignment == {}
        with pytest.raises(SimulationError):
            eng.kernel.result()

    def test_record_mode_result_equals_simulate(self):
        inst = uniform_random(120, 16, seed=3)
        batch = simulate(HybridAlgorithm(), inst)
        eng = Engine(HybridAlgorithm(), record=True)
        eng.run(iter(inst))
        streamed = eng.kernel.result()
        assert streamed.cost == batch.cost
        assert streamed.assignment == batch.assignment
        assert streamed.bins == batch.bins
        assert streamed.departed_at == batch.departed_at

    def test_finish_with_adaptive_items_raises(self):
        class Lenient(FirstFit):
            def __init__(self):
                super().__init__(clairvoyant=False)

        eng = Engine(Lenient())
        eng.feed(Item(0.0, None, 0.4, uid=0))
        with pytest.raises(SimulationError):
            eng.finish()

    def test_adaptive_depart(self):
        class Lenient(FirstFit):
            def __init__(self):
                super().__init__(clairvoyant=False)

        eng = Engine(Lenient())
        eng.feed(Item(0.0, None, 0.4, uid=0))
        eng.kernel.depart(0, 5.0)
        summary = eng.finish()
        assert summary.cost == pytest.approx(5.0)
        # departing a scheduled item explicitly is an error
        eng2 = Engine(Lenient())
        eng2.feed(Item(0.0, 2.0, 0.4, uid=0))
        with pytest.raises(SimulationError):
            eng2.kernel.depart(0, 1.0)

    def test_place_must_return_open_bin(self):
        class Rogue(FirstFit):
            def place(self, item, sim):
                from repro.core.bins import Bin

                return Bin(999, 1.0, 0.0)

        with pytest.raises(PackingError):
            Engine(Rogue()).feed(Item(0.0, 1.0, 0.5, uid=0))

    def test_summary_counters(self):
        inst = small_instance()
        summary = Engine(FirstFit()).run(iter(inst))
        assert summary.items == len(inst)
        assert summary.bins_opened == summary.bins_closed
        assert summary.final_time == 6.0
        d = summary.to_dict()
        assert d["items"] == 4 and d["algorithm"] == "FirstFit"


class TestObservers:
    def test_events_narrated_in_order(self):
        events = []
        eng = Engine(FirstFit())
        eng.subscribe(events.append)
        eng.run(iter(small_instance()))
        kinds = [type(e).__name__ for e in events]
        assert kinds.count("ArrivalEvent") == 4
        assert kinds.count("DepartureEvent") == 4
        times = [e.time for e in events]
        assert times == sorted(times)
        closed = [e for e in events if isinstance(e, DepartureEvent) and e.closed]
        assert len(closed) == eng.accounting.bins_closed

    def test_arrival_event_payload(self):
        events = []
        eng = Engine(FirstFit())
        eng.subscribe(events.append)
        bin_ = eng.feed(Item(0.0, 1.0, 0.5, uid=0))
        (ev,) = events
        assert isinstance(ev, ArrivalEvent)
        assert ev.bin_uid == bin_.uid and ev.opened


class TestRunningAccounting:
    """``Engine.accounting`` reads the kernel's running counters."""

    def test_cost_identity(self):
        eng = Engine(FirstFit())
        eng.feed(Item(0.0, 5.0, 0.6, uid=0))
        eng.feed(Item(1.0, 5.0, 0.6, uid=1))  # needs a second bin
        acc = eng.accounting
        assert acc.cost_at(4.0) == pytest.approx(4.0 + 3.0)
        eng.finish()
        assert acc.cost == pytest.approx(5.0 + 4.0)
        assert acc.max_open == 2 and acc.open_count == 0

    def test_util_area_integration(self):
        eng = Engine(FirstFit())
        eng.feed(Item(0.0, 10.0, 0.5, uid=0))
        eng.kernel.advance_to(2.0)  # 0.5 * 2
        eng.feed(Item(2.0, 10.0, 0.3, uid=1))
        eng.kernel.advance_to(3.0)  # 0.8 * 1
        acc = eng.accounting
        assert acc.util_area == pytest.approx(0.5 * 2 + 0.8)
        assert acc.peak_load == pytest.approx(0.8)

    def test_profile_requires_flag(self):
        acc = Engine(FirstFit()).accounting
        with pytest.raises(ValueError):
            acc.open_profile()

    def test_open_profile_matches_batch(self):
        inst = uniform_random(80, 8, seed=4)
        batch = simulate(FirstFit(), inst)
        eng = Engine(FirstFit(), record_profile=True)
        eng.run(iter(inst))
        prof = eng.accounting.open_profile()
        expected = batch.open_bins_profile()
        assert prof.integral() == pytest.approx(expected.integral())
        assert int(prof.max()) == batch.max_open

    def test_to_dict_snapshot(self):
        acc = Engine(FirstFit()).accounting
        assert isinstance(acc, RunningAccounting)
        snap = acc.to_dict()
        assert snap["time"] is None and snap["cost_so_far"] == 0.0

    def test_engine_load_tracks_active_sizes(self):
        eng = Engine(FirstFit())
        eng.feed(Item(0.0, 4.0, 0.5, uid=0))
        eng.feed(Item(1.0, 2.0, 0.25, uid=1))
        assert eng.accounting.load == pytest.approx(0.75)
        eng.kernel.advance_to(3.0)
        assert eng.accounting.load == pytest.approx(0.5)
        eng.finish()
        assert eng.accounting.load == 0.0


class EventLog(KernelListener):
    """Every kernel event, in dispatch order."""

    def __init__(self):
        self.events = []

    def on_advance(self, t):
        self.events.append(("advance", t))

    def on_open(self, bin_):
        self.events.append(("open", bin_.uid, bin_.opened_at))

    def on_arrival(self, item, bin_, opened):
        self.events.append(("arrival", item.uid, bin_.uid, opened))

    def on_departure(self, uid, removed, bin_, t, closed, elapsed):
        self.events.append(("departure", uid, bin_.uid, t, closed))

    def on_close(self, bin_, t, usage, peak, n_items):
        self.events.append(("close", bin_.uid, t, usage, peak, n_items))


def _store_run(factory, inst, *, metrics=None, chunk=37):
    log = EventLog()
    eng = Engine(factory(), metrics=metrics, listeners=(log,))
    store = inst.store
    for lo in range(0, len(store), chunk):
        eng.feed_store(store, lo, min(lo + chunk, len(store)))
    summary = eng.finish()
    return summary, eng.accounting.to_dict(), log.events


class TestFeedStorePaths:
    """``feed_store`` runs the kernel's column loop when nothing needs
    per-arrival callbacks, and ``feed_values`` per row otherwise; the two
    must be indistinguishable."""

    WORKLOADS = [
        (HybridAlgorithm, poisson_random(20.0, 16.0, 60.0, seed=3)),
        (FirstFit, uniform_random(400, 16, seed=5)),
        (NextFit, uniform_random(200, 8, seed=6)),
    ]

    @pytest.mark.parametrize("factory,inst", WORKLOADS)
    def test_metrics_do_not_change_decisions_or_accounting(
        self, factory, inst
    ):
        bare = _store_run(factory, inst)
        metered = _store_run(factory, inst, metrics=EngineMetrics())
        assert bare[2] == metered[2]  # every decision, in order
        assert bare[1] == metered[1]  # float-for-float
        assert bare[0] == metered[0]

    @pytest.mark.parametrize("factory,inst", WORKLOADS)
    def test_listeners_see_every_event_like_per_item_feed(
        self, factory, inst
    ):
        log = EventLog()
        eng = Engine(factory())
        eng.attach_listener(log)
        for it in inst:
            eng.feed(it)
        eng.finish()
        assert _store_run(factory, inst)[2] == log.events

    def test_column_loop_only_without_callbacks(self):
        eng = Engine(FirstFit())
        assert eng.kernel.listeners == []
        eng.subscribe(lambda event: None)
        assert eng.kernel.listeners == [eng]

    def test_metrics_assigned_late_are_fed(self):
        inst = uniform_random(150, 8, seed=7)
        early = EngineMetrics()
        Engine(FirstFit(), metrics=early).run(inst)
        eng = Engine(FirstFit(), listeners=(EventLog(),))
        eng.metrics = late = EngineMetrics()
        assert eng.kernel.listeners[0] is eng
        eng.run(inst)
        a, b = early.snapshot(), late.snapshot()
        assert a["counters"] == b["counters"]
        assert a["histograms"] == b["histograms"]
        eng.metrics = None
        assert eng not in eng.kernel.listeners
