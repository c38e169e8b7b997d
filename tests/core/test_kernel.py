"""The placement kernel: the single implementation of simulation semantics.

Covers what the frontend test-suites don't: direct kernel driving (the
adversary surface), the indexed open-bin structure against its
linear-scan twin, listener callback ordering, clairvoyance masking
through both frontends, and the "exactly one masking / one commit site"
guarantee the refactor exists for.
"""

import inspect
import random

import pytest

from repro.algorithms import BestFit, FirstFit, LastFit, WorstFit
from repro.algorithms.base import OnlineAlgorithm, SimulationView
from repro.core.errors import (
    ClairvoyanceError,
    PackingError,
    SimulationError,
)
from repro.core.bins import Bin
from repro.core.item import Item
from repro.core.instance import Instance
from repro.core.kernel import KernelListener, OpenBinIndex, PlacementKernel
from repro.core.simulation import simulate
from repro.engine import Engine, EngineMetrics, restore, snapshot
from repro.workloads import uniform_random


# ---------------------------------------------------------------------- #
# Direct kernel driving (the adversary surface)
# ---------------------------------------------------------------------- #
class TestKernelDriving:
    def test_release_and_finish(self):
        k = PlacementKernel(FirstFit(), record=True)
        k.release(Item(0.0, 2.0, 0.5, uid=0))
        k.release(Item(0.0, 3.0, 0.5, uid=1))
        assert k.open_bin_count == 1
        result = k.finish()
        assert result.cost == pytest.approx(3.0)
        assert result.assignment == {0: 0, 1: 0}

    def test_adaptive_depart(self):
        k = PlacementKernel(FirstFit(clairvoyant=False), record=True)
        k.release(Item(0.0, None, 0.5, uid=0))
        k.depart(0, 4.0)
        assert k.finish().cost == pytest.approx(4.0)

    def test_depart_scheduled_item_rejected(self):
        k = PlacementKernel(FirstFit(), record=True)
        k.release(Item(0.0, 2.0, 0.5, uid=0))
        with pytest.raises(SimulationError):
            k.depart(0, 1.0)

    def test_depart_unknown_item_rejected(self):
        k = PlacementKernel(FirstFit())
        with pytest.raises(PackingError):
            k.depart(99, 1.0)

    def test_unknown_departure_needs_nonclairvoyant(self):
        k = PlacementKernel(FirstFit())
        with pytest.raises(ClairvoyanceError):
            k.release(Item(0.0, None, 0.5, uid=0))

    def test_run_until_processes_departures(self):
        k = PlacementKernel(FirstFit())
        k.release(Item(0.0, 1.0, 0.5, uid=0))
        k.run_until(1.0)  # half-open: departs exactly at t=1
        assert k.open_bin_count == 0
        assert k.cost_so_far == pytest.approx(1.0)

    def test_advance_to_is_run_until(self):
        assert PlacementKernel.advance_to is PlacementKernel.run_until

    def test_result_without_record_rejected(self):
        k = PlacementKernel(FirstFit())
        k.release(Item(0.0, 1.0, 0.5, uid=0))
        k.drain()
        with pytest.raises(SimulationError, match="record=True"):
            k.result()

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            PlacementKernel(FirstFit(), capacity=0.0)


# ---------------------------------------------------------------------- #
# One masking site, one commit site
# ---------------------------------------------------------------------- #
class PeeksDepartures(OnlineAlgorithm):
    """Non-clairvoyant algorithm that reports any departure it can see."""

    name = "PeeksDepartures"
    clairvoyant = False

    def reset(self):
        self.leaks = []

    def place(self, item, sim):
        if item.departure is not None:
            self.leaks.append(("placed", item.uid, item.departure))
        for b in sim.open_bins:
            for it in b.contents:
                if it.departure is not None:
                    self.leaks.append(("visible", it.uid, it.departure))
        found = sim.first_fit(item)
        return found if found is not None else sim.open_bin()


class TestMaskingSingleSite:
    @pytest.mark.parametrize("frontend", ["batch", "engine", "kernel"])
    def test_nonclairvoyant_never_observes_departures(self, frontend):
        inst = uniform_random(200, 16, seed=3)
        algo = PeeksDepartures()
        if frontend == "batch":
            simulate(algo, inst)
        elif frontend == "engine":
            eng = Engine(algo)
            for it in inst:
                eng.feed(it)
            eng.finish()
        else:
            k = PlacementKernel(algo)
            for it in inst:
                k.release(it)
            k.drain()
        assert algo.leaks == []

    def test_masking_logic_lives_only_in_kernel(self):
        """The refactor's grep-level contract: the frontends contain no
        clairvoyance masking and no pending-bin commit of their own."""
        import repro.core.kernel as kernel_mod
        import repro.core.simulation as sim_mod
        import repro.engine.loop as loop_mod

        for mod in (sim_mod, loop_mod):
            src = inspect.getsource(mod)
            # the masking decision (getattr on the "clairvoyant" flag)
            assert '"clairvoyant"' not in src, mod.__name__
            # the pending-bin commit protocol
            assert "_pending_bin" not in src, mod.__name__
            assert ".masked()" not in src, mod.__name__
            # the departure heap
            assert "heappush" not in src, mod.__name__
        assert not hasattr(sim_mod, "_masking")
        kernel_src = inspect.getsource(kernel_mod)
        assert kernel_src.count('getattr(self.algorithm, "clairvoyant"') == 1

    def test_masks_departures_flag(self):
        assert PlacementKernel(FirstFit()).masks_departures is False
        assert (
            PlacementKernel(FirstFit(clairvoyant=False)).masks_departures
            is True
        )


# ---------------------------------------------------------------------- #
# The indexed open-bin structure
# ---------------------------------------------------------------------- #
def _brute(bins, size, eps=1e-9):
    """Reference answers over a {uid: residual} dict in opening order."""
    fitting = [
        (uid, res) for uid, res in bins.items() if res >= size - eps
    ]
    if not fitting:
        return None, None, None, None
    first = fitting[0][0]
    last = fitting[-1][0]
    best = min(fitting, key=lambda p: (p[1], p[0]))[0]
    worst = max(fitting, key=lambda p: (p[1], -p[0]))[0]
    return first, last, best, worst


class TestOpenBinIndex:
    def test_randomised_against_linear_scan(self):
        rng = random.Random(7)
        index = OpenBinIndex()
        bins = {}  # uid -> Bin, opening order
        uid = 0
        for _ in range(3000):
            op = rng.random()
            if op < 0.4 or not bins:
                b = Bin(uid, 1.0, 0.0)
                b._load = round(rng.uniform(0.0, 0.99), 3)
                bins[uid] = b
                index.add(b)
                uid += 1
            elif op < 0.75:
                b = bins[rng.choice(list(bins))]
                b._load = round(rng.uniform(0.0, 0.99), 3)
                index.update(b)
            else:
                key = rng.choice(list(bins))
                index.remove(bins.pop(key))
            size = rng.choice([0.05, 0.25, 0.5, 0.9, 1.01])
            residuals = {u: b.residual() for u, b in bins.items()}
            first, last, best, worst = _brute(residuals, size)
            threshold = size - 1e-9
            got_first = index.first_fit(threshold)
            got_last = index.last_fit(threshold)
            got_best = index.best_fit(threshold)
            got_worst = index.worst_fit(threshold)
            assert (got_first.uid if got_first else None) == first
            assert (got_last.uid if got_last else None) == last
            assert (got_best.uid if got_best else None) == best
            assert (got_worst.uid if got_worst else None) == worst

    def test_compaction_survives_mass_closure(self):
        index = OpenBinIndex()
        bins = []
        for uid in range(500):
            b = Bin(uid, 1.0, 0.0)
            b._load = 0.5
            bins.append(b)
            index.add(b)
        for b in bins[:499]:  # trigger repeated dead-slot compaction
            index.remove(b)
        survivor = index.first_fit(0.25)
        assert survivor is bins[499]
        assert index.last_fit(0.25) is bins[499]
        assert index.first_fit(0.75) is None

    @pytest.mark.parametrize(
        "factory", [FirstFit, BestFit, WorstFit, LastFit]
    )
    def test_indexed_matches_linear_on_real_traces(self, factory):
        inst = uniform_random(400, 32, seed=11)
        fast = simulate(factory(), inst, indexed=True)
        slow = simulate(factory(), inst, indexed=False)
        assert fast.cost == slow.cost
        assert fast.assignment == slow.assignment
        assert fast.bins == slow.bins

    @pytest.mark.parametrize(
        "query", ["first_fit", "best_fit", "worst_fit", "last_fit"]
    )
    def test_index_built_by_first_query_mid_run(self, query):
        class LateQuery(OnlineAlgorithm):
            """Linear first-fit scans, then the indexed ``query``."""

            name = "LateQuery"

            def reset(self):
                self.placed = 0

            def place(self, item, sim):
                self.placed += 1
                if self.placed <= 150:
                    found = next(
                        (b for b in sim.open_bins if b.fits(item)), None
                    )
                else:
                    found = getattr(sim, query)(item)
                return found if found is not None else sim.open_bin()

        inst = uniform_random(400, 32, seed=12)
        lazy = simulate(LateQuery(), inst, indexed=True)
        slow = simulate(LateQuery(), inst, indexed=False)
        assert lazy.assignment == slow.assignment
        assert lazy.bins == slow.bins

    def test_index_upkeep_only_once_queried(self):
        from repro.algorithms import HybridAlgorithm

        inst = uniform_random(200, 16, seed=13)
        ha, bf = Engine(HybridAlgorithm()), Engine(BestFit())
        ha.run(inst)
        bf.run(inst)
        assert ha.kernel.indexed and ha.kernel._index is None
        assert bf.kernel.indexed and bf.kernel._index is not None

    def test_exact_fill_one_third(self):
        """LOAD_EPS: three 1/3 items share one bin through the index."""
        k = PlacementKernel(BestFit(), record=True)
        for uid in range(3):
            k.release(Item(0.0, 1.0, 1 / 3, uid=uid))
        assert k.open_bin_count == 1
        k.release(Item(0.0, 1.0, 0.01, uid=3))
        assert k.open_bin_count == 2
        k.finish()


# ---------------------------------------------------------------------- #
# Listener callbacks
# ---------------------------------------------------------------------- #
class _Tape:
    timed = False

    def __init__(self):
        self.events = []

    def on_advance(self, t):
        self.events.append(("advance", t))

    def on_open(self, bin_):
        self.events.append(("open", bin_.uid))

    def on_arrival(self, item, bin_, opened):
        self.events.append(("arrival", item.uid, bin_.uid, opened))

    def on_departure(self, uid, removed, bin_, t, closed, elapsed):
        self.events.append(("departure", uid, t, closed))

    def on_close(self, bin_, t, usage, peak, n_items):
        self.events.append(("close", bin_.uid, t, usage, peak, n_items))


class TestListener:
    def test_event_order_and_payloads(self):
        tape = _Tape()
        k = PlacementKernel(FirstFit(), listener=tape)
        k.release(Item(0.0, 2.0, 0.6, uid=0))
        k.release(Item(1.0, 3.0, 0.6, uid=1))
        k.drain()
        assert tape.events == [
            ("advance", 0.0),
            ("open", 0),
            ("arrival", 0, 0, True),
            ("advance", 1.0),
            ("open", 1),
            ("arrival", 1, 1, True),
            ("advance", 2.0),
            ("close", 0, 2.0, 2.0, 0.6, 1),
            ("departure", 0, 2.0, True),
            ("advance", 3.0),
            ("close", 1, 3.0, 2.0, 0.6, 1),
            ("departure", 1, 3.0, True),
        ]

    def test_pickling_drops_hooks(self):
        import pickle

        tape = _Tape()
        k = PlacementKernel(FirstFit(), listener=tape)
        k.release(Item(0.0, 2.0, 0.5, uid=0))
        clone = pickle.loads(pickle.dumps(k))
        assert clone._listener is None
        clone.release(Item(1.0, 3.0, 0.5, uid=1))
        clone.drain()
        assert clone.cost_so_far == pytest.approx(3.0)


# ---------------------------------------------------------------------- #
# Frontends are adapters: algorithms see the kernel itself
# ---------------------------------------------------------------------- #
class _HookProbe(FirstFit):
    """FirstFit that records the ``sim`` each hook receives (module level
    so a checkpoint can pickle it)."""

    def reset(self):
        super().reset()
        self.seen = []

    def place(self, item, sim):
        self.seen.append(("place", sim))
        return super().place(item, sim)

    def notify_departure(self, item, bin_, sim):
        self.seen.append(("departure", sim))
        super().notify_departure(item, bin_, sim)

    def notify_close(self, bin_, sim):
        self.seen.append(("close", sim))
        super().notify_close(bin_, sim)


class _KernelCatcher(KernelListener):
    """Listener the kernel binds on attach: captures the kernel."""

    def bind(self, source):
        self.kernel = source


_HOOK_INSTANCE = Instance.from_tuples(
    [(0, 2, 0.6), (1, 3, 0.6), (2.5, 4, 0.3), (3, 5, 0.5)]
)


def _hooks_via_simulate():
    alg, catcher = _HookProbe(), _KernelCatcher()
    simulate(alg, _HOOK_INSTANCE, listener=catcher)
    return alg.seen, catcher.kernel


def _hooks_via_engine(metrics):
    eng = Engine(_HookProbe(), metrics=EngineMetrics() if metrics else None)
    eng.run(_HOOK_INSTANCE)
    return eng.kernel.algorithm.seen, eng.kernel


def _hooks_via_restored_engine():
    eng = Engine(_HookProbe(), metrics=EngineMetrics())
    eng.feed_store(_HOOK_INSTANCE.store, 0, 2)
    resumed = restore(snapshot(eng))
    resumed.kernel.algorithm.seen = []
    resumed.feed_store(_HOOK_INSTANCE.store, 2)
    resumed.finish()
    return resumed.kernel.algorithm.seen, resumed.kernel


def _hooks_via_adversary():
    from repro.adversary import SqrtLogAdversary

    class Watching(SqrtLogAdversary):
        def drive(self, sim):
            self.sim = sim
            super().drive(sim)

    adv, alg = Watching(8), _HookProbe()
    adv.run(alg)
    return alg.seen, adv.sim


class TestFrontendsAreAdapters:
    def test_both_frontends_satisfy_simulation_view(self):
        assert isinstance(PlacementKernel(FirstFit(), record=True), SimulationView)
        assert isinstance(Engine(FirstFit()).kernel, SimulationView)
        assert isinstance(PlacementKernel(FirstFit()), SimulationView)

    @pytest.mark.parametrize(
        "drive",
        [
            _hooks_via_simulate,
            lambda: _hooks_via_engine(metrics=False),
            lambda: _hooks_via_engine(metrics=True),
            _hooks_via_restored_engine,
            _hooks_via_adversary,
        ],
        ids=["simulate", "engine", "engine-metrics", "engine-restored",
             "adversary"],
    )
    def test_hooks_receive_the_kernel(self, drive):
        seen, kernel = drive()
        assert type(kernel) is PlacementKernel
        assert {hook for hook, _ in seen} == {"place", "departure", "close"}
        assert all(sim is kernel for _, sim in seen)

    def test_is_open(self):
        sim = PlacementKernel(FirstFit(), record=True)
        b = sim.release(Item(0.0, 1.0, 0.5, uid=0))
        assert sim.is_open(b.uid)
        sim.run_until(1.0)
        assert not sim.is_open(b.uid)
