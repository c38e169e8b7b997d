"""Property tests: the kernel's running counters equal a reference fold
over its own listener events, for every registered algorithm.

The fold below is the event-driven accounting the streaming engine used
to keep next to the kernel (one update per ``on_advance`` / ``on_open``
/ ``on_arrival`` / ``on_departure`` / ``on_close`` callback).  The
kernel now updates the same counters inline at its event sites; every
counter must match the fold exactly (``==``, not approximately) both
mid-stream and at the end, through the per-item ``feed`` path and the
column loop behind ``feed_store``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RenTang
from repro.core.instance import Instance
from repro.core.kernel import KernelListener
from repro.engine import Engine
from repro.workloads import binary_input

from ..conftest import aligned_algorithm_factories, all_algorithm_factories

grid_times = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.5)
grid_lengths = st.integers(min_value=1, max_value=8).map(lambda k: k * 0.5)
grid_sizes = st.sampled_from([0.125, 0.25, 1 / 3, 0.5, 0.75, 1.0, 0.3, 0.7])


@st.composite
def traces(draw, n_max=30):
    n = draw(st.integers(min_value=1, max_value=n_max))
    triples = []
    for _ in range(n):
        a = draw(grid_times)
        triples.append((a, a + draw(grid_lengths), draw(grid_sizes)))
    return Instance.from_tuples(triples)


class Fold(KernelListener):
    """Reference accounting rebuilt from the kernel's event stream."""

    def __init__(self):
        self.kernel = None
        self.time = -math.inf
        self.closed_usage = 0.0
        self.open_count = 0
        self.max_open = 0
        self.sum_opened_at = 0.0
        self.load = 0.0
        self.peak_load = 0.0
        self.util_area = 0.0
        self.arrivals = 0
        self.departures = 0
        self.bins_opened = 0
        self.bins_closed = 0
        self.deltas = []

    def bind(self, kernel):
        self.kernel = kernel

    def on_advance(self, t):
        if t > self.time:
            if math.isfinite(self.time):
                self.util_area += self.load * (t - self.time)
            self.time = t

    def on_arrival(self, item, bin_, opened):
        self.arrivals += 1
        self.load += item.size
        if self.load > self.peak_load:
            self.peak_load = self.load

    def on_departure(self, uid, removed, bin_, t, closed, elapsed):
        self.departures += 1
        self.load -= removed.size
        if not self.kernel.has_active:
            self.load = 0.0

    def on_open(self, bin_):
        self.bins_opened += 1
        self.open_count += 1
        self.sum_opened_at += bin_.opened_at
        self.max_open = max(self.max_open, self.open_count)
        self.deltas.append((bin_.opened_at, +1))

    def on_close(self, bin_, t, usage, peak, n_items):
        self.closed_usage += t - bin_.opened_at
        self.open_count -= 1
        self.sum_opened_at -= bin_.opened_at
        if self.open_count == 0:
            self.sum_opened_at = 0.0
        self.deltas.append((t, -1))
        self.bins_closed += 1

    def expected(self):
        t = self.time if math.isfinite(self.time) else 0.0
        return {
            "time": self.time if math.isfinite(self.time) else None,
            "cost_so_far": self.closed_usage
            + self.open_count * t
            - self.sum_opened_at,
            "closed_usage": self.closed_usage,
            "open_count": self.open_count,
            "max_open": self.max_open,
            "load": self.load,
            "peak_load": self.peak_load,
            "util_area": self.util_area,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "bins_opened": self.bins_opened,
            "bins_closed": self.bins_closed,
        }


def _factories():
    # the grid's lengths lie in [0.5, 4.0]; re-bound RenTang to cover them
    return [
        (n, f) for n, f in all_algorithm_factories() if n != "RenTang64"
    ] + [("RenTang8", lambda: RenTang(8.0, min_length=0.5))]


def _check(engine, fold, label):
    assert engine.accounting.to_dict() == fold.expected(), label
    assert engine.accounting.profile_deltas == fold.deltas, label


def _feed_items(factory, inst, label):
    fold = Fold()
    eng = Engine(factory(), listeners=(fold,), record_profile=True)
    for it in inst:
        eng.feed(it)
        _check(eng, fold, label)
    eng.finish()
    _check(eng, fold, label)


def _feed_store(factory, inst, label):
    fold = Fold()
    eng = Engine(factory(), listeners=(fold,), record_profile=True)
    store = inst.store
    half = len(store) // 2
    eng.feed_store(store, 0, half)
    _check(eng, fold, label)
    eng.feed_store(store, half)
    _check(eng, fold, label)
    eng.finish()
    _check(eng, fold, label)


@given(traces())
@settings(max_examples=40, deadline=None)
def test_counters_equal_event_fold_per_item(inst):
    for name, factory in _factories():
        _feed_items(factory, inst, name)


@given(traces())
@settings(max_examples=40, deadline=None)
def test_counters_equal_event_fold_column_loop(inst):
    for name, factory in _factories():
        _feed_store(factory, inst, name)


def test_aligned_algorithms_counters_equal_event_fold():
    inst = binary_input(64)
    for name, factory in aligned_algorithm_factories():
        _feed_items(factory, inst, name)
        _feed_store(factory, inst, name)
