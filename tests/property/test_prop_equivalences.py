"""Property-based equivalence tests on the simulator itself.

These check structural invariances that any correct MinUsageTime simulator
must satisfy: batch vs incremental driving, time-scaling homogeneity,
time-shift invariance, and the size/capacity duality (size-s items in
unit bins ≡ unit-scaled items in capacity-1/s' bins).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.anyfit import BestFit, FirstFit
from repro.algorithms.hybrid import HybridAlgorithm
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.kernel import PlacementKernel
from repro.core.simulation import simulate

sizes = st.floats(min_value=0.02, max_value=1.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)
lengths = st.floats(min_value=1.0, max_value=30.0, allow_nan=False)


@st.composite
def instances(draw, n_max=15):
    n = draw(st.integers(min_value=1, max_value=n_max))
    triples = []
    for _ in range(n):
        a = draw(times)
        triples.append((a, a + draw(lengths), draw(sizes)))
    return Instance.from_tuples(triples)


@given(inst=instances())
@settings(max_examples=30, deadline=None)
def test_batch_equals_incremental(inst):
    """simulate() and hand-driving a recording PlacementKernel agree exactly."""
    batch = simulate(FirstFit(), inst)
    sim = PlacementKernel(FirstFit(), record=True)
    for item in inst:
        sim.release(item)
    inc = sim.finish()
    assert batch.assignment == inc.assignment
    assert math.isclose(batch.cost, inc.cost)


@given(inst=instances(), factor=st.floats(min_value=0.25, max_value=8.0))
@settings(max_examples=30, deadline=None)
def test_time_scaling_homogeneity(inst, factor):
    """Scaling all times by c scales every Any-Fit cost by exactly c.

    (Not true of HA/CDFF, whose duration classes are scale-anchored.)
    """
    base = simulate(FirstFit(), inst)
    scaled = simulate(FirstFit(), inst.scaled(factor))
    assert math.isclose(scaled.cost, factor * base.cost, rel_tol=1e-9)
    assert scaled.n_bins == base.n_bins


@given(inst=instances(), delta=st.floats(min_value=-20.0, max_value=20.0))
@settings(max_examples=30, deadline=None)
def test_time_shift_invariance(inst, delta):
    """Translating time changes no Any-Fit decision or cost."""
    base = simulate(BestFit(), inst)
    shifted = simulate(BestFit(), inst.shifted(delta))
    assert math.isclose(shifted.cost, base.cost, rel_tol=1e-9, abs_tol=1e-9)
    assert shifted.n_bins == base.n_bins


@given(inst=instances(), scale=st.floats(min_value=0.5, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_capacity_size_duality(inst, scale):
    """Multiplying every size and the capacity by the same factor changes
    no First-Fit decision and no cost.

    (Note: capacity is NOT monotone for First-Fit — a larger bin can
    reshuffle decisions and *increase* cost; that classical anomaly is why
    only the exact duality is a law.)
    """
    shrunk = Instance(
        [Item(it.arrival, it.departure, it.size * scale, uid=it.uid)
         for it in inst],
        reassign_uids=False,
    )
    base = simulate(FirstFit(), inst)
    dual = simulate(FirstFit(), shrunk, capacity=scale)
    assert dual.assignment == base.assignment
    assert math.isclose(dual.cost, base.cost, rel_tol=1e-9)


@given(inst=instances())
@settings(max_examples=30, deadline=None)
def test_huge_capacity_cost_is_span(inst):
    """With capacity ≥ the total size, everything co-locates: FF's cost is
    exactly the span (one bin per busy component)."""
    total = sum(it.size for it in inst)
    res = simulate(FirstFit(), inst, capacity=total + 1.0)
    assert math.isclose(res.cost, inst.span, rel_tol=1e-9, abs_tol=1e-9)
    assert res.max_open == 1


@given(inst=instances())
@settings(max_examples=30, deadline=None)
def test_ha_shift_by_type_window_multiple(inst):
    """HA's classification is invariant under shifts by a multiple of the
    largest type window, because every (i, c) window boundary is preserved."""
    max_len = max(it.length for it in inst)
    import math as m

    width = 2.0 ** max(1, m.ceil(m.log2(max_len)))
    base = simulate(HybridAlgorithm(), inst)
    shifted = simulate(HybridAlgorithm(), inst.shifted(width))
    assert math.isclose(shifted.cost, base.cost, rel_tol=1e-9, abs_tol=1e-9)
