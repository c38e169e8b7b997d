"""The batch frontend over the placement kernel.

:func:`simulate` runs an online algorithm over a complete
:class:`~repro.core.instance.Instance` and returns a
:class:`~repro.core.result.PackingResult`.  To feed items one at a time
and inspect the algorithm's state between releases — what the adaptive
adversaries of Section 4 and the non-clairvoyant Ω(μ) construction do —
drive a :class:`~repro.core.kernel.PlacementKernel` directly:
``PlacementKernel(algorithm, record=True)``, then ``release`` /
``depart`` / ``run_until`` and finally ``finish()``.

All simulation semantics — half-open intervals, departures-before-arrivals
at equal ``t``, release-order tie-breaks, bin-closes-when-empty,
clairvoyance masking, the pending-bin commit protocol — live in
:class:`~repro.core.kernel.PlacementKernel`; this module only adapts the
kernel to the batch calling convention.  The streaming engine
(:mod:`repro.engine.loop`) wraps the *same* kernel, so batch/stream parity
holds by construction.
"""

from __future__ import annotations

from .instance import Instance
from .kernel import PlacementKernel
from .result import PackingResult

__all__ = ["simulate"]


def simulate(
    algorithm,
    instance: Instance,
    *,
    capacity: float = 1.0,
    indexed: bool = True,
    listener=None,
) -> PackingResult:
    """Run ``algorithm`` over ``instance`` and return the audited result.

    ``listener`` (a :class:`~repro.core.kernel.KernelListener` or a
    sequence of them) observes every kernel event — this is how the
    observability layer (:mod:`repro.obs`) traces or meters a batch run
    without touching its semantics.
    """
    kernel = PlacementKernel(
        algorithm,
        capacity=capacity,
        record=True,
        indexed=indexed,
        listener=listener,
    )
    if isinstance(instance, Instance):
        # columnar fast path: release straight off the store's columns
        kernel.release_store(instance.store)
    else:
        release = kernel.release
        for item in instance:
            release(item)
    return kernel.finish()
