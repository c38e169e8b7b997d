"""repro — a reproduction of *Tight Bounds for Clairvoyant Dynamic Bin
Packing* (Azar & Vainstein, SPAA 2017).

The package implements the MinUsageTime dynamic bin packing model, the
paper's two algorithms (the Hybrid Algorithm and CDFF), the Ω(√log μ)
adversary, the offline oracles the analysis compares against, and an
experiment harness regenerating every table and figure of the paper.

Quickstart::

    from repro import Instance, HybridAlgorithm, simulate, opt_reference

    sigma = Instance.from_tuples([(0, 4, 0.5), (0, 1, 0.5), (2, 6, 0.3)])
    result = simulate(HybridAlgorithm(), sigma)
    print(result.cost, opt_reference(sigma))
"""

from .adversary import (
    AdaptiveAdversary,
    AdversaryOutcome,
    NonClairvoyantAdversary,
    SqrtLogAdversary,
    realized_instance,
)
from .algorithms import (
    CDFF,
    AnyFit,
    BestFit,
    ClassifyByDuration,
    FirstFit,
    HybridAlgorithm,
    LastFit,
    LeastExpansion,
    NextFit,
    OnlineAlgorithm,
    RandomFit,
    RenTang,
    StaticRowsCDFF,
    WorstFit,
    duration_class,
    item_type,
)
from .analysis import (
    fit_growth,
    loglog_mu,
    measure_ratio,
    sqrt_log_mu,
)
from .core import (
    Bin,
    BinRecord,
    Instance,
    Item,
    LoadProfile,
    PackingResult,
    PlacementKernel,
    ReproError,
    audit,
    load_profile,
    max_bins,
    momentary_ratio,
    simulate,
    usage_time,
)
from .offline import (
    OptSandwich,
    ceil_load_bound,
    dual_coloring,
    opt_nonrepacking,
    opt_reference,
    opt_repacking,
    opt_sandwich,
    waterfill,
)
from .engine import (
    Engine,
    EngineMetrics,
    EngineSummary,
    check_parity,
    load_checkpoint,
    open_trace,
    parity_suite,
    replay,
    save_checkpoint,
)
from .reductions import align_departures, is_aligned, partition_aligned
from .workloads import (
    aligned_random,
    batch_jobs,
    binary_input,
    bounded_parallelism,
    cloud_gaming,
    dump_jsonl,
    full_adversary_schedule,
    load_csv,
    load_jsonl,
    poisson_random,
    save_csv,
    sigma_star,
    staircase,
    uniform_random,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Item",
    "Instance",
    "Bin",
    "BinRecord",
    "LoadProfile",
    "load_profile",
    "PackingResult",
    "PlacementKernel",
    "simulate",
    "audit",
    "ReproError",
    "usage_time",
    "max_bins",
    "momentary_ratio",
    # algorithms
    "OnlineAlgorithm",
    "AnyFit",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "LastFit",
    "NextFit",
    "RandomFit",
    "LeastExpansion",
    "ClassifyByDuration",
    "RenTang",
    "HybridAlgorithm",
    "CDFF",
    "StaticRowsCDFF",
    "duration_class",
    "item_type",
    # offline
    "OptSandwich",
    "opt_sandwich",
    "opt_repacking",
    "opt_nonrepacking",
    "opt_reference",
    "ceil_load_bound",
    "dual_coloring",
    "waterfill",
    # adversaries
    "AdaptiveAdversary",
    "AdversaryOutcome",
    "SqrtLogAdversary",
    "NonClairvoyantAdversary",
    "realized_instance",
    # reductions
    "align_departures",
    "is_aligned",
    "partition_aligned",
    # analysis
    "measure_ratio",
    "fit_growth",
    "sqrt_log_mu",
    "loglog_mu",
    # workloads
    "uniform_random",
    "poisson_random",
    "staircase",
    "binary_input",
    "aligned_random",
    "sigma_star",
    "full_adversary_schedule",
    "cloud_gaming",
    "batch_jobs",
    "bounded_parallelism",
    "save_csv",
    "load_csv",
    "dump_jsonl",
    "load_jsonl",
    # streaming engine
    "Engine",
    "EngineSummary",
    "EngineMetrics",
    "replay",
    "open_trace",
    "save_checkpoint",
    "load_checkpoint",
    "check_parity",
    "parity_suite",
]
