"""The three workloads of the benchmark and the metrics they report.

Imported by ``run.py`` once ``src/`` is on the import path.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from pathlib import Path
from statistics import median

from harness import (
    CHUNK_ROWS, ROOT, ServerProcess, Spans, cpu_ticks, drive, favourable,
    matched, quantile, reference, replay_pass, reset_peak_rss, say,
    steal_share, vm_hwm_mb,
)
from layers import LAYER_ITEMS, waterfall
from repro.core.kernel import KernelListener
from repro.obs.metrics import LATENCY_EDGES, Histogram
from repro.serve import PlacementClient, make_workload
from repro.workloads import poisson_random
from repro.workloads.io import dump_jsonl, load_jsonl

#: end-to-end setups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: the open-loop rate of ``serve-ff-open``, about half its saturation
FF_RATE = 3000.0
#: requests in flight in every closed loop
WINDOW = 32
#: seconds of the closed-loop TCP probe of traced runs
PROBE_SECONDS = 3.0
#: rows reserved for the traced run's TCP probe
PROBE_ROWS = 40000

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
    "peak_rss_mb": "MiB", "ok_ratio": "ratio",
    "workloads.io.parse_us": "us", "core.kernel.release_us": "us",
    "core.kernel.bins_opened": "count", "core.kernel.max_open": "count",
    "engine.feed_us": "us", "engine.overhead_us": "us",
    "engine.finish_ms": "ms", "engine.feed_row_us": "us",
    "serve.protocol.parse_us": "us", "serve.protocol.encode_us": "us",
    "serve.shard.apply_us": "us", "serve.shard.overhead_us": "us",
    "serve.server.inproc_us": "us", "serve.server.plumbing_us": "us",
    "serve.server.latency_p50_ms": "ms", "transport.tcp_us": "us",
    "serve.client.submit_us": "us", "loadgen.cpu_share": "share",
    "serve.server.cpu_share": "share", "loadgen.late_p99_ms": "ms",
    "loadgen.late_max_ms": "ms", "serve.server.requests": "count",
    "serve.server.errors": "count", "trace.overhead_ops_per_s": "1/s",
    "host.steal_share": "share",
}

#: how a serve run summarises its latencies: the 1% quantile, from the
#: good end, of blocks of BLOCK consecutive replies (0.1 s at FF_RATE).
#: Host contention (a busy neighbour on the same physical core) only ever
#: slows a block down and comes and goes within seconds, so the fastest
#: blocks track the code's own speed, while the median block tracks the
#: host's load during the run
BLOCK = 300
BLOCK_PARTS = 100

#: a run whose window lost more CPU time than this to the hypervisor is
#: flagged: latency and throughput then measure the host, not the code
STEAL_FLAG = 0.10


# ---------------------------------------------------------------------- #
# TCP-level readings shared by the serve workloads and replay's probe
# ---------------------------------------------------------------------- #
def _server_p50_ms(stats: dict) -> float:
    """Receive→reply p50 from the ``stats`` verb's latency histogram."""
    hist = Histogram(LATENCY_EDGES)
    body = stats["request_latency"]
    hist.counts = list(body["buckets"].values())
    hist.total = body["total"]
    return 1e3 * hist.quantile(0.5)


def _load_metrics(phase, stats: dict) -> dict:
    """Generator validity and server counters of one TCP phase."""
    late = phase.late or [0.0]
    totals = stats["totals"]
    return {
        "loadgen.cpu_share": phase.cpu_self / phase.elapsed,
        "serve.server.cpu_share": phase.cpu_server / phase.elapsed,
        "loadgen.late_p99_ms": 1e3 * quantile(late, 0.99),
        "loadgen.late_max_ms": 1e3 * max(late),
        "serve.server.latency_p50_ms": _server_p50_ms(stats),
        "serve.server.requests": totals["requests"],
        "serve.server.errors": totals["errors"],
        "host.steal_share": phase.steal,
    }


def _report_validity(args, load: dict) -> None:
    """Print the validity line of a run; flagged runs are never dropped."""
    flags = _flags(args.workload, load)
    shown = {k: load[k] for k in (
        "host.steal_share", "loadgen.cpu_share", "serve.server.cpu_share",
        "loadgen.late_p99_ms", "loadgen.late_max_ms") if k in load}
    print("validity: " + ("; ".join(flags) if flags else "ok") + " "
          + json.dumps(shown))
    for flag in flags:
        say(f"FLAGGED {args.workload} seed {args.seed}: {flag}")


def _tcp_us(phase, layer: dict) -> float:
    """Client + server CPU µs per request of a closed loop over loopback
    TCP, minus the µs per request of the same loop in process.

    CPU time, not wall time: over TCP the client and the server run in
    parallel on two cores, in process they share one loop on one core.
    """
    cpu = phase.cpu_self + phase.cpu_server
    return 1e6 * cpu / phase.sent - layer["serve.server.inproc_us"]


def _flags(workload: str, load: dict) -> list:
    """Reasons a run's numbers do not mean what they claim."""
    flags = []
    if load["host.steal_share"] > STEAL_FLAG:
        flags.append("the hypervisor took "
                     f"{100 * load['host.steal_share']:.1f}% of CPU time")
    if workload == "serve-ff-open" and load["loadgen.late_p99_ms"] > 1.0:
        flags.append("generator fell behind its schedule "
                     f"(late p99 {load['loadgen.late_p99_ms']:.3f} ms)")
    return flags


async def _tcp_probe(algorithm, store, ref, tmp):
    """A short closed-loop TCP run on a fresh server (traced replay-ha)."""
    server = ServerProcess(algorithm, cwd=tmp)
    try:
        client = await PlacementClient.connect("127.0.0.1", server.port)
        try:
            phase = await drive(client, store, 0, seconds=PROBE_SECONDS,
                                window=WINDOW, server_pid=server.pid)
            stats = await client.stats()
        finally:
            await client.aclose()
    finally:
        server.stop()
    return phase, stats, matched(phase.replies(), 0, ref)


# ---------------------------------------------------------------------- #
# replay-ha
# ---------------------------------------------------------------------- #
class _Recorder(KernelListener):
    """Every placement's ``(bin, opened)``, in arrival order."""

    def __init__(self):
        self.bins, self.opened = [], []

    def on_arrival(self, item, bin_, opened):
        self.bins.append(bin_.uid)
        self.opened.append(opened)


def _replay_window(path, seconds, spans=None):
    """Whole replay passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(replay_pass(path, "HybridAlgorithm", spans=spans,
                                  rid=len(passes)))
    return passes


def _fastest_chunks(passes) -> list:
    """Each chunk's fastest time over the run's passes.

    Every pass streams the same file through the same algorithm, so chunk
    ``i`` is the same work in every pass, and its fastest time is the one
    the host disturbed least.
    """
    return [min(times) for times in zip(*(p[2] for p in passes))]


def _pass_ops(passes) -> float:
    """Items per second of a pass made of each chunk's fastest time."""
    return passes[0][0] / sum(_fastest_chunks(passes))


def run_replay(args, tmp: Path, import_s: float) -> dict:
    path = tmp / "trace.jsonl"
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # Poisson arrivals at rate 40, lengths log-uniform on [1, 16]:
        # ~170 HybridAlgorithm bins open at peak, ~20k items; a pass takes
        # ~0.4 s, so a run streams the trace many times
        dump_jsonl(poisson_random(40.0, 16.0, 500.0, seed=args.seed), path)
        setups.append(time.perf_counter() - t0)

    gc.collect()
    reset_peak_rss()
    seconds = args.seconds / 2 if args.trace else args.seconds
    ticks = cpu_ticks()
    passes = _replay_window(path, seconds)
    steal = steal_share(ticks, cpu_ticks())
    peak_mb = vm_hwm_mb("self")
    _report_validity(args, {"host.steal_share": steal})
    spans = Spans() if args.trace else None
    traced = _replay_window(path, seconds, spans) if args.trace else []

    # decisions of record, outside the timed window: one more pass with a
    # recording listener, compared row by row with simulate()
    instance = load_jsonl(path)
    ref = reference("HybridAlgorithm", instance)
    rec = _Recorder()
    replay_pass(path, "HybridAlgorithm", listener=rec)
    good_rows = sum(
        1 for b, o, rb, ro in zip(rec.bins, rec.opened, ref.bins, ref.opened)
        if b == rb and o == ro
    )
    attempted = failed = 0
    for n, _, _, summary in passes + traced:
        attempted += n
        same = (summary.items == len(instance)
                and summary.bins_opened == ref.bins_opened
                and summary.max_open == ref.max_open
                and abs(summary.cost - ref.cost) <= 1e-9 * max(1.0, ref.cost))
        failed += n - good_rows if same else n

    ops = _pass_ops(passes)
    # the percentiles leave out the last, partial chunk
    chunks = _fastest_chunks(passes)[:passes[0][0] // CHUNK_ROWS]
    if not args.trace:
        metrics = {
            "setup_s": import_s + median(setups),
            "ops_per_s": ops,
            "p50_ms": 1e3 * quantile(chunks, 0.5),
            "p90_ms": 1e3 * quantile(chunks, 0.9),
            "peak_rss_mb": peak_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
        return _result(attempted, failed, metrics)

    layer, wf_spans, wf_att, wf_fail = waterfall(
        "HybridAlgorithm", instance, ref, tmp, window=WINDOW
    )
    probe, stats, probe_good = asyncio.run(
        _tcp_probe("HybridAlgorithm", instance.store, ref, tmp)
    )
    traced_ops = _pass_ops(traced)
    layer.update(_load_metrics(probe, stats))
    layer["host.steal_share"] = steal
    layer["transport.tcp_us"] = _tcp_us(probe, layer)
    layer["trace.overhead_ops_per_s"] = traced_ops - ops
    _write_spans(args, spans, wf_spans)
    return _result(attempted + wf_att + probe.sent,
                   failed + wf_fail + probe.sent - probe_good, layer)


# ---------------------------------------------------------------------- #
# serve-ff-open
# ---------------------------------------------------------------------- #
async def _serve(args, tmp: Path):
    rows = int(FF_RATE * args.seconds) + PROBE_ROWS
    servers, setups = [], []
    client = None
    try:
        for _ in range(SETUP_REPEATS):
            if client is not None:  # keep only the last set-up running
                await client.aclose()
                servers[-1].stop()
            t0 = time.perf_counter()
            instance = make_workload("uniform", rows, seed=args.seed)
            servers.append(ServerProcess("FirstFit", cwd=tmp))
            client = await PlacementClient.connect("127.0.0.1",
                                                   servers[-1].port)
            setups.append(time.perf_counter() - t0)
        server = servers[-1]
        store = instance.store
        seconds = args.seconds / 2 if args.trace else args.seconds
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            phases = [await drive(client, store, 0, seconds=seconds,
                                  rate=FF_RATE, server_pid=server.pid)]
            spans = None
            if args.trace:
                spans = Spans()
                phases.append(await drive(
                    client, store, phases[-1].start + phases[-1].sent,
                    seconds=seconds, rate=FF_RATE, spans=spans,
                    server_pid=server.pid))
                phases.append(await drive(
                    client, store, phases[-1].start + phases[-1].sent,
                    seconds=PROBE_SECONDS, window=WINDOW,
                    server_pid=server.pid))
            stats = await client.stats()
            peak_mb = vm_hwm_mb(server.pid)
        finally:
            gc.enable()
            gc.unfreeze()
        await client.aclose()
        client = None
    finally:
        if client is not None:
            await client.aclose()
        for srv in servers:
            srv.stop()
    return instance, phases, stats, peak_mb, median(setups), spans


def _serve_ops(phase) -> float:
    """Replies per second over the whole window: the offered rate, unless
    the server falls behind."""
    return phase.ok() / phase.elapsed


def run_serve(args, tmp: Path, import_s: float) -> dict:
    instance, phases, stats, peak_mb, setup_s, spans = asyncio.run(
        _serve(args, tmp)
    )
    sent = sum(p.sent for p in phases)

    ref_rows = max(sent, min(LAYER_ITEMS, len(instance)))
    ref = reference("FirstFit", instance[:ref_rows])
    attempted = sent
    failed = sent - sum(matched(p.replies(), p.start, ref) for p in phases)
    main = phases[0]
    load = _load_metrics(main, stats)
    _report_validity(args, load)
    ops = _serve_ops(main)
    if not args.trace:
        blocks = main.blocks(BLOCK)
        metrics = {
            "setup_s": import_s + setup_s,
            "ops_per_s": ops,
            "p50_ms": 1e3 * favourable([b[0] for b in blocks],
                                       higher=False, parts=BLOCK_PARTS),
            "p90_ms": 1e3 * favourable([b[1] for b in blocks],
                                       higher=False, parts=BLOCK_PARTS),
            "peak_rss_mb": peak_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
        return _result(attempted, failed, metrics)

    layer, wf_spans, wf_att, wf_fail = waterfall(
        "FirstFit", instance, ref, tmp, window=WINDOW
    )
    layer.update(load)
    layer["transport.tcp_us"] = _tcp_us(phases[2], layer)  # untraced, closed
    layer["trace.overhead_ops_per_s"] = _serve_ops(phases[1]) - ops
    _write_spans(args, spans, wf_spans)
    return _result(attempted + wf_att, failed + wf_fail, layer)


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #
def _write_spans(args, *logs) -> None:
    merged = Spans()
    for log in logs:
        base = len(merged.rows)
        for name, start, end, parent, rid in log.rows:
            merged.add(name, start, end,
                       None if parent is None else parent + base, rid)
    path = ROOT / ".perfbench" / "spans" / f"{args.workload}-{args.seed}.jsonl"
    merged.write(path)
    say(f"spans: {path.relative_to(ROOT)} ({len(merged.rows)} spans)")


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }


WORKLOADS = {
    "replay-ha": run_replay,
    "serve-ff-open": run_serve,
}
