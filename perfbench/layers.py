"""The traced per-layer waterfall: kernel → engine → shard → protocol →
in-process server, each timed by spans around calls into the layer's
public functions, on one workload's own items.

The TCP layer and the load generator are measured by the traced
end-to-end run itself (see ``run.py``); this module adds the layers below
the socket.
"""

from __future__ import annotations

import asyncio
import time

from harness import ALGORITHMS, Spans, drive, matched, replay_pass
from repro.core.kernel import PlacementKernel
from repro.core.simulation import simulate
from repro.engine.loop import Engine
from repro.engine.metrics import EngineMetrics
from repro.serve import PlacementClient, PlacementServer, ServeConfig
from repro.serve.protocol import decode, encode, parse_request
from repro.serve.shard import PlacementShard
from repro.testkit.simnet import SimNet
from repro.workloads.io import dump_jsonl

#: rows of each workload the waterfall runs on (a seed-determined prefix,
#: so the decision counts repeat exactly)
LAYER_ITEMS = 20000
#: interleaved rounds of the in-process layers; each layer reports its
#: fastest round, the one the host disturbed least
ROUNDS = 3


def _requests(store):
    """Arrive requests for every row, as the client would send them."""
    arr, dep, siz, _, w0, w1 = store.columns()
    return [
        {"op": "arrive", "id": k, "arrival": arr[w0 + k],
         "departure": dep[w0 + k], "size": siz[w0 + k], "seq": k + 1}
        for k in range(w1 - w0)
    ]


def _timed_each(spans, name, root, fn, args):
    """Call ``fn`` on each argument under its own span; return the results."""
    perf = time.perf_counter
    add = spans.add
    out = []
    for k, arg in enumerate(args):
        t0 = perf()
        out.append(fn(arg))
        add(name, t0, perf(), root, k)
    return out


def _round(algorithm, store, path, spans, r):
    """One pass over every in-process layer; ``(µs per op, shard replies)``."""
    factory = ALGORITHMS[algorithm]
    n = len(store)
    perf = time.perf_counter
    since = len(spans.rows)
    root = spans.open("waterfall.round", perf(), None, r)

    # workloads.io + engine: the streaming replay path
    replay_pass(path, algorithm, spans=spans, parent=root, rid=r)

    # core.kernel: the bare kernel the engine drives (no listener, no
    # history), so engine.overhead_us is the engine's own share
    kernel = PlacementKernel(factory(), capacity=1.0)
    t0 = perf()
    kernel.release_store(store)
    spans.add("core.kernel.release_store", t0, perf(), root, r)

    # engine.feed_row: the shard's engine (metrics on), one row per call
    engine = Engine(factory(), metrics=EngineMetrics())
    _timed_each(spans, "engine.feed_row", root,
                lambda i: engine.feed_row(store, i), range(n))

    # serve.protocol + serve.shard on pre-built request lines
    lines = [encode(req) for req in _requests(store)]
    reqs = _timed_each(spans, "serve.protocol.parse_request", root,
                       parse_request, lines)
    shard = PlacementShard(0, factory())
    replies = _timed_each(spans, "serve.shard.apply", root, shard.apply,
                          reqs)
    wire = _timed_each(spans, "serve.protocol.encode", root, encode,
                       replies)
    _timed_each(spans, "serve.client.decode", root, decode, wire)
    spans.close(root, perf())

    def per_item(name):
        return 1e6 * spans.total(name, since)[0] / n

    def per_call(name):
        busy, count = spans.total(name, since)
        return 1e6 * busy / count

    return {
        "io": per_item("workloads.io.iter_jsonl_stores"),
        "release": per_item("core.kernel.release_store"),
        "feed": per_item("engine.feed_store"),
        "finish_ms": 1e3 * spans.total("engine.finish", since)[0],
        "feed_row": per_call("engine.feed_row"),
        "parse": per_call("serve.protocol.parse_request"),
        "apply": per_call("serve.shard.apply"),
        "encode": per_call("serve.protocol.encode"),
        "decode": per_call("serve.client.decode"),
    }, replies


async def _inproc(algorithm, store, *, batch_max, batch_delay, window,
                  spans):
    net = SimNet()
    server = PlacementServer(
        ServeConfig(algorithm=algorithm, batch_max=batch_max,
                    batch_delay=batch_delay),
        transport=net,
    )
    await server.start()
    try:
        client = await PlacementClient.connect(
            "sim", server.port, transport=net
        )
        try:
            phase = await drive(client, store, 0, seconds=float("inf"),
                                window=window, spans=spans)
        finally:
            await client.aclose()
    finally:
        await server.drain()
    return phase


def waterfall(algorithm, instance, ref, tmp, *, window, batch_max=1,
              batch_delay=0.0):
    """Per-layer metrics on ``instance[:LAYER_ITEMS]``.

    ``ref`` holds ``simulate()``'s decisions on at least those rows; the
    shard and in-process server replies are checked against it.  Returns
    ``(metrics, spans, attempted, failed)``.
    """
    items = instance[:LAYER_ITEMS]
    store = items.store
    n = len(items)
    spans = Spans()
    path = tmp / "layers.jsonl"
    dump_jsonl(items, path)
    result = simulate(ALGORITHMS[algorithm](), items)

    rounds, good = [], 0
    for r in range(ROUNDS):
        timings, replies = _round(algorithm, store, path, spans, r)
        rounds.append(timings)
        good += matched(replies, 0, ref)
    best = {key: min(t[key] for t in rounds) for key in rounds[0]}

    # serve.server: the asyncio server over SimNet, on a real loop; the
    # client shares the loop, so this is server plus client work
    since = len(spans.rows)
    phase = asyncio.run(_inproc(
        algorithm, store, batch_max=batch_max, batch_delay=batch_delay,
        window=window, spans=spans,
    ))
    good += matched(phase.replies(), 0, ref)
    submit_s, submits = spans.total("serve.client.submit", since)
    submit_us = 1e6 * submit_s / submits + best["decode"]
    inproc_us = 1e6 * phase.elapsed / phase.sent
    metrics = {
        "workloads.io.parse_us": best["io"],
        "core.kernel.release_us": best["release"],
        "core.kernel.bins_opened": len(result.bins),
        "core.kernel.max_open": result.max_open,
        "engine.feed_us": best["feed"],
        "engine.overhead_us": best["feed"] - best["release"],
        "engine.finish_ms": best["finish_ms"],
        "engine.feed_row_us": best["feed_row"],
        "serve.protocol.parse_us": best["parse"],
        "serve.protocol.encode_us": best["encode"],
        "serve.shard.apply_us": best["apply"],
        "serve.shard.overhead_us": best["apply"] - best["feed_row"],
        "serve.server.inproc_us": inproc_us,
        "serve.server.plumbing_us": inproc_us - (
            best["parse"] + best["apply"] + best["encode"] + submit_us),
        "serve.client.submit_us": submit_us,
    }
    attempted = (ROUNDS + 1) * n
    return metrics, spans, attempted, attempted - good
