"""Shared machinery of the benchmark: spans, server processes, load loops
and the decision check against batch ``simulate()``.

Everything here calls the package's public functions from outside; the
program under test is never modified or monkey-patched.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.algorithms import FirstFit, HybridAlgorithm
from repro.core.simulation import simulate
from repro.engine.loop import Engine
from repro.workloads.io import iter_jsonl_stores

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ALGORITHMS = {"FirstFit": FirstFit, "HybridAlgorithm": HybridAlgorithm}

#: seconds a server gets to print its banner, and to drain on SIGTERM
SERVER_TIMEOUT = 60.0
#: rows per streamed replay chunk: a chunk is one timing sample; ~3 ms
#: samples are short enough that some run while the host is quiet, and a
#: 20k-item trace gives ~100 chunks, ten of them beyond its p90
CHUNK_ROWS = 200
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def say(msg: str) -> None:
    """A progress or warning line on standard error."""
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
class Spans:
    """In-memory span log, written out once at exit.

    A span is ``[name, start, end, parent, rid]``: wall-clock seconds from
    :func:`time.perf_counter`, the index of the span that caused it (or
    ``None`` for a root), and the request id it belongs to.
    """

    def __init__(self) -> None:
        self.rows: List[list] = []

    def open(self, name, start, parent=None, rid=None) -> int:
        self.rows.append([name, start, None, parent, rid])
        return len(self.rows) - 1

    def close(self, span: int, end: float) -> None:
        self.rows[span][2] = end

    def add(self, name, start, end, parent=None, rid=None) -> int:
        self.rows.append([name, start, end, parent, rid])
        return len(self.rows) - 1

    def total(self, name: str, since: int = 0):
        """``(seconds, count)`` summed over closed spans called ``name``
        among those recorded from row ``since`` on."""
        busy, count = 0.0, 0
        for row in self.rows[since:]:
            if row[0] == name and row[2] is not None:
                busy += row[2] - row[1]
                count += 1
        return busy, count

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "rid")
        with path.open("w") as fh:
            for row in self.rows:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


# ---------------------------------------------------------------------- #
# /proc readings
# ---------------------------------------------------------------------- #
def cpu_seconds(pid) -> float:
    """User + system CPU seconds of process ``pid`` (or ``"self"``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def vm_hwm_mb(pid) -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_ticks():
    """Machine-wide ``(total, steal)`` CPU ticks from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return sum(ticks), ticks[7]


def steal_share(before, after) -> float:
    """Share of the machine's CPU time the hypervisor took in between."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (which need not be sorted)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def favourable(values, *, higher: bool, parts: int) -> float:
    """The first ``parts``-quantile of ``values`` from the good end.

    Host noise (CPU stolen by the hypervisor, noisy neighbours) only
    ever slows a window down, so a good-side quantile of many short
    windows tracks the code's own speed, while the median tracks the
    host's load during the run.
    """
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=parts)
    cut = cuts[-1] if higher else cuts[0]
    # with fewer than parts - 1 values the quantiles extrapolate past the
    # data (even below zero); keep to what was observed
    return min(max(cut, min(values)), max(values))


# ---------------------------------------------------------------------- #
# The server under test, as a subprocess
# ---------------------------------------------------------------------- #
class ServerProcess:
    """``repro-dbp serve`` in a child process, run from this checkout."""

    def __init__(self, algorithm: str, extra=(), *, cwd: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "-a", algorithm, "--shards", "1", "--no-ledger", *extra],
            stdout=subprocess.PIPE, cwd=cwd, env=env, text=True,
        )
        self.pid = self.proc.pid
        try:
            self.port = self._await_banner()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> int:
        deadline = time.monotonic() + SERVER_TIMEOUT
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline()
                if not line:
                    break
                if line.startswith("serving "):
                    return int(line.split(" on ", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
        raise RuntimeError(
            f"server exited or printed no banner (rc={self.proc.poll()})"
        )

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.stdout.closed:  # already stopped
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=SERVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# ---------------------------------------------------------------------- #
# Load loops
# ---------------------------------------------------------------------- #
@dataclass
class Phase:
    """One stretch of traffic on one connection."""

    start: int  #: index of the first item sent
    futures: list = field(default_factory=list)
    latency: list = field(default_factory=list)  #: seconds, per reply
    late: list = field(default_factory=list)  #: send − due, seconds
    t0: float = 0.0
    t_last: float = 0.0
    cpu_self: float = 0.0
    cpu_server: float = 0.0
    steal: float = 0.0  #: share of machine CPU time stolen meanwhile

    @property
    def sent(self) -> int:
        return len(self.futures)

    def replies(self) -> list:
        return [
            f.result() if not f.cancelled() and f.exception() is None
            else {"ok": False, "error": "exception"}
            for f in self.futures
        ]

    def ok(self) -> int:
        return sum(1 for r in self.replies() if r.get("ok"))

    @property
    def elapsed(self) -> float:
        return self.t_last - self.t0

    def blocks(self, size: int):
        """``(p50_s, p90_s)`` of the latencies of each whole block of
        ``size`` consecutive replies (a single block when there are fewer).
        """
        size = max(1, min(size, len(self.latency)))
        return [(quantile(self.latency[end - size:end], 0.5),
                 quantile(self.latency[end - size:end], 0.9))
                for end in range(size, len(self.latency) + 1, size)]


async def drive(client, store, start: int, *, seconds: float,
                rate: Optional[float] = None, window: Optional[int] = None,
                spans: Optional[Spans] = None,
                server_pid=None) -> Phase:
    """Send rows ``start, start+1, ...`` of ``store`` as arrive requests.

    Open loop (``rate``): row ``start + j`` is due at ``t0 + j/rate`` and
    its latency runs from that due time to its reply.  Closed loop
    (``window``): a request is due the moment an earlier reply frees its
    slot, and its latency runs from its send to its reply.  Either way
    ``late`` records how long after its due time the request was sent.
    """
    arr, dep, siz, uids, w0, w1 = store.columns()
    stop = w1 - w0
    perf = time.perf_counter
    phase = Phase(start)
    futures, latency, late = phase.futures, phase.latency, phase.late
    freed: deque = deque()
    wake = asyncio.Event()
    closed = window is not None

    def track(fut, k: int, t_ref: float):
        root = spans.open("serve.request", t_ref, None, k) if spans else None

        def done(_f) -> None:
            now = perf()
            latency.append(now - t_ref)
            phase.t_last = now
            if root is not None:
                spans.close(root, now)
            if closed:
                freed.append(now)
                wake.set()

        fut.add_done_callback(done)
        futures.append(fut)
        return root

    def send(k: int, due: float) -> None:
        j = w0 + k
        t_s = perf()
        fut = client.submit({
            "op": "arrive", "id": k, "arrival": arr[j],
            "departure": dep[j], "size": siz[j],
        })
        late.append(t_s - due)
        root = track(fut, k, due if not closed else t_s)
        if spans is not None:
            spans.add("serve.client.submit", t_s, perf(), root, k)

    cpu_server0 = cpu_seconds(server_pid) if server_pid else 0.0
    cpu_self0 = cpu_seconds("self")
    ticks0 = cpu_ticks()
    k = start
    if closed:
        phase.t0 = t0 = perf()
        deadline = t0 + seconds
        freed.extend([t0] * window)
        while k < stop:
            if not freed:
                wake.clear()
                await wake.wait()
                continue
            if perf() >= deadline:
                break
            while freed and k < stop:
                send(k, freed.popleft())
                k += 1
            await client.drain_writes()
    else:
        n = min(int(rate * seconds), stop - start)
        phase.t0 = t0 = perf() + 0.001
        for j in range(n):
            due = t0 + j / rate
            # sleep to just short of the due time, then spin on the loop:
            # epoll waits in whole milliseconds, and a generator that
            # sleeps straight to each due time sends up to 1 ms late
            delay = due - perf()
            if delay > 0.002:
                await asyncio.sleep(delay - 0.0015)
            while perf() < due:
                await asyncio.sleep(0)
            send(k, due)
            k += 1
            await client.drain_writes()
    await asyncio.gather(*futures, return_exceptions=True)
    phase.cpu_self = cpu_seconds("self") - cpu_self0
    phase.steal = steal_share(ticks0, cpu_ticks())
    if server_pid:
        phase.cpu_server = cpu_seconds(server_pid) - cpu_server0
    return phase


# ---------------------------------------------------------------------- #
# Decisions of record
# ---------------------------------------------------------------------- #
@dataclass
class Reference:
    """Batch ``simulate()`` decisions for rows ``[0, n)`` of a store."""

    bins: list
    opened: list
    cost: float
    bins_opened: int
    max_open: int


def reference(algorithm: str, instance) -> Reference:
    result = simulate(ALGORITHMS[algorithm](), instance)
    first = {rec.uid: rec.item_uids[0] for rec in result.bins
             if rec.item_uids}
    bins, opened = [], []
    _, _, _, uids, w0, w1 = instance.store.columns()
    for uid in uids[w0:w1]:
        b = result.assignment[uid]
        bins.append(b)
        opened.append(first[b] == uid)
    return Reference(bins, opened, result.cost, len(result.bins),
                     result.max_open)


def matched(replies, start: int, ref: Reference) -> int:
    """How many replies are ok and carry the reference ``(bin, opened)``."""
    good = 0
    for k, reply in enumerate(replies, start):
        if (reply.get("ok") and reply.get("bin") == ref.bins[k]
                and reply.get("opened") == ref.opened[k]):
            good += 1
    return good


# ---------------------------------------------------------------------- #
# Streaming replay
# ---------------------------------------------------------------------- #
def replay_pass(path: Path, algorithm: str, *, spans: Optional[Spans] = None,
                parent=None, rid=None, listener=None):
    """Stream ``path`` through ``iter_jsonl_stores`` → ``Engine.feed_store``
    in chunks of :data:`CHUNK_ROWS` rows.

    Returns ``(items, seconds, chunk_seconds, summary)``; a chunk's time
    runs from the read of its lines to the last decision on its rows.
    """
    engine = Engine(ALGORITHMS[algorithm]())
    if listener is not None:
        engine.attach_listener(listener)
    perf = time.perf_counter
    chunks = []
    stores = iter_jsonl_stores(path, chunk_rows=CHUNK_ROWS)
    t_pass = perf()
    root = spans.open("replay.pass", t_pass, parent, rid) if spans else None
    n = 0
    while True:
        t0 = perf()
        store = next(stores, None)
        if store is None:
            break
        t1 = perf()
        n += engine.feed_store(store)
        t2 = perf()
        chunks.append(t2 - t0)
        if spans is not None:
            spans.add("workloads.io.iter_jsonl_stores", t0, t1, root, rid)
            spans.add("engine.feed_store", t1, t2, root, rid)
    t3 = perf()
    summary = engine.finish()
    t4 = perf()
    if spans is not None:
        spans.add("engine.finish", t3, t4, root, rid)
        spans.close(root, t4)
    return n, t4 - t_pass, chunks, summary
