"""The ``serve_mixed`` workload: the solve server under a closed loop.

An in-process ``SolveService`` behind an ``HttpServer``, with a cold
``ShardedResultStore`` on every run, is driven by
``repro.server.loadgen.run_load`` with ``CLIENTS`` clients.  Each client
sends its next request only after the previous one completed.  The traffic
is ``build_workload``'s seeded mix (CNF and AIGER solves, preprocess and
sweep jobs, 35% duplicates): an untimed warm-up chunk, then timed chunks of
``CHUNK`` requests until the run's time is up.

The server and its pool run pinned to one CPU.  Left free, the scheduler
puts the client, the event loop and the worker on one CPU or spreads them
over two depending on what else the machine runs, and the same code then
serves up to 1.5x faster or slower; on one CPU a request costs the sum of
its per-call work, which is what this workload measures.

Correctness: every request must come back done with a verdict of its kind;
AIGER solves are adder-equivalence miters, UNSAT by construction; repeated
specs must get the same verdict; and the distinct specs of the first chunk
are executed again in-process with ``execute_job``, whose verdict must
match the served one and whose CNF models must satisfy their formula.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from pathlib import Path

from repro.aig.aiger import read_aiger
from repro.cnf import read_dimacs
from repro.runner.store import ShardedResultStore
from repro.server.http import HttpServer
from repro.server.jobs import execute_job
from repro.server.loadgen import build_workload, run_load
from repro.server.service import SolveService

from common import Outcome, SpanLog, Speedometer, median, peak_rss_mb, tail
from metrics import layer_metrics

#: Pool workers and closed-loop clients: one of each, so the pinned CPU
#: serves one request at a time.
CLIENTS = JOBS = 1

#: Requests per ``run_load`` call.  Latency and throughput are taken per
#: chunk and reported as the median over chunks, so a few slow seconds of a
#: shared machine move one chunk, not the result.
CHUNK = 500

#: Requests served before the timed chunks, from a seed of their own.
WARMUP_REQUESTS = 200

#: CPU seconds of this process between machine-speed samples: a chunk
#: takes about 1.3 s, and this process uses about half of it.
SPEEDOMETER_INTERVAL = 0.05

#: How often the server is started to time the set-up; a start-up takes
#: about 20 ms, so it is repeated more often than the draw of ``fig4``.
SETUP_REPEATS = 15

#: A tiny job no workload contains, sent once to prove the pool is up.
_WARMUP = {"kind": "solve", "payload": "p cnf 2 1\n1 2 0\n", "name": "warmup"}


def _key(spec: dict) -> str:
    """What the server dedups on: the spec without its label."""
    return json.dumps({k: v for k, v in spec.items() if k != "name"},
                      sort_keys=True)


async def _start(store_dir: Path):
    """Bring up a server with a cold store; returns once the pool answers."""
    shutil.rmtree(store_dir, ignore_errors=True)
    service = SolveService(jobs=JOBS, max_queue=4 * CLIENTS + 8,
                           quota_rate=1e6, quota_burst=1e6,
                           store=ShardedResultStore(store_dir))
    await service.start()
    http = HttpServer(service)
    await http.start()
    warm = await run_load(http.host, http.port, [dict(_WARMUP)],
                          concurrency=1)
    if warm.errors:
        raise RuntimeError(f"warm-up request failed: {warm.outcomes}")
    return service, http


async def _stop(service, http) -> None:
    await http.stop()
    await service.shutdown(grace=30.0)


async def _serve(seed: int, seconds: float, store_dir: Path,
                 meter: Speedometer):
    """Start the server ``SETUP_REPEATS`` times, serve the warm-up, then
    serve chunks until ``seconds`` are up.  Returns the median start-up
    time, the warm-up chunk, the timed chunks, each with the machine
    slowdown seen while it ran, and the metrics snapshot."""
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        first_mark = meter.mark()
        start = time.perf_counter()
        service, http = await _start(store_dir)
        setup_times.append((time.perf_counter() - start)
                           / meter.slowdown(first_mark, meter.mark()))
        if repeat < SETUP_REPEATS - 1:
            await _stop(service, http)
    chunks = []
    try:
        specs = build_workload(WARMUP_REQUESTS, seed=f"warm-up {seed}")
        warmup = (specs, await run_load(http.host, http.port, specs,
                                        concurrency=CLIENTS), 1.0)
        start = time.perf_counter()
        while True:
            workload = build_workload(CHUNK, seed=seed * 1009 + len(chunks))
            first_mark = meter.mark()
            report = await run_load(http.host, http.port, workload,
                                    concurrency=CLIENTS)
            chunks.append((workload, report,
                           meter.slowdown(first_mark, meter.mark())))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(chunks) > seconds:
                break
        snapshot = service.metrics_snapshot()
    finally:
        await _stop(service, http)
        shutil.rmtree(store_dir, ignore_errors=True)
    return median(setup_times), warmup, chunks, snapshot


def _stat(result: dict, name: str) -> float:
    """A counter of a result payload; aborted jobs carry none."""
    return result.get("stats", {}).get(name, 0)


def _check(requests, outcome: Outcome, reference: dict[str, dict]) -> None:
    """One verdict per request; see the module docstring for the rules."""
    seen: dict[str, str | None] = {}
    for spec, result in requests:
        problems = []
        key = _key(spec)
        if not result.ok:
            problems.append(f"http {result.http}: {result.error}")
        elif spec["kind"] == "solve":
            if result.status not in ("SAT", "UNSAT"):
                problems.append(f"solve came back {result.status}")
            elif spec.get("fmt") == "aig" and result.status != "UNSAT":
                problems.append("equivalence miter not UNSAT")
        elif result.status != "DONE":
            problems.append(f"{spec['kind']} came back {result.status}")
        if key in seen and seen[key] != result.status:
            problems.append(f"repeat got {result.status}, first {seen[key]}")
        seen.setdefault(key, result.status)
        direct = reference.get(key)
        if direct is not None:
            if direct["status"] != result.status:
                problems.append(f"in-process execute_job says "
                                f"{direct['status']}")
            if direct["status"] == "SAT" and spec.get("fmt", "cnf") == "cnf":
                cnf = read_dimacs(spec["payload"], strict=False)
                model = {int(v): b for v, b in direct["model"].items()}
                if not cnf.evaluate(model):
                    problems.append("SAT model does not satisfy the CNF")
        outcome.verdict(spec.get("name", spec["kind"]), problems)


def _distinct(workload: list[dict]) -> list[dict]:
    """The first request of each distinct spec, in order."""
    distinct: dict[str, dict] = {}
    for spec in workload:
        distinct.setdefault(_key(spec), spec)
    return list(distinct.values())


def _execute(specs: list[dict], spans: SpanLog | None) -> tuple[dict, float]:
    """``execute_job`` on each spec in this process, with or without a span
    per call; returns the results and the seconds the calls took."""
    results = {}
    start = time.perf_counter()
    for spec in specs:
        if spans is None:
            results[_key(spec)] = execute_job(spec)
            continue
        index = spans.open("execute_job", spec.get("name", spec["kind"]),
                           kind=spec["kind"])
        results[_key(spec)] = execute_job(spec)
        spans.close(index)
    return results, time.perf_counter() - start


def run_serve(seed: int, seconds: float, workdir: Path,
              spans: SpanLog | None = None) -> tuple[dict, Outcome]:
    """Run ``serve_mixed``; returns (metrics, correctness outcome).

    With ``spans`` the in-process re-run is repeated with one span per call
    recorded there, and the metrics are the per-layer ones.
    """
    store_dir = workdir / f"store-{os.getpid()}"
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        with Speedometer(SPEEDOMETER_INTERVAL) as meter:
            setup_s, warmup, chunks, snapshot = asyncio.run(
                _serve(seed, seconds, store_dir, meter))
    finally:
        os.sched_setaffinity(0, cpus)
    requests = [pair for workload, report, _ in (warmup, *chunks)
                for pair in zip(workload, report.outcomes)]
    # The first chunk's specs: the same on every run of a seed, however
    # many chunks the run had time for.
    specs = _distinct(chunks[0][0])
    reference, _ = _execute(specs, None)
    outcome = Outcome()
    _check(requests, outcome, reference)

    per_chunk = []
    for index, (_, report, slowdown) in enumerate(chunks):
        # Times at the nominal machine speed; raw ones in the summary line.
        latencies = [r.latency_s / slowdown if r.ok else float("inf")
                     for r in report.outcomes]
        # About half the requests are answered from the store in ~1 ms and
        # the rest executed in 2-4 ms, so the median of all of them sits in
        # the gap between the two and jumps with the share of each; the
        # median of the executed ones lies inside the middle job kind.
        executed = [latency for latency, r in zip(latencies, report.outcomes)
                    if not r.cached]
        tail_value, tail_label = tail(latencies)
        per_chunk.append((median(executed), tail_value,
                          report.ok * slowdown / report.wall_s,
                          report.wall_s / slowdown))
        print(f"# chunk {index}: {report.summary()}; machine slowdown "
              f"{slowdown:.4f}; normalised executed p50 "
              f"{per_chunk[-1][0]:.6f} s, {tail_label} {tail_value:.6f} s, "
              f"{per_chunk[-1][2]:.2f} req/s")
    print(f"# serve seed={seed}: {WARMUP_REQUESTS} warm-up requests, then "
          f"{len(requests) - WARMUP_REQUESTS} in {len(chunks)} "
          f"chunks of {CHUNK}, {CLIENTS} closed-loop client, {JOBS} pool "
          f"worker; overall_s.p50 and overall_s.tail are the medians over "
          f"chunks of each chunk's p50 of executed (not store-answered) "
          f"request latencies and {tail_label} of all request latencies")

    if spans is not None:
        return _layer_metrics(requests, snapshot, specs, reference,
                              spans), outcome

    solves = [r for spec, r in requests if spec["kind"] == "solve"]
    p50s, tails, rates, walls = zip(*per_chunk)
    metrics = {
        "setup_s": setup_s,
        "overall_s.total": median(walls),
        "overall_s.p50": median(p50s),
        "overall_s.tail": median(tails),
        "req_per_s": median(rates),
        "decided_frac": sum(r.status in ("SAT", "UNSAT") for r in solves)
        / len(solves),
        "cnf_clauses.total": sum(d.get("num_clauses", 0)
                                 for d in reference.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, outcome


def _layer_metrics(requests, snapshot: dict, specs: list[dict],
                   reference: dict[str, dict], spans: SpanLog) -> dict:
    # Two passes each way, in the order U T T U, after the reference pass
    # has warmed the caches, so neither side runs cold or later on average.
    untraced_s = traced_s = 0.0
    for log in (None, spans, spans, None):
        _, elapsed = _execute(specs, log)
        if log is None:
            untraced_s += elapsed / 2
        else:
            traced_s += elapsed / 2
    for spec in specs:
        if spec.get("fmt") == "aig":
            index = spans.open("read_aiger", spec["name"])
            aig = read_aiger(spec["payload"])
            spans.close(index, ands=aig.num_ands)
    counters = snapshot.get("counters", {})

    def counter(name: str) -> float:
        return counters.get(name, {}).get("value", 0)

    fresh = [1000 * r.latency_s for _, r in requests if r.ok and not r.cached]
    cached = [1000 * r.latency_s for _, r in requests if r.ok and r.cached]
    execute = [1000 * s.seconds for s in spans.select("execute_job")]
    reads = spans.select("read_aiger")
    seen: set[str] = set()
    duplicates = 0
    for spec, _ in requests:
        key = _key(spec)
        duplicates += key in seen
        seen.add(key)
    solves = [d for d in reference.values() if d["kind"] == "solve"]
    aig_jobs = [d for d in reference.values()
                if d.get("pipeline") is not None]
    sweeps = [d for d in reference.values() if d["kind"] == "sweep"]
    values = {
        "aig.read_aiger_s": sum(s.seconds for s in reads),
        "aig.ands_in": sum(s.attrs["ands"] for s in reads),
        "aig.sweep_s": sum(_stat(d, "sweep_time") for d in sweeps),
        "cnf.tseitin_s": sum(d.get("transform_time", 0.0) for d in aig_jobs),
        "cnf.vars": sum(d.get("num_vars", 0) for d in reference.values()),
        "cnf.clauses": sum(d.get("num_clauses", 0)
                           for d in reference.values()),
        "sat.solve_s": sum(d.get("solve_time", 0.0) for d in solves),
        "sat.decisions": sum(_stat(d, "decisions") for d in solves),
        "sat.conflicts": sum(_stat(d, "conflicts") for d in solves),
        "sat.propagations": sum(_stat(d, "propagations") for d in solves),
        "server.fresh_ms.p50": median(fresh),
        "server.cached_ms.p50": median(cached),
        "server.execute_ms.p50": median(execute),
        "server.accepted": counter("server.accepted"),
        "server.dedup_hits": counter("server.dedup_hits"),
        "server.shed": counter("server.shed"),
        "server.worker_retries": counter("server.worker_retries"),
        "runner.store.hit_frac": counter("server.dedup_hits")
        / max(1, duplicates),
        "obs.untraced_s": untraced_s,
        "obs.traced_s": traced_s,
        "obs.trace_overhead": traced_s / untraced_s,
    }
    values["server.wait_ms.p50"] = values["server.fresh_ms.p50"] \
        - values["server.execute_ms.p50"]
    if values["sat.solve_s"] > 0:
        values["sat.props_per_s"] = values["sat.propagations"] \
            / values["sat.solve_s"]
    layers = (values["aig.sweep_s"] + values["cnf.tseitin_s"]
              + values["sat.solve_s"])
    values["core.residual_s"] = untraced_s - layers
    print(f"# tracing overhead {traced_s / untraced_s:.4f} = traced "
          f"{traced_s:.4f} s / untraced {untraced_s:.4f} s per pass of "
          f"{len(specs)} in-process execute_job calls")
    return layer_metrics(values)
