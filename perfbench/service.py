"""The workloads that talk to servers: warm-hit, cold-solve, fleet-mixed.

Every server runs in its own process, started here through
``serve_entry.py``.  The load generator is this process, with at most two
client threads, each a closed loop: it sends its next request only after
the previous reply, as ``ServerClient`` callers do.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
import layers
from checker import Checker
from common import (
    WORK, RunContext, ServerProc, closed_loop, load_affinity, quantile, stop_all,
    tail_quantile,
)

from repro.service.client import ServerClient

CLIENTS = 2
#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = {"warm-hit": 3, "cold-solve": 5, "fleet-mixed": 3}
#: Workloads whose servers stay off the load generator's core (see
#: ``common.cpu_split``).  Pinning the others measured no steadier, and it
#: would put the fleet's router and both shards on one core.
PINNED = {"warm-hit"}

_perf = time.perf_counter


# -- deployments ---------------------------------------------------------------


@dataclass
class Deployment:
    """The server processes of one set-up, front-end first."""

    procs: list[ServerProc]
    client: ServerClient
    spans: list[Path] = field(default_factory=list)

    def peak_rss_mb(self) -> float:
        return max(p.worker_rss_mb() for p in self.procs)

    def stop(self) -> list[dict[str, Any]]:
        """Stop every process; returns the span rows they wrote."""
        stop_all(self.procs)
        rows: list[dict[str, Any]] = []
        for path in self.spans:
            for row in json.loads(path.read_text()):
                row["process"] = path.stem
                rows.append(row)
        return rows


def _span_file(name: str, traced: bool) -> Path | None:
    if not traced:
        return None
    path = WORK / f"spans-{name}.json"
    path.unlink(missing_ok=True)
    return path


def _start(procs: list[ServerProc], args: list[str], spans: Path | None,
           cpus: set[int] | None) -> ServerProc:
    """Start one server and wait for it; on failure stop every server
    already started, so a failed set-up leaves no process behind."""
    try:
        proc = ServerProc(args, spans=spans, cpus=cpus)
        procs.append(proc)
        proc.wait_ready()
    except BaseException:
        stop_all(procs)
        raise
    return proc


def daemon(name: str, extra: list[str], traced: bool, cpus: set[int] | None) -> Deployment:
    spans = _span_file(name, traced)
    proc = _start([], ["serve", "--port", "0", "--solver-workers", "1", *extra], spans, cpus)
    return Deployment([proc], ServerClient(proc.host, proc.port, retries=0),
                      [spans] if spans else [])


def fleet(seed: int, traced: bool, cpus: set[int] | None) -> Deployment:
    """``repro route`` in front of two shards over one shared SQLite store.

    The shards start one after the other: two daemons opening a fresh
    shared store at the same moment can fail with "database is locked".
    """
    store = WORK / f"fleet-{seed}.sqlite"
    for leftover in WORK.glob(f"fleet-{seed}.sqlite*"):
        leftover.unlink()
    started: list[ServerProc] = []
    shards = []
    spans = []
    for i in range(2):
        shard_spans = _span_file(f"s{i}", traced)
        shards.append(_start(started, [
            "serve", "--port", "0", "--solver-workers", "1",
            "--shard-id", f"s{i}", "--cache", f"shared:{store}",
        ], shard_spans, cpus))
        spans.append(shard_spans)
    router_spans = _span_file("router", traced)
    router = _start(started, [
        "route", "--port", "0",
        *[arg for i, s in enumerate(shards) for arg in ("--shard", f"{s.address}=s{i}")],
    ], router_spans, cpus)
    spans.insert(0, router_spans)
    return Deployment([router, *shards], ServerClient(router.host, router.port, retries=0),
                      [p for p in spans if p is not None])


# -- load ----------------------------------------------------------------------


@dataclass
class Load:
    """What the client threads saw: latencies, job timings, answers."""

    checker: Checker
    latencies: list[list[float]] = field(default_factory=lambda: [[] for _ in range(CLIENTS)])
    #: Sums over waited-for solve requests of the job snapshot's phases.
    jobs: dict[str, float] = field(default_factory=lambda: {
        "queue_wait": 0.0, "run": 0.0, "seconds": 0.0, "dedup_wait": 0.0,
    })
    via: dict[str, int] = field(default_factory=dict)
    #: Lower bounds of first answers, by request name (cache hits carry none).
    bounds: dict[str, float] = field(default_factory=dict)
    #: Makespans of first answers, by request name.
    makespans: dict[str, float] = field(default_factory=dict)
    #: (proven, gap) per distinct instance answered fresh.
    quality: list[tuple[bool, float]] = field(default_factory=list)

    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def measured(self) -> "Load":
        """A fresh load for the measured phase that keeps what priming
        learned about the answers (bounds, makespans, answer quality)."""
        return Load(self.checker, bounds=self.bounds, makespans=self.makespans,
                    quality=self.quality)

    def samples(self) -> list[float]:
        return [x for lat in self.latencies for x in lat]

    def call(self, client: ServerClient, tid: int, method: str, path: str,
             body: dict[str, Any] | None, label: str) -> tuple[int, dict[str, Any]] | None:
        """One request; latency recorded for answered ones, failures counted."""
        self.checker.attempt()
        t0 = _perf()
        try:
            status, data = client.request(method, path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.checker.fail(label, f"transport: {type(exc).__name__}: {exc}")
            return None
        self.latencies[tid].append(_perf() - t0)
        if status >= 300:
            self.checker.fail(label, f"HTTP {status}: {data.get('error', data)}")
            return None
        return status, data

    def solve(self, client: ServerClient, tid: int, req: inputs.Request,
              body: dict[str, Any] | None = None) -> dict[str, Any] | None:
        """POST one solve and wait; records the job phases and checks the
        answer.  Returns the result dict, or None on any failure."""
        got = self.call(client, tid, "POST", "/v1/solve", body or req.body, req.name)
        if got is None:
            return None
        snap = got[1]
        self.account(snap)
        return self.check(req, snap)

    def account(self, snap: dict[str, Any]) -> None:
        via = snap.get("via", "?")
        with self._lock:
            self.via[via] = self.via.get(via, 0) + 1
            if via == "solve":
                self.jobs["queue_wait"] += snap["started"] - snap["submitted"]
                self.jobs["run"] += snap["finished"] - snap["started"]
                self.jobs["seconds"] += snap["result"]["seconds"]
            elif via == "dedup":
                self.jobs["dedup_wait"] += snap["finished"] - snap["submitted"]

    def check(self, req: inputs.Request, snap: dict[str, Any]) -> dict[str, Any] | None:
        result = snap.get("result")
        if snap.get("status") != "done" or result is None:
            self.checker.fail(req.name, f"job not done: {snap.get('status')}")
            return None
        lb = result.get("lower_bound", self.bounds.get(req.name))
        if not self.checker.check_result(req.name, req.graph, req.system, result, lb):
            return None
        with self._lock:
            first = self.makespans.setdefault(req.name, float(result["makespan"]))
            if "lower_bound" in result and req.name not in self.bounds:
                lb = float(result["lower_bound"])
                self.bounds[req.name] = lb
                gap = (first - lb) / lb if lb > 0 else math.inf
                self.quality.append((result["certificate"] == "proven", gap))
        if not self.checker.check_same(req.name, "repeat makespan", first,
                                       float(result["makespan"])):
            return None
        return result


def quality_metrics(load: Load) -> dict[str, float]:
    proven = [p for p, _ in load.quality]
    gaps = [g for _, g in load.quality]
    return {
        "answer.proven_frac": sum(proven) / len(proven) if proven else 0.0,
        "answer.gap_mean": sum(gaps) / len(gaps) if gaps else 0.0,
    }


# -- workloads -----------------------------------------------------------------


@dataclass
class Workload:
    """A service workload: how to deploy, prime and drive it."""

    #: ``deploy(traced, server_cpus)`` starts the servers.
    deploy: Callable[[bool, set[int] | None], Deployment]
    prime: Callable[[Deployment, Load], None]
    #: Runs the measured load; returns {"wall": s, "passes": [pass walls]}.
    drive: Callable[[Deployment, Load, float], dict[str, Any]]
    #: Reads server-side counters once the traced load is over.
    after: Callable[[Deployment], dict[str, float]] = lambda dep: {}


def warm_hit(ctx: RunContext) -> Workload:
    reqs = inputs.warm_requests(ctx.seed)
    orders = []
    for tid in range(CLIENTS):
        order = list(range(len(reqs)))
        inputs.rng(ctx.seed, "warm-order", tid).shuffle(order)
        orders.append(order)

    def prime(dep: Deployment, load: Load) -> None:
        for req in reqs:
            load.solve(dep.client, 0, req)

    def drive(dep: Deployment, load: Load, seconds: float) -> dict[str, Any]:
        seen: dict[str, list] = {}

        def op(tid: int, i: int) -> None:
            req = reqs[orders[tid][i % len(reqs)]]
            got = load.call(dep.client, tid, "POST", "/v1/solve", req.body, req.name)
            if got is None:
                return
            snap = got[1]
            load.account(snap)
            result = snap.get("result") or {}
            # Byte-identical bodies: an answer equal to one already checked
            # needs no second feasibility check.
            if seen.get(req.name) == result.get("assignment") and snap.get("via") == "cache":
                load.checker.check_same(req.name, "repeat makespan",
                                        load.makespans[req.name], float(result["makespan"]))
                return
            if snap.get("via") != "cache":
                load.checker.fail(req.name, f"expected a cache hit, got {snap.get('via')}")
            if load.check(req, snap) is not None:
                seen[req.name] = result["assignment"]

        return {"wall": closed_loop(CLIENTS, op, seconds)}

    return Workload(
        deploy=lambda traced, cpus: daemon("warm", [], traced, cpus),
        prime=prime, drive=drive,
    )


def cold_solve(ctx: RunContext) -> Workload:
    reqs = inputs.cold_requests(ctx.seed)

    def drive(dep: Deployment, load: Load, seconds: float) -> dict[str, Any]:
        passes = []
        t_start = _perf()
        # Whole passes only; a pass that starts after half the run does
        # not (a pass is most of a run, so this keeps runs near --seconds).
        while not passes or _perf() - t_start < seconds / 2:
            t0 = _perf()
            for req in reqs:
                load.solve(dep.client, 0, req)
            passes.append(_perf() - t0)
        return {"wall": _perf() - t_start, "passes": passes}

    return Workload(
        # Capacity 1: the stream never repeats an instance back to back, so
        # every request of every pass misses and is solved afresh.
        deploy=lambda traced, cpus: daemon("cold", ["--cache-capacity", "1"], traced, cpus),
        prime=lambda dep, load: None, drive=drive,
        after=lambda dep: {"daemon.expanded": _metrics(dep)["latency"]["solve_expansions"]["sum"]},
    )


def fleet_mixed(ctx: RunContext) -> Workload:
    pool = inputs.fleet_pool(ctx.seed)

    def prime(dep: Deployment, load: Load) -> None:
        for req in pool:
            load.solve(dep.client, 0, req)

    def drive(dep: Deployment, load: Load, seconds: float) -> dict[str, Any]:
        streams = [inputs.fleet_ops(ctx.seed, tid) for tid in range(CLIENTS)]

        def op(tid: int, i: int) -> None:
            kind, r = next(streams[tid])
            if kind == "fresh":
                load.solve(dep.client, tid, inputs.fleet_fresh(ctx.seed, tid, i))
            elif kind == "burst":
                burst(tid, inputs.fleet_fresh(ctx.seed, tid, i))
            elif kind == "repeat":
                load.solve(dep.client, tid, r.choice(pool))
            else:
                twin = inputs.fleet_relabelled(r.choice(pool), r)
                load.solve(dep.client, tid, twin)

        def burst(tid: int, req: inputs.Request) -> None:
            # Fire, then ask again and wait: the second request rides the
            # first as a dedupe follower (or hits the cache if it finished).
            got = load.call(dep.client, tid, "POST", "/v1/solve",
                            {**req.body, "wait": False}, req.name)
            if got is None:
                return
            job_id = got[1]["id"]
            load.solve(dep.client, tid, req)
            while True:
                polled = load.call(dep.client, tid, "GET", f"/v1/jobs/{job_id}", None, req.name)
                if polled is None or polled[1].get("status") in ("done", "failed"):
                    break
                time.sleep(0.001)
            if polled is not None:
                load.check(req, polled[1])

        return {"wall": closed_loop(CLIENTS, op, seconds)}

    return Workload(
        deploy=lambda traced, cpus: fleet(ctx.seed, traced, cpus),
        prime=prime, drive=drive,
        after=lambda dep: {"router.failovers": _metrics(dep)["routing"]["failovers"]},
    )


def _metrics(dep: Deployment) -> dict[str, Any]:
    """The front-end's ``GET /metrics`` (filed as a probe, not a request)."""
    status, data = dep.client.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return data


WORKLOADS = {"warm-hit": warm_hit, "cold-solve": cold_solve, "fleet-mixed": fleet_mixed}


# -- timed run -----------------------------------------------------------------


def _set_up(wl: Workload, load: Load, traced: bool,
            cpus: set[int] | None) -> tuple[Deployment, float]:
    t0 = _perf()
    dep = wl.deploy(traced, cpus)
    try:
        wl.prime(dep, load)
    except BaseException:
        dep.stop()
        raise
    return dep, _perf() - t0


def timed(ctx: RunContext, checker: Checker) -> tuple[dict[str, float], Load]:
    """The untraced run: end-to-end metrics only."""
    with load_affinity(ctx.workload in PINNED) as cpus:
        return _timed(ctx, checker, cpus)


def _timed(ctx: RunContext, checker: Checker,
           cpus: set[int] | None) -> tuple[dict[str, float], Load]:
    t_inputs = _perf()
    wl = WORKLOADS[ctx.workload](ctx)
    inputs_s = _perf() - t_inputs
    setups = []
    for i in range(SETUPS[ctx.workload]):
        load = Load(checker)
        dep, setup_s = _set_up(wl, load, False, cpus)
        setups.append(inputs_s + setup_s)
        if i < SETUPS[ctx.workload] - 1:
            dep.stop()
    load = load.measured()
    try:
        out = wl.drive(dep, load, ctx.seconds)
        rss = dep.peak_rss_mb()
    finally:
        dep.stop()
    samples = load.samples()
    if not samples:
        raise RuntimeError("no request was answered")
    passes = out.get("passes") or [out["wall"]]
    tail_label, tail = tail_quantile(samples)
    ctx.note(f"requests answered: {len(samples)} in {out['wall']:.3f} s, via {load.via}")
    ctx.note(f"latency {tail_label}: {tail * 1e3:.3f} ms (of {len(samples)} samples)")
    ctx.note(f"setups (s): {', '.join(f'{s:.3f}' for s in setups)}")
    ctx.note("answers: " + ", ".join(f"{k} {v:.4f}" for k, v in quality_metrics(load).items()))
    if ctx.workload == "cold-solve":
        ctx.note(f"passes of {len(inputs.cold_requests(ctx.seed))} requests (s): "
                 + ", ".join(f"{p:.3f}" for p in passes))
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": quantile(samples, 0.5) * 1e3,
        "throughput_rps": len(samples) / sum(passes),
        "peak_rss_mb": rss,
    }, load


# -- traced run ----------------------------------------------------------------


def traced(ctx: RunContext, checker: Checker) -> tuple[dict[str, float], Load]:
    """Untraced reference, then the same load with every layer wrapped."""
    with load_affinity(ctx.workload in PINNED) as cpus:
        return _traced(ctx, checker, cpus)


def _traced(ctx: RunContext, checker: Checker,
            cpus: set[int] | None) -> tuple[dict[str, float], Load]:
    wl = WORKLOADS[ctx.workload](ctx)
    ref = Load(checker)
    dep, _ = _set_up(wl, ref, False, cpus)
    ref = ref.measured()
    try:
        wl.drive(dep, ref, ctx.seconds / 2)
    finally:
        dep.stop()
    ref_samples = ref.samples()
    untraced_ms = sum(ref_samples) * 1e3 / len(ref_samples) if ref_samples else 0.0

    load = Load(checker)
    dep, _ = _set_up(wl, load, True, cpus)
    # Spans count only the measured load, not the priming.
    try:
        for proc in dep.procs:
            proc.reset_spans()
    except BaseException:
        dep.stop()
        raise
    load = load.measured()
    recorder = layers.Recorder()
    try:
        with layers.Installer(recorder) as inst:
            layers.client_targets(inst)
            wl.drive(dep, load, ctx.seconds)
        counters = wl.after(dep)
    finally:
        rows = dep.stop()
    metrics = ledger(ctx, recorder.snapshot(), rows, load)
    metrics["ledger.untraced_e2e_ms"] = untraced_ms
    metrics["ledger.overhead_ms"] = metrics["ledger.e2e_ms"] - untraced_ms
    metrics.update(quality_metrics(load))
    metrics.update(counters)
    return metrics, load


def ledger(ctx: RunContext, client_rows: list[dict[str, Any]],
           server_rows: list[dict[str, Any]], load: Load) -> dict[str, float]:
    """Per-request layer self times (ms) that add up to the traced latency.

    Parts nest as the request does: the client's own time around the
    front-end's handling (residual = socket, connect, kernel), the front
    end's layers, and, for a router, the shard's handling inside the
    forward.  A waited-for solve's time inside the daemon's handler is
    split by the job snapshot: queue wait, then worker seconds, pool
    dispatch and completion.
    """
    client = layers.merge_rows(client_rows, {"client.request"})
    n = client["client.request"]["calls"]
    srv = layers.merge_rows(server_rows, {"server.handle", "jobs.complete", "router.handle"})
    front = "router.handle" if "router.handle" in srv else "server.handle"
    if srv.get(front, {}).get("calls") != n:
        ctx.note(f"ledger: {n} client requests but {srv.get(front, {}).get('calls')} "
                 f"{front} spans")

    def ms(layer: str, kind: str = "self_s") -> float:
        return srv.get(layer, {}).get(kind, 0.0) * 1e3 / n

    jobs_ms = {k: v * 1e3 / n for k, v in load.jobs.items()}
    shard_handle = ms("server.handle", "total_s")
    front_total = ms(front, "total_s")
    parts: dict[str, float] = {
        "client.encode_ms": client.get("client.encode", {}).get("self_s", 0.0) * 1e3 / n,
        "client.decode_ms": client.get("client.decode", {}).get("self_s", 0.0) * 1e3 / n,
        "ledger.residual_ms": client["client.request"]["self_s"] * 1e3 / n - front_total,
        "httpwire.read_ms": ms("httpwire.read"),
        "server.json_parse_ms": ms("server.json_parse"),
        "router.json_ms": ms("router.json"),
        "batch.graph_build_ms": ms("batch.graph_build"),
        "fingerprint.ms": ms("fingerprint.order") + ms("fingerprint.hash"),
        "jobs.prepare_ms": ms("jobs.prepare"),
        "jobs.cache_hop_ms": ms("jobs.cache_lookup"),
        "cache.get_ms": ms("cache.get"),
        "jobs.admit_ms": ms("jobs.admit"),
        "jobs.finish_ms": ms("jobs.finish"),
        "httpwire.render_ms": ms("httpwire.render"),
        "httpwire.deliver_ms": ms("httpwire.deliver"),
        "server.unattributed_ms": (
            ms("server.handle")
            - jobs_ms["queue_wait"] - jobs_ms["run"] - jobs_ms["dedup_wait"]
        ),
        "jobs.queue_wait_ms": jobs_ms["queue_wait"],
        "jobs.dedup_wait_ms": jobs_ms["dedup_wait"],
        "worker.solve_ms": jobs_ms["seconds"],
        "pool.dispatch_ms": (
            jobs_ms["run"] - jobs_ms["seconds"] - ms("jobs.complete", "total_s")
        ),
        "jobs.complete_ms": ms("jobs.complete"),
        "cache.put_ms": ms("cache.put"),
        "router.routing_key_ms": ms("router.routing_key"),
        "router.forward_ms": ms("router.forward"),
        "router.shard_rtt_ms": (
            ms("httpwire.fetch", "total_s") - shard_handle
            if front == "router.handle" else 0.0
        ),
        "router.unattributed_ms": ms("router.handle"),
    }
    samples = load.samples()
    e2e = sum(samples) * 1e3 / len(samples)
    total = sum(load.via.values()) or 1
    return {
        **parts,
        "fingerprint.calls_per_request": srv.get("fingerprint.hash", {}).get("calls", 0) / n,
        "cache.hit_frac": load.via.get("cache", 0) / total,
        "jobs.dedup_frac": load.via.get("dedup", 0) / total,
        "ledger.e2e_ms": e2e,
        "ledger.closure": sum(parts.values()) / e2e,
    }
