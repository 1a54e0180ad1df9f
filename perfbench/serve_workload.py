"""The ``serve-mixed`` workload: open-loop HTTP load on the daemon.

The daemon runs as a subprocess (``python -m repro.serve --port 0
--warm megatron-1t``), so the load generator never shares its
interpreter lock; it is pinned to one CPU and the load threads to
another (``DAEMON_CPUS``, ``LOAD_CPUS``).  Load comes from this process: two threads, each
holding one keep-alive connection, send requests at fixed due times
for every rate of ``LADDER`` in turn, regardless of how earlier
requests fared (an open loop).  Each request is timed from when it was
due, so a stall also counts against the requests queued behind it.

The request mix, drawn from the seed with the weights of ``MIX``.
Those weights are an assumption (no client pattern in the repository
fixes them), so the gated latency is the hot class's alone and the
other classes are printed apart:

- hot: three mappings on each of ``HOT_KEYS``, four group keys that
  stay resident in the daemon's compile cache;
- cold: one mapping per group key of zoo x ``COLD_NODES`` x
  ``COLD_BATCHES`` (120 keys, far more than the cache's 8 entries), so
  misses recur;
- reject: malformed JSON, an unknown model, tp*pp*dp different from
  the accelerator count, and a TP degree that does not divide the head
  count, each with its expected status and error code.

Every 200 must carry the ``batch_time_s`` the library computes on the
``per_layer`` path (within ``REL_TOLERANCE``), every reject its
expected status and code.

The gated times are corrected for the host's momentary speed: a
``SpeedMonitor`` process probes it every 0.2 s during the load, and the
set-up is probed before each daemon start (see ``SpeedGauge``).  The
raw figures are printed.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import (
    Report,
    SpeedGauge,
    SpeedMonitor,
    Spans,
    median,
    percentile,
    process_hwm_mb,
    quartile_spread,
    timing_summary,
)

from repro.core.model import AMPeD
from repro.errors import RequestValidationError
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.parallelism.spec import spec_from_totals
from repro.search.dse import evaluate_candidate
from repro.search.shm import leaked_segment_names
from repro.serve.lifecycle import system_for
from repro.serve.validation import EstimateRequest, parse_estimate_request
from repro.transformer.zoo import MODELS

ROOT = Path(__file__).resolve().parent.parent

#: Offered rates, requests per second, each with its share of the
#: run's seconds.  The nominal rate gives ``latency_p50_ms``; it sits
#: far enough below capacity that a slower host lengthens requests
#: without building a backlog.  The last rate is past the daemon's
#: capacity, so ``serve_max_rps`` has a rate to miss.
LADDER = ((200, 0.5), (400, 0.15), (800, 0.2), (1600, 0.15))
RATES = tuple(rate for rate, _ in LADDER)
NOMINAL_RATE = 200

#: A rate passes when its p99 (failed requests count as missing it)
#: stays within this limit and the generator builds no backlog.
LATENCY_LIMIT_MS = 25.0

#: Window over which the wall-clock capacity under overload is
#: counted; the spread of the windows is printed with it.
CAPACITY_WINDOW_S = 0.5

#: Backlog: the median lag of the last tenth of a rate's requests
#: behind their due times exceeds half the latency limit.
BACKLOG_LAG_MS = LATENCY_LIMIT_MS / 2

#: Share of each request class.  An assumption: mostly repeated
#: what-if questions on a few resident configurations, some
#: exploration of new ones, and a few malformed or infeasible asks.
MIX = (("hot", 0.75), ("cold", 0.15), ("reject", 0.10))
HOT_KEYS = (("megatron-1t", 16, 2048), ("gpt3-175b", 16, 2048),
            ("megatron-145b", 32, 512), ("megatron-18b", 16, 512))
HOT_MAPPINGS = 3
COLD_NODES = (16, 32, 64, 128)
COLD_BATCHES = (512, 2048)

#: With two or more CPUs the daemon runs on the last one and the load
#: threads on the first, so which thread wakes on which CPU does not
#: change from run to run.  Left unpinned, the hot p50 flipped between
#: about 0.84 and 0.98 ms from one run to the next.
_CPUS = sorted(os.sched_getaffinity(0))
DAEMON_CPUS = set(_CPUS[-1:]) if len(_CPUS) > 1 else set(_CPUS)
LOAD_CPUS = set(_CPUS[:1]) if len(_CPUS) > 1 else set(_CPUS)

REL_TOLERANCE = 1e-9
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 10.0
SETUP_REPEATS = 5
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


@dataclass
class Probe:
    """One request body and what a correct daemon answers."""

    kind: str
    body: bytes
    status: int
    #: ``batch_time_s`` of a 200, the error ``code`` otherwise.
    expect: object


@dataclass
class Sample:
    probe: Probe
    rate: int
    due: float
    sent: float = 0.0
    ended: float = 0.0
    status: int = 0
    failed: bool = False
    wrong: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.due) * 1e3


def _library_time(model: str, nodes: int, batch: int, tp: int, pp: int,
                  dp: int) -> Optional[float]:
    """The ``per_layer`` batch time the daemon should return, or
    ``None`` when the library rejects the mapping."""
    request = EstimateRequest(model=model, nodes=nodes, batch=batch,
                              tp=tp, pp=pp, dp=dp)
    system = system_for(request)
    try:
        spec = spec_from_totals(system, tp=tp, pp=pp, dp=dp)
    except Exception:  # noqa: BLE001 — any rejection means "not usable"
        return None
    template = AMPeD.for_mapping(
        MODELS[model], system, dp=system.n_accelerators,
        efficiency=CASE_STUDY_EFFICIENCY, evaluation_path="per_layer")
    outcome = evaluate_candidate(template, spec, batch,
                                 tune_microbatches=False)
    return outcome.result.batch_time_s if outcome.evaluated else None


def _estimates(rng: random.Random, model: str, nodes: int, batch: int,
               count: int) -> List[Probe]:
    """``count`` seeded feasible mappings of one group key."""
    config = MODELS[model]
    total = nodes * 8
    options = [(tp, pp) for tp in (1, 2, 4, 8) for pp in (1, 2, 4, 8, 16)
               if config.n_heads % tp == 0 and pp <= config.n_layers
               and total % (tp * pp) == 0]
    rng.shuffle(options)
    probes = []
    for tp, pp in options:
        dp = total // (tp * pp)
        expect = _library_time(model, nodes, batch, tp, pp, dp)
        if expect is None:
            continue
        body = json.dumps({"model": model, "nodes": nodes, "batch": batch,
                           "tp": tp, "pp": pp, "dp": dp}).encode()
        probes.append(Probe("", body, 200, expect))
        if len(probes) == count:
            break
    return probes


def build_probes(seed: int) -> Dict[str, List[Probe]]:
    """The hot, cold and reject request pools, with expected answers."""
    rng = random.Random(seed)
    hot = []
    for model, nodes, batch in HOT_KEYS:
        hot.extend(_estimates(rng, model, nodes, batch, HOT_MAPPINGS))
    cold = []
    for model in sorted(MODELS):
        for nodes in COLD_NODES:
            for batch in COLD_BATCHES:
                cold.extend(_estimates(rng, model, nodes, batch, 1))
    reject = []
    for nodes in COLD_NODES:
        reject.extend([
            Probe("", b'{"model": "megatron-1t", "nodes": %d,' % nodes,
                  400, "invalid_json"),
            Probe("", json.dumps({"model": "megatron-2t",
                                  "nodes": nodes}).encode(),
                  400, "invalid_value"),
            Probe("", json.dumps({"model": "megatron-1t", "nodes": nodes,
                                  "tp": 8, "pp": 2, "dp": 2}).encode(),
                  422, "mapping_infeasible"),
            # mingpt-85m has 12 heads: TP=8 fits the node, not the
            # model.  Batch 1024 keeps its group key apart from every
            # valid request: the daemon answers a whole coalesced group
            # 422 when one of its requests is rejected (see NOTES.md).
            Probe("", json.dumps({"model": "mingpt-85m", "nodes": nodes,
                                  "batch": 1024, "tp": 8, "pp": 1,
                                  "dp": nodes}).encode(),
                  422, "evaluation_rejected"),
        ])
    pools = {"hot": hot, "cold": cold, "reject": reject}
    for kind, pool in pools.items():
        for probe in pool:
            probe.kind = kind
    return pools


def build_schedule(pools: Dict[str, List[Probe]], seed: int,
                   seconds: float, start: float) -> List[Sample]:
    """Every request of the run: the rates in order, evenly spaced."""
    rng = random.Random(seed + 1)
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    samples = []
    offset = start
    for rate, share in LADDER:
        span_s = seconds * share
        for index in range(int(rate * span_s)):
            kind = rng.choices(kinds, weights)[0]
            probe = rng.choice(pools[kind])
            samples.append(Sample(probe, rate, offset + index / rate))
        offset += span_s
    return samples


class Daemon:
    """A ``python -m repro.serve`` subprocess and its address."""

    def __init__(self, log_path: Path) -> None:
        env_path = str(ROOT / "src")
        self.log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--warm", "megatron-1t", "--log-level", "warning"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=self.log,
            env={**os.environ, "PYTHONPATH": env_path},
            preexec_fn=_pin(DAEMON_CPUS))
        line = self.process.stdout.readline().decode()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/readyz`` answers 200."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        connection = self.connect()
        try:
            while time.perf_counter() < deadline:
                connection.request("GET", "/readyz")
                reply = connection.getresponse()
                reply.read()
                if reply.status == 200:
                    return time.perf_counter() - self.started
                time.sleep(0.005)
        finally:
            connection.close()
        raise RuntimeError("daemon never became ready")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the daemon has used so far."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def metrics(self) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> Tuple[Optional[int], float]:
        """SIGTERM, then SIGKILL after ``STOP_TIMEOUT_S``; returns the
        exit code (``None`` if it had to be killed) and the seconds the
        drain took.  Callers close their connections first: an idle
        keep-alive connection holds the drain open."""
        started = time.perf_counter()
        code: Optional[int] = None
        try:
            self.process.send_signal(signal.SIGTERM)
            code = self.process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()
            self.log.close()
        return code, time.perf_counter() - started


def _check(sample: Sample, payload: bytes) -> None:
    """Mark ``sample`` failed or wrong from its reply."""
    probe = sample.probe
    if sample.status != probe.status:
        sample.failed = True
        sample.wrong = f"status {sample.status}, expected {probe.status}"
        return
    try:
        body = json.loads(payload)
    except ValueError:
        sample.failed = True
        sample.wrong = "reply is not JSON"
        return
    if probe.status == 200:
        got = body.get("batch_time_s")
        if not isinstance(got, float) or abs(got - probe.expect) > \
                REL_TOLERANCE * abs(probe.expect):
            sample.failed = True
            sample.wrong = f"batch_time_s {got!r}, expected " \
                           f"{probe.expect!r}"
    elif body.get("error", {}).get("code") != probe.expect:
        sample.failed = True
        sample.wrong = f"code {body.get('error')!r}, expected " \
                       f"{probe.expect!r}"


def _drive(daemon: Daemon, samples: List[Sample]) -> None:
    """One load thread: send each sample at its due time on one
    keep-alive connection."""
    connection = daemon.connect()
    try:
        for sample in samples:
            wait = sample.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sample.sent = time.perf_counter()
            try:
                connection.request(
                    "POST", "/v1/estimate", body=sample.probe.body,
                    headers={"Content-Type": "application/json"})
                reply = connection.getresponse()
                payload = reply.read()
                sample.ended = time.perf_counter()
                sample.status = reply.status
                _check(sample, payload)
            except (OSError, http.client.HTTPException) as error:
                sample.ended = time.perf_counter()
                sample.failed = True
                sample.wrong = f"{type(error).__name__}: {error}"
                connection.close()
                connection = daemon.connect()
    finally:
        connection.close()


def _pin(cpus):
    """A ``preexec_fn`` that confines the child to ``cpus``."""
    return lambda: os.sched_setaffinity(0, cpus)


def run_load(daemon: Daemon, samples: List[Sample]) -> None:
    """Drive ``samples`` over ``CONNECTIONS`` threads and wait for them.

    The generator's own garbage collection is off while it runs, so a
    collection pass in this process cannot delay a send."""
    gc.collect()
    gc.freeze()
    gc.disable()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, LOAD_CPUS)
    threads = [threading.Thread(target=_drive,
                                args=(daemon, samples[k::CONNECTIONS]),
                                name=f"load-{k}")
               for k in range(CONNECTIONS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        os.sched_setaffinity(0, allowed)
        gc.enable()
        gc.unfreeze()


def rate_passes(samples: List[Sample]) -> Tuple[bool, float, float]:
    """``(passes, p99_ms, backlog_lag_ms)`` of one rate's samples."""
    latencies = [float("inf") if s.failed else s.latency_ms
                 for s in samples]
    p99 = percentile(latencies, 99)
    tail = samples[-max(1, len(samples) // 10):]
    lag = median([(s.sent - s.due) * 1e3 for s in tail])
    return (p99 <= LATENCY_LIMIT_MS and lag <= BACKLOG_LAG_MS), p99, lag


def _delta(after: dict, before: dict, kind: str, name: str) -> float:
    """Change of one ``/metrics`` counter or gauge over the load."""
    return after[kind].get(name, 0.0) - before[kind].get(name, 0.0)


def run_serve_workload(seed: int, seconds: float, traced: bool,
                       report: Report) -> Spans:
    """Run ``serve-mixed`` and fill ``report``; returns the spans."""
    pools = build_probes(seed)
    report.note("request pools: " + ", ".join(
        f"{kind} {len(pool)}" for kind, pool in pools.items()))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    log_path = out_dir / f"daemon-seed{seed}.log"
    gauge = SpeedGauge()
    setups = []
    for attempt in range(SETUP_REPEATS):
        probe = gauge.probe()
        daemon = Daemon(log_path)
        try:
            setups.append((daemon.wait_ready(), probe, gauge.probe()))
        except BaseException:
            daemon.stop()
            raise
        if attempt < SETUP_REPEATS - 1:
            daemon.stop()
    report.note("daemon set-up (spawn to /readyz 200): "
                + ", ".join(f"{value:.3f} s" for value, _, _ in setups))

    spans = Spans(traced)
    monitor = None
    try:
        monitor = SpeedMonitor()
        # Warm the hot group keys once, as a long-running daemon is.
        warm = [Sample(probe, 0, 0.0) for probe in pools["hot"]]
        run_load(daemon, warm)
        for sample in warm:
            if sample.failed:
                report.error(f"warm-up request {sample.probe.body!r}: "
                             f"{sample.wrong}")
        before = daemon.metrics()
        samples = build_schedule(pools, seed, seconds,
                                 time.perf_counter() + 0.05)
        cpu_before = daemon.cpu_seconds()
        load_started = time.perf_counter()
        run_load(daemon, samples)
        load_ended = time.perf_counter()
        cpu_s = daemon.cpu_seconds() - cpu_before
        after = daemon.metrics()
        peak_mb = process_hwm_mb(daemon.process.pid)
    finally:
        if monitor is not None:
            monitor.stop()
        code, drain_s = daemon.stop()
    report.note(f"daemon exit code {code} after a {drain_s:.3f} s drain")
    if code != 0:
        report.error(f"daemon did not drain cleanly (exit {code})")
    leaked = leaked_segment_names()
    if leaked:
        report.error(f"shared-memory segments left behind: {leaked}")

    report.attempted = len(samples)
    report.failed = sum(s.failed for s in samples)
    for sample in samples:
        if sample.wrong and sample.status in (200, 400, 422):
            report.error(f"{sample.probe.kind} request "
                         f"{sample.probe.body[:80]!r}: {sample.wrong}")
            break
    by_rate = {rate: [s for s in samples if s.rate == rate]
               for rate in RATES}
    max_rps = 0
    for rate, group in by_rate.items():
        passes, p99, lag = rate_passes(group)
        failed = sum(s.failed for s in group)
        report.note(f"rate {rate}/s: "
                    f"{timing_summary([s.latency_ms for s in group])}; "
                    f"p99 {p99:.3f} ms, tail lag {lag:.3f} ms, "
                    f"{failed} failed: "
                    f"{'meets' if passes else 'misses'} the "
                    f"{LATENCY_LIMIT_MS:g} ms limit")
        if passes:
            max_rps = rate
    report.note(f"serve_max_rps = {max_rps} 1/s (the highest rate "
                f"meeting the limit without a backlog)")
    capacity, windows = overload_capacity(by_rate[RATES[-1]])
    answered = sum(not s.failed for s in samples)
    report.note(f"capacity under {RATES[-1]}/s, wall clock, not gated: "
                f"{capacity:.1f} requests/s; per "
                f"{CAPACITY_WINDOW_S:g} s window median "
                f"{median(windows):.1f}, IQR "
                f"{100 * quartile_spread(windows):.1f} % of it "
                f"(n={len(windows)} windows)")
    report.note(f"daemon CPU {cpu_s:.2f} s for {answered} answered "
                f"requests, prewarm compiles included "
                f"({answered / cpu_s:.1f} per raw CPU-second)")
    report.note(f"daemon degradation rung after the load: "
                f"{after['gauges'].get('serve.degradation_rung')} "
                f"(0 = vectorized)")
    nominal = by_rate[NOMINAL_RATE]
    nominal_ms = [s.latency_ms for s in nominal]
    nominal_failed = sum(s.failed for s in nominal)
    report.note(f"serve_p50_ms, serve_p99_ms at the nominal "
                f"{NOMINAL_RATE}/s: {timing_summary(nominal_ms)}")
    by_class = {kind: [s.latency_ms for s in nominal
                       if s.probe.kind == kind] for kind, _ in MIX}
    for kind, latencies in by_class.items():
        report.note(f"{kind} at {NOMINAL_RATE}/s: "
                    f"{timing_summary(latencies)}")
    report.note(f"set-up {gauge.summary()}; load "
                f"{monitor.gauge.summary()}")
    report.note(f"error_pct = "
                f"{100.0 * nominal_failed / len(nominal):.4g} % at the "
                f"nominal {NOMINAL_RATE}/s ({nominal_failed} of "
                f"{len(nominal)}); {report.failed} of {len(samples)} "
                f"failed over every rate")
    if nominal_failed:
        report.error(f"{nominal_failed} requests failed at the nominal "
                     f"rate")

    if not traced:
        speed = monitor.gauge
        hot_ms = [speed.corrected(s.latency_ms, speed.nearest(s.due))
                  for s in nominal if s.probe.kind == "hot"]
        report.metric("setup_s", median([
            gauge.corrected(*reading) for reading in setups]),
            "s", f"median of {len(setups)} corrected daemon start-ups")
        report.metric("peak_rss_mb", peak_mb, "MB", "daemon VmHWM")
        corrected_cpu_s = speed.corrected_span(cpu_s, load_started,
                                               load_ended)
        report.metric("throughput_per_cpu_s", answered / corrected_cpu_s,
                      "1/s", f"requests answered per corrected daemon "
                      f"CPU-second (a CPU cost, not capacity), "
                      f"n={answered}")
        report.metric("latency_p50_ms", percentile(hot_ms, 50), "ms",
                      f"corrected hot-class serve_p50_ms at "
                      f"{NOMINAL_RATE}/s, n={len(hot_ms)}")
        return spans

    _layer_metrics(samples, nominal, by_class, before, after, spans,
                   report)
    return spans


def overload_capacity(overload: List[Sample]) -> Tuple[float,
                                                       List[float]]:
    """Answered requests per wall second under the overload rate, from
    its first send (so a backlog left by the previous rate does not
    count against it) to its last reply; and the same per
    ``CAPACITY_WINDOW_S`` window, last partial window left out."""
    first = min(s.sent for s in overload)
    last = max(s.ended for s in overload)
    answered = [s.ended for s in overload if not s.failed]
    counts = [0] * max(1, int((last - first) / CAPACITY_WINDOW_S))
    for ended in answered:
        slot = int((ended - first) / CAPACITY_WINDOW_S)
        if slot < len(counts):
            counts[slot] += 1
    return (len(answered) / (last - first),
            [count / CAPACITY_WINDOW_S for count in counts])


def _layer_metrics(samples: List[Sample], nominal: List[Sample],
                   by_class: Dict[str, List[float]], before: dict,
                   after: dict, spans: Spans, report: Report) -> None:
    for op, sample in enumerate(samples):
        root = spans.add("request", sample.due, sample.ended, op,
                         kind=sample.probe.kind, status=sample.status,
                         rate=sample.rate)
        spans.add("loadgen.wait", sample.due, sample.sent, op, root)
        spans.add("http", sample.sent, sample.ended, op, root)

    admitted = [s for s in samples if s.status not in (0, 400)]
    histogram = "serve.request_seconds"
    count = (after["histograms"][histogram]["count"]
             - before["histograms"][histogram]["count"])
    server_ms = 0.0
    if count:
        server_ms = 1e3 * (after["histograms"][histogram]["sum"]
                           - before["histograms"][histogram]["sum"]) / count
    client_ms = (sum((s.ended - s.sent) for s in admitted) * 1e3
                 / max(1, len(admitted)))
    requests = _delta(after, before, "counters", "serve.requests")

    # Replay: the daemon's request validation on the same bodies.
    started = time.perf_counter()
    for op, sample in enumerate(samples):
        begin = time.perf_counter()
        try:
            parse_estimate_request(sample.probe.body)
        except RequestValidationError:
            pass
        spans.add("serve.validation", begin, time.perf_counter(), op,
                  replay=True)
    validation_us = (time.perf_counter() - started) * 1e6 / len(samples)

    hot = by_class["hot"]
    cold = by_class["cold"]
    values = {
        "serve.hot_p50_ms": (percentile(hot, 50), "ms"),
        "serve.hot_p99_ms": (percentile(hot, 99), "ms"),
        "serve.cold_p50_ms": (percentile(cold, 50), "ms"),
        "serve.cold_p99_ms": (percentile(cold, 99), "ms"),
        "serve.reject_p50_ms": (percentile(by_class["reject"], 50),
                                "ms"),
        "serve.server_ms": (server_ms, "ms"),
        "serve.transport_ms": (client_ms - server_ms, "ms"),
        "serve.validation_us": (validation_us, "us"),
        "serve.coalesced_ratio": (_delta(after, before, "counters",
                                         "serve.coalesced")
                                  / max(1.0, requests), "ratio"),
        "serve.shed": (_delta(after, before, "counters", "serve.shed"),
                       "count"),
        "serve.deadline_hits": (_delta(after, before, "counters",
                                       "serve.deadline_hits"), "count"),
        "serve.compiled_builds": (_delta(after, before, "gauges",
                                         "cache.compiled.builds"),
                                  "count"),
        "serve.prewarm_built": (_delta(after, before, "counters",
                                       "serve.prewarm.built"), "count"),
        "loadgen.lag_p99_ms": (percentile(
            [(s.sent - s.due) * 1e3 for s in nominal], 99), "ms"),
        "trace.residual_ratio": ((client_ms - server_ms) / client_ms
                                 if client_ms else 0.0, "ratio"),
    }
    for name, (value, unit) in values.items():
        report.metric(name, value, unit)
