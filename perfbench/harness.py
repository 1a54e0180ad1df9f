"""Shared pieces of the benchmark: percentiles, spans, memory, output.

Nothing here imports the program under test, so ``run.py`` can report
a missing source tree before it touches ``repro``.
"""

from __future__ import annotations

import bisect
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy

#: Percentiles a timing may be summarised by, highest last.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n_samples: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least
    :data:`TAIL_SAMPLES` samples beyond it, or ``None``."""
    best = None
    for pct in PERCENTILES:
        if n_samples * (1.0 - pct / 100.0) >= TAIL_SAMPLES:
            best = pct
    return best


def timing_summary(values_ms: Sequence[float]) -> str:
    """``p50 ... / pXX ... (n=...)`` for a list of millisecond timings."""
    n = len(values_ms)
    if n == 0:
        return "no samples"
    text = f"p50 {percentile(values_ms, 50):.4f} ms"
    tail = supported_percentile(n)
    if tail is not None and tail > 50:
        text += f", p{tail:g} {percentile(values_ms, tail):.4f} ms"
    return text + f" (n={n})"


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of every child it
    has reaped.  Time the host steals from a virtual machine is not
    charged to a process; contention for the physical cores is (see
    :class:`SpeedGauge`)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: The speed probe's work: a pure-Python loop and a few array passes,
#: the two kinds of work the program does (about 1.5 ms in all).
PROBE_LOOP = 15000
PROBE_ARRAY = numpy.linspace(1.0, 2.0, 4096)
PROBE_ROUNDS = 40

#: CPU seconds the probe takes on a quiet 2-vCPU x86-64 VM.  Corrected
#: times are expressed at that speed; the value only scales them.
PROBE_REFERENCE_S = 1.5e-3


def _probe_work() -> float:
    total = 0
    for index in range(PROBE_LOOP):
        total += index * index % 7
    for _ in range(PROBE_ROUNDS):
        values = numpy.exp(PROBE_ARRAY) * PROBE_ARRAY + numpy.sqrt(
            PROBE_ARRAY)
        total += int(values.argmin())
    return total


class SpeedGauge:
    """Corrects CPU times for the host's momentary speed.

    On a shared virtual machine the same work can take 60 % more CPU
    time while other guests contend for the physical cores and caches;
    the kernel charges that to the process, not to steal time.  The
    gauge times a fixed probe, which calls nothing of the program under
    test, just before and just after each measured operation.
    :meth:`corrected` scales the operation's time by
    ``PROBE_REFERENCE_S`` over the mean of those probes: the time the
    operation would have taken on a host where the probe runs at its
    reference speed.
    """

    def __init__(self) -> None:
        #: ``perf_counter`` when each probe started, in order.
        self.times: List[float] = []
        self.probes: List[float] = []

    def probe(self) -> int:
        """Time the probe once; returns the handle of this reading."""
        moment = time.perf_counter()
        started = cpu_seconds()
        _probe_work()
        self.times.append(moment)
        self.probes.append(cpu_seconds() - started)
        return len(self.probes) - 1

    def nearest(self, moment: float) -> int:
        """Handle of the reading taken closest to ``moment``."""
        index = bisect.bisect_left(self.times, moment)
        if index == len(self.times) or (
                index and moment - self.times[index - 1]
                < self.times[index] - moment):
            index -= 1
        return index

    def corrected(self, seconds: float, *handles: int) -> float:
        """``seconds`` at the reference speed, from the readings
        ``handles`` taken around them."""
        return seconds * PROBE_REFERENCE_S / statistics.fmean(
            self.probes[handle] for handle in handles)

    def corrected_span(self, seconds: float, start: float,
                       end: float) -> float:
        """``seconds`` spent between ``start`` and ``end``, corrected by
        the median reading of that stretch."""
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_right(self.times, end)
        return seconds * PROBE_REFERENCE_S / median(
            self.probes[first:last] or self.probes)

    def summary(self) -> str:
        probes_ms = [probe * 1e3 for probe in self.probes]
        return (f"speed probe {timing_summary(probes_ms)}, reference "
                f"{PROBE_REFERENCE_S * 1e3:g} ms")


class SpeedMonitor:
    """Takes :class:`SpeedGauge` readings in a separate process every
    ``MONITOR_INTERVAL_S`` (under 1 % of one core), so a load
    generator's threads never wait for the probe.  The readings fill
    :attr:`gauge` when the monitor stops."""

    MONITOR_INTERVAL_S = 0.2

    def __init__(self) -> None:
        self.gauge = SpeedGauge()
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--monitor",
             str(self.MONITOR_INTERVAL_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def stop(self) -> None:
        """Close the monitor's input, which ends it, and take its
        readings; kill it if it does not answer within 10 s."""
        try:
            output, _ = self.process.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("the speed monitor did not stop")
        readings = json.loads(output)
        self.gauge.times = [moment for moment, _ in readings]
        self.gauge.probes = [seconds for _, seconds in readings]


def _monitor(interval_s: float) -> None:
    """The monitor process: probe every ``interval_s`` until standard
    input closes, then print the readings as JSON."""
    gauge = SpeedGauge()
    closed = threading.Event()

    def wait_for_close() -> None:
        sys.stdin.buffer.read()
        closed.set()

    threading.Thread(target=wait_for_close, daemon=True).start()
    while not closed.wait(interval_s):
        gauge.probe()
    print(json.dumps(list(zip(gauge.times, gauge.probes))), flush=True)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 when fewer than
    two values)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak RSS) of another live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Spans:
    """In-memory span recorder for the traced run.

    A span is ``(name, start, end, parent, op)``: ``op`` identifies the
    sweep or request that caused it.  Recording is a no-op when the
    recorder is disabled, so the untraced run pays one attribute check
    per span.  Spans are recorded from the main thread only; a span's
    id is its index in :attr:`records`.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[dict] = []
        self._epoch = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            op: object, parent: Optional[int] = None,
            **attrs: object) -> Optional[int]:
        """Record a finished span; returns its id (``None`` if off)."""
        if not self.enabled:
            return None
        span_id = len(self.records)
        self.records.append({"id": span_id, "name": name,
                             "start": start, "end": end,
                             "parent": parent, "op": op,
                             "attrs": attrs})
        return span_id

    def end(self, span_id: Optional[int]) -> None:
        """Close a span opened with ``end == start``, at the present."""
        if span_id is not None:
            self.records[span_id]["end"] = time.perf_counter()

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time covered by its
        direct children (children never overlap each other here)."""
        covered: Dict[int, float] = {}
        for record in self.records:
            if record["parent"] is not None:
                covered[record["parent"]] = covered.get(
                    record["parent"], 0.0) + (record["end"]
                                              - record["start"])
        totals: Dict[str, float] = {}
        for record in self.records:
            own = (record["end"] - record["start"]
                   - covered.get(record["id"], 0.0))
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a Chrome trace (``chrome://tracing``)."""
        events = []
        for record in self.records:
            args = {"op": str(record["op"]), "span_id": record["id"],
                    "parent_id": record["parent"]}
            args.update({key: value for key, value in
                         record["attrs"].items()})
            events.append({
                "name": record["name"], "ph": "X", "pid": 1,
                "tid": 1 if record["attrs"].get("replay") else 0,
                "ts": (record["start"] - self._epoch) * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


class Report:
    """Collects the human-readable lines and the metric values of one
    run; :meth:`result_line` renders the final JSON object."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def note(self, text: str) -> None:
        print(f"[{self.workload}] {text}", flush=True)

    def metric(self, name: str, value: float, unit: str,
               detail: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.note(f"{name} = {value:.6g} {unit}"
                  + (f"  [{detail}]" if detail else ""))

    def error(self, text: str) -> None:
        """A correctness failure: printed, and it fails the run."""
        self.errors.append(text)
        print(f"[{self.workload}] CHECK FAILED: {text}", flush=True)

    @property
    def correct(self) -> bool:
        return not self.errors

    def result_line(self) -> str:
        return json.dumps({"correct": self.correct,
                           "attempted": self.attempted,
                           "failed": self.failed,
                           "metrics": self.metrics})


if __name__ == "__main__":
    if sys.argv[1:2] == ["--monitor"]:
        _monitor(float(sys.argv[2]))
