"""The three sweep workloads: ``sweep-crossproduct``, ``sweep-cli`` and
``sweep-pool``.

Every workload is a closed loop with one caller: it calls
``run_sweep`` on one cell after another, in an order drawn from the
seed, until the run's time is up.  A cell is one (model, system,
global batch) sweep; the cell list and every candidate list are built
before timing starts.

Timing.  Sweeps are timed in CPU seconds: this process's, plus those
of the pool workers on ``sweep-pool`` (reaped after every sweep).  On a
shared virtual machine the wall clock also counts the time the host
hands to other guests, and the CPU clock the time lost to contention
for the physical cores; so the gated figures are CPU times corrected
by a ``SpeedGauge`` probe taken before each sweep and each set-up.  The
raw CPU and wall-clock figures are printed, not gated.

Correctness reference.  At set-up each cell's top-10 is computed
without the sweep driver and on the engine the timed sweep does not
run: a cell that resolves to the array path is ranked by the scalar
compiled ``evaluate_candidate`` on every candidate, a scalar cell by
one ``VectorizedSweep.bind`` on a private ``CompiledSweep`` ranked with
``BoundBatch.best_lanes``.  Ties are kept in submission order, as
``run_sweep`` keeps them.  Every timed sweep must return the same
ranking (the digest of its ordered mappings) with batch times within
``REL_TOLERANCE``; after timing, each reference winner is re-evaluated
with ``evaluation_path="per_layer"``.

Traced run.  Around each sweep the benchmark records spans and then
replays the layers on the same inputs: ``enumerate_mappings``; when
the sweep missed the compile cache, a fresh ``CompiledSweep`` build
plus the lazy term-table fills (a ``VectorizedSweep.bind`` on the
fresh instance minus a second, warm bind); and, when the sweep ran the
array path, the warm ``VectorizedSweep.bind`` and
``BoundBatch.best_lanes`` per 4096-candidate chunk, the chunk size
``run_sweep`` uses.  What the replays do not account for is the
driver's self time.  The fresh instance is not seeded from other
cached sweeps as a real build is, so the fill time is an upper bound.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from harness import (
    Report,
    SpeedGauge,
    Spans,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    timing_summary,
)

from repro.core.model import AMPeD
from repro.hardware.catalog import megatron_a100_cluster
from repro.obs.trace import get_tracer
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.search.compiler import (
    CompiledSweep,
    clear_compiled_cache,
    compiled_cache_stats,
)
from repro.search.dse import evaluate_candidate
from repro.search.resilience import run_sweep
from repro.search.shm import leaked_segment_names, shm_stats
from repro.search.vectorized import (
    DEFAULT_CHUNK_CANDIDATES,
    VectorizedSweep,
    resolve_evaluation_path,
    threshold_info,
)
from repro.serve.lifecycle import system_for
from repro.serve.validation import EstimateRequest
from repro.transformer.zoo import MODELS

#: Ranked results every sweep keeps (``amped sweep --top 10``).
TOP_K = 10

#: Relative agreement required between a sweep's batch times, the
#: set-up reference and the ``per_layer`` re-evaluation.
REL_TOLERANCE = 1e-9

#: Cross-product cells get ``ceil(CELL_CANDIDATES / n_mappings)``
#: overlap ratios, so every cell holds at least this many candidates.
#: 512 keeps each cell above the auto-vectorize threshold this source
#: tree resolves (434, fitted from ``BENCH_trajectory.json``), so the
#: whole workload runs the array path.
CELL_CANDIDATES = 512

CROSSPRODUCT_NODES = (32, 64, 128, 256)
CLI_NODES = (16, 32, 64, 128)
GLOBAL_BATCHES = (512, 2048)

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: Seconds to wait for a sweep's pool workers to exit and be reaped,
#: so their CPU time is charged to the sweep that used them.
REAP_TIMEOUT_S = 10.0

#: The traced run fails if the replayed layers exceed the traced wall
#: time by more than this share of it (a negative driver residual
#: beyond this means the replays do not measure what the sweep did).
RESIDUAL_TOLERANCE = 0.10

#: Cells timed with the program's own tracer off and on, twice each,
#: for ``obs.tracer_overhead_ratio`` (more than the compile cache's 8
#: entries, so every sweep builds, as in the main loop).
TRACER_CELLS = 12


@dataclass
class Cell:
    """One sweep: a model on a system at one global batch."""

    model_key: str
    system: object
    global_batch: int
    template: AMPeD
    #: Overlap ratios of a cross-product cell (empty: the sweep
    #: enumerates its own candidates, as ``amped sweep`` does).
    ratios: Tuple[float, ...] = ()
    n_candidates: int = 0
    path: str = ""
    #: The set-up reference: tuned winning mappings and batch times.
    reference: Optional[List[Tuple[object, float]]] = None
    digest: str = ""

    @property
    def label(self) -> str:
        return (f"{self.model_key}@{self.system.n_nodes}n/"
                f"gb{self.global_batch}")

    def candidates(self) -> list:
        """The candidate list the sweep ranks (enumerated on demand)."""
        if not self.ratios:
            return enumerate_mappings(self.system, self.template.model)
        specs = []
        for ratio in self.ratios:
            specs.extend(enumerate_mappings(
                self.system, self.template.model,
                bubble_overlap_ratio=ratio))
        return specs


def ranking_digest(ranking: List[Tuple[object, float]]) -> str:
    """Digest of an ordered ranking's mappings (times are compared
    separately, with a tolerance)."""
    text = "\n".join(repr(spec) for spec, _ in ranking)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_cells(workload: str, seed: int) -> List[Cell]:
    """The workload's cells, in the seeded order they are swept."""
    rng = random.Random(seed)
    cells = []
    if workload == "sweep-cli":
        for nodes in CLI_NODES:
            system = system_for(EstimateRequest(model="mingpt-85m",
                                                nodes=nodes))
            for key in sorted(MODELS):
                template = AMPeD.for_mapping(
                    MODELS[key], system, dp=system.n_accelerators,
                    efficiency=CASE_STUDY_EFFICIENCY)
                for batch in GLOBAL_BATCHES:
                    cells.append(Cell(key, system, batch, template))
    else:
        base = megatron_a100_cluster()
        for nodes in CROSSPRODUCT_NODES:
            system = replace(base, n_nodes=nodes)
            for key in sorted(MODELS):
                model = MODELS[key]
                n_maps = len(enumerate_mappings(system, model))
                n_ratios = math.ceil(CELL_CANDIDATES / n_maps)
                # One ratio per stratum of [0, 1): the seed moves the
                # ratios, not how they spread, so pruning (and with it
                # the work per cell) barely depends on the seed.
                ratios = tuple(
                    round((index + rng.random()) / n_ratios, 3)
                    for index in range(n_ratios))
                template = AMPeD.for_mapping(
                    model, system, dp=system.n_accelerators,
                    efficiency=CASE_STUDY_EFFICIENCY)
                for batch in GLOBAL_BATCHES:
                    cells.append(Cell(key, system, batch, template,
                                      ratios))
    rng.shuffle(cells)
    return cells


def _scalar_ranking(cell: Cell, specs: list) -> List[Tuple[object, float]]:
    """Top-K of ``specs`` from the scalar compiled ``evaluate_candidate``,
    one candidate at a time."""
    template = replace(cell.template, evaluation_path="compiled")
    scored = []
    for index, spec in enumerate(specs):
        outcome = evaluate_candidate(template, spec, cell.global_batch,
                                     tune_microbatches=True)
        if outcome.evaluated and math.isfinite(outcome.result.batch_time_s):
            scored.append((outcome.result.batch_time_s, index,
                           outcome.result.parallelism))
    scored.sort(key=lambda entry: entry[:2])
    return [(spec, time_s) for time_s, _, spec in scored[:TOP_K]]


def _array_ranking(cell: Cell, specs: list) -> List[Tuple[object, float]]:
    """Top-K of ``specs`` from one array pass over a private compiled
    sweep (never the process cache)."""
    compiled = CompiledSweep(cell.template, cell.global_batch)
    times, _, feasible = VectorizedSweep(compiled).bind(
        specs, tune_microbatches=True).best_lanes()
    order = sorted((float(times[i]), i) for i in range(len(specs))
                   if feasible[i] and math.isfinite(times[i]))[:TOP_K]
    return [(compiled.best_microbatch(specs[index])[0], time_s)
            for time_s, index in order]


def reference_ranking(cell: Cell) -> None:
    """Fill ``cell.reference``/``digest``/``n_candidates``/``path``,
    ranking on the engine the timed sweep does not use."""
    specs = cell.candidates()
    cell.n_candidates = len(specs)
    cell.path = resolve_evaluation_path("compiled", len(specs))
    if cell.path == "vectorized":
        cell.reference = _scalar_ranking(cell, specs)
    else:
        cell.reference = _array_ranking(cell, specs)
    cell.digest = ranking_digest(cell.reference)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import this module, and
    with it the program under test."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    code = ("import time; started = time.perf_counter(); "
            "import sweep_workloads; "
            "print(time.perf_counter() - started)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(root, "src"), here])}
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def setup_cells(workload: str, seed: int, gauge: SpeedGauge
                ) -> Tuple[List[Cell], List[Tuple[float, int, int]]]:
    """Set up ``SETUP_REPEATS`` times: the imports in a fresh
    interpreter, then the cells from a cleared compile cache.  The
    references follow, untimed: they are the benchmark's work, not the
    program's.  Returns the cells and every set-up's seconds with the
    ``gauge`` readings before and after it."""
    seconds = []
    cells: List[Cell] = []
    for _ in range(SETUP_REPEATS):
        probe = gauge.probe()
        imports = import_seconds()
        clear_compiled_cache()
        started = time.perf_counter()
        cells = build_cells(workload, seed)
        seconds.append((imports + time.perf_counter() - started, probe,
                        gauge.probe()))
    for cell in cells:
        reference_ranking(cell)
    clear_compiled_cache()
    return cells, seconds


def reap_workers() -> None:
    """Wait until every pool worker has exited and been reaped, so its
    CPU time shows in ``cpu_seconds``."""
    deadline = time.perf_counter() + REAP_TIMEOUT_S
    while multiprocessing.active_children():
        if time.perf_counter() > deadline:
            raise RuntimeError("pool workers outlived their sweep")
        time.sleep(0.001)


def check_sweep(cell: Cell, outcome, report: Report) -> bool:
    """True when the sweep is a success: full coverage, no worker
    errors, no degradation, and the reference ranking."""
    problems = []
    sweep = outcome.report
    if sweep.worker_errors:
        problems.append(f"{sweep.worker_errors} worker errors")
    if sweep.degraded:
        problems.append(f"degraded ({sweep.degraded_reason})")
    if sweep.partial:
        problems.append("partial result")
    ranking = [(r.parallelism, r.batch_time_s)
               for r in outcome.results]
    if ranking_digest(ranking) != cell.digest:
        problems.append("ranking differs from the reference")
    else:
        for (_, got), (_, want) in zip(ranking, cell.reference):
            if abs(got - want) > REL_TOLERANCE * abs(want):
                problems.append(f"batch time {got!r} != reference "
                                f"{want!r}")
                break
    if problems:
        report.error(f"{cell.label}: " + "; ".join(problems))
        return False
    return True


def verify_per_layer(cells: List[Cell], report: Report) -> int:
    """Re-evaluate every reference winner on the ``per_layer`` path;
    returns the number of winners checked."""
    checked = 0
    for cell in cells:
        reference_template = replace(cell.template,
                                     evaluation_path="per_layer")
        for spec, want in cell.reference:
            got = replace(reference_template, parallelism=spec
                          ).estimate_batch(cell.global_batch).total
            checked += 1
            if abs(got - want) > REL_TOLERANCE * abs(want):
                report.error(f"{cell.label}: per_layer gives {got!r} "
                             f"for {spec.describe()}, the sweep "
                             f"{want!r}")
    return checked


@dataclass
class LayerTally:
    """Per-sweep layer timings and counters of the traced run."""

    sweeps: int = 0
    wall_s: float = 0.0
    candidates: int = 0
    enumerate_s: float = 0.0
    build_s: float = 0.0
    bind_s: float = 0.0
    kernel_s: float = 0.0
    lanes: int = 0
    builds: int = 0
    hits: int = 0
    misses: int = 0
    evaluated: int = 0
    pruned: int = 0
    worker_errors: int = 0
    retries: int = 0

    @property
    def stages_s(self) -> float:
        return self.enumerate_s + self.build_s + self.bind_s \
            + self.kernel_s


def replay_layers(cell: Cell, specs: list, built: bool, op: int,
                  spans: Spans, tally: LayerTally,
                  replay_enumerate: bool) -> None:
    """Time the layers a sweep went through, on the same inputs."""
    template = replace(cell.template, evaluation_path=cell.path)
    started = time.perf_counter()
    root = spans.add("replay", started, started, op, replay=True)
    if replay_enumerate:
        begin = time.perf_counter()
        enumerate_mappings(cell.system, cell.template.model)
        end = time.perf_counter()
        spans.add("parallelism.enumerate", begin, end, op, root,
                  replay=True)
        tally.enumerate_s += end - begin
    vectorized = cell.path == "vectorized"
    if not built and not vectorized:
        spans.end(root)
        return
    begin = time.perf_counter()
    compiled = CompiledSweep(template, cell.global_batch)
    end = time.perf_counter()
    spans.add("compiler.build", begin, end, op, root, replay=True)
    if built:
        tally.build_s += end - begin
    binder = VectorizedSweep(compiled)
    for offset in range(0, len(specs), DEFAULT_CHUNK_CANDIDATES):
        chunk = specs[offset:offset + DEFAULT_CHUNK_CANDIDATES]
        # The first bind fills the lazy term tables and projects; the
        # second only projects.  The difference is the table-fill work
        # a cache miss costs, charged to the compiler.
        first = time.perf_counter()
        binder.bind(chunk, tune_microbatches=True)
        begin = time.perf_counter()
        batch = binder.bind(chunk, tune_microbatches=True)
        middle = time.perf_counter()
        batch.best_lanes()
        end = time.perf_counter()
        spans.add("compiler.fill_and_bind", first, begin, op, root,
                  replay=True)
        # On the scalar path the warm bind only measures the fills.
        layer = "vectorized" if vectorized else "replay"
        spans.add(f"{layer}.bind", begin, middle, op, root, replay=True)
        spans.add(f"{layer}.kernel", middle, end, op, root, replay=True)
        if built:
            tally.build_s += max(0.0, (begin - first) - (middle - begin))
        if vectorized:
            tally.bind_s += middle - begin
            tally.kernel_s += end - middle
            tally.lanes += batch.n_lanes
    spans.end(root)


def tracer_overhead_ratio(cells: List[Cell]) -> float:
    """``run_sweep`` wall time with the program's tracer on over off,
    on ``TRACER_CELLS`` cells, alternating off/on passes twice."""
    tracer = get_tracer()
    sample = cells[:TRACER_CELLS]
    totals = {False: 0.0, True: 0.0}
    for enabled in (False, True, False, True):
        for cell in sample:
            if enabled:
                tracer.enable()
            started = time.perf_counter()
            run_sweep(cell.template, cell.global_batch,
                      max_results=TOP_K)
            totals[enabled] += time.perf_counter() - started
            tracer.disable()
            tracer.reset()
    return totals[True] / totals[False]


def run_sweep_workload(workload: str, seed: int, seconds: float,
                       traced: bool, report: Report) -> Spans:
    """Run one sweep workload and fill ``report``; returns the spans."""
    workers = 2 if workload == "sweep-pool" else None
    own_enumeration = workload == "sweep-cli"
    report.note(f"threshold_info: {threshold_info()}")
    gauge = SpeedGauge()
    cells, setups = setup_cells(workload, seed, gauge)
    paths: Dict[str, int] = {}
    for cell in cells:
        paths[cell.path] = paths.get(cell.path, 0) + 1
    report.note(f"{len(cells)} cells, "
                f"{sum(c.n_candidates for c in cells)} candidates per "
                f"pass; resolved evaluation_path per cell: {paths}")

    spans = Spans(traced)
    tally = LayerTally()
    overhead = {False: [0.0, 0], True: [0.0, 0]}  # seconds, candidates
    cell_walls: Dict[int, List[float]] = {}
    cell_cpus: Dict[int, List[float]] = {}
    shm_before = shm_stats()
    loop_seconds = seconds * (0.7 if traced and own_enumeration
                              else 1.0)
    deadline = time.perf_counter() + loop_seconds
    op = 0
    probe = gauge.probe()
    # The untraced run always completes one pass, so every cell has a
    # time and the metrics weigh all cells alike.
    while time.perf_counter() < deadline or (
            not traced and op < len(cells)):
        index = op % len(cells)
        cell = cells[index]
        # Traced run: every other sweep runs without spans or replays,
        # so the two halves give the tracing overhead.
        traced_op = traced and op % 2 == 1
        before = compiled_cache_stats()
        cpu_started = cpu_seconds()
        started = time.perf_counter()
        if own_enumeration:
            specs = None
            outcome = run_sweep(cell.template, cell.global_batch,
                                max_results=TOP_K, workers=workers)
            enumerated = started
        else:
            specs = cell.candidates()
            enumerated = time.perf_counter()
            outcome = run_sweep(cell.template, cell.global_batch,
                                mappings=specs, max_results=TOP_K,
                                workers=workers)
        ended = time.perf_counter()
        if workers is not None:
            reap_workers()
        cpu = cpu_seconds() - cpu_started
        # The reading after this sweep is the one before the next.
        after = gauge.probe()
        cell_cpus.setdefault(index, []).append((cpu, probe, after))
        probe = after
        after = compiled_cache_stats()
        wall = ended - started
        report.attempted += 1
        if not check_sweep(cell, outcome, report):
            report.failed += 1
        cell_walls.setdefault(index, []).append(wall)
        overhead[traced_op][0] += wall
        overhead[traced_op][1] += cell.n_candidates
        if traced_op:
            root = spans.add("sweep", started, ended, op,
                             cell=cell.label, n=cell.n_candidates)
            if not own_enumeration:
                spans.add("parallelism.enumerate", started, enumerated,
                          op, root)
                tally.enumerate_s += enumerated - started
            spans.add("run_sweep", enumerated, ended, op, root,
                      path=cell.path)
            built = after["builds"] > before["builds"]
            if specs is None:
                specs = cell.candidates()
            replay_layers(cell, specs, built, op, spans, tally,
                          replay_enumerate=own_enumeration)
            sweep = outcome.report
            tally.sweeps += 1
            tally.wall_s += wall
            tally.candidates += cell.n_candidates
            tally.builds += after["builds"] - before["builds"]
            tally.hits += after["hits"] - before["hits"]
            tally.misses += after["misses"] - before["misses"]
            tally.evaluated += sweep.evaluated
            tally.pruned += sweep.skipped.get("pruned", 0)
            tally.worker_errors += sweep.worker_errors
            tally.retries += sweep.retried
        op += 1
    shm_after = shm_stats()
    all_ms = [wall * 1e3 for walls in cell_walls.values()
              for wall in walls]
    report.note(f"{op} sweeps in {sum(all_ms) / 1e3:.2f} s; every "
                f"sweep: {timing_summary(all_ms)}")
    if workers is not None:
        leaked = leaked_segment_names()
        if leaked:
            report.error(f"shared-memory segments left behind: {leaked}")
    if not traced:
        checked = verify_per_layer(cells, report)
        report.note(f"{checked} reference winners re-evaluated on the "
                    f"per_layer path")
    error_pct = 100.0 * report.failed / max(1, report.attempted)
    report.note(f"error_pct = {error_pct:.4g} % "
                f"({report.failed} of {report.attempted} sweeps)")
    if traced:
        _layer_metrics(workload, tally, overhead, shm_before, shm_after,
                       op, report)
        if own_enumeration:
            report.metric("obs.tracer_overhead_ratio",
                          tracer_overhead_ratio(cells), "ratio",
                          "run_sweep with the program's tracer on / off")
        return spans

    # Each cell counts once, at the median of its sweeps: the figures
    # then describe one pass over every cell, whatever share of a
    # second pass fitted in the run.
    n_pass = sum(cells[index].n_candidates for index in cell_walls)
    wall_ms = [median(walls) * 1e3 for walls in cell_walls.values()]
    cpu_ms = [median([cpu for cpu, _, _ in cpus]) * 1e3
              for cpus in cell_cpus.values()]
    fixed_ms = [median([gauge.corrected(*reading)
                        for reading in cpus]) * 1e3
                for cpus in cell_cpus.values()]
    report.note(f"wall clock, not gated: sweep_cands_per_s "
                f"{n_pass / (sum(wall_ms) / 1e3):.1f} 1/s; per-cell "
                f"median sweep {timing_summary(wall_ms)} "
                f"(sweep_p50_ms, sweep_p90_ms)")
    report.note(f"raw CPU time{' with pool workers' if workers else ''}, "
                f"not gated: {n_pass / (sum(cpu_ms) / 1e3):.1f} "
                f"candidates/s; per-cell median sweep "
                f"{timing_summary(cpu_ms)}")
    report.note(f"{gauge.summary()}; corrected CPU time: per-cell median "
                f"sweep {timing_summary(fixed_ms)}")
    setup_s = [gauge.corrected(*reading) for reading in setups]
    report.metric("setup_s", median(setup_s), "s",
                  f"median of {len(setups)} corrected set-ups (imports in "
                  f"a fresh interpreter + cells); raw: "
                  + ", ".join(f"{value:.3f}" for value, _, _ in setups))
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", "benchmark process")
    report.metric("throughput_per_cpu_s", n_pass / (sum(fixed_ms) / 1e3),
                  "1/s", f"candidates per corrected CPU-second: {n_pass} "
                  f"candidates in {len(fixed_ms)} cells, "
                  f"n={len(all_ms)} sweeps")
    report.metric("latency_p50_ms", percentile(fixed_ms, 50), "ms",
                  f"corrected CPU ms of the median cell's run_sweep call, "
                  f"over {len(fixed_ms)} per-cell medians")
    return spans


def _layer_metrics(workload: str, tally: LayerTally, overhead: dict,
                   shm_before: dict, shm_after: dict, sweeps: int,
                   report: Report) -> None:
    n = max(1, tally.sweeps)
    residual_s = tally.wall_s - tally.stages_s
    residual_ratio = residual_s / tally.wall_s if tally.wall_s else 0.0
    report.note(f"traced sweeps: {tally.sweeps}; stages "
                f"{tally.stages_s * 1e3:.1f} ms + residual "
                f"{residual_s * 1e3:.1f} ms = wall "
                f"{tally.wall_s * 1e3:.1f} ms "
                f"(residual {100 * residual_ratio:.1f} % of wall)")
    if residual_ratio < -RESIDUAL_TOLERANCE:
        report.error(f"replayed layers exceed the traced wall time by "
                     f"{-100 * residual_ratio:.1f} % (tolerance "
                     f"{100 * RESIDUAL_TOLERANCE:.0f} %)")
    looked_up = tally.hits + tally.misses
    # On sweep-pool the residual holds the pool's time as well as the
    # driver's bookkeeping.
    residual_name = ("pool.self_ms" if workload == "sweep-pool"
                     else "driver.self_ms")
    values = {
        "parallelism.enumerate_ms": (tally.enumerate_s * 1e3 / n, "ms"),
        "parallelism.candidates": (tally.candidates / n, "count"),
        "compiler.build_ms": (tally.build_s * 1e3 / n, "ms"),
        "compiler.builds": (tally.builds / n, "count"),
        "compiler.hit_ratio": (tally.hits / looked_up if looked_up
                               else 0.0, "ratio"),
        "vectorized.bind_ms": (tally.bind_s * 1e3 / n, "ms"),
        "vectorized.kernel_ms": (tally.kernel_s * 1e3 / n, "ms"),
        "vectorized.lanes": (tally.lanes / n, "count"),
        residual_name: (residual_s * 1e3 / n, "ms"),
        "driver.evaluated_ratio": (tally.evaluated / max(
            1, tally.candidates), "ratio"),
        "driver.pruned_ratio": (tally.pruned / max(1, tally.candidates),
                                "ratio"),
        "pool.worker_errors": (tally.worker_errors, "count"),
        "pool.retries": (tally.retries, "count"),
        # Publication counters cover every sweep of the run.
        "shm.published": ((shm_after["published"]
                           - shm_before["published"]) / sweeps, "count"),
        "shm.bytes_published": ((shm_after["bytes_published"]
                                 - shm_before["bytes_published"])
                                / sweeps, "bytes"),
        "trace.residual_ratio": (residual_ratio, "ratio"),
    }
    for name, (value, unit) in values.items():
        report.metric(name, value, unit)
    untraced_s, untraced_n = overhead[False]
    traced_s, traced_n = overhead[True]
    ratio = ((traced_s / traced_n) / (untraced_s / untraced_n) - 1.0
             if traced_n and untraced_n else 0.0)
    report.metric("trace.overhead_ratio", ratio, "ratio",
                  "per-candidate wall of traced over untraced sweeps, "
                  "minus one")
