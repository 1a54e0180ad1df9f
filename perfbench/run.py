"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload sweep-cli --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root (the script changes to it in any case, so
the program under test always resolves the same files).  Workloads:

- ``sweep-crossproduct``: serial ``run_sweep`` over zoo x cluster x
  overlap ratio;
- ``sweep-cli``: ``run_sweep`` with its own enumeration, as
  ``amped sweep`` runs it;
- ``sweep-pool``: the cross-product cells with ``workers=2``;
- ``serve-mixed``: open-loop HTTP load on a ``python -m repro.serve``
  daemon.

``--workload all`` runs the four in turn, each in its own process.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that records spans, replays the layers and prints the per-layer
metrics, writing the spans as a Chrome trace under ``.perfbench/``.
The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the exit code is non-zero
when any output fails its correctness check.  ``NOTES.md`` explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep-crossproduct", "sweep-cli", "sweep-pool",
             "serve-mixed")

#: Environment variables that would move the auto-vectorize threshold
#: away from what this source tree resolves; they are dropped so the
#: measured code path depends on the checkout alone.
PINNED_ENV = ("AMPED_VECTORIZE_THRESHOLD", "AMPED_BENCH_TRAJECTORY")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint(paths) -> dict:
    """Content digests of files the program reads, to prove the run
    left them untouched."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths}


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a process of its own; the exit
    code is the worst of theirs."""
    worst = 0
    for workload in WORKLOADS:
        worst = max(worst, subprocess.call(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds),
             "--trace", str(args.trace)]))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("error: run from a checkout of the repository: "
              "src/repro and BENCHMARK.json are required",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {entry["name"]: entry["unit"] for entry in spec[kind]}
    watched = sorted(ROOT.glob("BENCH_*.json"))
    before = fingerprint(watched)

    from harness import Report
    report = Report(args.workload)
    if args.workload == "serve-mixed":
        import serve_workload
        spans = serve_workload.run_serve_workload(
            args.seed, args.seconds, bool(args.trace), report)
    else:
        import sweep_workloads
        spans = sweep_workloads.run_sweep_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            report)

    for child in multiprocessing.active_children():
        child.join(10)
    if fingerprint(watched) != before:
        report.error("a BENCH_*.json file changed during the run")
    if args.trace:
        for name, unit in wanted.items():
            if name not in report.metrics:
                # The layer does no work on this workload.
                report.metrics[name] = {"value": 0.0, "unit": unit}
        for name, seconds in sorted(spans.self_seconds().items()):
            report.note(f"span self time {name}: {seconds * 1e3:.3f} ms")
        trace_path = (ROOT / ".perfbench"
                      / f"trace-{args.workload}-seed{args.seed}.json")
        spans.write_chrome_trace(trace_path)
        report.note(f"{len(spans.records)} spans written to "
                    f"{trace_path.relative_to(ROOT)}")
    emitted = {name: entry["unit"]
               for name, entry in report.metrics.items()}
    if emitted != wanted:
        report.error(f"metrics {sorted(emitted)} do not match the "
                     f"{kind} list of BENCHMARK.json {sorted(wanted)}")
    if report.attempted < 1:
        report.error("no operation was attempted")
    print(report.result_line(), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
