"""Benchmark of frvi's time to solution, run from the root of a checkout.

    python3 perfbench/run.py --workload vi-2d --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): ``vi-2d``, ``qvi-1d``,
``cli-1d``.  The workload runs in a child process with OpenBLAS and OpenMP
held to one thread; set-up is timed in further children that only set up.
Human-readable report lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Exit status 0 on a complete
run (failed operations are counted, not fatal), 2 when the checkout has no
frvi sources, 3 when a worker process breaks or overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("vi-2d", "qvi-1d", "cli-1d")  # as in workloads.py, which imports frvi
SETUP_PROBES = 3  # set-up-only processes per run, besides the workload's own
TIME_LIMIT_S = 170.0  # a run ends within 180 s
# a timing is reported with the highest of these percentiles that has at
# least ten samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, deadline: float, setup_only: bool = False) -> tuple:
    """Start a worker; return (seconds from start to ready, final record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = perf_counter() - start
        rest = proc.stdout.read()
        status = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if status != 0 or not ready_line.strip():
        raise WorkerError(f"worker exited with status {status}")
    if setup_only:
        return ready_s, None
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def tail(values: list) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} s"
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            rank = min(n - 1, int(p / 100.0 * n))
            text += f", p{p:g} {sorted(values)[rank]:.4f} s"
            break
    else:
        text += ", no percentile with 10 samples beyond it"
    return text + f", n={n}"


def summarize(args, result: dict, setup: list) -> tuple:
    """Report lines and the final JSON object."""
    passes = result["passes"]
    records = [r for p in passes for r in p["ops"]]
    failed = [r for r in records if r["failed"]]
    # a divergence is a missing output; any other failed gate is a wrong one
    incorrect = [r for r in failed if any(f != "diverged" for f in r["failed"])]
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}",
             "env " + json.dumps(result["env"], sort_keys=True)]
    for name in dict.fromkeys(r["name"] for r in records):
        mine = [r for r in records if r["name"] == name]
        bad = sorted({f for r in mine for f in r["failed"]})
        times = [r["seconds"] for r in mine if not r["traced"]]
        lines.append(f"op {name}: {tail(times)}, "
                     f"failed {sum(1 for r in mine if r['failed'])}/{len(mine)}"
                     + (f" ({', '.join(bad)})" if bad else ""))
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    traced = [p["seconds"] for p in passes if p["traced"]]
    lines.append(f"pass {args.workload}: {tail(untraced)}")
    lines.append(f"fail_ratio {len(failed) / len(records):.4f} "
                 f"({len(failed)}/{len(records)} operations)")
    if args.trace:
        metrics = dict(result["layers"])
        base, with_trace = statistics.median(untraced), statistics.median(traced)
        metrics["trace.passes"] = (len(traced), "count")
        metrics["trace.untraced_pass_s"] = (base, "s")
        metrics["trace.traced_pass_s"] = (with_trace, "s")
        metrics["trace.overhead_share"] = ((with_trace - base) / base, "1")
        lines.append(f"tracing overhead {with_trace - base:+.4f} s per pass "
                     f"({(with_trace - base) / base:+.2%}); spans in "
                     f"{result['spans_file']}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (result["peak_rss_kib"] * 1024 / 1e6, "MB"),
            "ok_ratio": ((len(records) - len(failed)) / len(records), "1"),
        }
        lines.append(f"setup {args.workload}: {tail(setup)}")
    final = {"correct": not incorrect, "attempted": len(records),
             "failed": len(failed),
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return lines, final


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path.cwd() / "src" / "frvi" / "__init__.py").is_file():
        print("perfbench: run from the root of an frvi checkout (no src/frvi here)",
              file=sys.stderr)
        return 2

    deadline = start + TIME_LIMIT_S
    try:
        setup = [] if args.trace else [
            run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_PROBES)]
        ready_s, result = run_worker(args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    lines, final = summarize(args, result, setup + [ready_s])
    print("\n".join(lines))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
