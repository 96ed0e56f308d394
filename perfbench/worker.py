"""One workload in one process: set up, report readiness, then run passes
in a closed loop (each call starts when the previous one returned) until
the next pass would end after ``--seconds``, and at least two passes.

Started by run.py from the root of a checkout, with the math libraries
held to one thread.  Prints ``{"ready": true}`` once set up and, at the
end, one JSON line with every pass's per-operation records.  With
``--trace 1`` the first pass runs untraced and the others traced; their
outputs must be bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

CHECKOUT = Path.cwd()
sys.path.insert(0, str(CHECKOUT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import frvi.vi  # noqa: E402
import gates  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CLI_JOBS  # noqa: E402


def run_pass(ops: list, tracer, index: int) -> dict:
    records = []
    for op in ops:
        frame = None
        if tracer is not None:
            tracer.op = f"{index}:{op.name}"
            frame = tracer.open(f"op.{op.name}")
            tracer.active = True
        start = perf_counter()
        error = None
        try:
            out = op.run()
        except frvi.vi.SolverDivergence as exc:
            error = exc
        except Exception as exc:  # keep measuring; the record says what broke
            traceback.print_exc()
            error = exc
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.close(frame)
        if error is None:
            digest, failed = op.check(out)
        elif isinstance(error, frvi.vi.SolverDivergence):
            digest, failed = f"diverged:{error}:{len(error.history)}", [gates.DIVERGED]
        else:
            digest, failed = f"error:{type(error).__name__}", [f"error_{type(error).__name__}"]
        records.append({"name": op.name, "seconds": seconds, "digest": digest,
                        "failed": failed, "traced": tracer is not None})
    return {"index": index, "traced": tracer is not None, "ops": records,
            "seconds": sum(r["seconds"] for r in records)}


def environment() -> dict:
    import ctypes
    import glob
    import platform

    libc = ctypes.CDLL(None)
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           # glibc sysconf names _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
           "l2_bytes_per_core": libc.sysconf(191), "l3_bytes": libc.sysconf(194),
           "fft_workers": {"numpy.fft": 1, "scipy.fft": scipy.fft.get_workers()}}
    for pkg, symbol in ((np, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = glob.glob(os.path.join(os.path.dirname(pkg.__file__), "..",
                                      f"{pkg.__name__}.libs", "libscipy_openblas*.so"))
        try:
            env[f"{pkg.__name__}_openblas_threads"] = getattr(
                ctypes.CDLL(libs[0]), symbol)()
        except (IndexError, OSError, AttributeError):
            env[f"{pkg.__name__}_openblas_threads"] = None
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = CHECKOUT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        print(json.dumps({"ready": True}), flush=True)
        if args.setup_only:
            return 0
        ops = workload.ops()
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracing.install(tracer)
        try:
            passes = []
            start = perf_counter()
            while True:
                traced = tracer is not None and len(passes) > 0
                workload.new_pass()
                passes.append(run_pass(ops, tracer if traced else None, len(passes)))
                elapsed = perf_counter() - start
                # two passes at least: two samples, or one untraced and one traced
                if len(passes) >= 2 and elapsed + passes[-1]["seconds"] > args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # every pass repeats the same calls on the same inputs
    first = {r["name"]: r["digest"] for r in passes[0]["ops"]}
    for p in passes[1:]:
        for r in p["ops"]:
            if r["digest"] != first[r["name"]]:
                r["failed"].append("output_changed")
    result = {"passes": passes, "env": environment(),
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        result["layers"] = tracing.layer_metrics(
            tracer, len(traced), sum(p["seconds"] for p in traced),
            tuple(sub for sub, _ in CLI_JOBS))
        spans = CHECKOUT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(CHECKOUT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
