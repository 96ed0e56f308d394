"""Call-boundary tracing for the benchmark.

The tracer installs wrappers at the names frvi's modules resolve at call
time (module attributes such as ``frvi.vi.cg`` or ``frvi.qvi.solve_vi``),
records a span around each call and counts the work done, and restores
the original objects when it is removed.  Nothing inside ``src/`` changes.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written
once at the end.  A span's self time is its duration minus the time its
child spans cover; transforms are leaf spans that are only aggregated,
because a 1D QVI pass makes tens of thousands of them.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

FRVI_MODULES = ("frvi.fields", "frvi.fracgrad", "frvi.vi", "frvi.oracle",
                "frvi.qvi", "frvi.studies", "frvi.instances", "frvi.cli")

# transform name -> default axes (-1: a 1-D transform along ``axis``)
COMPLEX_FFTS = {"fft": -1, "ifft": -1, "fft2": (-2, -1), "ifft2": (-2, -1),
                "fftn": None, "ifftn": None}
REAL_FFTS = {"rfft": -1, "irfft": -1, "rfft2": (-2, -1), "irfft2": (-2, -1),
             "rfftn": None, "irfftn": None}
FIELD_FUNCS = ("frac_gradient", "frac_divergence", "frac_laplacian", "hsigma_norm")
CONSTANT_FUNCS = ("estimate_sobolev_constant", "estimate_poincare_constant")
STUDY_KINDS = {"lipschitz_study_f": "lipschitz_f", "holder_study_g": "holder_g",
               "sigma_limit_study": "sigma_limit",
               "penalty_trace_study": "penalty_trace",
               "mosco_diagnostic": "mosco_diagnostic"}


class Tracer:
    """Span stack, closed spans and per-layer counters of one traced run.

    Wrappers only record while ``active`` is set, so the benchmark's own
    correctness checks, which call frvi too, stay out of the counts.
    """

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.transforms = Counter()
        self.in_leaf = False
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        start = perf_counter()
        frame = [name, start, 0.0, len(self.spans)]
        self.spans.append([name, start, None, parent, self.op])
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, child_s, index = frame
        duration = end - start
        self.spans[index][2] = end
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def leaf(self, name: str, duration: float) -> None:
        """Account an aggregated leaf span (no span record)."""
        self.total_s[name] += duration
        self.self_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)

    # -- wrappers ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_wrapper(self, name: str, fn, count: str | None = None,
                     on_return=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count:
                tracer.counts[count] += 1
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                tracer.close(frame)
            if on_return:
                on_return(result, args, kwargs)
            return result
        return wrapper

    def count_wrapper(self, count: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[count] += 1
            return fn(*args, **kwargs)
        return wrapper


# -- transforms -----------------------------------------------------------------


def _transform_axes(ndim: int, args: tuple, kwargs: dict, default) -> tuple:
    """Axes a numpy/scipy transform acts on, from its call arguments."""
    if default == -1:
        return (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
    axes = kwargs.get("axes", args[2] if len(args) > 2 else default)
    return tuple(range(ndim)) if axes is None else tuple(axes)


def fft_wrapper(tracer: Tracer, fn, default_axes, real: bool):
    """Leaf wrapper timing one transform and tallying it by shape; the
    operation counts and bytes are computed from the tally at the end."""
    factor = 2.5 if real else 5.0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or tracer.in_leaf:
            return fn(*args, **kwargs)
        tracer.in_leaf = True
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.in_leaf = False
            tracer.leaf("fracgrad.fft", perf_counter() - start)
        inp = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
        axes = (default_axes if len(args) < 2 and not kwargs
                else _transform_axes(max(inp.ndim, out.ndim), args, kwargs, default_axes))
        tracer.transforms[(factor, inp.shape, inp.nbytes, out.shape, out.nbytes,
                           axes)] += 1
        return out
    return wrapper


def transform_totals(transforms: Counter) -> tuple:
    """(calls, computed flops, computed bytes) of a transform tally: 5 n log2 L
    flops per complex and 2.5 n log2 L per real transform, with n the points
    of the larger side and L the transform length; bytes are input plus
    output."""
    calls = flops = nbytes = 0
    for (factor, in_shape, in_bytes, out_shape, out_bytes, axes), k in transforms.items():
        shape = in_shape if math.prod(in_shape) >= math.prod(out_shape) else out_shape
        if axes is None:
            axes = tuple(range(len(shape)))
        elif not isinstance(axes, tuple):
            axes = (axes,)
        length = math.prod(shape[a] for a in axes)
        calls += k
        flops += k * factor * math.prod(shape) * math.log2(max(length, 1))
        nbytes += k * (in_bytes + out_bytes)
    return calls, flops, nbytes


# -- the probe set for frvi -------------------------------------------------------


def _modules():
    return [sys.modules[name] for name in FRVI_MODULES]


def _patch_everywhere(tracer: Tracer, original, make_wrapper) -> None:
    """Wrap every frvi module attribute bound to ``original``."""
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.patch(module, attr, make_wrapper(module.__name__))


def install(tracer: Tracer) -> None:
    """Install every probe; ``tracer.restore()`` removes them again."""
    import scipy.fft

    import frvi.cli
    import frvi.fields
    import frvi.fracgrad
    import frvi.instances  # noqa: F401  (one of the modules searched below)
    import frvi.oracle
    import frvi.qvi
    import frvi.studies
    import frvi.vi

    for module in (np.fft, scipy.fft):
        for table, real in ((COMPLEX_FFTS, False), (REAL_FFTS, True)):
            for name, axes in table.items():
                tracer.patch(module, name, fft_wrapper(
                    tracer, getattr(module, name), axes, real))

    counts = tracer.counts
    for name in FIELD_FUNCS:
        fn = getattr(frvi.fracgrad, name)
        _patch_everywhere(tracer, fn, lambda _m, fn=fn: tracer.count_wrapper(
            "fracgrad.field_calls", fn))
    lp = frvi.fields.lp_norm
    _patch_everywhere(tracer, lp, lambda _m: tracer.count_wrapper(
        "fields.lp_norm_calls", lp))

    # vi: every solve_vi call site, the Krylov solvers and the diagnostics
    def vi_done(sol, args, kwargs):
        counts["vi.solves"] += 1
        counts["vi.continuation_steps"] += len(sol.trace)
        counts["vi.newton_steps"] += sum(r.newton_iters for r in sol.trace)
        counts["vi.newton_first_step"] += sol.trace[0].newton_iters

    def vi_failed(exc):
        if isinstance(exc, frvi.vi.SolverDivergence):
            counts["vi.divergences"] += 1
            counts["vi.newton_steps"] += len(exc.history)

    site_counts = {"frvi.qvi": "qvi.inner_solves", "frvi.studies": "studies.inner_solves"}
    solve_vi = frvi.vi.solve_vi
    _patch_everywhere(tracer, solve_vi, lambda module: tracer.span_wrapper(
        "vi.solve", solve_vi, count=site_counts.get(module),
        on_return=vi_done, on_error=vi_failed))

    for name in ("cg", "bicgstab"):
        tracer.patch(frvi.vi, name, _krylov_wrapper(tracer, getattr(frvi.vi, name)))
    diag = frvi.vi.vi_residual
    _patch_everywhere(tracer, diag, lambda _m: tracer.span_wrapper(
        "vi.diag", diag, count="vi.diag_calls"))

    # oracle
    for name, span, count in (("cho_factor", "oracle.factor", "oracle.factorizations"),
                              ("cho_solve", "oracle.solve", "oracle.iterations")):
        fn = getattr(frvi.oracle, name)
        tracer.patch(frvi.oracle, name, tracer.span_wrapper(span, fn, count=count))
    oracle = frvi.oracle.oracle_solve_vi
    _patch_everywhere(tracer, oracle, lambda _m: tracer.span_wrapper(
        "oracle.run", oracle, count="oracle.runs"))

    # qvi: outer driver, threshold operators, constants and the certificate
    def qvi_done(sol, args, kwargs):
        counts["qvi.outer_steps"] += sol.iterations

    solve_qvi = frvi.qvi.solve_qvi
    _patch_everywhere(tracer, solve_qvi, lambda _m: tracer.span_wrapper(
        "qvi.solve", solve_qvi, count="qvi.solves", on_return=qvi_done))
    apply = frvi.qvi.ThresholdOperator.apply
    tracer.patch(frvi.qvi.ThresholdOperator, "apply", tracer.span_wrapper(
        "qvi.threshold", apply, count="qvi.threshold_calls"))
    for name in CONSTANT_FUNCS:
        fn = getattr(frvi.qvi, name)
        _patch_everywhere(tracer, fn, lambda _m, fn=fn: tracer.span_wrapper(
            "qvi.constants", fn, count="qvi.constants_calls"))
    cert = frvi.qvi.contraction_certificate
    _patch_everywhere(tracer, cert, lambda _m: tracer.span_wrapper(
        "qvi.certificate", cert, count="qvi.certificates"))

    # studies and writers, as the CLI resolves them
    for name, kind in STUDY_KINDS.items():
        fn = getattr(frvi.studies, name)
        tracer.patch(frvi.cli, name, tracer.span_wrapper(f"studies.{kind}", fn))

    def fvf_done(result, args, kwargs):
        counts["fields.fvf_bytes_written"] += os.path.getsize(args[0])

    write_fvf = frvi.fields.write_fvf
    _patch_everywhere(tracer, write_fvf, lambda _m: tracer.span_wrapper(
        "fields.fvf_write", write_fvf, count="fields.fvf_writes", on_return=fvf_done))
    write_csv = frvi.fields.write_csv
    _patch_everywhere(tracer, write_csv, lambda _m: tracer.span_wrapper(
        "fields.csv_write", write_csv, count="fields.csv_writes"))


def _krylov_wrapper(tracer: Tracer, fn):
    """Counts solves, iterations (through ``callback``) and nonzero ``info``."""

    @functools.wraps(fn)
    def wrapper(A, b, *args, callback=None, **kwargs):
        if not tracer.active:
            return fn(A, b, *args, callback=callback, **kwargs)
        iters = 0

        def count_iteration(xk):
            nonlocal iters
            iters += 1
            if callback is not None:
                callback(xk)

        frame = tracer.open("vi.krylov")
        try:
            x, info = fn(A, b, *args, callback=count_iteration, **kwargs)
        finally:
            tracer.close(frame)
        counts = tracer.counts
        counts["vi.krylov_solves"] += 1
        counts["vi.krylov_iters"] += iters
        counts["vi.krylov_nonconverged"] += int(info != 0)
        return x, info
    return wrapper


# -- per-layer metrics ------------------------------------------------------------

COUNTS = (
    "fracgrad.field_calls",
    "vi.solves", "vi.continuation_steps", "vi.newton_steps", "vi.newton_first_step",
    "vi.divergences", "vi.krylov_solves", "vi.krylov_iters", "vi.krylov_nonconverged",
    "vi.diag_calls", "oracle.runs", "oracle.factorizations", "oracle.iterations",
    "qvi.solves", "qvi.outer_steps", "qvi.inner_solves", "qvi.threshold_calls",
    "qvi.constants_calls", "qvi.certificates", "studies.inner_solves",
    "fields.fvf_writes", "fields.csv_writes", "fields.lp_norm_calls")
# (metric, span, self or total) in seconds: layers every workload runs
SECONDS = (("fracgrad.fft_s", "fracgrad.fft", "self"),
           ("vi.krylov_s", "vi.krylov", "self"),
           ("vi.diag_s", "vi.diag", "total"),
           ("vi.solve_self_s", "vi.solve", "self"))
# (metric, span, self or total) as a share of the traced pass time: layers
# that only some workloads run, which would otherwise read 0 s on the rest
SHARES = (("oracle.run_self_share", "oracle.run", "self"),
          ("oracle.factor_share", "oracle.factor", "self"),
          ("oracle.solve_share", "oracle.solve", "self"),
          ("qvi.solve_self_share", "qvi.solve", "self"),
          ("qvi.threshold_share", "qvi.threshold", "total"),
          ("qvi.constants_share", "qvi.constants", "total"),
          ("qvi.certificate_share", "qvi.certificate", "total"),
          ("fields.fvf_write_share", "fields.fvf_write", "total"),
          ("fields.csv_write_share", "fields.csv_write", "total"),
          *((f"studies.{kind}_share", f"studies.{kind}", "total")
            for kind in STUDY_KINDS.values()))


def layer_metrics(tracer: Tracer, passes: int, pass_s: float,
                  cli_ops: tuple) -> dict:
    """Per-layer metrics per traced pass: ``{name: (value, unit)}``.

    ``pass_s`` is the summed operation time of the traced passes and
    ``cli_ops`` the CLI subcommands whose operation spans feed
    ``cli.run_share.<subcommand>`` and ``cli.self_share``.
    """
    counts, self_s, total_s = tracer.counts, tracer.self_s, tracer.total_s
    pick = {"self": self_s, "total": total_s}
    out = {name: (counts[name] / passes, "count") for name in COUNTS}
    out["vi.picard_fallbacks"] = (
        (counts["vi.krylov_solves"] - counts["vi.newton_steps"]) / passes, "count")
    calls, flops, nbytes = transform_totals(tracer.transforms)
    out["fracgrad.fft_calls"] = (calls / passes, "count")
    out["fracgrad.fft_flops_computed"] = (flops / passes, "flop")
    out["fracgrad.fft_bytes_computed"] = (nbytes / passes, "B")
    out["fields.fvf_bytes_written"] = (counts["fields.fvf_bytes_written"] / passes, "B")
    for name, span, kind in SECONDS:
        out[name] = (pick[kind][span] / passes, "s")
    for name, span, kind in SHARES:
        out[name] = (pick[kind][span] / pass_s, "1")
    for sub in cli_ops:
        out[f"cli.run_share.{sub}"] = (total_s[f"op.cli_s.{sub}"] / pass_s, "1")
    out["cli.self_share"] = (
        sum(self_s[f"op.cli_s.{sub}"] for sub in cli_ops) / pass_s, "1")
    out["trace.spans"] = (len(tracer.spans) / passes, "count")
    return out
