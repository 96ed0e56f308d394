"""The benchmark's workloads: the set-up each needs and the operations one
pass runs, in order, with the correctness gate of each operation.

Every pass of a run repeats the same operations on the same seeded inputs,
so outputs must be bit-identical from pass to pass; the digest of each
operation's outputs is compared across passes, traced or not.

Operations call frvi through module attributes (``vi.solve_vi``, not a
name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import frvi.cli as cli
import frvi.oracle as oracle
import frvi.qvi as qvi
import frvi.vi as vi
from frvi.fields import ScalarField, make_grid, zero_field
from frvi.fracgrad import multiplier_table, random_band_limited
from frvi.instances import (
    QVI_INNER_CFG,
    QVI_OUTER_TOL,
    VI_CFG,
    binding_2d,
    estimated_constants_1d,
    nonsymmetric_2d,
    qvi_instances,
    qvi_separated_certified,
)

import gates


@dataclass
class Op:
    """One call into frvi.  ``run`` is timed; ``check`` is not, and returns
    the output digest and the names of the failed gates."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class Vi2d:
    """2D solves: CG path, BiCGSTAB path, the dense oracle, and a seeded
    perturbation of binding_2d whose cold start is known to diverge."""

    name = "vi-2d"

    def __init__(self, seed: int, scratch: Path):
        self.binding = binding_2d()
        self.nonsym = nonsymmetric_2d()
        base = self.binding
        z = random_band_limited(base.grid, np.random.default_rng(seed), kmax=3)
        z = np.where(base.mask.inside, z.values, 0.0)
        self.binding_var = vi.ProblemData(
            base.mask, base.sigma, base.A,
            ScalarField(base.grid, base.f.values * (1.0 + 0.05 * z)), base.g)
        multiplier_table(base.grid, base.sigma)
        self.reference = None

    def ops(self) -> list:
        return [
            Op("vi_s.binding_2d", lambda: vi.solve_vi(self.binding, VI_CFG),
               lambda sol: self._check_vi(self.binding, sol, keep=True)),
            Op("vi_s.nonsymmetric_2d", lambda: vi.solve_vi(self.nonsym, VI_CFG),
               lambda sol: self._check_vi(self.nonsym, sol)),
            Op("oracle_s.binding_2d",
               lambda: oracle.oracle_solve_vi(self.binding, tol=1e-9),
               self._check_oracle),
            Op("vi_s.binding_2d_var", lambda: vi.solve_vi(self.binding_var, VI_CFG),
               lambda sol: self._check_vi(self.binding_var, sol)),
        ]

    def _check_vi(self, data, sol, keep=False):
        if keep:
            self.reference = sol.u
        return (digest(sol.u.values, sol.multiplier.values),
                gates.vi_solution(data, sol, VI_CFG.newton_tol))

    def _check_oracle(self, u):
        if self.reference is None:
            return digest(u.values), ["oracle_no_reference"]
        return digest(u.values), gates.oracle_agreement(self.binding, self.reference, u)

    def new_pass(self):
        self.reference = None


class Qvi1d:
    """1D Picard loops on the four shipped QVI instances, the contraction
    certificate, and a second separated solve from a seeded feasible start."""

    name = "qvi-1d"

    def __init__(self, seed: int, scratch: Path):
        self.instances = qvi_instances()
        self.separated = qvi_separated_certified()
        self.c_star, _ = estimated_constants_1d()
        prob, op = self.separated.problem, self.separated.operator
        sampling = prob.with_threshold(op.apply(zero_field(prob.mask.grid)))
        self.init = vi.sample_feasible(sampling, np.random.default_rng(seed))
        multiplier_table(prob.mask.grid, prob.sigma)
        self.first = None

    def _solve(self, inst, init=None):
        return qvi.solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                             outer_tol=QVI_OUTER_TOL, init=init)

    def ops(self) -> list:
        ops = [Op(f"qvi_s.{inst.name}", lambda inst=inst: self._solve(inst),
                  lambda sol, inst=inst: self._check_qvi(inst, sol))
               for inst in self.instances]
        prob, op = self.separated.problem, self.separated.operator
        ops.append(Op(
            "certificate_s",
            lambda: qvi.contraction_certificate(prob.f, prob.mask, prob.sigma, op,
                                                self.c_star, prob.A.a_star),
            lambda rep: (digest(np.array([rep.q, rep.R_f, rep.C_sharp])),
                         gates.certificate(rep))))
        ops.append(Op("qvi_s.separated_sampled_init",
                      lambda: self._solve(self.separated, init=self.init),
                      self._check_second_start))
        return ops

    def _check_qvi(self, inst, sol):
        failed = gates.qvi_solution(inst.problem, sol, self.c_star)
        if inst is self.separated:
            self.first = sol
            failed += gates.contraction_rate(sol)
        return digest(sol.u.values, sol.g_fixed.g.values), failed

    def _check_second_start(self, sol):
        failed = gates.qvi_solution(self.separated.problem, sol, self.c_star)
        if self.first is None:
            failed.append("qvi_no_reference")
        else:
            failed += gates.two_init_gap(self.first, sol,
                                         self.separated.problem.sigma, QVI_OUTER_TOL)
        return digest(sol.u.values, sol.g_fixed.g.values), failed

    def new_pass(self):
        self.first = None


CLI_JOBS = (
    [(sub, "binding1d.cfg") for sub in (
        "solve-vi", "oracle-check", "penalty-sweep", "study-lipschitz",
        "study-holder", "study-sigma-limit", "study-mosco")]
    + [(sub, "qvi_separated1d.cfg") for sub in ("solve-qvi", "certificate")])


class Cli1d:
    """The shipped 1D CLI jobs, run in-process into a fresh output directory
    each, with the workload seed as ``--seed``."""

    name = "cli-1d"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.configs = Path("configs").resolve()
        self.scratch = scratch
        self.passes = 0
        # the CLI's grids and orders, so that the first pass finds warm caches
        grid = make_grid(1, 2.0, 128)
        for sigma in (0.5, 0.9, 0.99, 1.0):
            multiplier_table(grid, sigma)

    def new_pass(self):
        self.passes += 1

    def ops(self) -> list:
        return [Op(f"cli_s.{sub}", lambda sub=sub, cfg=cfg: self._run(sub, cfg),
                   self._check)
                for sub, cfg in CLI_JOBS]

    def _run(self, sub, cfg):
        out = self.scratch / f"pass{self.passes}" / sub
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.run(str(self.configs / cfg), sub, out_dir=str(out),
                             seed=self.seed)
        return status, out

    def _check(self, res):
        # the digest covers every artifact, CSV bytes included, so the
        # pass-to-pass comparison checks that they repeat exactly
        status, out = res
        h = hashlib.sha256()
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()[:16], gates.cli_job(status, out)


WORKLOADS = {w.name: w for w in (Vi2d, Qvi1d, Cli1d)}
