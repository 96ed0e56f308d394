"""Correctness gates applied to every benchmark operation.

Each gate returns the names of the checks that failed (an empty list when
the output is correct).  The bounds are those of the acceptance tests
(tests/test_acceptance.py): 05 for the oracle, 06 and 07 for VI solves, 12
and 13 for QVI solves.  A failed gate is counted by the caller; it never
aborts a run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from frvi.fields import ScalarField, lp_norm
from frvi.fracgrad import hsigma_norm
from frvi.qvi import sobolev_exponents
from frvi.vi import energy, multiplier_equation_residual

# a divergence is a failed operation, not an incorrect output
DIVERGED = "diverged"


def vi_solution(data, sol, newton_tol: float) -> list:
    """Acceptance 06 (feasibility, sign, complementarity, sampled
    inequality) and 07 (multiplier-equation residual)."""
    failed = []
    if not sol.feas_violation <= 1e-3 * data.g.nu:
        failed.append("feasibility")
    if not sol.multiplier.values.min() >= 0.0:
        failed.append("multiplier_sign")
    lam_l1 = lp_norm(sol.multiplier, 1)
    g_inf = float(data.g.g.values.max())
    comp_ok = (sol.comp_gap <= 1e-3 * lam_l1 * g_inf if lam_l1 > 0
               else sol.comp_gap == 0.0)
    if not comp_ok:
        failed.append("complementarity")
    scale = (abs(sol.energy) + 1.0 if sol.energy is not None
             else 1.0 + hsigma_norm(sol.u, data.sigma) ** 2)
    if not sol.vi_res >= -1e-6 * scale:
        failed.append("vi_residual")
    bound = 10.0 * newton_tol * (1.0 + float(np.abs(data.f.values).max()))
    if not multiplier_equation_residual(sol, data) <= bound:
        failed.append("multiplier_equation")
    return failed


def oracle_agreement(data, u_vi: ScalarField, u_oracle: ScalarField) -> list:
    """Acceptance 05: relative H^s gap <= 1e-3, relative energy gap <= 1e-4."""
    failed = []
    gap = hsigma_norm(ScalarField(data.grid, u_vi.values - u_oracle.values),
                      data.sigma)
    if not gap <= 1e-3 * hsigma_norm(u_oracle, data.sigma):
        failed.append("oracle_hsigma_gap")
    e_ref = energy(u_oracle, data)
    if not abs(energy(u_vi, data) - e_ref) <= 1e-4 * abs(e_ref):
        failed.append("oracle_energy_gap")
    return failed


def qvi_solution(problem, sol, c_star: float) -> list:
    """Acceptance 13: converged, iterates inside 1.1x the a priori radius."""
    failed = [] if sol.converged else ["qvi_converged"]
    _, two_sharp = sobolev_exponents(problem.mask.grid.dim, problem.sigma)
    bound = 1.1 * (2.0 * c_star / problem.A.a_star) * lp_norm(
        problem.f, two_sharp, problem.mask)
    if not max(r.iterate_norm for r in sol.trace) <= bound:
        failed.append("qvi_apriori_bound")
    return failed


def contraction_rate(sol) -> list:
    """Acceptance 12: successive fixed-point residual ratios <= 0.6."""
    res = [r.fp_residual for r in sol.trace]
    if all(b <= 0.6 * a for a, b in zip(res, res[1:])):
        return []
    return ["qvi_contraction_rate"]


def certificate(report) -> list:
    """Acceptance 12: certified, with q within 0.05 of its 0.5 target."""
    return [] if report.certified and abs(report.q - 0.5) <= 0.05 else ["certificate_q"]


def two_init_gap(sol_a, sol_b, sigma: float, outer_tol: float) -> list:
    """Acceptance 12: two starts reach the same fixed point."""
    gap = hsigma_norm(ScalarField(sol_a.u.grid, sol_a.u.values - sol_b.u.values), sigma)
    bound = 10.0 * outer_tol * (1.0 + hsigma_norm(sol_a.u, sigma))
    return [] if gap <= bound else ["qvi_two_init_gap"]


def cli_job(status: int, out: Path) -> list:
    """Exit 0 and a manifest that lists every artifact the job wrote; exit
    2 is the CLI's report of a solver divergence."""
    failed = {0: [], 2: [DIVERGED]}.get(status, [f"exit_{status}"])
    manifest = out / "manifest.csv"
    if not manifest.is_file():
        return failed + ["manifest_missing"]
    listed = set(manifest.read_text(encoding="utf-8").split()[1:])
    written = {p.name for p in out.iterdir()} - {"manifest.csv"}
    if listed != written:
        failed.append("manifest_mismatch")
    return failed
