"""Experiment drivers checking the solver's quantitative behaviour:
Lipschitz dependence on the source, half-order Hoelder dependence on the
threshold, the classical-gradient limit, penalty traces along the
continuation, and the threshold-continuity (Mosco-type) diagnostic.  The
first two and the last pass their base solution to each perturbed solve
(solve_vi continues it on the dense path).

Every bound check assembles its constant from measured ingredients only
(ellipticity bounds, the threshold floor, source norms and the certified
embedding constants C_inf and C*); each check records that provenance
string next to the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, VectorField, lp_norm, write_csv
from .fracgrad import frac_gradient, hsigma_norm
from .qvi import estimate_sobolev_constant, estimate_sup_constant, sobolev_exponents
from .vi import PenaltyConfig, ProblemData, Threshold, solve_vi

@dataclass
class BoundCheck:
    name: str
    observed: float
    bound: float
    provenance: str

    @property
    def passed(self) -> bool:
        return bool(self.observed <= self.bound)


@dataclass
class StudyReport:
    kind: str
    columns: list
    rows: list
    checks: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        verdicts = "; ".join(
            f"{c.name}={'PASS' if c.passed else 'FAIL'}"
            f" ({c.observed:.4g} vs {c.bound:.4g})" for c in self.checks)
        consts = " ".join(f"{k}={v:.6g}" for k, v in self.constants.items())
        return f"{self.kind}: {verdicts} | {consts}"

    def to_csv(self, path) -> None:
        write_csv(path, self.columns, self.rows)


def _holder_constant(data: ProblemData, c_inf: float) -> tuple:
    """(C_nu, |f|_L1) with C_nu = sqrt(C'_nu / a_*) and
    C'_nu = 2 C_inf^2 |f|_L1^2 (a^* + a_*) / (a_*^2 nu)."""
    a_star, a_up = data.A.a_star, data.A.a_upper
    f_l1 = lp_norm(data.f, 1, data.mask)
    c_nu_prime = 2.0 * c_inf**2 * f_l1**2 * (a_up + a_star) / (a_star**2 * data.g.nu)
    return math.sqrt(c_nu_prime / a_star), f_l1


def lipschitz_study_f(base: ProblemData, deltas: list,
                      cfg: PenaltyConfig | None = None) -> StudyReport:
    """Solve pairs (f, f + delta) at fixed threshold and compare the
    solution gap against the source gap in the dual-exponent and L1 norms."""
    cfg = cfg or PenaltyConfig()
    _, two_sharp = sobolev_exponents(base.grid.dim, base.sigma)
    sol0 = solve_vi(base, cfg)
    rows = []
    ratios_sharp, ratios_l1 = [], []
    for i, delta in enumerate(deltas):
        dn_sharp = lp_norm(delta, two_sharp, base.mask)
        dn_l1 = lp_norm(delta, 1, base.mask)
        if dn_sharp == 0.0:
            rows.append([i, 0.0, 0.0, "", "", "skipped"])
            continue
        data2 = ProblemData(base.mask, base.sigma, base.A,
                            ScalarField(base.grid, base.f.values + delta.values),
                            base.g)
        sol2 = solve_vi(data2, cfg, init=sol0)
        du = hsigma_norm(ScalarField(base.grid, sol2.u.values - sol0.u.values),
                         base.sigma)
        ratios_sharp.append(du / dn_sharp)
        ratios_l1.append(du / dn_l1)
        rows.append([i, dn_sharp, dn_l1, du / dn_sharp, du / dn_l1, "solved"])
    c_inf = estimate_sup_constant(base.mask, base.sigma)
    c_star = estimate_sobolev_constant(base.mask, base.sigma)
    c_sharp = c_star / base.A.a_star
    checks = [
        BoundCheck("lipschitz_2sharp", max(ratios_sharp, default=0.0), c_sharp,
                   f"C_sharp = certified C*({c_star:.4g}) / a*"),
        BoundCheck("lipschitz_l1", max(ratios_l1, default=0.0),
                   c_inf / base.A.a_star,
                   f"C_1 = certified C_inf({c_inf:.4g}) / a*"),
    ]
    return StudyReport(
        kind="lipschitz_f",
        columns=["case", "df_2sharp", "df_l1", "ratio_2sharp", "ratio_l1", "status"],
        rows=rows, checks=checks,
        constants={"C_sharp": c_sharp, "C_inf": c_inf,
                   "C_star": c_star, "a_star": base.A.a_star})


def holder_study_g(base: ProblemData, t_values: list, h_direction: ScalarField,
                   cfg: PenaltyConfig | None = None) -> StudyReport:
    """Solve with thresholds g + t h for decreasing t and monitor the
    normalized gap rho(t) = ||du|| / (t ||h||_inf)^(1/2)."""
    cfg = cfg or PenaltyConfig()
    if float(h_direction.values.min()) < 0.0:
        raise ValueError("threshold perturbation must be nonnegative")
    h_inf = float(np.abs(h_direction.values).max())
    sol0 = solve_vi(base, cfg)
    rows = []
    rhos = []
    for t in t_values:
        if t == 0.0 or h_inf == 0.0:
            rows.append([t, 0.0, 0.0, "skipped"])
            continue
        thr = Threshold(ScalarField(
            base.grid, base.g.g.values + t * h_direction.values), base.g.nu)
        sol_t = solve_vi(ProblemData(base.mask, base.sigma, base.A, base.f, thr), cfg,
                         init=sol0)
        du = hsigma_norm(ScalarField(base.grid, sol_t.u.values - sol0.u.values),
                         base.sigma)
        rho = du / math.sqrt(t * h_inf)
        rhos.append((t, rho))
        rows.append([t, du, rho, "solved"])
    c_inf = estimate_sup_constant(base.mask, base.sigma)
    c_nu, f_l1 = _holder_constant(base, c_inf)
    rho_vals = [r for _, r in rhos]
    checks = [BoundCheck("holder_bound", max(rho_vals, default=0.0), c_nu,
                         f"C_nu = sqrt(C'_nu/a*), C'_nu = 2 C_inf^2 |f|_L1^2 "
                         f"(a*+a_*)/(a_*^2 nu), certified C_inf={c_inf:.4g}")]
    if len(rho_vals) >= 2:
        checks.append(BoundCheck(
            "holder_no_blowup", rho_vals[-1], 1.25 * max(rho_vals[:-1]),
            "rho at the smallest t must not exceed 1.25x the sup at larger t"))
    # observed exponent, reported without a gate
    exponent = float("nan")
    if len(rhos) >= 2:
        ts = np.array([t for t, _ in rhos])
        dus = np.array([r * math.sqrt(t * h_inf) for t, r in rhos])
        if np.all(dus > 0):
            exponent = float(np.polyfit(np.log(ts), np.log(dus), 1)[0])
    return StudyReport(
        kind="holder_g",
        columns=["t", "du_hsigma", "rho", "status"],
        rows=rows, checks=checks,
        constants={"C_nu": c_nu, "C_inf": c_inf, "nu": base.g.nu,
                   "f_l1": f_l1},
        notes={"observed_exponent": exponent})


def sigma_limit_study(u_ref: ScalarField, sigmas: list) -> StudyReport:
    """Distance of the fractional gradient to the classical one per order."""
    d1 = frac_gradient(u_ref, 1.0)
    rows = []
    errs = []
    for s in sigmas:
        ds = frac_gradient(u_ref, s)
        err = lp_norm(VectorField(u_ref.grid, tuple(
            a - b for a, b in zip(ds.components, d1.components))), 2)
        errs.append(err)
        rows.append([s, err])
    decreasing = all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    checks = [BoundCheck("sigma_limit_monotone", 0.0 if decreasing else 1.0, 0.5,
                         "distances must decrease along the sigma list (1e-12 noise)")]
    return StudyReport(kind="sigma_limit", columns=["sigma", "dist_to_gradient"],
                       rows=rows, checks=checks,
                       constants={"grad_norm": lp_norm(d1, 2)})


def penalty_trace_study(data: ProblemData, cfg: PenaltyConfig | None = None) -> StudyReport:
    """Monitored quantities along the continuation schedule: gradient norm,
    penalty-coefficient integrals, the three excess-set measures and the
    integrated excess."""
    cfg = cfg or PenaltyConfig()
    sol = solve_vi(data, cfg)
    rows = []
    for r in sol.trace:
        rows.append([r.eps, r.norm_dsu_l2, r.k_eps_l1, r.k_eps_dsu2_l1,
                     r.measure_u, r.measure_v, r.measure_w, r.excess_integral])
    first = sol.trace[0]
    checks = []
    for name, get in (("trace_dsu_l2", lambda r: r.norm_dsu_l2),
                      ("trace_k_l1", lambda r: r.k_eps_l1),
                      ("trace_k_dsu2_l1", lambda r: r.k_eps_dsu2_l1)):
        worst = max(get(r) for r in sol.trace)
        base_val = get(first)
        checks.append(BoundCheck(
            name, worst, 10.0 * base_val if base_val > 0 else 1e-12,
            "bounded by 10x the initial-eps value along the schedule"))
    cap_rows = [r for r in sol.trace if r.eps <= 0.1]
    if cap_rows:
        checks.append(BoundCheck(
            "cap_branch_unreached", max(r.measure_w for r in cap_rows), 0.0,
            "measure of the capped set must vanish for eps <= 0.1"))
    excess = [r.excess_integral for r in sol.trace]
    ok = all(excess[i + 1] <= 1.05 * excess[i] + 1e-12 for i in range(len(excess) - 1))
    checks.append(BoundCheck(
        "excess_decay", 0.0 if ok else 1.0, 0.5,
        "integrated excess nonincreasing along the schedule (5% upticks allowed)"))
    return StudyReport(
        kind="penalty_trace",
        columns=["eps", "norm_dsu_l2", "k_eps_l1", "k_eps_dsu2_l1",
                 "measure_u", "measure_v", "measure_w", "excess_integral"],
        rows=rows, checks=checks,
        constants={"eps_final": sol.eps_final})


def mosco_diagnostic(data: ProblemData, g_sequence: list,
                     cfg: PenaltyConfig | None = None) -> StudyReport:
    """Solution-map continuity diagnostic: threshold convergence should give
    solution convergence.  Explicitly a diagnostic, no set-convergence claim."""
    cfg = cfg or PenaltyConfig()
    sol0 = solve_vi(data, cfg)
    rows, devs, gaps = [], [], []
    for i, thr in enumerate(g_sequence):
        gap = float(np.abs(thr.g.values - data.g.g.values).max())
        sol_n = solve_vi(ProblemData(data.mask, data.sigma, data.A, data.f, thr), cfg,
                         init=sol0)
        dev = hsigma_norm(ScalarField(data.grid, sol_n.u.values - sol0.u.values),
                          data.sigma)
        rows.append([i, gap, dev])
        devs.append(dev)
        gaps.append(gap)
    c_inf = estimate_sup_constant(data.mask, data.sigma)
    c_nu, _ = _holder_constant(data, c_inf)
    checks = []
    order = np.argsort(gaps)
    ordered_devs = [devs[i] for i in order]
    ok = all(ordered_devs[i] <= ordered_devs[i + 1] + 1e-9 * (1 + ordered_devs[i + 1])
             for i in range(len(ordered_devs) - 1))
    checks.append(BoundCheck("deviation_decreasing_with_gap",
                             0.0 if ok else 1.0, 0.5,
                             "smaller threshold gap must give smaller deviation"))
    worst = max((d / math.sqrt(g) for d, g in zip(devs, gaps) if g > 0), default=0.0)
    checks.append(BoundCheck("holder_consistency", worst, c_nu,
                             f"deviations <= C_nu * gap^(1/2), certified C_inf={c_inf:.4g}"))
    return StudyReport(
        kind="mosco_diagnostic", columns=["case", "g_gap_inf", "dev_hsigma"],
        rows=rows, checks=checks,
        constants={"C_nu": c_nu, "C_inf": c_inf})
