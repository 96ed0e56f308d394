"""Configuration-driven command-line front end.

Subcommands build a problem from a flat INI config, run the requested
solve or study, and write FVF/CSV artifacts plus a machine-readable run
log; the artifact manifest is written last so interrupted runs are
detectable.  Exit codes: 0 success, 1 config error, 2 solver divergence,
3 failed study/acceptance bound.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .fields import (
    ScalarField,
    make_grid,
    mask_box,
    read_fvf,
    scalar_field,
    write_csv,
    write_fvf,
)
from .oracle import check_oracle_input, oracle_solve_vi
from .qvi import (
    ConstantGamma,
    FracGradKernelOperator,
    IntegralGamma,
    KernelIntegralOperator,
    OuterFunction,
    QVIProblem,
    SeparatedOperator,
    SuperpositionOperator,
    contraction_certificate,
    estimate_poincare_constant,
    estimate_sobolev_constant,
    solve_qvi,
)
from .studies import (
    holder_study_g,
    lipschitz_study_f,
    mosco_diagnostic,
    penalty_trace_study,
    sigma_limit_study,
)
from .vi import (
    EllipticCoefficients,
    PenaltyConfig,
    ProblemData,
    SolverDivergence,
    Threshold,
    energy,
    identity_coefficients,
    solve_vi,
)
from .fracgrad import FracOrder, hsigma_norm, random_band_limited

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_BOUND = 3

SUBCOMMANDS = ("solve-vi", "solve-qvi", "penalty-sweep", "study-lipschitz",
               "study-holder", "study-sigma-limit", "study-mosco",
               "certificate", "oracle-check")

_ALLOWED_KEYS = {
    "grid": {"dim", "extent", "resolution", "omega_halfwidth"},
    "problem": {"sigma", "coefficients", "a_star", "a_upper", "f", "g", "nu"},
    "penalty": {f.name for f in fields(PenaltyConfig)},
    "qvi": {"variant", "phi", "gamma", "kernel", "outer", "outer_tol", "outer_max"},
    "study-lipschitz": {"deltas"},
    "study-holder": {"t_values", "h"},
    "study-sigma-limit": {"sigmas", "kmax"},
    "study-mosco": {"factors"},
    "run": {"seed", "out"},
}


class ConfigError(ValueError):
    pass


class RunLog:
    def __init__(self, path: Path):
        self.path = path
        self.records = []

    def event(self, name: str, /, **fields):
        self.records.append({"event": name, **fields})

    def flush(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        extra = set(parser[section]) - _ALLOWED_KEYS[section]
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
    return parser


_REQUIRED = object()


def _get(cfg, section, key, cast, default=_REQUIRED):
    if not cfg.has_option(section, key):
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing [{section}] {key}")
    raw = cfg.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _get_list(cfg, section, key, build):
    """[section] key as a comma-separated list, each item through `build`;
    a ValueError from any item becomes a ConfigError naming the key."""
    raw = _get(cfg, section, key, str)
    try:
        return [build(item) for item in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc


def _positive_int(raw: str) -> int:
    n = int(raw)
    if n < 1:
        raise ValueError(f"{raw!r} is not a positive integer")
    return n


def _nonnegative_int(raw: str) -> int:
    n = int(raw)
    if n < 0:
        raise ValueError(f"{raw!r} is not an integer >= 0")
    return n


def _finite_float(raw: str) -> float:
    t = float(raw)
    if not math.isfinite(t):
        raise ValueError(f"{raw!r} is not a finite number")
    return t


def _positive_float(raw: str) -> float:
    t = _finite_float(raw)
    if t <= 0.0:
        raise ValueError(f"{raw!r} is not a number > 0")
    return t


def _nonnegative_float(raw: str) -> float:
    t = _finite_float(raw)
    if t < 0.0:
        raise ValueError(f"{raw!r} is not a number >= 0")
    return t


def _built_from_config(build):
    """Report a ValueError, IndexError or OSError (an unreadable input file)
    raised while `build` turns config values into objects as a ConfigError."""
    def wrapper(*args):
        try:
            return build(*args)
        except ConfigError:
            raise
        except (ValueError, IndexError, OSError) as exc:
            raise ConfigError(f"bad config value ({type(exc).__name__}: {exc})") from exc
    return wrapper


def _scalar_file(path: Path, grid, what: str) -> ScalarField:
    """The scalar field stored in an FVF file, which must live on grid."""
    f = read_fvf(path)
    if not isinstance(f, ScalarField) or f.grid != grid:
        raise ConfigError(f"{what} file {path.name} does not match the grid")
    return f


@_built_from_config
def _field_from_spec(spec: str, grid, mask, base_dir: Path) -> ScalarField:
    """Presets: constant:<c>, mode:<k>:<amp> (sine along axis 0), file:<path>;
    constant and mode are restricted to the sub-domain."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "constant":
        return ScalarField(grid, np.where(mask.inside, float(parts[1]), 0.0))
    if kind == "mode":
        # a finite amplitude: inf times a zero of the sine is nan
        k, amp = int(parts[1]), _finite_float(parts[2])
        x0 = grid.coordinates()[0]
        vals = amp * np.sin(k * np.pi / grid.extent * x0)
        return ScalarField(grid, np.where(mask.inside, vals, 0.0))
    if kind == "file":
        return _scalar_file(base_dir / parts[1], grid, "field")
    raise ConfigError(f"unknown field spec {spec!r}")


def _threshold_from_spec(spec: str, grid, nu: float, base_dir: Path) -> Threshold:
    parts = spec.split(":")
    if parts[0] == "constant":
        return Threshold(scalar_field(grid, float(parts[1])), nu)
    if parts[0] == "file":
        return Threshold(_scalar_file(base_dir / parts[1], grid, "threshold"), nu)
    raise ConfigError(f"unknown threshold spec {spec!r}")


def _coefficients_from_spec(cfg, grid, base_dir: Path) -> EllipticCoefficients:
    spec = _get(cfg, "problem", "coefficients", str, "identity")
    parts = spec.split(":")
    if parts[0] == "identity":
        return identity_coefficients(grid)
    if parts[0] == "scale":
        return identity_coefficients(grid, float(parts[1]))
    a_star = _get(cfg, "problem", "a_star", float)
    a_upper = _get(cfg, "problem", "a_upper", float)
    if parts[0] == "file":
        f = _scalar_file(base_dir / parts[1], grid, "coefficients")
        return EllipticCoefficients(grid, f.values, a_star=a_star, a_upper=a_upper)
    if parts[0] == "matrix-file":
        raw = np.load(base_dir / parts[1])
        return EllipticCoefficients(grid, raw, a_star=a_star, a_upper=a_upper)
    raise ConfigError(f"unknown coefficients spec {spec!r}")


@_built_from_config
def _problem_from_config(cfg, base_dir: Path) -> tuple:
    grid = make_grid(_get(cfg, "grid", "dim", int),
                     _get(cfg, "grid", "extent", float),
                     _get(cfg, "grid", "resolution", int))
    mask = mask_box(grid, _get(cfg, "grid", "omega_halfwidth", float))
    sigma = _get(cfg, "problem", "sigma", float)
    A = _coefficients_from_spec(cfg, grid, base_dir)
    f = _field_from_spec(_get(cfg, "problem", "f", str), grid, mask, base_dir)
    nu = _get(cfg, "problem", "nu", float)
    thr = _threshold_from_spec(_get(cfg, "problem", "g", str), grid, nu, base_dir)
    data = ProblemData(mask, sigma, A, f, thr)
    # each set [penalty] key, cast to the type of its PenaltyConfig default
    pen = PenaltyConfig(**_set_only({
        f.name: _get(cfg, "penalty", f.name, type(f.default), None)
        for f in fields(PenaltyConfig)}))
    return data, pen


def _set_only(options: dict) -> dict:
    """The options read with default None that the config sets."""
    return {key: value for key, value in options.items() if value is not None}


def _gamma_from_spec(spec: str, mask, sigma: float):
    parts = spec.split(":")
    if parts[0] == "constant":
        return ConstantGamma(float(parts[1]))
    if parts[0] == "integral":
        cp = estimate_poincare_constant(mask, sigma)
        return IntegralGamma(float(parts[1]), float(parts[2]), mask, sigma, cp)
    raise ConfigError(f"unknown gamma spec {spec!r}")


@_built_from_config
def _operator_from_config(cfg, data: ProblemData):
    variant = _get(cfg, "qvi", "variant", str)
    mask, sigma = data.mask, data.sigma

    def outer():
        parts = _get(cfg, "qvi", "outer", str).split(":")
        return OuterFunction(nu=float(parts[1]), coeff=float(parts[2]), ramp=parts[0])

    if variant == "superposition":
        return SuperpositionOperator(outer())
    if variant in ("kernel", "fracgrad"):
        parts = _get(cfg, "qvi", "kernel", str).split(":")
        if parts[0] != "gaussian":
            raise ConfigError(f"unknown kernel spec {parts[0]!r}")
        width = float(parts[1])
        if variant == "kernel":
            return KernelIntegralOperator.gaussian(mask, width, outer())
        return FracGradKernelOperator.gaussian(mask, sigma, width, outer())
    if variant == "separated":
        phi_spec = _get(cfg, "qvi", "phi", str)
        parts = phi_spec.split(":")
        if parts[0] != "constant":
            raise ConfigError(f"unknown phi spec {phi_spec!r}")
        phi = scalar_field(mask.grid, float(parts[1]))
        gamma = _gamma_from_spec(_get(cfg, "qvi", "gamma", str), mask, sigma)
        return SeparatedOperator(phi, gamma)
    raise ConfigError(f"unknown qvi variant {variant!r}")


@_built_from_config
def _certificate(data: ProblemData, operator: SeparatedOperator):
    """Contraction certificate from the certified embedding constant C*."""
    c_star = estimate_sobolev_constant(data.mask, data.sigma)
    return contraction_certificate(data.f, data.mask, data.sigma, operator,
                                   c_star, data.A.a_star)


def _diag_rows(sol) -> list:
    rows = []
    for r in sol.trace:
        rows.append([r.eps, r.newton_iters, r.residual, r.feas_violation,
                     r.comp_gap, r.norm_dsu_l2, r.k_eps_l1, r.k_eps_dsu2_l1,
                     "" if r.energy is None else r.energy])
    return rows


DIAG_COLUMNS = ["eps", "newton_iters", "residual", "feas_violation", "comp_gap",
                "norm_Dsu_L2", "k_eps_L1", "k_eps_Dsu2_L1", "energy"]


def _write_study(report, out: Path, log: RunLog, artifacts: list) -> int:
    csv_path = out / f"{report.kind}.csv"
    report.to_csv(csv_path)
    artifacts.append(csv_path.name)
    summary_path = out / f"{report.kind}_summary.txt"
    summary_path.write_text(report.summary() + "\n", encoding="utf-8")
    artifacts.append(summary_path.name)
    print(report.summary())
    for c in report.checks:
        log.event("bound_check", name=c.name, observed=c.observed,
                  bound=c.bound, passed=c.passed, provenance=c.provenance)
    return EXIT_OK if report.passed else EXIT_BOUND


def _write_certificate(report, out: Path, artifacts: list) -> None:
    write_csv(out / "certificate.csv",
              ["C_sharp", "R_f", "eta", "gamma", "q", "certified"],
              [[report.C_sharp, report.R_f, report.eta_Rf, report.gamma_Rf,
                report.q, report.certified]])
    artifacts.append("certificate.csv")


def run(config_path: str, subcommand: str, out_dir: str | None = None,
        seed: int | None = None) -> int:
    """Execute one subcommand against a config; returns the exit status."""
    if subcommand not in SUBCOMMANDS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return EXIT_CONFIG
    base_dir = Path(config_path).resolve().parent
    # a relative output directory is taken relative to the config file
    out = base_dir / out_dir if out_dir else None
    load_error = None
    try:
        cfg = _load_config(config_path)
        out = out or base_dir / _get(cfg, "run", "out", str, "out")
        if seed is None:
            seed = _get(cfg, "run", "seed", _nonnegative_int, 0)
        elif seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
    except ConfigError as exc:
        if out is None:  # nowhere to log it
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        load_error = exc

    out.mkdir(parents=True, exist_ok=True)
    log = RunLog(out / "run.log")
    log.event("start", subcommand=subcommand, config=str(config_path),
              seed=seed)
    artifacts = []
    try:
        if load_error is not None:
            raise load_error
        status = _dispatch(subcommand, cfg, base_dir, out, seed, log, artifacts)
    except ConfigError as exc:
        log.event("error", kind="config", reason=str(exc))
        log.flush()
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverDivergence as exc:
        log.event("error", kind="divergence", reason=str(exc),
                  history=[float(h) for h in exc.history],
                  krylov_nonconverged=exc.krylov_nonconverged)
        log.flush()
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except BaseException as exc:
        log.event("error", kind="internal", reason=f"{type(exc).__name__}: {exc}")
        log.flush()
        raise
    log.event("done", status=status)
    log.flush()
    artifacts.append("run.log")
    write_csv(out / "manifest.csv", ["artifact"], [[a] for a in artifacts])
    return status


def _dispatch(subcommand, cfg, base_dir, out, seed, log, artifacts) -> int:
    if subcommand == "solve-vi":
        data, pen = _problem_from_config(cfg, base_dir)
        sol = solve_vi(data, pen)
        write_fvf(out / "u.fvf", sol.u)
        write_fvf(out / "lambda.fvf", sol.multiplier)
        write_csv(out / "diagnostics.csv", DIAG_COLUMNS, _diag_rows(sol))
        artifacts.extend(["u.fvf", "lambda.fvf", "diagnostics.csv"])
        log.event("solved", eps_final=sol.eps_final,
                  feas_violation=sol.feas_violation, comp_gap=sol.comp_gap)
        print(f"solve-vi: eps_final={sol.eps_final:.4g} "
              f"feas_violation={sol.feas_violation:.4g} comp_gap={sol.comp_gap:.4g}")
        return EXIT_OK

    if subcommand == "solve-qvi":
        data, pen = _problem_from_config(cfg, base_dir)
        operator = _operator_from_config(cfg, data)
        problem = QVIProblem(data.mask, data.sigma, data.A, data.f)
        sol = solve_qvi(problem, operator, pen, **_set_only({
            "outer_tol": _get(cfg, "qvi", "outer_tol", _positive_float, None),
            "outer_max": _get(cfg, "qvi", "outer_max", _positive_int, None)}))
        write_fvf(out / "u.fvf", sol.u)
        write_fvf(out / "g_fixed.fvf", sol.g_fixed.g)
        rows = [[r.outer_iter, r.fp_residual, r.damping, r.inner_eps_final,
                 r.feas_violation, r.comp_gap] for r in sol.trace]
        write_csv(out / "qvi_trace.csv",
                  ["outer_iter", "fp_residual", "damping", "inner_eps_final",
                   "feas_violation", "comp_gap"], rows)
        artifacts.extend(["u.fvf", "g_fixed.fvf", "qvi_trace.csv"])
        if isinstance(operator, SeparatedOperator):
            _write_certificate(_certificate(data, operator), out, artifacts)
        log.event("solved", outer_iters=sol.iterations, converged=sol.converged,
                  fp_residual=sol.fixed_point_residual)
        print(f"solve-qvi: iters={sol.iterations} converged={sol.converged} "
              f"fp_residual={sol.fixed_point_residual:.4g}")
        if not sol.converged:
            return EXIT_DIVERGED
        return EXIT_OK

    if subcommand == "penalty-sweep":
        data, pen = _problem_from_config(cfg, base_dir)
        return _write_study(penalty_trace_study(data, pen), out, log, artifacts)

    if subcommand == "study-lipschitz":
        data, pen = _problem_from_config(cfg, base_dir)
        deltas = _get_list(cfg, "study-lipschitz", "deltas",
                           lambda t: ScalarField(data.grid, _finite_float(t) * data.f.values))
        return _write_study(lipschitz_study_f(data, deltas, pen), out, log, artifacts)

    if subcommand == "study-holder":
        data, pen = _problem_from_config(cfg, base_dir)
        ts = _get_list(cfg, "study-holder", "t_values", _nonnegative_float)
        h = _field_from_spec(_get(cfg, "study-holder", "h", str), data.grid,
                             data.mask, base_dir)
        h = ScalarField(data.grid, np.abs(h.values))
        return _write_study(holder_study_g(data, ts, h, pen), out, log, artifacts)

    if subcommand == "study-sigma-limit":
        data, _ = _problem_from_config(cfg, base_dir)
        sigmas = _get_list(cfg, "study-sigma-limit", "sigmas",
                           lambda s: FracOrder(float(s)).sigma)
        kmax = _get(cfg, "study-sigma-limit", "kmax", _positive_int, 2)
        rng = np.random.default_rng(seed)
        u = random_band_limited(data.grid, rng, kmax=kmax)
        u = ScalarField(data.grid, np.where(data.mask.inside, u.values, 0.0))
        return _write_study(sigma_limit_study(u, sigmas), out, log, artifacts)

    if subcommand == "study-mosco":
        data, pen = _problem_from_config(cfg, base_dir)
        ns = _get_list(cfg, "study-mosco", "factors", _positive_int)
        gs = [Threshold(ScalarField(data.grid, data.g.g.values * (1.0 + 1.0 / n)),
                        data.g.nu) for n in ns]
        return _write_study(mosco_diagnostic(data, gs, pen), out, log, artifacts)

    if subcommand == "certificate":
        data, _ = _problem_from_config(cfg, base_dir)
        operator = _operator_from_config(cfg, data)
        if not isinstance(operator, SeparatedOperator):
            raise ConfigError("certificate requires the separated variant")
        report = _certificate(data, operator)
        _write_certificate(report, out, artifacts)
        log.event("certificate", q=report.q, certified=report.certified)
        print(f"certificate: q={report.q:.4g} certified={report.certified}")
        return EXIT_OK

    if subcommand == "oracle-check":
        data, pen = _problem_from_config(cfg, base_dir)
        # the oracle's refusal is a config error, reported before the solve
        _built_from_config(check_oracle_input)(data)
        sol = solve_vi(data, pen)
        u_ref = oracle_solve_vi(data)
        ref_norm = hsigma_norm(u_ref, data.sigma)
        gap = hsigma_norm(ScalarField(data.grid, sol.u.values - u_ref.values),
                          data.sigma)
        rel = gap / ref_norm if ref_norm > 0 else gap
        e_rel = abs(energy(sol.u, data) - energy(u_ref, data)) / max(
            abs(energy(u_ref, data)), 1e-300)
        write_csv(out / "oracle_check.csv",
                  ["rel_hsigma_gap", "rel_energy_gap"], [[rel, e_rel]])
        artifacts.append("oracle_check.csv")
        log.event("oracle_check", rel_hsigma_gap=rel, rel_energy_gap=e_rel)
        print(f"oracle-check: rel_hsigma_gap={rel:.4g} rel_energy_gap={e_rel:.4g}")
        return EXIT_OK if (rel <= 1e-3 and e_rel <= 1e-4) else EXIT_BOUND

    raise ConfigError(f"unhandled subcommand {subcommand!r}")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="frvi",
        description="Solvers for fractional-gradient-constrained problems")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument(
        "--out", default=None,
        help="output directory; a relative path is resolved against the "
             "directory of the config file, not the working directory "
             "(default: [run] out of the config, else 'out')")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.config, args.subcommand, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
