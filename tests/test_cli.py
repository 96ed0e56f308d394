import contextlib
import hashlib
import io
import json
import re
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frvi.cli
import frvi.fracgrad
import frvi.vi
from frvi.cli import EXIT_CONFIG, EXIT_OK, main, run
from frvi.fields import make_grid, read_fvf, scalar_field, write_fvf
from frvi.instances import qvi_fracgrad_1d, qvi_kernel_1d

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BINDING = CONFIG_DIR / "binding1d.cfg"
QVI = CONFIG_DIR / "qvi_separated1d.cfg"


def test_solve_vi_writes_artifacts(tmp_path):
    out = tmp_path / "vi"
    assert run(str(BINDING), "solve-vi", out_dir=str(out)) == EXIT_OK
    for name in ("u.fvf", "lambda.fvf", "diagnostics.csv", "run.log",
                 "manifest.csv"):
        assert (out / name).exists(), name
    u = read_fvf(out / "u.fvf")
    assert u.grid.resolution == 128
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ("eps,newton_iters,residual,feas_violation,comp_gap,"
                      "norm_Dsu_L2,k_eps_L1,k_eps_Dsu2_L1,energy")


def test_manifest_lists_all_artifacts(tmp_path):
    out = tmp_path / "vi"
    run(str(BINDING), "solve-vi", out_dir=str(out))
    listed = {line.strip() for line in
              (out / "manifest.csv").read_text().splitlines()[1:]}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.csv"}
    assert listed == on_disk


@pytest.mark.parametrize("line, bad_line, reason, subcommand", [
    pytest.param("nu = 150.0", "nu = -1.0", "threshold lower bound violated",
                 "solve-vi", id="nu-negative"),
    pytest.param("f = constant:100.0", "f = constant", "IndexError",
                 "solve-vi", id="f-without-value"),
    pytest.param("g = constant:150.0", "g = constant:abc", "ValueError",
                 "solve-vi", id="g-not-a-number"),
    pytest.param("sigma = 0.5", "sigma = 1.5", "sigma must lie in (0, 1]",
                 "solve-vi", id="sigma-above-one"),
    pytest.param("ratio = 0.6", "ratio = 2", "ratio must lie in (0, 1)",
                 "solve-vi", id="ratio-above-one"),
    pytest.param("deltas = 0.1,-0.05,0.02", "deltas = 0.1,abc",
                 "[study-lipschitz] deltas", "study-lipschitz", id="deltas-not-a-number"),
    pytest.param("t_values = 0.4,0.2,0.1,0.05", "t_values = 0.4,-0.2",
                 "[study-holder] t_values", "study-holder", id="t-values-negative"),
    pytest.param("h = constant:30.0", "h = constant", "IndexError",
                 "study-holder", id="h-without-value"),
    pytest.param("sigmas = 0.5,0.9,0.99", "sigmas = 0.5,x",
                 "[study-sigma-limit] sigmas", "study-sigma-limit", id="sigmas-not-a-number"),
    pytest.param("sigmas = 0.5,0.9,0.99", "sigmas = 0.5,1.5",
                 "sigma must lie in (0, 1]", "study-sigma-limit", id="sigmas-above-one"),
    pytest.param("factors = 2,4,8,16", "factors = 2,0",
                 "[study-mosco] factors", "study-mosco", id="factors-zero"),
    pytest.param("factors = 2,4,8,16", "factors = 2,4.5",
                 "[study-mosco] factors", "study-mosco", id="factors-not-an-integer"),
    pytest.param("newton_tol = 2e-5", "newton_tol = nan", "invalid solver controls",
                 "solve-vi", id="newton-tol-nan"),
    pytest.param("newton_tol = 2e-5", "newton_tol = inf", "invalid solver controls",
                 "solve-vi", id="newton-tol-inf"),
    pytest.param("nu = 150.0", "nu = inf", "threshold lower bound violated",
                 "solve-vi", id="nu-inf"),
    pytest.param("h = constant:30.0", "h = constant:nan", "non-finite",
                 "study-holder", id="h-nan"),
    pytest.param("t_values = 0.4,0.2,0.1,0.05", "t_values = 0.4,inf",
                 "[study-holder] t_values", "study-holder", id="t-values-inf"),
    pytest.param("deltas = 0.1,-0.05,0.02", "deltas = 0.1,inf",
                 "[study-lipschitz] deltas", "study-lipschitz", id="deltas-inf"),
    pytest.param("kmax = 2", "kmax = -1", "[study-sigma-limit] kmax",
                 "study-sigma-limit", id="kmax-negative"),
    pytest.param("kmax = 2", "kmax = 0", "[study-sigma-limit] kmax",
                 "study-sigma-limit", id="kmax-zero"),
    pytest.param("seed = 0", "seed = -1", "[run] seed",
                 "study-sigma-limit", id="seed-negative"),
])
def test_invalid_nu_exits_config_error(tmp_path, line, bad_line, reason, subcommand):
    text = BINDING.read_text()
    assert text.count(line) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(line, bad_line))
    out = tmp_path / "out"
    assert run(str(bad), subcommand, out_dir=str(out)) == EXIT_CONFIG
    reasons = [json.loads(line) for line in
               (out / "run.log").read_text().splitlines()]
    errors = [r for r in reasons if r["event"] == "error"]
    assert errors and errors[0]["kind"] == "config"
    assert reason in errors[0]["reason"]
    assert not (out / "manifest.csv").exists()  # crash-detectable


def test_unknown_key_rejected(tmp_path):
    # rejected while the config loads, and still logged under --out
    text = BINDING.read_text()
    cases = [
        ("o1", text + "\n[grid]\n", "malformed config"),  # duplicate section
        ("o2", text.replace("[grid]", "[grid]\nwhatever = 3"), "unknown keys in [grid]"),
        ("o3", text.replace("[penalty]", "[penalty]\ndamping = 1.0"),
         "unknown keys in [penalty]"),  # a removed key
        ("o4", None, "cannot read config"),
    ]
    for name, cfg, reason in cases:
        bad = tmp_path / f"{name}.cfg"
        if cfg is not None:
            bad.write_text(cfg)
        out = tmp_path / name
        assert run(str(bad), "solve-vi", out_dir=str(out)) == EXIT_CONFIG, name
        records = [json.loads(line) for line in (out / "run.log").read_text().splitlines()]
        assert [r["event"] for r in records] == ["start", "error"], name
        assert records[1]["kind"] == "config" and reason in records[1]["reason"], name
        assert not (out / "manifest.csv").exists()


def test_binding_jobs_run_no_sampled_diagnostic(tmp_path, monkeypatch):
    # no job reads a solution's vi_res, so none pays for vi_residual
    calls = []
    monkeypatch.setattr(frvi.vi, "vi_residual", lambda *args, **kwargs: calls.append(args))
    for sub in ("solve-vi", "oracle-check", "penalty-sweep", "study-lipschitz",
                "study-holder", "study-sigma-limit", "study-mosco"):
        assert run(str(BINDING), sub, out_dir=str(tmp_path / sub)) == EXIT_OK, sub
    assert calls == []


SHIPPED_JOBS = [(sub, BINDING) for sub in (
    "solve-vi", "oracle-check", "penalty-sweep", "study-lipschitz", "study-holder",
    "study-sigma-limit", "study-mosco")] + [(sub, QVI) for sub in ("solve-qvi", "certificate")]


def test_shipped_jobs_decompose_each_gram_matrix_once(tmp_path, monkeypatch):
    # the rank test of the dense Newton path and the embedding constants
    # read one certified spectrum per (mask, sigma); no job forms G^T G
    products = []

    class CountedGradient(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and all(isinstance(x, CountedGradient) for x in inputs):
                products.append(ufunc)
            plain = [x.view(np.ndarray) if isinstance(x, CountedGradient) else x
                     for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    eigh, gradient_matrix = np.linalg.eigh, frvi.vi.gradient_matrix
    decomposed = []

    def counted_eigh(a, *args, **kwargs):
        decomposed.append(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
        return eigh(a, *args, **kwargs)

    def clear_caches():
        frvi.fracgrad.gram_spectrum.cache_clear()
        frvi.vi._cached_gradient_matrix.cache_clear()

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(frvi.vi, "gradient_matrix",
                        lambda *args: gradient_matrix(*args).view(CountedGradient))
    try:
        for sub, cfg in SHIPPED_JOBS:
            clear_caches()
            decomposed.clear()
            assert run(str(cfg), sub, out_dir=str(tmp_path / sub)) == EXIT_OK, sub
            assert len(decomposed) == len(set(decomposed)), (sub, len(decomposed))
            assert products == [], sub
    finally:
        clear_caches()  # no counted gradient outlives the test


def test_unknown_subcommand_rejected(tmp_path):
    assert run(str(BINDING), "explode", out_dir=str(tmp_path)) == EXIT_CONFIG


def test_oracle_check_agreement(tmp_path):
    out = tmp_path / "oc"
    assert run(str(BINDING), "oracle-check", out_dir=str(out)) == EXIT_OK
    body = (out / "oracle_check.csv").read_text().splitlines()
    rel, e_rel = (float(v) for v in body[1].split(","))
    assert rel <= 1e-3 and e_rel <= 1e-4


def test_solve_qvi_with_certificate(tmp_path):
    out = tmp_path / "qvi"
    assert run(str(QVI), "solve-qvi", out_dir=str(out)) == EXIT_OK
    for name in ("u.fvf", "g_fixed.fvf", "qvi_trace.csv", "certificate.csv"):
        assert (out / name).exists(), name
    cert = (out / "certificate.csv").read_text().splitlines()
    assert cert[0] == "C_sharp,R_f,eta,gamma,q,certified"
    assert cert[1].endswith("True")


def test_study_subcommands_pass(tmp_path):
    for sub, artifact in (("study-sigma-limit", "sigma_limit.csv"),
                          ("penalty-sweep", "penalty_trace.csv"),
                          ("study-holder", "holder_g.csv"),
                          ("study-mosco", "mosco_diagnostic.csv")):
        out = tmp_path / sub
        assert run(str(BINDING), sub, out_dir=str(out)) == EXIT_OK, sub
        assert (out / artifact).exists()


def test_certificate_subcommand(tmp_path):
    out = tmp_path / "cert"
    assert run(str(QVI), "certificate", out_dir=str(out)) == EXIT_OK
    assert (out / "certificate.csv").exists()


def test_csv_outputs_bit_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(str(BINDING), "solve-vi", out_dir=str(out1), seed=7) == EXIT_OK
    assert run(str(BINDING), "solve-vi", out_dir=str(out2), seed=7) == EXIT_OK
    assert (out1 / "diagnostics.csv").read_bytes() == \
        (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "u.fvf").read_bytes() == (out2 / "u.fvf").read_bytes()


def test_console_entry_point(tmp_path):
    out = tmp_path / "cli"
    res = subprocess.run(
        [sys.executable, "-m", "frvi.cli", "penalty-sweep", "--config",
         str(BINDING), "--out", str(out), "--seed", "0"],
        capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "penalty_trace" in res.stdout


def _error_events(out):
    records = [json.loads(line) for line in
               (out / "run.log").read_text().splitlines()]
    return [r for r in records if r["event"] == "error"]


@pytest.mark.parametrize("extent, reason", [
    pytest.param(2.0, None, id="matching-grid"),
    pytest.param(3.0, "coefficients file coef.fvf does not match the grid",
                 id="same-shape-other-extent"),
])
def test_coefficients_file_checks_its_grid(tmp_path, extent, reason):
    # binding1d's grid is 128 nodes on extent 2.0
    write_fvf(tmp_path / "coef.fvf", scalar_field(make_grid(1, extent, 128), 1.5))
    cfg = tmp_path / "coef.cfg"
    cfg.write_text(BINDING.read_text().replace(
        "coefficients = identity",
        "coefficients = file:coef.fvf\na_star = 1.0\na_upper = 2.0"))
    out = tmp_path / "out"
    status = run(str(cfg), "solve-vi", out_dir=str(out))
    if reason is None:
        assert status == EXIT_OK
        return
    assert status == EXIT_CONFIG
    errors = _error_events(out)
    assert errors and errors[0]["kind"] == "config"
    assert reason in errors[0]["reason"]


@pytest.mark.parametrize("shape", [(128,), (128, 1, 1)], ids=["scalar", "matrix"])
def test_non_finite_coefficients_exit_config_error(tmp_path, shape):
    raw = np.full(shape, 1.5)
    raw[40] = np.nan
    np.save(tmp_path / "coef.npy", raw)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(BINDING.read_text().replace(
        "coefficients = identity",
        "coefficients = matrix-file:coef.npy\na_star = 1.0\na_upper = 2.0"))
    out = tmp_path / "out"
    assert run(str(cfg), "solve-vi", out_dir=str(out)) == EXIT_CONFIG
    errors = _error_events(out)
    assert errors and errors[0]["kind"] == "config"
    assert "non-finite" in errors[0]["reason"]


def _kernel_config(tmp_path, variant, width, dim=1):
    cfg = tmp_path / f"{variant}.cfg"
    cfg.write_text(QVI.read_text().replace("dim = 1", f"dim = {dim}").replace(
        "variant = separated",
        f"variant = {variant}\nkernel = gaussian:{width}\nouter = square:150.0:0.002"))
    return cfg


def test_kernel_variants_build_the_instances_operators(tmp_path):
    # the config route and frvi.instances share one Gaussian constructor
    for variant, width, inst, attr in (("kernel", 0.5, qvi_kernel_1d(), "kernel"),
                                       ("fracgrad", 0.3, qvi_fracgrad_1d(), "theta")):
        cfg = frvi.cli._load_config(str(_kernel_config(tmp_path, variant, width)))
        data, _ = frvi.cli._problem_from_config(cfg, tmp_path)
        op = frvi.cli._operator_from_config(cfg, data)
        assert np.array_equal(getattr(op, attr), getattr(inst.operator, attr))


def test_kernel_variant_on_a_2d_grid_exits_config_error(tmp_path):
    cfg = _kernel_config(tmp_path, "kernel", 0.5, dim=2).read_text()
    path = tmp_path / "kernel2d.cfg"
    path.write_text(cfg.replace("resolution = 128", "resolution = 16"))
    out = tmp_path / "out"
    assert run(str(path), "solve-qvi", out_dir=str(out)) == EXIT_CONFIG
    errors = _error_events(out)
    assert errors and errors[0]["kind"] == "config"
    assert "1D masks" in errors[0]["reason"]


def test_certificate_beyond_the_dense_limit_exits_config_error(tmp_path):
    # 127^2 = 16,129 inside nodes: rejected before any dense assembly
    cfg = tmp_path / "big.cfg"
    cfg.write_text(QVI.read_text().replace("dim = 1", "dim = 2").replace(
        "resolution = 128", "resolution = 256").replace(
        "gamma = integral:1.0:0.00028", "gamma = constant:1.0"))
    out = tmp_path / "out"
    assert run(str(cfg), "certificate", out_dir=str(out)) == EXIT_CONFIG
    errors = _error_events(out)
    assert errors and errors[0]["kind"] == "config"
    assert "16129 inside nodes" in errors[0]["reason"]


def _oracle_check_rejects(tmp_path, monkeypatch, cfg, reason):
    # refused before the penalty solve, with no traceback
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_vi ran before the oracle's input checks")
    monkeypatch.setattr(frvi.cli, "solve_vi", no_solve)
    out = tmp_path / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert run(str(cfg), "oracle-check", out_dir=str(out)) == EXIT_CONFIG
    errors = _error_events(out)
    assert [e["kind"] for e in errors] == ["config"]
    assert reason in errors[0]["reason"]
    assert "Traceback" not in stderr.getvalue()


def test_oracle_check_beyond_the_dense_limit_exits_config_error(tmp_path, monkeypatch):
    # 8191 inside nodes, above the 4096 a dense Gram matrix may have
    cfg = tmp_path / "big.cfg"
    cfg.write_text(BINDING.read_text().replace("resolution = 128", "resolution = 16384"))
    _oracle_check_rejects(tmp_path, monkeypatch, cfg, "8191 inside nodes")


def test_oracle_check_with_a_space_dependent_skew_part_exits_config_error(
        tmp_path, monkeypatch):
    # A = I + s(x) J, J the rotation by 90 degrees: a nonsymmetric A
    grid = make_grid(2, 2.0, 16)
    skew = 0.3 * np.cos(np.pi * grid.coordinates()[0] / 2.0)
    A = np.eye(2) + skew[..., None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.save(tmp_path / "coef.npy", A)
    cfg = tmp_path / "skew.cfg"
    cfg.write_text((CONFIG_DIR / "binding2d.cfg").read_text().replace(
        "resolution = 64", "resolution = 16").replace(
        "coefficients = identity",
        "coefficients = matrix-file:coef.npy\na_star = 1.0\na_upper = 1.1"))
    _oracle_check_rejects(tmp_path, monkeypatch, cfg, "oracle requires symmetric coefficients")


def test_missing_input_file_exits_config_error(tmp_path):
    cfg = tmp_path / "missing.cfg"
    cfg.write_text(BINDING.read_text().replace("g = constant:150.0",
                                               "g = file:absent.fvf"))
    out = tmp_path / "out"
    assert run(str(cfg), "solve-vi", out_dir=str(out)) == EXIT_CONFIG
    errors = _error_events(out)
    assert errors and errors[0]["kind"] == "config"
    assert "FileNotFoundError" in errors[0]["reason"]


def test_internal_error_is_logged_before_it_propagates(tmp_path, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("injected")
    monkeypatch.setattr(frvi.cli, "_dispatch", broken)
    out = tmp_path / "out"
    with pytest.raises(ZeroDivisionError, match="injected"):
        run(str(BINDING), "solve-vi", out_dir=str(out))
    errors = _error_events(out)
    assert errors == [{"event": "error", "kind": "internal",
                       "reason": "ZeroDivisionError: injected"}]
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("line, bad_line, reason", [
    pytest.param("outer_tol = 1e-6", "outer_tol = nan", "[qvi] outer_tol", id="outer-tol-nan"),
    pytest.param("outer_max = 40", "outer_max = 0", "[qvi] outer_max", id="outer-max-zero"),
    pytest.param("gamma = integral:1.0:0.00028", "gamma = integral:nan:0.00028",
                 "finite eta0", id="gamma-integral-nan"),
    pytest.param("gamma = integral:1.0:0.00028", "gamma = integral:1.0:inf",
                 "finite eta0", id="gamma-integral-inf"),
    pytest.param("gamma = integral:1.0:0.00028", "gamma = constant:inf",
                 "finite and positive", id="gamma-constant-inf"),
])
def test_invalid_qvi_values_exit_config_error(tmp_path, line, bad_line, reason):
    bad = tmp_path / "bad.cfg"
    bad.write_text(QVI.read_text().replace(line, bad_line))
    out = tmp_path / "out"
    assert run(str(bad), "solve-qvi", out_dir=str(out)) == EXIT_CONFIG
    errors = _error_events(out)
    assert errors and errors[0]["kind"] == "config"
    assert reason in errors[0]["reason"]


def test_relative_out_is_resolved_against_the_config_directory(tmp_path, monkeypatch):
    config_dir, cwd = tmp_path / "configs", tmp_path / "cwd"
    config_dir.mkdir()
    cwd.mkdir()
    cfg = config_dir / "binding.cfg"
    cfg.write_text(BINDING.read_text())
    monkeypatch.chdir(cwd)
    assert main(["solve-vi", "--config", str(cfg), "--out", "rel"]) == EXIT_OK
    assert (config_dir / "rel" / "manifest.csv").exists()
    assert not (cwd / "rel").exists()


# -- property: a malformed numeric value exits 1 ---------------------------------

NAN = st.sampled_from(["nan", "NaN", "-nan"])
INF = st.sampled_from(["inf", "-inf", "Infinity", "1e999"])
NEGATIVE = st.one_of(st.integers(max_value=-1).map(str),
                     st.floats(max_value=-1e-300, allow_infinity=False).map(repr))
ZERO = st.sampled_from(["0", "0.0", "-0"])


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


JUNK = st.text(string.ascii_letters + "_!?", min_size=1, max_size=8).filter(
    lambda t: not _is_number(t))
ALL = (NAN, INF, NEGATIVE, ZERO, JUNK)

# each numeric value of the shipped configs: the config, its key, the
# subcommand that reads it, the spec the number sits in ({} marks it), and
# the malformed values to try.  A negative or zero source f, delta, mode
# number or amplitude, a negative h (taken as |h|) and a zero c1 are valid
# data, and t = 0, h = 0, delta = 0 and seed = 0 are valid inputs.  A file:
# spec gets a name that no file has.  The binding1d.cfg cases are named by
# their key, the others by spec or config.
_BINDING_KEYS = {
    "dim": ("solve-vi", "{}", ALL),
    "extent": ("solve-vi", "{}", ALL),
    "resolution": ("solve-vi", "{}", ALL),
    "omega_halfwidth": ("solve-vi", "{}", ALL),
    "sigma": ("solve-vi", "{}", ALL),
    "f": ("solve-vi", "constant:{}", (NAN, INF, JUNK)),
    "g": ("solve-vi", "constant:{}", ALL),
    "nu": ("solve-vi", "{}", ALL),
    "eps0": ("solve-vi", "{}", ALL),
    "ratio": ("solve-vi", "{}", ALL),
    "eps_min": ("solve-vi", "{}", ALL),
    "newton_tol": ("solve-vi", "{}", ALL),
    "newton_max": ("solve-vi", "{}", ALL),
    "deltas": ("study-lipschitz", "{}", (NAN, INF, JUNK)),
    "t_values": ("study-holder", "{}", (NAN, INF, NEGATIVE, JUNK)),
    "h": ("study-holder", "constant:{}", (NAN, INF, JUNK)),
    "sigmas": ("study-sigma-limit", "{}", ALL),
    "kmax": ("study-sigma-limit", "{}", ALL),
    "factors": ("study-mosco", "{}", ALL),
    "seed": ("study-sigma-limit", "{}", (NAN, INF, NEGATIVE, JUNK)),
}
_QVI_KEYS = {key: ("solve-qvi",) + _BINDING_KEYS[key][1:] for key in (
    "dim", "extent", "resolution", "omega_halfwidth", "sigma", "f", "g", "nu", "eps0",
    "ratio", "eps_min", "newton_tol", "newton_max", "seed")}
NUMERIC_VALUES = {
    **{key: (BINDING, key) + case for key, case in _BINDING_KEYS.items()},
    **{f"qvi-{key}": (QVI, key) + case for key, case in _QVI_KEYS.items()},
    "f-mode-number": (BINDING, "f", "solve-vi", "mode:{}:100.0", (NAN, INF, JUNK)),
    "f-mode-amplitude": (BINDING, "f", "solve-vi", "mode:2:{}", (NAN, INF, JUNK)),
    "f-mode-truncated": (BINDING, "f", "solve-vi", "mode{}", (st.just(""), st.just(":2"))),
    "f-file": (BINDING, "f", "solve-vi", "file:{}", (NAN, JUNK)),
    "g-file": (BINDING, "g", "solve-vi", "file:{}", (NAN, JUNK)),
    "h-mode-amplitude": (BINDING, "h", "study-holder", "mode:1:{}", (NAN, INF, JUNK)),
    "coefficients-scale": (BINDING, "coefficients", "solve-vi", "scale:{}", ALL),
    "qvi-phi": (QVI, "phi", "solve-qvi", "constant:{}", ALL),
    "qvi-gamma-eta0": (QVI, "gamma", "solve-qvi", "integral:{}:0.00028", ALL),
    "qvi-gamma-c1": (QVI, "gamma", "solve-qvi", "integral:1.0:{}", (NAN, INF, NEGATIVE, JUNK)),
    "qvi-gamma-constant": (QVI, "gamma", "solve-qvi", "constant:{}", ALL),
    "qvi-outer_tol": (QVI, "outer_tol", "solve-qvi", "{}", ALL),
    "qvi-outer_max": (QVI, "outer_max", "solve-qvi", "{}", ALL),
}


@pytest.mark.parametrize("case", sorted(NUMERIC_VALUES))
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_malformed_numeric_value_exits_config_error(case, data):
    config, key, subcommand, spec, kinds = NUMERIC_VALUES[case]
    value = spec.format(data.draw(st.one_of(*kinds)))
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", config.read_text(),
                          flags=re.M)
    assert count == 1
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "bad.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        stderr = io.StringIO()
        # run returns instead of raising: main prints no traceback
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            status = run(str(cfg), subcommand, out_dir=str(out))
        assert status == EXIT_CONFIG, (case, value)
        errors = _error_events(out)
        assert [e["kind"] for e in errors] == ["config"], (case, value)
        assert "Traceback" not in stderr.getvalue()
