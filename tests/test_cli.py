import json
import subprocess
import sys
from pathlib import Path

import pytest

import frvi.cli
from frvi.cli import EXIT_CONFIG, EXIT_OK, run
from frvi.fields import make_grid, read_fvf, scalar_field, write_fvf

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
    cfg = BINDING.read_text() + "\n[grid]\n"  # duplicate section is malformed
    bad = tmp_path / "dup.cfg"
    bad.write_text(cfg)
    assert run(str(bad), "solve-vi", out_dir=str(tmp_path / "o1")) == EXIT_CONFIG
    cfg2 = BINDING.read_text().replace("[grid]", "[grid]\nwhatever = 3")
    bad2 = tmp_path / "unk.cfg"
    bad2.write_text(cfg2)
    assert run(str(bad2), "solve-vi", out_dir=str(tmp_path / "o2")) == EXIT_CONFIG


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
