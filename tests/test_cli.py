import csv
import io
import json

import numpy as np
import pytest

from psdaffine import AffineParams, AtomicMeasure, LyapunovDrift, MBAJDSpec
from psdaffine.cli import (
    detect_mbajd,
    load_params,
    main,
    params_from_json,
    params_to_json,
    serialize_params,
)


@pytest.fixture
def wishart_file(tmp_path):
    spec = MBAJDSpec(d=2, alpha=np.eye(2), beta=-0.5 * np.eye(2), p=1.0)
    path = tmp_path / "wishart.json"
    path.write_text(serialize_params(spec.to_affine_params()))
    return str(path)


@pytest.fixture
def ugrid_file(tmp_path):
    path = tmp_path / "ugrid.json"
    path.write_text(json.dumps({
        "u": [{"re": [[1.0, 0.0], [0.0, 1.0]]},
              {"re": [[0.0, 0.0], [0.0, 0.0]]}],
        "times": [0.0, 0.5],
    }))
    return str(path)


@pytest.fixture
def x_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"x": [[1.0, 0.0], [0.0, 1.0]]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


# ---------------------------------------------------------------------------
# schema round trip
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip_idempotent():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2))
    params = AffineParams(
        d=2, alpha=a @ a.T / 3 + 0.1 * np.eye(2), b=2.3456789012345678 * np.eye(2),
        drift=LyapunovDrift(beta=rng.standard_normal((2, 2))),
        m=AtomicMeasure(atoms=((np.eye(2) * 0.7, 1 / 3),)))
    text = serialize_params(params)
    again = serialize_params(params_from_json(json.loads(text)))
    assert text == again  # byte-identical canonical form


def test_parse_error_paths():
    good = params_to_json(AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                                       drift=LyapunovDrift(beta=np.eye(2))))
    bad = json.loads(json.dumps(good))
    del bad["alpha"]
    with pytest.raises(ValueError, match=r"\$\.alpha: missing"):
        params_from_json(bad)
    bad2 = json.loads(json.dumps(good))
    bad2["mu"]["atoms"] = [{"xi": [[1.0, 0.0], [0.0, 1.0]]}]
    with pytest.raises(ValueError, match=r"\$\.mu\.atoms\[0\]\.weightMatrix: missing"):
        params_from_json(bad2)
    bad3 = json.loads(json.dumps(good))
    bad3["drift"] = {"type": "spiral"}
    with pytest.raises(ValueError, match=r"\$\.drift\.type"):
        params_from_json(bad3)


def test_detect_mbajd_recovers_p(wishart_file):
    params = load_params(wishart_file)
    spec = detect_mbajd(params)
    assert spec is not None
    assert spec.p == pytest.approx(1.0, abs=1e-12)
    # perturbing b off the 2 p alpha ray breaks detection
    off = AffineParams(d=2, alpha=params.alpha, b=params.b + np.diag([1e-6, 0.0]),
                       drift=params.drift)
    assert detect_mbajd(off) is None


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_pass_exit_zero(capsys, wishart_file):
    code, out, _ = run_cli(capsys, "validate", wishart_file)
    assert code == 0
    assert "PASS" in out


def test_validate_drift_dominance_failure_named(capsys, tmp_path):
    params = AffineParams(d=2, alpha=np.eye(2), b=0.5 * np.eye(2),
                          drift=LyapunovDrift(beta=-np.eye(2)))
    path = tmp_path / "bad.json"
    path.write_text(serialize_params(params))
    code, out, _ = run_cli(capsys, "validate", str(path), "--out", "json")
    assert code == 1
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["drift_dominance"]


def test_validate_malformed_json_exit_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "input error" in err


def test_validate_degenerate_alpha_warns_but_passes(capsys, tmp_path):
    params = AffineParams(d=2, alpha=np.diag([1.0, 0.0]), b=np.diag([1.0, 0.0]),
                          drift=LyapunovDrift(beta=-np.eye(2)))
    path = tmp_path / "deg.json"
    path.write_text(serialize_params(params))
    code, out, _ = run_cli(capsys, "validate", str(path), "--out", "json")
    assert code == 0
    report = json.loads(out)
    assert report["alpha_class"] == "degenerate_nonzero"
    assert report["warnings"]


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_reproduces_log_det_row(capsys, tmp_path, x_file):
    spec = MBAJDSpec(d=2, alpha=np.eye(2), beta=np.zeros((2, 2)), p=1.0)
    pfile = tmp_path / "w0.json"
    pfile.write_text(serialize_params(spec.to_affine_params()))
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"u": [{"re": [[1.0, 0.0], [0.0, 1.0]]}],
                                 "times": [0.5]}))
    code, out, _ = run_cli(capsys, "transform", str(pfile), str(ufile),
                           "--x", x_file, "--method", "ode")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["phi_re"]) == pytest.approx(2 * np.log(2.0), abs=1e-8)
    assert float(row["psi_re_00"]) == pytest.approx(0.5, abs=1e-8)
    assert float(row["value_re"]) == pytest.approx(np.exp(-1.0) / 4, abs=1e-8)


def test_transform_u_zero_rows_are_one(capsys, wishart_file, ugrid_file, x_file):
    code, out, _ = run_cli(capsys, "transform", wishart_file, ugrid_file, "--x", x_file)
    assert code == 0
    for row in parse_csv(out):
        if row["u_index"] == "1":  # the zero matrix entry of the grid
            assert float(row["value_re"]) == pytest.approx(1.0, abs=1e-9)
            assert float(row["value_im"]) == pytest.approx(0.0, abs=1e-12)


def test_transform_ode_and_closed_agree(capsys, wishart_file, ugrid_file, x_file):
    code_o, out_o, _ = run_cli(capsys, "transform", wishart_file, ugrid_file,
                               "--x", x_file, "--method", "ode")
    code_c, out_c, _ = run_cli(capsys, "transform", wishart_file, ugrid_file,
                               "--x", x_file, "--method", "closed")
    assert code_o == 0 and code_c == 0
    for ro, rc in zip(parse_csv(out_o), parse_csv(out_c)):
        for col in ("phi_re", "phi_im", "value_re", "value_im", "psi_re_01"):
            assert float(ro[col]) == pytest.approx(float(rc[col]), abs=1e-6)


def test_transform_closed_rejected_for_non_mbajd(capsys, tmp_path, ugrid_file):
    params = AffineParams(d=2, alpha=np.eye(2), b=1.7 * np.eye(2),
                          drift=LyapunovDrift(beta=-np.eye(2)), c=0.5)
    pfile = tmp_path / "gen.json"
    pfile.write_text(serialize_params(params))
    code, _, err = run_cli(capsys, "transform", str(pfile), str(ugrid_file),
                           "--method", "closed")
    assert code == 1
    assert "method=closed" in err


def test_transform_json_output(capsys, wishart_file, ugrid_file):
    code, out, _ = run_cli(capsys, "transform", wishart_file, ugrid_file,
                           "--out", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["t"] == 0.0 and rows[0]["phi_re"] == 0.0


# ---------------------------------------------------------------------------
# simulate / compare
# ---------------------------------------------------------------------------


def test_simulate_u_zero_mean_one(capsys, wishart_file, ugrid_file, x_file):
    code, out, _ = run_cli(capsys, "simulate", wishart_file, "--u", ugrid_file,
                           "--x", x_file, "-T", "0.5", "--paths", "64",
                           "--dt", "0.05", "--seed", "3")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[1]["mean_re"]) == 1.0
    assert float(rows[1]["stderr"]) == 0.0


def test_simulate_reproducible_byte_identical(capsys, wishart_file, ugrid_file):
    args = ("simulate", wishart_file, "--u", ugrid_file, "-T", "0.5",
            "--paths", "256", "--dt", "0.05", "--seed", "9")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_rejects_killing(capsys, tmp_path, ugrid_file):
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=LyapunovDrift(beta=-np.eye(2)), c=0.1)
    pfile = tmp_path / "killed.json"
    pfile.write_text(serialize_params(params))
    code, _, err = run_cli(capsys, "simulate", str(pfile), "--u", str(ugrid_file),
                           "-T", "0.5")
    assert code == 1
    assert "conservative" in err


def test_compare_wishart_passes(capsys, wishart_file, ugrid_file, x_file):
    code, out, _ = run_cli(capsys, "compare", wishart_file, "--u", ugrid_file,
                           "--x", x_file, "-T", "0.5", "--paths", "20000",
                           "--dt", str(2.0**-8), "--seed", "5")
    assert code == 0
    rows = parse_csv(out)
    assert all(r["mc_pass"] == "True" for r in rows)
    assert all(r["closed_pass"] == "True" for r in rows)  # MBAJD file: closed column on
    assert float(rows[0]["closed_abs_diff"]) <= 1e-6


def test_compare_empty_grid_exits_zero(capsys, wishart_file, tmp_path):
    ufile = tmp_path / "empty.json"
    ufile.write_text(json.dumps({"u": [], "times": []}))
    code, out, _ = run_cli(capsys, "compare", wishart_file, "--u", str(ufile),
                           "-T", "0.5", "--paths", "16", "--dt", "0.1")
    assert code == 0
    assert parse_csv(out) == []


def test_compare_threshold_breach_exits_one(capsys, wishart_file, ugrid_file):
    # an absurdly tight allowance with a coarse grid must trip the bound
    code, _, err = run_cli(capsys, "compare", wishart_file, "--u", ugrid_file,
                           "-T", "1.0", "--paths", "500", "--dt", "0.25",
                           "--seed", "2", "--allowance", "1e-9")
    assert code == 1
    assert "threshold breach" in err


@pytest.mark.parametrize("command", ["transform", "mbajd", "simulate", "compare"])
def test_u_dimension_mismatch_exits_two(capsys, tmp_path, wishart_file, command):
    ufile = tmp_path / "u3.json"
    ufile.write_text(json.dumps({"u": [{"re": np.eye(3).tolist()}], "times": [0.5]}))
    if command == "transform":
        argv = ("transform", wishart_file, str(ufile))
    elif command == "mbajd":
        argv = ("mbajd", wishart_file, "--u", str(ufile))
    else:
        argv = (command, wishart_file, "--u", str(ufile), "-T", "0.5",
                "--paths", "16", "--dt", "0.1")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "$.u[0]: dimension does not match" in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_x_dimension_mismatch_exits_two(capsys, tmp_path, wishart_file, ugrid_file,
                                        command):
    xfile = tmp_path / "x3.json"
    xfile.write_text(json.dumps({"x": np.eye(3).tolist()}))
    code, _, err = run_cli(capsys, command, wishart_file, "--u", ugrid_file,
                           "--x", str(xfile), "-T", "0.5", "--paths", "16", "--dt", "0.1")
    assert code == 2
    assert "--x: dimension does not match" in err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_simulate_rejects_bad_thread_count(capsys, monkeypatch, wishart_file, ugrid_file,
                                           value):
    monkeypatch.setenv("PSDAFFINE_THREADS", value)
    code, out, err = run_cli(capsys, "simulate", wishart_file, "--u", ugrid_file,
                             "-T", "0.5", "--paths", "16", "--dt", "0.1")
    assert code == 1
    assert out == ""
    assert err == f"error: PSDAFFINE_THREADS must be a positive integer, got {value!r}\n"


# ---------------------------------------------------------------------------
# mbajd
# ---------------------------------------------------------------------------


def test_mbajd_t_zero_rows(capsys, wishart_file, tmp_path):
    ufile = tmp_path / "u1.json"
    ufile.write_text(json.dumps({
        "u": [{"re": [[0.8, 0.1], [0.1, 0.6]], "im": [[0.2, 0.0], [0.0, -0.1]]}],
        "times": [0.0]}))
    code, out, _ = run_cli(capsys, "mbajd", wishart_file, "--u", str(ufile))
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["phi_re"]) == 0.0
    assert float(row["psi_re_00"]) == 0.8
    assert float(row["psi_im_11"]) == -0.1


def test_mbajd_scalar_beta_zero_check(capsys, tmp_path):
    spec = MBAJDSpec(d=2, alpha=np.eye(2), beta=np.zeros((2, 2)), p=1.0)
    pfile = tmp_path / "w0.json"
    pfile.write_text(serialize_params(spec.to_affine_params()))
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"u": [{"re": [[1.0, 0.0], [0.0, 1.0]]}],
                                 "times": []}))
    code, out, _ = run_cli(capsys, "mbajd", str(pfile), "--u", str(ufile),
                           "-T", "0.5")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["psi_re_00"]) == pytest.approx(0.5, abs=1e-10)


def test_mbajd_rejects_non_mbajd(capsys, tmp_path, ugrid_file):
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=LyapunovDrift(beta=-np.eye(2)), c=0.2)
    pfile = tmp_path / "nm.json"
    pfile.write_text(serialize_params(params))
    code, _, err = run_cli(capsys, "mbajd", str(pfile), "--u", str(ugrid_file))
    assert code == 1
    assert "MBAJD" in err


def test_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/params.json")
    assert code == 2
