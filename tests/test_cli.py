import contextlib
import csv
import hashlib
import io
import json
import signal
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from psdaffine import (
    AffineParams,
    AtomicMeasure,
    GeneralDrift,
    LyapunovDrift,
    MatrixAtomicMeasure,
    MBAJDSpec,
    _dopri5,
    montecarlo,
)
from psdaffine.cli import (
    load_params,
    main,
    params_from_json,
    params_to_json,
    serialize_params,
)
from psdaffine.model import sym_to_vec


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
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_clean_exit(code, out, err, expected):
    """Exit code as expected, no traceback, and any stdout is strict JSON."""
    assert code == expected
    assert "Traceback" not in err
    if out:
        json.loads(out, parse_constant=_no_constant)


@contextlib.contextmanager
def deadline(seconds):
    """Turn a hang into a test failure after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"command still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def write_params(tmp_path, name, params):
    path = tmp_path / name
    path.write_text(serialize_params(params))
    return str(path)


def huge_beta_file(tmp_path, d=2):
    """MBAJD whose flow exp(beta t) overflows for every t > 0."""
    spec = MBAJDSpec(d=d, alpha=np.eye(d), beta=1e300 * np.eye(d), p=1.0)
    return write_params(tmp_path, "huge_beta.json", spec.to_affine_params())


def huge_alpha_file(tmp_path):
    """alpha = b = 1e308 I in the file: the Riccati rate is not finite at the
    initial state, while lambda_min(alpha) = 1e308 is."""
    obj = params_to_json(AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                                      drift=LyapunovDrift(beta=-0.5 * np.eye(2))))
    obj["alpha"] = obj["b"] = [[1e308, 0.0], [0.0, 1e308]]
    path = tmp_path / "huge_alpha.json"
    path.write_text(json.dumps(obj))
    return str(path)


def huge_drift_file(tmp_path):
    """beta = 1.7e308 [[-1, 1], [1, -1]]: B(x) = beta x + x beta^T overflows on
    the boundary pairs, so the inward-pointing value is not finite."""
    obj = params_to_json(AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                                      drift=LyapunovDrift(beta=-0.5 * np.eye(2))))
    obj["drift"]["beta"] = [[-1.7e308, 1.7e308], [1.7e308, -1.7e308]]
    path = tmp_path / "huge_drift.json"
    path.write_text(json.dumps(obj))
    return str(path)


@contextlib.contextmanager
def warnings_on_stderr():
    """Print every warning to stderr, as a plain run does, instead of into
    pytest's record, so that capsys sees it."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


# ---------------------------------------------------------------------------
# schema round trip
# ---------------------------------------------------------------------------


_HUGE = st.floats(-1e308, 1e308)  # finite entries up to 1e308, subnormals included


@st.composite
def _param_sets(draw):
    """Parameter sets with every entry drawn up to 1e308 in magnitude: exactly
    symmetric alpha, b and gamma, either drift, and diagonal PSD atoms."""
    d = draw(st.integers(2, 3))
    upper = np.triu(np.ones((d, d), dtype=bool))

    def sym():
        a = draw(hnp.arrays(np.float64, (d, d), elements=_HUGE))
        return np.where(upper, a, a.T)

    def psd_site():
        return np.diag(draw(hnp.arrays(np.float64, d, elements=st.floats(1e-300, 1e308))))

    if draw(st.booleans()):
        drift = LyapunovDrift(beta=draw(hnp.arrays(np.float64, (d, d), elements=_HUGE)))
    else:
        dd = d * (d + 1) // 2
        drift = GeneralDrift(matrix=draw(hnp.arrays(np.float64, (dd, dd), elements=_HUGE)),
                             d=d)
    m_atoms = tuple((psd_site(), draw(st.floats(1e-300, 1e308)))
                    for _ in range(draw(st.integers(0, 2))))
    mu_atoms = tuple((psd_site(), psd_site()) for _ in range(draw(st.integers(0, 1))))
    return AffineParams(d=d, alpha=sym(), b=sym(), drift=drift, c=draw(_HUGE), gamma=sym(),
                        m=AtomicMeasure(atoms=m_atoms), mu=MatrixAtomicMeasure(atoms=mu_atoms))


@settings(max_examples=100, deadline=None)
@given(_param_sets())
def test_serialize_parse_round_trip_idempotent(params):
    text = serialize_params(params)
    json.loads(text, parse_constant=_no_constant)  # strict JSON: no Infinity or NaN
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


def test_mbajd_from_params_recovers_p(wishart_file):
    params = load_params(wishart_file)
    spec = MBAJDSpec.from_params(params)
    assert spec is not None
    assert spec.p == pytest.approx(1.0, abs=1e-12)
    # perturbing b off the 2 p alpha ray breaks detection
    off = AffineParams(d=2, alpha=params.alpha, b=params.b + np.diag([1e-6, 0.0]),
                       drift=params.drift)
    assert MBAJDSpec.from_params(off) is None


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


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulate_paths called on an empty u-grid")


def test_compare_empty_grid_exits_zero(capsys, monkeypatch, wishart_file, tmp_path):
    monkeypatch.setattr(montecarlo, "simulate_paths", _no_simulation)
    ufile = tmp_path / "empty.json"
    ufile.write_text(json.dumps({"u": [], "times": []}))
    code, out, _ = run_cli(capsys, "compare", wishart_file, "--u", str(ufile),
                           "-T", "0.5", "--paths", "16", "--dt", "0.1")
    assert code == 0
    assert parse_csv(out) == []


def test_simulate_empty_grid_exits_zero(capsys, monkeypatch, wishart_file, tmp_path):
    monkeypatch.setattr(montecarlo, "simulate_paths", _no_simulation)
    ufile = tmp_path / "empty.json"
    ufile.write_text(json.dumps({"u": []}))
    code, out, err = run_cli(capsys, "simulate", wishart_file, "--u", str(ufile),
                             "-T", "0.5", "--paths", "16", "--dt", "0.1", "--out", "json")
    assert_clean_exit(code, out, err, 0)
    assert json.loads(out) == []


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


@pytest.mark.parametrize("field", ["times", "params"])
@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_json_number_exits_two(capsys, tmp_path, wishart_file, field,
                                          constant):
    ufile = tmp_path / "u.json"
    ufile.write_text('{"u": [{"re": [[1.0, 0.0], [0.0, 1.0]]}], "times": [%s]}'
                     % (constant if field == "times" else "0.5"))
    pfile = tmp_path / "p.json"
    text = (tmp_path / "wishart.json").read_text()
    pfile.write_text(text.replace('"c": 0.0', f'"c": {constant}')
                     if field == "params" else text)
    code, out, err = run_cli(capsys, "transform", str(pfile), str(ufile),
                             "--method", "ode", "--out", "json")
    assert_clean_exit(code, out, err, 2)
    path = "$.times[0]" if field == "times" else "$.c"
    assert f"{path}: expected a finite number" in err


@pytest.mark.parametrize("argv", [
    ("compare", "-T", "inf"),
    ("compare", "--allowance", "nan"),
    ("compare", "--closed-tol", "inf"),
    ("simulate", "--dt", "nan"),
    ("simulate", "-T", "abc"),
    ("validate", "--tol", "inf"),
    ("mbajd", "-T", "inf"),
])
def test_non_finite_float_flag_exits_two(capsys, wishart_file, ugrid_file, argv):
    command, flag, value = argv
    base = {"validate": (), "mbajd": ("--u", ugrid_file),
            "simulate": ("--u", ugrid_file, "-T", "0.5", "--paths", "16", "--dt", "0.1"),
            "compare": ("--u", ugrid_file, "-T", "0.5", "--paths", "16", "--dt", "0.1")}
    code, out, err = run_cli(capsys, command, wishart_file, *base[command],
                             flag, value, "--out", "json")
    assert_clean_exit(code, out, err, 2)
    assert f"expected a finite number, got '{value}'" in err


def test_simulate_poisson_overflow_named_error(capsys, tmp_path, ugrid_file):
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=LyapunovDrift(beta=-np.eye(2)),
                          m=AtomicMeasure(atoms=((np.eye(2), 1e5),)))
    pfile = tmp_path / "heavy.json"
    pfile.write_text(serialize_params(params))
    code, out, err = run_cli(capsys, "simulate", str(pfile), "--u", ugrid_file,
                             "-T", "0.5", "--paths", "16", "--dt", "0.01",
                             "--out", "json")
    assert_clean_exit(code, out, err, 1)
    assert err.startswith("error: Poisson intensity 1000 per step")
    assert "smaller dt" in err


def test_transform_branch_tracking_failure_exits_one(capsys, tmp_path, wishart_file):
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"u": [{"re": (1e-3 * np.eye(2)).tolist(),
                                        "im": (1e5 * np.eye(2)).tolist()}],
                                 "times": [2.0]}))
    code, out, err = run_cli(capsys, "transform", wishart_file, str(ufile),
                             "--method", "closed", "--out", "json")
    assert_clean_exit(code, out, err, 1)
    assert err == "error: argument increments above pi persisted under grid refinement\n"


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


def test_closed_transform_takes_few_exponentials_per_row(capsys, monkeypatch, tmp_path):
    # one sigma grid per time, shared by the 16 u, and one quadrature witness
    # per command: at most 5 block or flow exponentials per row
    import psdaffine.closedform as cf
    rng = np.random.default_rng(23)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    spec = MBAJDSpec(d=3, alpha=0.7 * np.eye(3), beta=q @ np.diag([-1.0, -0.6, -0.3]) @ q.T,
                     p=1.5, m=AtomicMeasure(atoms=((np.diag([0.4, 0.3, 0.2]), 0.5),)))
    us = []
    for _ in range(16):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        us.append({"re": (a @ a.T / 3 + 0.3 * np.eye(3)).tolist(),
                   "im": (0.25 * (b + b.T)).tolist()})
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"u": us, "times": [0.25, 0.5, 1.0, 2.0]}))
    calls = []
    correct = cf.mat_exp
    monkeypatch.setattr(cf, "mat_exp", lambda a: calls.append(a.shape) or correct(a))
    code, out, err = run_cli(capsys, "transform", write_params(tmp_path, "p.json",
                                                               spec.to_affine_params()),
                             str(ufile), "--method", "closed", "--out", "json")
    assert_clean_exit(code, out, err, 0)
    assert len(json.loads(out)) == 64
    assert 0 < len(calls) <= 5 * 64


def test_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/params.json")
    assert code == 2


# ---------------------------------------------------------------------------
# non-finite numerics end in an exit code, never a hang or a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["mbajd", "transform"])
def test_closed_form_non_finite_integrand_exits_one(capsys, tmp_path, ugrid_file, command):
    pfile = huge_beta_file(tmp_path)
    argv = ((command, pfile, "--u", ugrid_file) if command == "mbajd"
            else (command, pfile, ugrid_file))
    start = time.perf_counter()
    with deadline(10.0):
        code, out, err = run_cli(capsys, *argv, "--out", "json")
    assert time.perf_counter() - start < 10.0
    assert_clean_exit(code, out, err, 1)
    assert err.startswith("error: adaptive quadrature met a non-finite integrand")


def test_transform_ode_first_step_underflow_reports_blowup(capsys, tmp_path, ugrid_file):
    code, out, err = run_cli(capsys, "transform", huge_beta_file(tmp_path), ugrid_file,
                             "--method", "ode", "--out", "json")
    assert_clean_exit(code, out, err, 0)
    # u = I: the first step underflows; u = 0 is a fixed point of the flow
    late = {r["u_index"]: r for r in json.loads(out) if r["t"] > 0}
    assert late[0]["status"] == "blowup" and late[0]["t_plus"] == 0.0
    assert late[1]["status"] == "ok"


def test_transform_ode_non_finite_rate_exits_one(capsys, tmp_path, ugrid_file):
    code, out, err = run_cli(capsys, "transform", huge_alpha_file(tmp_path), ugrid_file,
                             "--method", "ode", "--out", "json")
    assert_clean_exit(code, out, err, 1)
    assert err.endswith("error: right-hand side not finite at the initial state\n")


@pytest.mark.parametrize("max_steps, code", [(10, 1), (58, 0)])
def test_transform_ode_step_budget_is_per_row(capsys, monkeypatch, tmp_path, wishart_file,
                                              max_steps, code):
    # one batch of three rows taking 35, 45 and 58 steps to t = 0.5: a budget
    # of 58 steps per row suffices, while the batch takes 138 in all
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"u": [{"re": (c * np.eye(2)).tolist()} for c in (1, 0.5, 2)],
                                 "times": [0.5]}))
    monkeypatch.setattr(_dopri5, "MAX_STEPS", max_steps)
    got, out, err = run_cli(capsys, "transform", wishart_file, str(ufile),
                            "--method", "ode", "--out", "json")
    assert_clean_exit(got, out, err, code)
    if code:
        assert out == ""
        assert err.startswith("error: step budget of 10 steps exhausted at t = ")
    else:
        assert [r["status"] for r in json.loads(out)] == ["ok"] * 3


def test_validate_json_is_strict_for_non_finite_values(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", huge_drift_file(tmp_path), "--out", "json")
    assert_clean_exit(code, out, err, 1)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["inward_pointing"]["value"] is None
    assert checks["inward_pointing"]["passed"] is False


def test_validate_passes_huge_finite_alpha(capsys, tmp_path):
    # neither symmetrizing nor the norm in the alpha tolerance overflows
    code, out, err = run_cli(capsys, "validate", huge_alpha_file(tmp_path), "--out", "json")
    assert_clean_exit(code, out, err, 0)
    report = json.loads(out)
    assert report["alpha_class"] == "invertible"
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["alpha_psd"]["value"] == 1e308


class _LargestUniformStream:
    """Stands in for a path's Philox stream: zero normals, and every uniform
    the largest float below 1."""

    def __init__(self, seed, tag):
        pass

    def standard_normal(self, shape):
        return np.zeros(shape)

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


def test_simulate_survives_the_largest_uniform(capsys, monkeypatch, tmp_path, ugrid_file):
    # intensity 0.1 per step: the rounded Poisson CDF stops growing below u
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=LyapunovDrift(beta=-np.eye(2)),
                          m=AtomicMeasure(atoms=((np.eye(2), 10.0),)))
    monkeypatch.setattr(montecarlo, "_stream", _LargestUniformStream)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", write_params(tmp_path, "p.json", params),
                             "--u", ugrid_file, "-T", "0.05", "--paths", "4",
                             "--dt", "0.01", "--out", "json")
    assert time.perf_counter() - start < 1.0
    assert_clean_exit(code, out, err, 0)
    rows = json.loads(out)
    assert rows[1]["mean_re"] == 1.0  # u = 0
    assert 0.0 <= rows[0]["mean_re"] < 1e-30  # ten unit jumps per step


@pytest.mark.parametrize("command, fixture, code", [
    (("mbajd", "{p}", "--u", "{u}"), huge_beta_file, 1),
    (("transform", "{p}", "{u}", "--method", "closed"), huge_beta_file, 1),
    (("transform", "{p}", "{u}", "--method", "ode"), huge_beta_file, 0),
    (("transform", "{p}", "{u}", "--method", "ode"), huge_alpha_file, 1),
    (("validate", "{p}"), huge_alpha_file, 0),
    (("validate", "{p}"), huge_drift_file, 1),
], ids=["mbajd-huge-beta", "closed-huge-beta", "ode-huge-beta", "ode-huge-alpha",
        "validate-huge-alpha", "validate-huge-drift"])
def test_overflow_prints_no_numpy_warning(capsys, tmp_path, ugrid_file, command, fixture,
                                          code):
    argv = [a.format(p=fixture(tmp_path), u=ugrid_file) for a in command]
    with warnings_on_stderr():
        got, out, err = run_cli(capsys, *argv, "--out", "json")
    assert_clean_exit(got, out, err, code)
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("d", [2, 3])
def test_simulate_non_finite_states_named_error(capsys, monkeypatch, tmp_path, d, threads):
    # beta = 1e300 I: the second Euler step overflows, before the d = 3 eigh
    # or the d = 2 analytic kernels see a non-finite state
    monkeypatch.setenv("PSDAFFINE_THREADS", threads)
    monkeypatch.setattr(montecarlo, "_BLOCK_PATHS", 32)  # two path blocks
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"u": [{"re": np.eye(d).tolist()}]}))
    with warnings_on_stderr():
        code, out, err = run_cli(capsys, "simulate", huge_beta_file(tmp_path, d),
                                 "--u", str(ufile), "-T", "0.5", "--paths", "64",
                                 "--dt", "0.05", "--out", "json")
    assert_clean_exit(code, out, err, 1)
    assert out == ""
    assert err == ("error: simulated states overflow the float range in an Euler "
                   "step of size 0.05\n")


def test_degenerate_alpha_transform_still_warns(capsys, tmp_path, ugrid_file):
    params = AffineParams(d=2, alpha=np.diag([1.0, 0.0]), b=np.diag([1.0, 0.2]),
                          drift=LyapunovDrift(beta=-np.eye(2)))
    with warnings_on_stderr():
        code, out, err = run_cli(capsys, "transform", write_params(tmp_path, "deg.json", params),
                                 ugrid_file, "--method", "ode", "--out", "json")
    assert_clean_exit(code, out, err, 0)
    assert "DegenerateAlphaWarning: alpha is degenerate and nonzero" in err
    assert "RuntimeWarning" not in err


# ---------------------------------------------------------------------------
# golden output bits of the ODE route
# ---------------------------------------------------------------------------


def golden_cli_files(tmp_path, d, general, gamma):
    ones, eye = np.ones((d, d)), np.eye(d)
    alpha = 0.5 * eye + 0.1 * ones
    drift = LyapunovDrift(beta=-0.6 * eye + 0.2 * np.triu(ones, 1))
    if general:
        a = sym_to_vec(eye + 0.1 * ones)
        drift = GeneralDrift(matrix=drift.as_matrix() + 0.3 * np.outer(a, a), d=d)
    params = AffineParams(
        d=d, alpha=alpha, b=d * alpha, drift=drift, gamma=0.2 * eye if gamma else None,
        m=AtomicMeasure(atoms=((0.3 * eye + 0.05 * ones, 0.8), (0.1 * ones, 0.5))),
        mu=MatrixAtomicMeasure(atoms=((0.2 * np.diag(np.arange(1.0, d + 1)), 0.4 * eye),)))
    im = 0.3 * eye - 0.1 * ones
    us = [0.7 * eye + 0.1 * ones + 1j * im,  # direct
          1j * im,  # projected
          np.diag(np.arange(d) % 2 * 1.0) + 1j * im,  # projected, rank-deficient
          1.2 * eye,  # direct, real
          np.zeros((d, d))]  # projected, a fixed point
    ufile = tmp_path / "golden_u.json"
    ufile.write_text(json.dumps({"u": [{"re": u.real.tolist(), "im": np.imag(u).tolist()}
                                       for u in us],
                                 "times": [0.0, 0.3, 0.75, 1.5]}))
    xfile = tmp_path / "golden_x.json"
    xfile.write_text(json.dumps({"x": (0.5 * eye + 0.1 * ones).tolist()}))
    return write_params(tmp_path, "golden.json", params), str(ufile), str(xfile)


# SHA-256 of stdout (recorded with NumPy 2.4 and OpenBLAS on x86-64, as the
# Riccati golden digests): a change moves every ODE value the CLI prints
GOLDEN_CLI = {
    "transform-d2-lyapunov":
        "05b8a8dcfdd4e53a734a17c9783931f98faf2312bbac498a91f3159b9b0c11d1",
    "transform-d3-general":
        "6009a47eeba8deb37ce231a351556573e6093a8abd6ea420d9b2c52500e873a7",
    "compare-d2-lyapunov":
        "18171b7d5c61a580784848ea18956df9c89bcd30b0da08b5b7eced87919c084c",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI))
def test_cli_golden_bits(capsys, tmp_path, case):
    command, dim, drift = case.split("-")
    d = int(dim[1:])
    pfile, ufile, xfile = golden_cli_files(tmp_path, d, drift == "general",
                                           gamma=command == "transform")
    if command == "transform":
        argv = ("transform", pfile, ufile, "--x", xfile, "--method", "ode",
                "--out", "json" if d == 2 else "csv")
    else:
        argv = ("compare", pfile, "--u", ufile, "--x", xfile, "-T", "0.75",
                "--paths", "256", "--dt", "0.0625", "--seed", "7", "--out", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CLI[case]
