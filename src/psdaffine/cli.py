"""Command line surface: validate, transform, simulate, compare, mbajd.

Exit codes are a stable contract: 0 success, 1 domain or threshold failure,
2 malformed input. Every command is deterministic given its full flag set;
``--seed`` is the only entropy source. The JSON parameter schema and the
CSV column layouts are documented in the README.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

import numpy as np

from . import closedform, montecarlo, riccati
from ._dopri5 import StepBudgetError
from .model import (
    AffineParams,
    AtomicMeasure,
    GeneralDrift,
    LyapunovDrift,
    MatrixAtomicMeasure,
    validate as validate_params,
)
from .symcore import DomainError, is_psd, trace_inner

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2


class ParamFileError(ValueError):
    """Malformed input file; message carries the offending field path."""


# ---------------------------------------------------------------------------
# JSON schema (version 1)
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ParamFileError(f"{path}: expected an object")
    if key not in obj:
        raise ParamFileError(f"{path}.{key}: missing")
    return obj[key]


def _number(val, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParamFileError(f"{path}: expected a number")
    try:
        out = float(val)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ParamFileError(f"{path}: expected a finite number, got {val!r}")
    return out


def _matrix(val, path: str, d: int | None = None) -> np.ndarray:
    if not isinstance(val, list) or not val or not all(isinstance(r, list) for r in val):
        raise ParamFileError(f"{path}: expected a non-empty nested array")
    rows = len(val)
    cols = {len(r) for r in val}
    if len(cols) != 1:
        raise ParamFileError(f"{path}: ragged rows")
    arr = np.array([[_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(r)]
                    for i, r in enumerate(val)])
    if arr.shape[0] != arr.shape[1]:
        raise ParamFileError(f"{path}: must be square, got {arr.shape}")
    if d is not None and arr.shape != (d, d):
        raise ParamFileError(f"{path}: expected {d} x {d}, got {arr.shape[0]} x {arr.shape[1]}")
    return arr


def params_from_json(obj: dict) -> AffineParams:
    version = _require(obj, "version", "$")
    if version != 1:
        raise ParamFileError(f"$.version: unsupported version {version!r}")
    d = _require(obj, "d", "$")
    if not isinstance(d, int) or d < 2:
        raise ParamFileError("$.d: expected an integer >= 2")
    alpha = _matrix(_require(obj, "alpha", "$"), "$.alpha", d)
    b = _matrix(_require(obj, "b", "$"), "$.b", d)
    drift_node = _require(obj, "drift", "$")
    kind = _require(drift_node, "type", "$.drift")
    if kind == "lyapunov":
        drift = LyapunovDrift(beta=_matrix(_require(drift_node, "beta", "$.drift"),
                                           "$.drift.beta", d))
    elif kind == "general":
        mat = _matrix(_require(drift_node, "matrix", "$.drift"), "$.drift.matrix")
        dd = d * (d + 1) // 2
        if mat.shape != (dd, dd):
            raise ParamFileError(f"$.drift.matrix: expected {dd} x {dd} for d = {d}")
        drift = GeneralDrift(matrix=mat, d=d)
    else:
        raise ParamFileError(f"$.drift.type: expected 'lyapunov' or 'general', got {kind!r}")
    c = _number(_require(obj, "c", "$"), "$.c")
    gamma = _matrix(_require(obj, "gamma", "$"), "$.gamma", d)

    def atoms_of(node, path, weight_key):
        entries = _require(node, "atoms", path)
        if not isinstance(entries, list):
            raise ParamFileError(f"{path}.atoms: expected an array")
        out = []
        for k, entry in enumerate(entries):
            xi = _matrix(_require(entry, "xi", f"{path}.atoms[{k}]"),
                         f"{path}.atoms[{k}].xi", d)
            if weight_key == "weight":
                w = _number(_require(entry, "weight", f"{path}.atoms[{k}]"),
                            f"{path}.atoms[{k}].weight")
            else:
                w = _matrix(_require(entry, "weightMatrix", f"{path}.atoms[{k}]"),
                            f"{path}.atoms[{k}].weightMatrix", d)
            out.append((xi, w))
        return out

    try:
        m = AtomicMeasure(atoms=tuple(atoms_of(_require(obj, "m", "$"), "$.m", "weight")))
        mu = MatrixAtomicMeasure(
            atoms=tuple(atoms_of(_require(obj, "mu", "$"), "$.mu", "weightMatrix")))
        return AffineParams(d=d, alpha=alpha, b=b, drift=drift, c=c, gamma=gamma,
                            m=m, mu=mu)
    except DomainError as exc:
        raise ParamFileError(f"$: {exc}") from exc


def _mat_list(x: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(x, dtype=float)]


def params_to_json(params: AffineParams) -> dict:
    if isinstance(params.drift, LyapunovDrift):
        drift = {"type": "lyapunov", "beta": _mat_list(params.drift.beta)}
    else:
        drift = {"type": "general", "matrix": _mat_list(params.drift.matrix)}
    return {
        "version": 1,
        "d": params.d,
        "alpha": _mat_list(params.alpha),
        "b": _mat_list(params.b),
        "drift": drift,
        "c": float(params.c),
        "gamma": _mat_list(params.gamma),
        "m": {"atoms": [{"xi": _mat_list(xi), "weight": float(w)}
                        for xi, w in params.m.atoms]},
        "mu": {"atoms": [{"xi": _mat_list(xi), "weightMatrix": _mat_list(wm)}
                         for xi, wm in params.mu.atoms]},
    }


def serialize_params(params: AffineParams) -> str:
    """Canonical text form: fixed key order, shortest exact decimals."""
    return json.dumps(params_to_json(params), indent=2) + "\n"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParamFileError(f"{path}: {exc}") from exc


def load_params(path: str) -> AffineParams:
    return params_from_json(_load_json(path))


def load_ugrid(path: str) -> tuple[list[np.ndarray], list[float]]:
    """U-grid file: {"u": [{"re": [[..]], "im": [[..]]}, ...], "times": [..]}.
    "im" may be omitted; each "re" must be PSD; times nonnegative ascending."""
    obj = _load_json(path)
    entries = _require(obj, "u", "$")
    if not isinstance(entries, list):
        raise ParamFileError("$.u: expected an array")
    us = []
    for k, entry in enumerate(entries):
        re = _matrix(_require(entry, "re", f"$.u[{k}]"), f"$.u[{k}].re")
        if not is_psd(re):
            raise ParamFileError(f"$.u[{k}].re: must be PSD")
        if "im" in entry:
            im = _matrix(entry["im"], f"$.u[{k}].im", re.shape[0])
        else:
            im = np.zeros_like(re)
        us.append(re + 1j * im)
    times = obj.get("times", [])
    if not isinstance(times, list):
        raise ParamFileError("$.times: expected an array")
    times = [_number(t, f"$.times[{i}]") for i, t in enumerate(times)]
    if any(t < 0 for t in times) or any(times[i] > times[i + 1] for i in range(len(times) - 1)):
        raise ParamFileError("$.times: must be nonnegative and ascending")
    return us, times


def _check_dims(d: int, us: list[np.ndarray], x: np.ndarray | None = None) -> None:
    """Every u-grid entry and the initial state, if given, must be d x d."""
    if x is not None and x.shape != (d, d):
        raise ParamFileError("--x: dimension does not match the parameter set")
    for k, u in enumerate(us):
        if u.shape != (d, d):
            raise ParamFileError(f"$.u[{k}]: dimension does not match the parameter set")


def load_matrix_file(path: str) -> np.ndarray:
    """A single matrix: either a bare nested array or {"x": [[..]]}."""
    obj = _load_json(path)
    if isinstance(obj, dict):
        obj = _require(obj, "x", "$")
    return _matrix(obj, "$")


# ---------------------------------------------------------------------------
# Row output
# ---------------------------------------------------------------------------


def _json_safe(value):
    """Non-finite floats become null: NaN and Infinity are not JSON."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _dump_json(obj, stream) -> None:
    json.dump(_json_safe(obj), stream, indent=2, allow_nan=False)
    stream.write("\n")


def _emit(rows: list[dict], columns: list[str], fmt: str, stream) -> None:
    if fmt == "json":
        _dump_json([{k: row.get(k) for k in columns} for row in rows], stream)
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(k) is None else repr(row[k])
                         if isinstance(row.get(k), float) else row.get(k)
                         for k in columns])


def _psi_columns(d: int) -> list[str]:
    cols = []
    for part in ("re", "im"):
        for i in range(d):
            for j in range(i, d):
                cols.append(f"psi_{part}_{i}{j}")
    return cols


def _exponent_row(k: int, t: float, phi: complex, psi: np.ndarray, **extra) -> dict:
    """Row with the u index, the time, phi and the upper triangle of psi."""
    row = {"u_index": k, "t": float(t), **extra,
           "phi_re": float(phi.real), "phi_im": float(phi.imag)}
    d = psi.shape[0]
    iu = np.triu_indices(d)
    row.update(zip(_psi_columns(d), map(float, np.concatenate([psi.real[iu], psi.imag[iu]]))))
    return row


def _transform_row(k: int, t: float, method: str, phi: complex, psi: np.ndarray,
                   x: np.ndarray) -> dict:
    value = np.exp(-phi - trace_inner(psi, x))
    return _exponent_row(k, t, phi, psi, method=method, status="ok", t_plus=None,
                         value_re=float(value.real), value_im=float(value.imag))


def _closed_exponents(spec, us, times):
    """(u index, t, phi, psi) of the closed form over the whole u-grid."""
    for k, u in enumerate(us):
        for t in times:
            yield k, t, closedform.mbajd_phi(spec, u, t), closedform.mbajd_psi(spec, u, t)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    params = load_params(args.params)
    report = validate_params(params, n_random_pairs=args.pairs, tol=args.tol)
    if args.out == "json":
        _dump_json(report.to_dict(), sys.stdout)
    else:
        for check in report.checks:
            status = "ok" if check.passed else "FAIL"
            print(f"{status:4s} {check.name:18s} value={check.value:.6g} "
                  f"threshold={check.threshold:.6g}  {check.detail}")
        print(f"alpha_class: {report.alpha_class.value}")
        for w in report.warnings:
            print(f"warning: {w}")
        print(f"pairs tested: {report.n_pairs_tested}")
        print("result: " + ("PASS" if report.ok else "FAIL"))
    return EXIT_OK if report.ok else EXIT_FAILURE


def _ode_rows(k, u, sol, times, x):
    rows = []
    for t in times:
        if t == 0.0:
            phi, psi = 0.0 + 0.0j, u
        elif sol is not None and (sol.completed or t <= sol.t_end):
            phi, psi = sol.eval(t)
        else:
            rows.append({"u_index": k, "t": float(t), "method": "ode",
                         "status": "blowup", "t_plus": float(sol.diagnostics.t_plus)})
            continue
        rows.append(_transform_row(k, t, "ode", phi, psi, x))
    return rows


def _transform_rows_ode(params, us, times, x):
    t_max = max(times) if times else 0.0
    per_u = [[] for _ in us]
    batches = (riccati.solve_batches(params, us, t_max) if t_max > 0
               else [(range(len(us)), [None] * len(us))])
    for idx, sols in batches:
        for k, sol in zip(idx, sols):
            per_u[k] = _ode_rows(k, us[k], sol, times, x)
        del sols  # keep the dense output of one batch at a time
    return [row for rows in per_u for row in rows]


_TRANSFORM_BASE_COLS = ["u_index", "t", "method", "status", "phi_re", "phi_im"]


def cmd_transform(args) -> int:
    params = load_params(args.params)
    us, times = load_ugrid(args.ugrid)
    if not times:
        raise ParamFileError(f"{args.ugrid}: $.times: at least one time is required")
    x = load_matrix_file(args.x) if args.x else np.zeros((params.d, params.d))
    _check_dims(params.d, us, x)

    method = args.method
    spec = closedform.MBAJDSpec.from_params(params)
    if method == "auto":
        method = "closed" if spec is not None else "ode"
    if method == "closed":
        if spec is None:
            print("error: method=closed requires gamma = 0, c = 0, empty mu, "
                  "a Lyapunov drift and b = 2 p alpha", file=sys.stderr)
            return EXIT_FAILURE
        rows = [_transform_row(k, t, "closed", phi, psi, x)
                for k, t, phi, psi in _closed_exponents(spec, us, times)]
    else:
        rows = _transform_rows_ode(params, us, times, x)

    columns = (_TRANSFORM_BASE_COLS + _psi_columns(params.d)
               + ["value_re", "value_im", "t_plus"])
    _emit(rows, columns, args.out, sys.stdout)
    return EXIT_OK


def _mc_inputs(args):
    """Parameters, u-grid, initial state and config of simulate and compare."""
    params = load_params(args.params)
    montecarlo._check_conservative(params)
    us, _ = load_ugrid(args.u)
    x = load_matrix_file(args.x) if args.x else np.eye(params.d)
    _check_dims(params.d, us, x)
    cfg = montecarlo.SimConfig(n_paths=args.paths, dt=args.dt, seed=args.seed,
                               antithetic=args.antithetic)
    return params, us, x, cfg


def cmd_simulate(args) -> int:
    params, us, x, cfg = _mc_inputs(args)
    rows = []
    for k, est in enumerate(montecarlo.estimate_transforms(params, us, x, args.T, cfg)):
        rows.append({"u_index": k, "t": args.T,
                     "mean_re": float(est.mean.real), "mean_im": float(est.mean.imag),
                     "stderr": float(est.stderr), "n_paths": est.n_paths,
                     "dt": float(est.dt), "n_steps": est.n_steps, "seed": args.seed})
    columns = ["u_index", "t", "mean_re", "mean_im", "stderr", "n_paths", "dt",
               "n_steps", "seed"]
    _emit(rows, columns, args.out, sys.stdout)
    return EXIT_OK


def cmd_compare(args) -> int:
    params, us, x, cfg = _mc_inputs(args)
    spec = closedform.MBAJDSpec.from_params(params)
    # every exact value before the one simulation, so that an ODE error ends
    # the command before any path is drawn
    exact = zip(riccati.transform_grid(params, us, x, args.T),
                [closedform.mbajd_transform(spec, u, x, args.T) if spec is not None else None
                 for u in us])
    estimates = montecarlo.estimate_transforms(params, us, x, args.T, cfg)
    rows = []
    failures = []
    for k, ((ode_val, closed_val), est) in enumerate(zip(exact, estimates)):
        mc_diff = abs(ode_val - est.mean)
        mc_bound = 3.0 * est.stderr + args.allowance
        row = {"u_index": k, "t": args.T,
               "ode_re": float(ode_val.real), "ode_im": float(ode_val.imag),
               "mc_re": float(est.mean.real), "mc_im": float(est.mean.imag),
               "mc_stderr": float(est.stderr), "mc_abs_diff": float(mc_diff),
               "mc_bound": float(mc_bound), "mc_pass": mc_diff <= mc_bound}
        if closed_val is not None:
            closed_diff = abs(ode_val - closed_val)
            row.update({"closed_re": float(closed_val.real),
                        "closed_im": float(closed_val.imag),
                        "closed_abs_diff": float(closed_diff),
                        "closed_pass": closed_diff <= args.closed_tol})
        else:
            row.update({"closed_re": None, "closed_im": None,
                        "closed_abs_diff": None, "closed_pass": None})
        rows.append(row)
        if not row["mc_pass"] or row["closed_pass"] is False:
            failures.append(row)
    columns = ["u_index", "t", "ode_re", "ode_im", "closed_re", "closed_im",
               "mc_re", "mc_im", "mc_stderr", "mc_abs_diff", "mc_bound",
               "closed_abs_diff", "mc_pass", "closed_pass"]
    _emit(rows, columns, args.out, sys.stdout)
    if failures:
        for row in failures:
            print(f"threshold breach at u_index={row['u_index']}: "
                  f"mc_abs_diff={row['mc_abs_diff']}, mc_bound={row['mc_bound']}, "
                  f"closed_abs_diff={row['closed_abs_diff']}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_mbajd(args) -> int:
    params = load_params(args.params)
    spec = closedform.MBAJDSpec.from_params(params)
    if spec is None:
        print("error: parameter set is not an MBAJD (need gamma = 0, c = 0, "
              "empty mu, Lyapunov drift and b = 2 p alpha)", file=sys.stderr)
        return EXIT_FAILURE
    us, times = load_ugrid(args.u)
    _check_dims(params.d, us)
    if args.T is not None:
        times = [args.T]
    if not times:
        raise ParamFileError(f"{args.u}: $.times: needed unless -T is given")
    rows = [_exponent_row(k, t, phi, psi, p=spec.p)
            for k, t, phi, psi in _closed_exponents(spec, us, times)]
    columns = ["u_index", "t", "p", "phi_re", "phi_im"] + _psi_columns(params.d)
    _emit(rows, columns, args.out, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type for float flags: inf and nan are malformed input."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdaffine",
        description="Affine processes on PSD matrices: admissibility checks, "
                    "Riccati transforms, closed forms and Monte Carlo")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a parameter file for admissibility")
    p.add_argument("params")
    p.add_argument("--pairs", type=int, default=64,
                   help="random boundary pairs besides the canonical ones")
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("transform", help="evaluate the transform exponents on a u-grid")
    p.add_argument("params")
    p.add_argument("ugrid")
    p.add_argument("--x", default=None, help="initial state file (default: zero matrix)")
    p.add_argument("--method", choices=("ode", "closed", "auto"), default="auto")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_transform)

    mc = argparse.ArgumentParser(add_help=False)  # flags of simulate and compare
    mc.add_argument("params")
    mc.add_argument("--u", required=True, help="u-grid file")
    mc.add_argument("--x", default=None, help="initial state file (default: identity)")
    mc.add_argument("-T", type=_finite_float, required=True)
    mc.add_argument("--paths", type=int, default=10000)
    mc.add_argument("--dt", type=_finite_float, default=2.0**-8)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--antithetic", action="store_true")
    mc.add_argument("--out", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", parents=[mc], help="Monte Carlo transform estimates")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", parents=[mc],
                       help="three-way check: ODE vs closed form vs MC")
    p.add_argument("--allowance", type=_finite_float, default=0.005,
                   help="discretization allowance added to 3 stderr")
    p.add_argument("--closed-tol", type=_finite_float, default=1e-6)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mbajd", help="closed-form phi, psi table")
    p.add_argument("params")
    p.add_argument("--u", required=True)
    p.add_argument("-T", type=_finite_float, default=None,
                   help="single time (otherwise the u-grid times are used)")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_mbajd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # overflow ends in an error line or a status column, not in numpy warnings;
    # a filter, unlike np.errstate, also reaches the simulation's worker threads
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return args.func(args)
        except ParamFileError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except (DomainError, riccati.BlowUpError, StepBudgetError,
                closedform.BranchTrackingError, closedform.QuadratureError,
                FloatingPointError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
