"""Command line surface: validate, transform, simulate, compare, mbajd.

Exit codes are a stable contract: 0 success, 1 domain or threshold failure,
2 malformed input. Every command is deterministic given its full flag set;
``--seed`` is the only entropy source. The JSON parameter schema and the
CSV column layouts are documented in the README.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii

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
from .symcore import DomainError, check_u, check_x, trace_inner

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
    "im" may be omitted; times nonnegative ascending; :func:`_check_inputs` checks each u."""
    obj = _load_json(path)
    entries = _require(obj, "u", "$")
    if not isinstance(entries, list):
        raise ParamFileError("$.u: expected an array")
    us = []
    for k, entry in enumerate(entries):
        re = _matrix(_require(entry, "re", f"$.u[{k}]"), f"$.u[{k}].re")
        im = _matrix(entry["im"], f"$.u[{k}].im", re.shape[0]) if "im" in entry else 0.0
        us.append(re + 1j * im)
    times = obj.get("times", [])
    if not isinstance(times, list):
        raise ParamFileError("$.times: expected an array")
    times = [_number(t, f"$.times[{i}]") for i, t in enumerate(times)]
    if any(t < 0 for t in times) or any(times[i] > times[i + 1] for i in range(len(times) - 1)):
        raise ParamFileError("$.times: must be nonnegative and ascending")
    return us, times


def _check_inputs(d: int, us: list[np.ndarray], x: np.ndarray | None = None) -> None:
    """The initial state, if given, and every u-grid entry must pass the
    symcore rules of dimension d; a failure is malformed input at its field."""
    checks = [("--x", check_x, x)] if x is not None else []
    checks += [(f"$.u[{k}]", check_u, u) for k, u in enumerate(us)]
    for field, check, value in checks:
        try:
            check(value, d)
        except DomainError as exc:
            raise ParamFileError(f"{field}: {exc}") from exc


def load_matrix_file(path: str) -> np.ndarray:
    """A single matrix: either a bare nested array or {"x": [[..]]}."""
    obj = _load_json(path)
    if isinstance(obj, dict):
        obj = _require(obj, "x", "$")
    return _matrix(obj, "$")


# ---------------------------------------------------------------------------
# Row output
# ---------------------------------------------------------------------------


# json.dumps's text of each exact scalar type, in json's order of type tests;
# non-finite floats become null, as NaN and Infinity are not JSON
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: lambda value: float.__repr__(value) if math.isfinite(value) else "null",
}


def _json_scalar(value) -> str:
    """A scalar as json.dumps writes it, by the first type in json's order
    that it is an instance of (numpy.float64 is one of float)."""
    encode = next((f for base, f in _JSON_SCALARS.items() if isinstance(value, base)), None)
    if encode is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return encode(value)


@functools.lru_cache(maxsize=64)
def _json_keys(keys: tuple, indent: str) -> tuple[str, ...]:
    """The text of each (string) key of a dict at the given indent, up to
    its value: every row of a table has the same keys."""
    return tuple(f"{indent}{encode_basestring_ascii(k)}: " for k in keys)


def _json_text(value, indent: str = "") -> str:
    """value as json.dumps(value, indent=2) writes it at the given indent,
    with null for every non-finite float, so the text is strict JSON."""
    inner, get = indent + "  ", _JSON_SCALARS.get
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [key + (enc(v) if (enc := get(type(v))) else _json_text(v, inner))
                 for key, v in zip(_json_keys(tuple(value), inner), value.values())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [inner + (enc(v) if (enc := get(type(v))) else _json_text(v, inner))
                 for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return _json_scalar(value)


def _dump_json(obj, stream) -> None:
    """The one JSON writer of the CLI: the text json.dump(obj, stream, indent=2)
    writes, with null for non-finite floats, and a newline."""
    stream.write(_json_text(obj) + "\n")


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


@functools.cache
def _psi_layout(d: int) -> tuple[tuple[str, ...], tuple[np.ndarray, np.ndarray]]:
    """The psi column names of dimension d, real parts then imaginary ones,
    and the upper-triangle indices np.triu_indices(d) they name in order."""
    iu = np.triu_indices(d)
    return tuple(f"psi_{part}_{i}{j}" for part in ("re", "im") for i, j in zip(*iu)), iu


def _exponent_row(k: int, t: float, phi: complex, psi: np.ndarray, **extra) -> dict:
    """Row with the u index, the time, phi and the upper triangle of psi."""
    row = {"u_index": k, "t": float(t), **extra,
           "phi_re": float(phi.real), "phi_im": float(phi.imag)}
    names, iu = _psi_layout(psi.shape[0])
    row.update(zip(names, np.concatenate([psi.real[iu], psi.imag[iu]]).tolist()))
    return row


def _transform_row(k: int, t: float, method: str, phi: complex, psi: np.ndarray,
                   x: np.ndarray) -> dict:
    value = np.exp(-phi - trace_inner(psi, x))
    return _exponent_row(k, t, phi, psi, method=method, status="ok", t_plus=None,
                         value_re=float(value.real), value_im=float(value.imag))


def _closed_exponents(spec, us, times):
    """(u index, t, phi, psi) of the closed form over the whole u-grid, from one grid call."""
    phi, psi = closedform.mbajd_grid(spec, us, times)
    for k in range(len(us)):
        for j, t in enumerate(times):
            yield k, t, phi[k, j], psi[k, j]


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
    sols = (riccati.solve_grid(params, us, t_max, times=times) if t_max > 0
            else [None] * len(us))
    return [row for k, (u, sol) in enumerate(zip(us, sols))
            for row in _ode_rows(k, u, sol, times, x)]


_TRANSFORM_BASE_COLS = ["u_index", "t", "method", "status", "phi_re", "phi_im"]


def cmd_transform(args) -> int:
    params = load_params(args.params)
    us, times = load_ugrid(args.ugrid)
    if not times:
        raise ParamFileError(f"{args.ugrid}: $.times: at least one time is required")
    x = load_matrix_file(args.x) if args.x else np.zeros((params.d, params.d))
    _check_inputs(params.d, us, x)

    method = args.method
    spec = closedform.MBAJDSpec.from_params(params)
    if method == "auto":
        method = "closed" if spec is not None else "ode"
    if method == "closed":
        if spec is None:
            print(f"error: method=closed requires an MBAJD ({closedform.MBAJDSpec.SHAPE})",
                  file=sys.stderr)
            return EXIT_FAILURE
        rows = [_transform_row(k, t, "closed", phi, psi, x)
                for k, t, phi, psi in _closed_exponents(spec, us, times)]
    else:
        rows = _transform_rows_ode(params, us, times, x)

    columns = [*_TRANSFORM_BASE_COLS, *_psi_layout(params.d)[0], "value_re", "value_im", "t_plus"]
    _emit(rows, columns, args.out, sys.stdout)
    return EXIT_OK


def _mc_inputs(args):
    """Parameters, u-grid, initial state and config of simulate and compare."""
    params = load_params(args.params)
    montecarlo._check_conservative(params)
    us, _ = load_ugrid(args.u)
    x = load_matrix_file(args.x) if args.x else np.eye(params.d)
    _check_inputs(params.d, us, x)
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
    ode = riccati.transform_grid(params, us, x, args.T)
    closed = [None] * len(us)
    if spec is not None:
        closed = [complex(np.exp(-phi - trace_inner(psi, x)))
                  for _, _, phi, psi in _closed_exponents(spec, us, [args.T])]
    exact = zip(ode, closed)
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
        print(f"error: parameter set is not an MBAJD (need {closedform.MBAJDSpec.SHAPE})",
              file=sys.stderr)
        return EXIT_FAILURE
    us, times = load_ugrid(args.u)
    _check_inputs(params.d, us)
    if args.T is not None:
        times = [args.T]
    if not times:
        raise ParamFileError(f"{args.u}: $.times: needed unless -T is given")
    rows = [_exponent_row(k, t, phi, psi, p=spec.p)
            for k, t, phi, psi in _closed_exponents(spec, us, times)]
    columns = ["u_index", "t", "p", "phi_re", "phi_im", *_psi_layout(params.d)[0]]
    _emit(rows, columns, args.out, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _flag_type(parse, ok, expected: str):
    """An argparse type: text that parse rejects, or whose value fails ok, is
    malformed input. parse may itself be such a type, whose message wins."""
    def convert(text: str):
        try:
            val = parse(text)
        except ValueError:
            val = None
        if val is None or not ok(val):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return val
    return convert


_finite_float = _flag_type(float, math.isfinite, "a finite number")
_positive_float = _flag_type(_finite_float, lambda v: v > 0, "a positive number")
_non_negative_float = _flag_type(_finite_float, lambda v: v >= 0, "a non-negative number")
_non_negative_int = _flag_type(int, lambda n: n >= 0, "a non-negative integer")
_positive_int = _flag_type(int, lambda n: n >= 1, "a positive integer")
_seed = _flag_type(int, lambda n: 0 <= n < 2 ** 64, "a seed in [0, 2^64)")
# random boundary pairs validate may test: about 5 s and 80 MB at the bound,
# growing by about 50 us and 0.4 KB per pair on a 2-core x86-64 host
_MAX_PAIRS = 100_000
_pair_count = _flag_type(_non_negative_int, lambda n: n <= _MAX_PAIRS,
                         f"at most {_MAX_PAIRS} pairs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdaffine",
        description="Affine processes on PSD matrices: admissibility checks, "
                    "Riccati transforms, closed forms and Monte Carlo")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a parameter file for admissibility")
    p.add_argument("params")
    p.add_argument("--pairs", type=_pair_count, default=64,
                   help="random boundary pairs besides the canonical ones")
    p.add_argument("--tol", type=_non_negative_float, default=1e-9)
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
    mc.add_argument("-T", type=_positive_float, required=True)
    mc.add_argument("--paths", type=_positive_int, default=10000)
    mc.add_argument("--dt", type=_positive_float, default=2.0**-8)
    mc.add_argument("--seed", type=_seed, default=0)
    mc.add_argument("--antithetic", action="store_true")
    mc.add_argument("--out", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", parents=[mc], help="Monte Carlo transform estimates")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", parents=[mc],
                       help="three-way check: ODE vs closed form vs MC")
    p.add_argument("--allowance", type=_non_negative_float, default=0.005,
                   help="discretization allowance added to 3 stderr")
    p.add_argument("--closed-tol", type=_non_negative_float, default=1e-6)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mbajd", help="closed-form phi, psi table")
    p.add_argument("params")
    p.add_argument("--u", required=True)
    p.add_argument("-T", type=_non_negative_float, default=None,
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
                closedform.QuadratureError, FloatingPointError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
