"""Output checks behind ``failed`` / ``attempted``, run outside the timed region.

* ``transform`` rows: status ``ok``, finite, ``|value| <= 1 + 1e-10``; where
  the command names a reference route (the closed form for an MBAJD-shaped
  set on the ODE route, the ODE for the closed-grid), value and phi must
  match that route within ``1e-6``.
* ``compare`` rows: finite, ``|ode| <= 1 + 1e-10``, ``mc_pass`` set, and
  ``|ode - mc| <= 3 stderr + allowance`` recomputed here with the
  workload's fixed allowance.

A command that raises, exits non-zero or prints unparsable output fails all
of its rows; so do rows it should have printed and did not.

Usage as a script: python checks.py JOBS OUT -- runs the reference route of
each job (a CLI argv) in this fresh interpreter and writes the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

TOL_UNIT = 1e-10    # |value| of a Fourier-Laplace transform is at most 1
TOL_ROUTE = 1e-6    # agreement between two independent routes


def reference_argv(argv: list[str], method: str) -> list[str]:
    """The same transform command on the other route."""
    out = list(argv)
    out[out.index("--method") + 1] = method
    return out


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def transform_row_ok(row: dict, ref: dict | None) -> bool:
    if row.get("status") != "ok":
        return False
    vr, vi, pr, pi = (row.get(k) for k in ("value_re", "value_im", "phi_re", "phi_im"))
    if not _finite(vr, vi, pr, pi) or math.hypot(vr, vi) > 1.0 + TOL_UNIT:
        return False
    if ref is None:
        return True
    if ref.get("status") != "ok" or not _finite(ref.get("value_re"), ref.get("value_im"),
                                               ref.get("phi_re"), ref.get("phi_im")):
        return False
    dv = abs(complex(vr, vi) - complex(ref["value_re"], ref["value_im"]))
    ref_phi = complex(ref["phi_re"], ref["phi_im"])
    dphi = abs(complex(pr, pi) - ref_phi)
    return dv <= TOL_ROUTE and dphi <= TOL_ROUTE * max(1.0, abs(ref_phi))


def compare_row_ok(row: dict, allowance: float) -> bool:
    keys = ("ode_re", "ode_im", "mc_re", "mc_im", "mc_stderr")
    if not _finite(*(row.get(k) for k in keys)):
        return False
    ode = complex(row["ode_re"], row["ode_im"])
    mc = complex(row["mc_re"], row["mc_im"])
    if abs(ode) > 1.0 + TOL_UNIT or row["mc_stderr"] < 0:
        return False
    if row.get("mc_pass") is not True or row.get("closed_pass") is False:
        return False
    return abs(ode - mc) <= 3.0 * row["mc_stderr"] + allowance


def _parse(stdout: str):
    try:
        rows = json.loads(stdout)
    except ValueError:
        return None
    return rows if isinstance(rows, list) and all(isinstance(r, dict) for r in rows) else None


def _key(row):
    return (row.get("u_index"), row.get("t"))


def count_failed(cmd: dict, result: dict, ref_stdout: str | None = None) -> int:
    """Failed rows of one command; ``cmd`` is a workloads.Command as a dict,
    ``result`` the worker's record of its run."""
    expected = cmd["rows"]
    if result["rc"] != 0:
        return expected
    rows = _parse(result["stdout"])
    if rows is None:
        return expected
    if cmd["check"] == "compare":
        allowance = cmd["extra"]["allowance"]
        good = sum(compare_row_ok(r, allowance) for r in rows)
    else:
        refs = None
        if cmd["extra"].get("reference"):
            ref_rows = _parse(ref_stdout or "")
            if ref_rows is None:
                return expected
            refs = {_key(r): r for r in ref_rows}
        seen = set()
        good = 0
        for r in rows:
            if _key(r) in seen:
                continue
            seen.add(_key(r))
            ref = None if refs is None else refs.get(_key(r), {})
            good += transform_row_ok(r, ref)
    return expected - min(good, expected)


def run_cli(argv: list[str]) -> str | None:
    """stdout of ``psdaffine.cli.main(argv)``, or None if it fails."""
    import psdaffine.cli as cli
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception:  # the check fails the command's rows instead
        return None
    return out.getvalue() if rc == 0 else None


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        jobs = json.load(fh)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump([run_cli(argv) for argv in jobs], fh)
