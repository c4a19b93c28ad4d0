"""Child interpreter of one benchmark run.

Usage: python worker.py MANIFEST OUT

Imports ``psdaffine.cli`` (found through PYTHONPATH), runs the warm-up
commands, then runs whole rounds of timed commands through
``psdaffine.cli.main(argv)`` while the next round would still end within
``seconds`` (at least one round), or exactly ``max_rounds`` rounds, and writes every command's exit code,
output and wall time to OUT as JSON, with the interpreter's peak resident
memory. Right before and right after each command it times a fixed
calibration loop, so that the command's wall time can be scaled to a
reference host speed. With ``trace`` set, the package is hooked before the warm-up (see
``tracing.py``) and the per-layer metrics go to OUT too; a workload that
simulates paths then runs one more command, untimed, under tracemalloc for
the peak traced memory of a simulation.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import numpy as np

CALIBRATION_LOOPS = 3000


def calibrate():
    """Wall time of a fixed loop of small NumPy calls made from Python, the
    mix the package's hot paths are made of. It runs no psdaffine code, so
    no change to the package moves it; it measures the host's speed."""
    a, eye = 0.5 * np.eye(3), np.eye(3)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        float(np.trace(a @ a + np.linalg.inv(a + eye)))
    return time.perf_counter() - t0


def _run(cli_main, argv, tracer):
    cal_before = calibrate()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.call("cli.main", "cli", cli_main, (argv,), {})
    except SystemExit as exc:  # argparse rejects malformed flags this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a command that raises fails all of its rows
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    cal = (cal_before + calibrate()) / 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "wall": wall, "cal": cal}


def main(manifest_path, out_path):
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if manifest["trace"]:
        import tracing
        tracer = tracing.Tracer()
    import psdaffine.cli as cli
    if tracer is not None:
        tracing.install(tracer)

    warm = [_run(cli.main, argv, tracer) for argv in manifest["warmup"]]
    if tracer is not None:
        tracer.reset()

    rounds = []
    start = time.perf_counter()
    for argvs in manifest["rounds"]:
        if manifest["max_rounds"] is not None and len(rounds) >= manifest["max_rounds"]:
            break
        # stop before a round that would, at the mean pace so far, end
        # past the time budget
        elapsed = time.perf_counter() - start
        if manifest["max_rounds"] is None and rounds and \
                elapsed * (len(rounds) + 1) / len(rounds) > manifest["seconds"]:
            break
        rounds.append([_run(cli.main, argv, tracer) for argv in argvs])

    result = {
        "warmup_failed": [w["stderr"] for w in warm if w["rc"] != 0],
        "rounds": rounds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        wall = sum(c["wall"] for r in rounds for c in r)
        layer, missing = tracing.metrics(tracer, wall, sum(len(r) for r in rounds))
        if "montecarlo.simulate" in tracer.stats and manifest["memory"]:
            # memory pass: one more command, never timed, under tracemalloc
            tracer.track_memory = True
            _run(cli.main, manifest["memory"], None)
            layer["montecarlo.peak_traced_mb"] = (
                tracer.maxima["montecarlo.peak_traced_bytes"] / 2**20, "MB")
        result["trace"] = {"metrics": layer, "missing_metrics": missing,
                           "missing_hooks": tracer.missing}
        tracer.write_spans(manifest["spans"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
