"""psdaffine benchmark: one run of one workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then drives the package as a
user does, through ``psdaffine.cli.main(argv)`` in a fresh interpreter
(``worker.py``), for as many whole rounds of commands as fit in S seconds.
Every output row is checked outside the timed region (``checks.py``).

--trace 0 prints the end-to-end metrics: rows_per_s, peak_rss_mb, setup_s.
--trace 1 runs the same rounds untraced and then traced in two fresh
interpreters and prints the per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give error_rate and the
environment. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# wall time of worker.calibrate() on the reference host: a command's wall
# time w, with the calibration loops right before and after it taking c on
# average, counts as w * CALIBRATION_REF_S / c reference seconds
CALIBRATION_REF_S = 0.05
SETUP_PROBES = 7
IMPORT_PROBES = 3
CHILD_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PSDAFFINE_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(argv, env, cwd):
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=False)


def measure_setup(env, cwd) -> float:
    """Median time from starting a fresh interpreter to psdaffine.cli imported."""
    probe = "import time, psdaffine.cli; print(time.monotonic())"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = _run([sys.executable, "-c", probe], env, cwd)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()) - t0)
    return statistics.median(times)


def measure_symcore_import(env, cwd) -> float:
    """Median cumulative import time of psdaffine.symcore (numpy and
    scipy.linalg included), from ``python -X importtime``."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import psdaffine.cli"],
                    env, cwd)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "psdaffine.symcore":
                times.append(int(parts[1]) * 1e-6)
    if not times:
        raise RuntimeError("psdaffine.symcore not in the import-time report")
    return statistics.median(times)


def run_worker(workdir, tag, warmup, rounds, seconds, max_rounds, trace, env):
    manifest = workdir / f"{tag}.manifest.json"
    out = workdir / f"{tag}.out.json"
    manifest.write_text(json.dumps({
        "warmup": [c.argv for c in warmup],
        "rounds": [[c.argv for c in r] for r in rounds],
        "seconds": seconds, "max_rounds": max_rounds, "trace": trace,
        "memory": rounds[max_rounds][0].argv if trace and max_rounds < len(rounds) else None,
        "spans": str(WORK / f"spans-{workdir.name}.json"),
    }))
    proc = _run([sys.executable, str(HERE / "worker.py"), str(manifest), str(out)],
                env, workdir)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def reference_outputs(workdir, rounds, done, env) -> dict:
    """stdout of the independent route for every command that names one,
    computed by two fresh interpreters in parallel; key (round, slot)."""
    import checks
    jobs = [((i, j), checks.reference_argv(c.argv, c.extra["reference"]))
            for i, r in enumerate(rounds[:done]) for j, c in enumerate(r)
            if c.extra.get("reference")]
    if not jobs:
        return {}
    parts = [jobs[k::2] for k in range(2)]
    procs = []
    try:
        for k, part in enumerate(parts):
            if not part:
                continue
            jf, of = workdir / f"ref{k}.jobs.json", workdir / f"ref{k}.out.json"
            jf.write_text(json.dumps([argv for _, argv in part]))
            procs.append((part, of, subprocess.Popen(
                [sys.executable, str(HERE / "checks.py"), str(jf), str(of)],
                env=env, cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True)))
        refs = {}
        for part, of, proc in procs:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                raise RuntimeError(f"reference run failed: {err[-2000:]}")
            for (key, _), stdout in zip(part, json.loads(of.read_text())):
                refs[key] = stdout
        return refs
    finally:
        for _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def check_rounds(rounds, result, refs):
    """(attempted, failed, ok rows per round) over the rounds the worker ran."""
    import checks
    attempted = failed = 0
    ok_rows = []
    for i, (cmds, runs) in enumerate(zip(rounds, result["rounds"])):
        ok = 0
        for j, (cmd, res) in enumerate(zip(cmds, runs)):
            bad = checks.count_failed(asdict(cmd), res, refs.get((i, j)))
            attempted += cmd.rows
            failed += bad
            ok += cmd.rows - bad
        ok_rows.append(ok)
    return attempted, failed, ok_rows


def round_time(result, scaled) -> float:
    """One round's time: the sum over its command slots of each slot's
    mean over the run's rounds, in reference seconds if ``scaled``."""
    def t(c):
        return c["wall"] * CALIBRATION_REF_S / c["cal"] if scaled else c["wall"]
    return sum(statistics.mean(t(c) for c in slot)
               for slot in zip(*result["rounds"]))


def timed_wall(result) -> float:
    return sum(c["wall"] for r in result["rounds"] for c in r)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "psdaffine" / "cli.py").is_file():
        print(f"error: no psdaffine sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    import numpy
    import scipy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        env = child_env(wl.threads)
        warmup = wl.warmup()
        # enough rounds for any plausible speed-up; the worker stops on time
        rounds = [wl.round(i) for i in range(int(args.seconds) + 4)]

        metrics = {}
        if args.trace == 0:
            setup_s = measure_setup(env, workdir)
            result = run_worker(workdir, "timed", warmup, rounds, args.seconds, None,
                                False, env)
        else:
            result = run_worker(workdir, "timed", warmup, rounds, args.seconds, None,
                                False, env)
            traced = run_worker(workdir, "traced", warmup, rounds, args.seconds,
                                len(result["rounds"]), True, env)
            for name, (value, unit) in traced["trace"]["metrics"].items():
                metrics[name] = {"value": value, "unit": unit}
            metrics["symcore.import_s"] = {"value": measure_symcore_import(env, workdir),
                                           "unit": "s"}
            metrics["trace.overhead"] = {"value": timed_wall(traced) / timed_wall(result),
                                         "unit": "ratio"}
            for hook in traced["trace"]["missing_hooks"]:
                print(f"# trace: hook target missing: {hook}")
            for name in traced["trace"]["missing_metrics"]:
                print(f"# trace: metric missing: {name}")

        done = len(result["rounds"])
        refs = reference_outputs(workdir, rounds, done, env)
        attempted, failed, ok_rows = check_rounds(rounds, result, refs)
        wall = timed_wall(result)
        if args.trace == 0:
            metrics = {
                "rows_per_s": {"value": statistics.mean(ok_rows)
                               / round_time(result, wl.calibrated),
                               "unit": "rows/s"},
                "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in result["warmup_failed"]:
        print(f"# warm-up command failed: {err.strip()[-300:]}")
    print(f"# {args.workload} seed={args.seed}: {done} rounds, {attempted} rows in "
          f"{wall:.3f} s timed; error_rate={failed / attempted:.6f} (fraction)")
    print("# round walls (s): " + " ".join(
        f"{sum(c['wall'] for c in runs):.3f}" for runs in result["rounds"]))
    print(f"# unscaled: {statistics.mean(ok_rows) / round_time(result, False):.4f} rows/s; "
          f"scaled: {statistics.mean(ok_rows) / round_time(result, True):.4f} rows/s; "
          f"rows_per_s is the {'scaled' if wl.calibrated else 'unscaled'} rate; "
          f"calibration median {statistics.median(c['cal'] for r in result['rounds'] for c in r):.4f} s "
          f"(reference {CALIBRATION_REF_S} s)")
    print("# env: " + json.dumps({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "PSDAFFINE_THREADS": wl.threads, **{v: "1" for v in THREAD_VARS}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
