"""The per-layer benchmark (perfbench/tracing.py) hooks package functions by
name; a refactor that renames or drops one, or stops calling it, would
silently drop its traced metrics. These tests only read perfbench/."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _hook_targets():
    """Every "psdaffine.<module>:<attr>" literal in tracing.py."""
    return sorted(set(re.findall(r'"(psdaffine(?:\.\w+)*:[\w.]+)"', TRACING.read_text())))


def test_tracing_names_hook_targets():
    assert len(_hook_targets()) >= 20  # the pattern still finds the hook table


@pytest.mark.parametrize("target", _hook_targets())
def test_tracing_hook_target_resolves(target):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_block_binds_paths_and_n_steps():
    # traced_block counts path-steps from these two arguments, bound by name
    from psdaffine.montecarlo import _simulate_block
    params = inspect.signature(_simulate_block).parameters
    assert "paths" in params and "n_steps" in params


def test_d3_simulation_calls_the_hooked_cone_kernels(monkeypatch):
    # montecarlo.sqrt_s, project_s and project_active_frac come from the
    # tracer replacing these module attributes, as done here. The d = 3 cone
    # step hands the projection kernel only the states its closed form
    # leaves (symcore._cone3), one call per block and step that has any; a
    # strong mean reversion at a long step leaves some
    import psdaffine.montecarlo as mc
    from psdaffine import AffineParams, LyapunovDrift, SimConfig

    shapes = {"_sqrt_psd_batch": [], "_project_psd_batch": []}
    projected, left, lanes = [], [], []
    for name, seen in shapes.items():
        def hooked(x, kernel=getattr(mc, name), seen=seen):
            seen.append(x.shape)
            if x.ndim == 3:
                projected.append(x.copy())
            return kernel(x)
        monkeypatch.setattr(mc, name, hooked)

    def cone3(x, kernel=mc._cone3):
        out = kernel(x)
        lanes.append(x.shape[-1])
        left.append(x[..., out[2]].transpose(2, 0, 1).copy())
        return out
    monkeypatch.setattr(mc, "_cone3", cone3)
    monkeypatch.setenv("PSDAFFINE_THREADS", "1")
    monkeypatch.setattr(mc, "_BLOCK_PATHS", 25)  # 26 + 10 paths
    params = AffineParams(d=3, alpha=np.eye(3), b=3 * np.eye(3),
                          drift=LyapunovDrift(beta=-5.0 * np.eye(3)))
    stats = mc.simulate_paths(params, np.eye(3), 1.0, SimConfig(n_paths=36, dt=0.05, seed=1))
    assert stats.n_steps == 20
    assert lanes == [26] * 20 + [10] * 20
    assert shapes["_sqrt_psd_batch"] == [(3, 3)] * 2
    assert all(len(s) == 3 and s[1:] == (3, 3) for s in shapes["_project_psd_batch"])
    rest = [states for states in left if len(states)]
    assert 0 < len(rest) < 40 and len(projected) == len(rest)
    assert all(np.array_equal(p, r) for p, r in zip(projected, rest))


TRACED_RUN = """
import contextlib, io, json, sys
import tracing
tracer = tracing.Tracer()
import psdaffine.cli as cli
tracing.install(tracer)
params, ugrid = sys.argv[1:]
argvs = [["transform", params, ugrid, "--method", "ode"],
         ["compare", params, "--u", ugrid, "-T", "0.5", "--paths", "200", "--dt", "0.0625",
          "--allowance", "1"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
metrics, missing = tracing.metrics(tracer, 1.0, len(argvs))
print(json.dumps({"codes": codes, "missing": missing,
                  "metrics": {k: v[0] for k, v in metrics.items()}}))
"""


def test_traced_ode_commands_reach_the_integrator_and_the_writer(tmp_path):
    # the tracer wraps the right-hand side as rhs(t, y) and counts the steps
    # of what integrate returns: an ODE transform and a compare under it must
    # exit 0 and show nonzero steps and emit time, not fail inside the hooks
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "version": 1, "d": 2, "alpha": [[1.0, 0.0], [0.0, 1.0]], "b": [[2.0, 0.0], [0.0, 2.0]],
        "drift": {"type": "lyapunov", "beta": [[-0.5, 0.0], [0.0, -0.5]]}, "c": 0.0,
        "gamma": [[0.0, 0.0], [0.0, 0.0]],
        "m": {"atoms": [{"xi": [[1.0, 0.0], [0.0, 1.0]], "weight": 0.5}]},
        "mu": {"atoms": []}}))
    ugrid = tmp_path / "ugrid.json"
    ugrid.write_text(json.dumps({"u": [{"re": [[1.0, 0.0], [0.0, 1.0]]},
                                       {"re": [[0.0, 0.0], [0.0, 0.0]],
                                        "im": [[0.5, 0.0], [0.0, 0.5]]}],
                                 "times": [0.0, 0.25, 0.5]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(params), str(ugrid)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0] and out["missing"] == []
    assert out["metrics"]["dopri5.steps_accepted"] > 0
    assert out["metrics"]["cli.emit_s"] > 0
    assert out["metrics"]["trace.missing_hooks"] == 0
