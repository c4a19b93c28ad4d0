"""The per-layer benchmark (perfbench/tracing.py) hooks package functions by
name; a refactor that renames or drops one, or stops calling it, would
silently drop its traced metrics. These tests only read perfbench/."""

import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    # tracer replacing these module attributes, as done here
    import psdaffine.montecarlo as mc
    from psdaffine import AffineParams, LyapunovDrift, SimConfig

    shapes = {"_sqrt_psd_batch": [], "_project_psd_batch": []}
    for name, seen in shapes.items():
        def hooked(x, kernel=getattr(mc, name), seen=seen):
            seen.append(x.shape)
            return kernel(x)
        monkeypatch.setattr(mc, name, hooked)
    monkeypatch.setenv("PSDAFFINE_THREADS", "1")
    monkeypatch.setattr(mc, "_BLOCK_PATHS", 25)  # 26 + 10 paths
    params = AffineParams(d=3, alpha=np.eye(3), b=3 * np.eye(3),
                          drift=LyapunovDrift(beta=-0.5 * np.eye(3)))
    stats = mc.simulate_paths(params, np.eye(3), 0.2, SimConfig(n_paths=36, dt=0.01, seed=1))
    assert stats.n_steps == 20
    assert shapes["_project_psd_batch"] == [(26, 3, 3)] * 20 + [(10, 3, 3)] * 20
    assert shapes["_sqrt_psd_batch"] == [(3, 3)] * 2
