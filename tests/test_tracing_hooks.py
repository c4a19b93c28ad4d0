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
    # tracer replacing these module attributes, as done here. The d = 3 cone
    # step hands the projection kernel only the states the closed form does
    # not certify, one call per block and step that has any; every state
    # outside the cone is among them
    import psdaffine.montecarlo as mc
    from psdaffine import AffineParams, LyapunovDrift, SimConfig

    shapes = {"_sqrt_psd_batch": [], "_project_psd_batch": []}
    projected, stepped = [], []
    for name, seen in shapes.items():
        def hooked(x, kernel=getattr(mc, name), seen=seen):
            seen.append(x.shape)
            if x.ndim == 3:
                projected.extend(map(bytes, x))
            return kernel(x)
        monkeypatch.setattr(mc, name, hooked)

    def sqrt3(x, kernel=mc._sqrt3):
        stepped.append(x.transpose(2, 0, 1).copy())
        return kernel(x)
    monkeypatch.setattr(mc, "_sqrt3", sqrt3)
    monkeypatch.setenv("PSDAFFINE_THREADS", "1")
    monkeypatch.setattr(mc, "_BLOCK_PATHS", 25)  # 26 + 10 paths
    params = AffineParams(d=3, alpha=np.eye(3), b=3 * np.eye(3),
                          drift=LyapunovDrift(beta=-0.5 * np.eye(3)))
    stats = mc.simulate_paths(params, np.eye(3), 0.2, SimConfig(n_paths=36, dt=0.01, seed=1))
    assert stats.n_steps == 20
    assert [len(x) for x in stepped] == [26] * 20 + [10] * 20
    assert shapes["_sqrt_psd_batch"] == [(3, 3)] * 2
    calls = shapes["_project_psd_batch"]
    assert 0 < len(calls) <= 40 and all(len(s) == 3 and s[1:] == (3, 3) for s in calls)
    states = np.concatenate(stepped)
    outside = states[np.linalg.eigvalsh(states)[:, 0] < 0.0]
    assert len(outside) and set(map(bytes, outside)) <= set(projected)
    assert len(projected) < len(states) // 2  # most states are certified
