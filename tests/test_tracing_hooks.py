"""The per-layer benchmark (perfbench/tracing.py) hooks package functions by
name; a refactor that renames or drops one would silently drop its traced
metrics. These tests only read perfbench/."""

import importlib
import inspect
import re
from pathlib import Path

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
