"""The README names only what the package has, and states its numerics as they are."""

import ast
import re
from pathlib import Path

import psdaffine
from psdaffine import _dopri5

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_only_existing_functions():
    # each python block is parsed, never run: the quick start simulates 50,000 paths
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    trees = [ast.parse(block) for block in blocks]
    aliases = {alias.asname or alias.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "psdaffine"}
    names = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in aliases}
    assert aliases and names
    assert sorted(n for n in names if not hasattr(psdaffine, n)) == []


def test_readme_states_the_integrator_tolerances():
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.findall(r"relative tolerance `([^`]+)`, absolute tolerance `([^`]+)`", text)
    assert [(float(r), float(a)) for r, a in found] == [(_dopri5.RTOL, _dopri5.ATOL)]
