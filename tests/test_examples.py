"""Every ``repro`` name an example script imports must exist.

The examples are not run by the test suite (each takes minutes), so a
deletion in ``src/`` could break one silently.  This resolves each
``from repro... import name`` and ``import repro...`` statement in
``examples/*.py`` against the package without running the script.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` per imported ``repro`` name; name is None for
    a plain ``import repro.x``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "repro":
                out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
    return out


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    missing = []
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module_name}.{name}")
    assert not missing, f"{path.name} imports missing names: {missing}"
