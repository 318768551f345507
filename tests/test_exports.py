import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sigmacell

# __main__ runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(sigmacell.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"sigmacell.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_exist():
    tree = ast.parse(Path(sigmacell.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, alias in imports:
        assert hasattr(importlib.import_module(f"sigmacell.{module}"), alias.name), f"{module}.{alias.name}"
        assert hasattr(sigmacell, alias.asname or alias.name), alias.name


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports sigmacell from this checkout."""
    path = os.pathsep.join(filter(None, (str(Path(sigmacell.__file__).parents[1]), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_package_and_cli_import_without_scipy():
    code = "import sys, sigmacell, sigmacell.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# a sys.meta_path finder that refuses scipy, as if it were not installed
BLOCK_SCIPY = """
import importlib, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, BlockScipy())
for name in sys.argv[1:]:
    importlib.import_module(f"sigmacell.{name}")
"""


def test_every_module_imports_with_scipy_blocked():
    out = _python(BLOCK_SCIPY, *MODULES)
    assert out.returncode == 0, out.stderr
