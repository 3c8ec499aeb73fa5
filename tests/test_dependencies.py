"""The package runs on the standard library alone: `dependencies = []`; the
CLI loads only the part of it that the commands run."""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slab_harmonics"


def test_pyproject_declares_no_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a package-relative one
                continue
            outside += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside


def test_the_cli_imports_only_the_standard_library_it_runs():
    # -S: a site-packages .pth file may import some of these modules itself
    code = "import slab_harmonics.cli, sys; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(proc.stdout.split())
    unused = {"dataclasses", "inspect", "typing", "pathlib", "random", "contextlib",
              "slab_harmonics.randgen"}
    assert not loaded & unused
    # bench/tracer.py reads these from sys.modules right after importing the cli
    traced = {"cli", "poly", "laplace", "slab", "diffeq", "complex_oracle"}
    assert {f"slab_harmonics.{name}" for name in traced} <= loaded
